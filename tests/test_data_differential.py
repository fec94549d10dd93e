"""The §4.2 build's fast paths against the numpy calls they replace.

Column profiles read min, max and percentiles off one sort, normal scores
rank exact int16 keys with a radix sort, and the nominal fit counts
categories. Each must equal, value for value, the plain numpy spelling
kept here as the reference: ``np.min``/``np.max``/``np.percentile``, a
float64 stable argsort, and ``np.unique`` plus ``searchsorted``. A numpy
release whose ``percentile`` arithmetic differs fails here first.

Values compare with ``np.testing.assert_array_equal``: NaN equals NaN and
``-0.0`` equals ``0.0`` (where equal keys land in a partition or a sort is
unspecified, so neither spelling fixes the sign of a zero it returns).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.data.schema import profile_column
from repro.data.stats import NominalInverseCdf, normal_scores

INF, NAN = float("inf"), float("nan")

#: Few distinct values (ties) mixed with arbitrary ones.
int_columns = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-(2**53), 2**53)),
    min_size=1,
    max_size=200,
).map(lambda values: np.array(values, dtype=np.int64))
float_columns = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, -7.0, INF, -INF, NAN]),
        st.floats(-1e9, 1e9),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    min_size=1,
    max_size=200,
).map(lambda values: np.array(values, dtype=np.float64))


def reference_profile(values):
    return (
        np.min(values),
        np.max(values),
        np.std(values),
        np.percentile(values, np.arange(101)),
    )


class TestProfileColumn:
    @hyp_settings(max_examples=300, deadline=None)
    @given(st.one_of(int_columns, float_columns))
    @example(np.array([7], dtype=np.int64))
    @example(np.array([-2.5]))
    @example(np.array([NAN]))
    @example(np.array([INF, INF, -INF]))
    @example(np.array([1.0, NAN, INF, 1.0]))
    def test_equals_numpy_min_max_std_percentile(self, values):
        with np.errstate(invalid="ignore", over="ignore"):
            low, high, std, quantiles = reference_profile(values)
            profile = profile_column("v", values)
        np.testing.assert_array_equal(
            [profile.minimum, profile.maximum, profile.std], [low, high, std]
        )
        np.testing.assert_array_equal(profile.quantiles, quantiles)

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 101, 999, 60_001])
    def test_every_length_remainder(self, n):
        """Virtual indices land on, between and at the end of the rows."""
        values = np.random.default_rng(n).normal(size=n)
        np.testing.assert_array_equal(
            profile_column("v", values).quantiles,
            np.percentile(values, np.arange(101)),
        )


def reference_normal_scores(values, rng):
    """The single-key ranking on float64 keys, as fitted before."""
    from scipy.special import ndtri

    n = len(values)
    jitter = rng.permutation(n)
    by_jitter = np.empty(n, dtype=np.intp)
    by_jitter[jitter] = np.arange(n)
    keys = np.asarray(values, dtype=np.float64)[by_jitter]
    order = by_jitter[np.argsort(keys, kind="stable")]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(n, dtype=np.float64)
    return ndtri((ranks + 0.5) / n)


class TestNormalScores:
    @hyp_settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            int_columns,
            float_columns,
            st.lists(st.integers(-40_000, 40_000), min_size=1, max_size=200).map(
                lambda values: np.array(values, dtype=np.float64)
            ),
            st.lists(st.integers(-(2**15), 2**15 - 1), min_size=1).map(
                lambda values: np.array(values, dtype=np.float64)
            ),
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(np.array([3.0]), 0)
    @example(np.array([-(2.0**15), 2.0**15 - 1, 0.5]), 1)
    @example(np.array([2.0**15, 0.0, 0.0]), 2)
    def test_equals_float64_stable_argsort_ranks(self, values, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            normal_scores(values.astype(np.float64), ours),
            reference_normal_scores(values, theirs),
        )
        assert ours.random() == theirs.random()  # same number of draws


def reference_nominal_fit(values):
    categories, counts = np.unique(np.asarray(values, dtype=str), return_counts=True)
    order = np.argsort(-counts, kind="stable")
    categories, counts = categories[order], counts[order]
    return categories, np.cumsum(counts) / counts.sum()


def reference_code_of(categories, values):
    values = np.asarray(values, dtype=str)
    by_name = np.argsort(categories)
    names = categories[by_name]
    slots = np.minimum(np.searchsorted(names, values), len(names) - 1)
    assert (names[slots] == values).all()
    return by_name[slots].astype(np.int64, copy=False)


#: Short strings over a narrow alphabet (prefixes, ties) and a wide one
#: (code points too far apart to pack, so the encoder sorts).
nominal_columns = st.lists(
    st.one_of(
        st.sampled_from(["", "a", "ab", "b", "ba", "AA", "A"]),
        st.text(alphabet="abcXYZ", max_size=3),
        st.text(alphabet="aé中\U0001f600", max_size=2),
    ),
    min_size=1,
    max_size=200,
).map(np.array)


class TestNominalFit:
    @hyp_settings(max_examples=300, deadline=None)
    @given(nominal_columns)
    @example(np.array(["solo"]))
    def test_equals_unique_based_fit_and_codes(self, values):
        cdf = NominalInverseCdf.fit(values)
        categories, cumulative = reference_nominal_fit(values)
        assert cdf.categories.dtype == categories.dtype
        np.testing.assert_array_equal(cdf.categories, categories)
        np.testing.assert_array_equal(cdf.cumulative, cumulative)
        np.testing.assert_array_equal(
            cdf.code_of(values), reference_code_of(categories, values)
        )
