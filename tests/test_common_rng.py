"""Tests for deterministic seed derivation and the scalar draw forms."""

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.common.errors import WorkflowError
from repro.common.rng import (
    BucketedSearch,
    choice_cdf,
    choice_weighted,
    derive_rng,
    derive_seed,
    derive_session_seed,
    pick,
    pick_weighted,
    uniform,
)
from repro.data.seed import NUM_AIRPORTS, NUM_CARRIERS, _seasonality_weights, _zipf_probabilities
from repro.workflow.generator import _CHAINS, WorkloadConfig

#: Every draw form must match numpy on each of these seeds.
SEEDS = range(500)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_differs_by_root_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_differs_by_purpose(self):
        assert derive_seed(42, "copula") != derive_seed(42, "workflow")

    def test_differs_by_purpose_arity(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "ab")

    def test_fits_in_64_bits(self):
        seed = derive_seed(42, "anything", 123, "deep")
        assert 0 <= seed < 2**64

    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=20))
    def test_always_valid_seed(self, root, purpose):
        seed = derive_seed(root, purpose)
        assert 0 <= seed < 2**64
        # numpy accepts it
        np.random.default_rng(seed)

    def test_purpose_separator_prevents_collisions(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


class TestDeriveRng:
    def test_same_purpose_same_stream(self):
        a = derive_rng(42, "stream").random(10)
        b = derive_rng(42, "stream").random(10)
        assert np.array_equal(a, b)

    def test_different_purpose_different_stream(self):
        a = derive_rng(42, "one").random(10)
        b = derive_rng(42, "two").random(10)
        assert not np.array_equal(a, b)

    def test_streams_are_statistically_independent_ish(self):
        a = derive_rng(42, "s", 1).random(2_000)
        b = derive_rng(42, "s", 2).random(2_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


class TestDeriveSessionSeed:
    def test_pure_function_of_root_and_index(self):
        assert derive_session_seed(42, 3) == derive_session_seed(42, 3)
        assert derive_session_seed(42, 3) != derive_session_seed(42, 4)
        assert derive_session_seed(42, 3) != derive_session_seed(43, 3)

    def test_matches_purpose_string_derivation(self):
        # The documented contract: ("server-session", index).
        assert derive_session_seed(7, 0) == derive_seed(7, "server-session", 0)

    def test_distinct_from_other_purposes(self):
        assert derive_session_seed(7, 0) != derive_seed(7, "workflow", 0)


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


class TestDrawForms:
    """Each scalar form returns what the numpy call returns and leaves the
    generator in the same state (docs/determinism.md, "Draw forms")."""

    def test_markov_step_is_choice_with_p(self):
        for chain in _CHAINS.values():
            for state in chain.states:
                successors, probs = chain.normalized_row(state)
                for seed in SEEDS:
                    numpy_rng, form_rng = _twins(seed)
                    for _ in range(3):
                        expected = str(numpy_rng.choice(successors, p=probs))
                        assert chain.step(state, form_rng) == expected
                        assert _same_state(numpy_rng, form_rng)

    def test_pick_weighted_is_choice_with_p(self):
        specs, weights = zip(*WorkloadConfig().agg_distribution)
        probs = np.array(weights) / np.sum(weights)
        cdf = choice_cdf(probs)
        for seed in SEEDS:
            numpy_rng, form_rng = _twins(seed)
            for _ in range(3):
                expected = str(numpy_rng.choice(specs, p=probs))
                assert pick_weighted(form_rng, specs, cdf) == expected
                assert _same_state(numpy_rng, form_rng)

    def test_pick_is_choice(self):
        for length in range(1, 41):
            items = [f"viz_{i}" for i in range(length)]
            for seed in SEEDS:
                numpy_rng, form_rng = _twins(seed)
                assert pick(form_rng, items) == str(numpy_rng.choice(items))
                assert _same_state(numpy_rng, form_rng)

    def test_uniform_is_generator_uniform(self):
        low_sel, high_sel = WorkloadConfig().filter_selectivity_range
        for seed in SEEDS:
            numpy_rng, form_rng = _twins(seed)
            # The generator's three call sites: log-selectivity, filter
            # start, selection quantile.
            low, high = np.log(low_sel), np.log(high_sel)
            expected = numpy_rng.uniform(low, high)
            assert uniform(form_rng, low, high) == expected
            selectivity = float(np.exp(expected))
            assert uniform(form_rng, 0.0, 1.0 - selectivity) == (
                numpy_rng.uniform(0.0, 1.0 - selectivity)
            )
            assert uniform(form_rng, 0.05, 0.95) == numpy_rng.uniform(0.05, 0.95)
            assert _same_state(numpy_rng, form_rng)

    #: The seed generator's eight weighted draws use the first six vectors;
    #: the last two add zero weights (duplicate CDF edges) and 300
    #: categories (a table wider than one byte).
    WEIGHTS = (
        _zipf_probabilities(NUM_CARRIERS, 1.35),
        _zipf_probabilities(NUM_AIRPORTS, 1.15),
        [0.38, 0.27, 0.35],
        [0.62, 0.28, 0.10],
        _seasonality_weights(),
        [0.155, 0.15, 0.15, 0.155, 0.16, 0.11, 0.12],
        [0.0, 0.5, 0.0, 0.5],
        np.arange(300) % 7,
    )

    @pytest.mark.parametrize("weights", WEIGHTS, ids=range(len(WEIGHTS)))
    def test_choice_weighted_is_choice_with_p(self, weights):
        p = np.asarray(weights, dtype=np.float64)
        p /= p.sum()
        for seed in SEEDS:
            numpy_rng, form_rng = _twins(seed)
            for size in (0, 1, 257, 5_000):
                expected = numpy_rng.choice(len(p), size=size, p=p)
                drawn = choice_weighted(form_rng, size, p)
                assert drawn.dtype == expected.dtype
                np.testing.assert_array_equal(drawn, expected)
                assert _same_state(numpy_rng, form_rng)

    def test_unknown_state_still_raises(self):
        chain = next(iter(_CHAINS.values()))
        with pytest.raises(WorkflowError, match="unknown state"):
            chain.step("ghost", np.random.default_rng(0))


#: Points on and next to bucket boundaries j / 4096, and the ends.
_BOUNDARY = st.integers(0, 4097).flatmap(
    lambda j: st.sampled_from(
        [j / 4096, np.nextafter(j / 4096, 0.0), np.nextafter(j / 4096, 2.0)]
    )
)
_UNIT = st.one_of(st.floats(0.0, 1.0), _BOUNDARY, st.sampled_from([0.0, 1.0]))


def _sorted_edges(element, max_size=40):
    """Sorted lists of ``element``, some of them repeated."""
    return st.lists(element, max_size=max_size).flatmap(
        lambda xs: st.lists(st.sampled_from(xs), max_size=10).map(
            lambda extra: sorted(xs + extra)
        ) if xs else st.just([])
    )


#: Every grid point k / 4096 up to past the last bucket, each twice.
_EVERY_GRID_POINT_TWICE = (np.repeat(np.arange(4099), 2) / 4096).tolist()


def _searchsorted_tables(edges, side):
    """The bucket tables built with two searchsorted calls over the grid."""
    edges = np.asarray(edges, dtype=np.float64)
    grid = np.arange(BucketedSearch.BUCKETS + 2) / BucketedSearch.BUCKETS
    start = edges.searchsorted(grid[:-1], side)
    inside = start != edges.searchsorted(grid[1:], "left")
    return np.append(start, 0), np.append(inside, True)


class TestBucketedSearch:
    """:class:`BucketedSearch` answers what ``np.searchsorted`` answers for
    every ``u`` in [0, 1], and maps NaN to ``len(edges)`` as numpy does."""

    @hyp_settings(max_examples=300, deadline=None)
    @given(
        edges=_sorted_edges(_UNIT),
        u=st.lists(st.one_of(_UNIT, st.just(float("nan"))), max_size=60),
        side=st.sampled_from(["left", "right"]),
    )
    def test_matches_searchsorted(self, edges, u, side):
        u = np.array(u, dtype=np.float64)
        found = BucketedSearch(edges, side)(u)
        np.testing.assert_array_equal(found, np.searchsorted(edges, u, side))

    @hyp_settings(max_examples=300, deadline=None)
    @given(
        edges=_sorted_edges(
            st.one_of(
                _UNIT,
                st.floats(-1.0, 2.0),
                st.sampled_from([-np.inf, -1e300, 5e-324, 1e300, np.inf]),
            ),
            max_size=60,
        ),
        side=st.sampled_from(["left", "right"]),
    )
    @example(edges=_EVERY_GRID_POINT_TWICE, side="left")
    @example(edges=_EVERY_GRID_POINT_TWICE, side="right")
    def test_tables_equal_the_searchsorted_build(self, edges, side):
        start, inside = BucketedSearch(edges, side).tables
        expected_start, expected_inside = _searchsorted_tables(edges, side)
        np.testing.assert_array_equal(start, expected_start)
        np.testing.assert_array_equal(inside, expected_inside)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_nan_maps_past_the_last_edge(self, side):
        edges = np.array([0.25, 0.5, 1.0])
        found = BucketedSearch(edges, side)(np.array([np.nan, 0.0, 1.0, np.nan]))
        assert found.tolist() == [3, 0, 3 if side == "right" else 2, 3]

    def test_only_buckets_holding_an_edge_search(self):
        start, inside = BucketedSearch([0.1, 0.2, 0.3, 0.3, 0.5, 1.0], "left").tables
        # four distinct edges inside [0, 1]; 1.0 opens the top bucket, and
        # the last bucket (past 1, NaN) always searches
        assert int(inside.sum()) == 6
        assert start.dtype == np.uint8

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("rows", [1, 100, 4_095, 4_096, 4_097, 20_000])
    def test_short_and_long_draws_equal_searchsorted(self, rows, side):
        """Draws shorter than ``BUCKETS`` rows search directly and build no
        table; the first longer draw builds it, once."""
        edges = np.cumsum(np.arange(1, 41)) / np.arange(1, 41).sum()
        u = np.random.default_rng(rows).random(rows)
        u[[0, rows // 2, rows - 1]] = [0.0, 1.0, np.nan]
        search = BucketedSearch(edges, side)
        np.testing.assert_array_equal(search(u), np.searchsorted(edges, u, side))
        assert ("tables" in vars(search)) == (rows >= BucketedSearch.BUCKETS)
        tables = vars(search).get("tables")
        np.testing.assert_array_equal(search(u), np.searchsorted(edges, u, side))
        assert vars(search).get("tables") is tables
