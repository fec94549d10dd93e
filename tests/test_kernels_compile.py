"""Sort-free compile: dictionary-encoded datasets, grouping by counting.

The differential suite proves compiled results equal the sort-based
reference; this module pins *how* a compile gets there — the counting
``unique_inverse`` agrees with ``np.unique`` on every int64 input, the
dataset's dictionary encoding and float64 casts are built once, shared,
read-only and kept out of pickles, and a warm compile neither sorts nor
stringifies a fact-size array.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.common.clock import VirtualClock
from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.data.storage import Dataset, Table
from repro.engines.kernel_cache import KernelCache
from repro.engines.sampling import StratifiedSamplingEngine
from repro.query.filters import (
    And,
    Comparison,
    Or,
    RangePredicate,
    SetPredicate,
    evaluate_filter,
)
from repro.query.groundtruth import compute_grouped_stats
from repro.query.kernels import CompiledQueryKernel, unique_inverse
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind
from repro.runtime.store import ArtifactStore

from test_kernels_differential import assert_stats_equal

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max


@pytest.fixture
def sorts(monkeypatch):
    """The argument tuples of every ``np.unique`` call made in the test."""
    calls = []
    original = np.unique
    monkeypatch.setattr(
        np, "unique", lambda *a, **k: calls.append(a) or original(*a, **k)
    )
    return calls


def _nominal_query(bins=("UNIQUE_CARRIER",), filter_expr=None, aggregates=None):
    return AggQuery(
        table="flights",
        bins=tuple(BinDimension(field, BinKind.NOMINAL) for field in bins),
        aggregates=aggregates
        or (Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, "DEP_DELAY")),
        filter=filter_expr,
    )


# ----------------------------------------------------------------------
# unique_inverse ≡ np.unique(return_inverse=True)
# ----------------------------------------------------------------------
def _assert_same_as_numpy(codes: np.ndarray) -> None:
    expected_unique, expected_inverse = np.unique(codes, return_inverse=True)
    unique, inverse = unique_inverse(codes)
    assert unique.dtype == expected_unique.dtype
    assert unique.tolist() == expected_unique.tolist()
    assert inverse.shape == codes.shape
    assert inverse.tolist() == expected_inverse.tolist()


@st.composite
def _code_arrays(draw):
    size = draw(st.integers(1, 60))
    # Spans on either side of the counting bound (max(1024, 4 * size)),
    # anchored anywhere in int64 including at its extremes.
    span = draw(
        st.one_of(
            st.integers(1, 8),
            st.integers(1020, 1030),
            st.integers(1, 2 ** 63),
        )
    )
    low = draw(st.integers(INT64_MIN, INT64_MAX - span + 1))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=size, max_size=size))
    if draw(st.booleans()):
        offsets[0], offsets[-1] = 0, span - 1  # realize the whole span
    return np.array([low + offset for offset in offsets], dtype=np.int64)


@given(_code_arrays())
@hyp_settings(max_examples=300, deadline=None)
def test_unique_inverse_matches_numpy(codes):
    _assert_same_as_numpy(codes)


@pytest.mark.parametrize(
    "codes",
    [
        [5],
        [7, 7, 7, 7],
        [INT64_MIN],
        [INT64_MAX, INT64_MAX],
        [INT64_MIN, INT64_MAX],
        [INT64_MIN, 0, INT64_MAX, 0],
        [INT64_MAX - 3, INT64_MAX, INT64_MAX - 1],
        [INT64_MIN + 2, INT64_MIN, INT64_MIN + 2],
        [0, 1023],  # widest span that still counts at this size
        [0, 1024],  # one past it: the sort
    ],
)
def test_unique_inverse_edges(codes):
    _assert_same_as_numpy(np.array(codes, dtype=np.int64))


def test_unique_inverse_span_rule(sorts):
    """Counting up to 4 slots per row (1024 at least), the sort beyond."""
    rows = 1000
    unique_inverse(np.arange(rows, dtype=np.int64) * 4)  # span 3997
    unique_inverse(np.array([0, 1023], dtype=np.int64))
    assert sorts == []
    unique_inverse(np.arange(rows, dtype=np.int64) * 5)  # span 4996
    unique_inverse(np.array([0, 1024], dtype=np.int64))
    assert len(sorts) == 2


# ----------------------------------------------------------------------
# The dataset-level dictionary
# ----------------------------------------------------------------------
class TestEncodedColumn:
    def test_reconstructs_the_string_column(self, flights_dataset):
        for name in ("ORIGIN_STATE", "MONTH"):  # nominal, and numeric as strings
            categories, codes = flights_dataset.encoded_column(name)
            strings = flights_dataset.gather_column(name).astype(str)
            assert categories.tolist() == sorted(set(strings.tolist()))
            assert codes.dtype == np.int64
            assert np.array_equal(categories[codes], strings)

    def test_memoized(self, flights_dataset):
        first = flights_dataset.encoded_column("ORIGIN")
        assert flights_dataset.encoded_column("ORIGIN") is first
        assert (
            flights_dataset.float64_column("DISTANCE")
            is flights_dataset.float64_column("DISTANCE")
        )

    def test_fk_columns_encode_at_dimension_size(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        categories, codes = star.encoded_column("ORIGIN_STATE")
        assert len(codes) == star.num_fact_rows
        assert np.array_equal(
            categories[codes], flights_table["ORIGIN_STATE"].astype(str)
        )

    def test_float64_column_shares_float_storage(self):
        table = Table("t", {"f": [0.5, 1.5, -2.0], "i": [1, 2, 3]})
        dataset = Dataset.from_table(table)
        assert np.shares_memory(dataset.float64_column("f"), table["f"])
        assert table["f"].flags.writeable  # only the shared view is locked
        as_float = dataset.float64_column("i")
        assert as_float.dtype == np.float64
        assert as_float.tolist() == [1.0, 2.0, 3.0]

    def test_shared_arrays_are_read_only(self, flights_dataset):
        kernel = CompiledQueryKernel(
            flights_dataset,
            _nominal_query(filter_expr=RangePredicate("DISTANCE", 100.0, 2000.0)),
        )
        categories, codes = flights_dataset.encoded_column("UNIQUE_CARRIER")
        for shared in (
            categories,
            codes,
            flights_dataset.float64_column("DEP_DELAY"),
            kernel.full_mask,
            kernel._row_gid,
            kernel._agg_values[1],
        ):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = shared[0]


class TestPickleHygiene:
    def test_warm_pickle_equals_cold_pickle(self, flights_table):
        dataset = Dataset.from_table(flights_table)
        dataset.fingerprint()  # its memo predates this one and is pickled
        cold = pickle.dumps(dataset, protocol=pickle.HIGHEST_PROTOCOL)
        CompiledQueryKernel(
            dataset,
            _nominal_query(filter_expr=SetPredicate("ORIGIN_STATE", frozenset(["CA"]))),
        )
        assert dataset._encoded and dataset._float64
        assert pickle.dumps(dataset, protocol=pickle.HIGHEST_PROTOCOL) == cold

    def test_round_trip_starts_cold_and_works(self, flights_dataset):
        flights_dataset.encoded_column("ORIGIN")
        clone = pickle.loads(pickle.dumps(flights_dataset))
        assert clone._encoded == {} and clone._float64 == {}
        assert np.array_equal(
            clone.encoded_column("ORIGIN")[1],
            flights_dataset.encoded_column("ORIGIN")[1],
        )

    def test_store_writes_the_same_bytes_warm_or_cold(self, flights_table, tmp_path):
        dataset = Dataset.from_table(flights_table)
        store = ArtifactStore(tmp_path)
        cold = store.put(("dataset", "cold"), dataset).read_bytes()
        CompiledQueryKernel(dataset, _nominal_query())
        assert store.put(("dataset", "warm"), dataset).read_bytes() == cold


# ----------------------------------------------------------------------
# What a compile does, and does not do
# ----------------------------------------------------------------------
class _StringifyRecorder(np.ndarray):
    """Column view that records ``astype(str)`` calls made on it."""

    calls: list = []

    def astype(self, dtype, *args, **kwargs):
        if dtype is str or np.dtype(dtype).kind == "U":
            _StringifyRecorder.calls.append(self.size)
        return np.asarray(self).astype(dtype, *args, **kwargs)


class _RecordingDataset:
    """Forwards to ``dataset``; gathered columns record stringification."""

    def __init__(self, dataset):
        self._inner = dataset

    def gather_column(self, name):
        return self._inner.gather_column(name).view(_StringifyRecorder)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def test_warm_compile_neither_sorts_nor_stringifies(flights_dataset, request):
    query = _nominal_query(
        bins=("ORIGIN_STATE", "UNIQUE_CARRIER"),
        filter_expr=And(
            SetPredicate("DEST_STATE", frozenset(["CA", "TX", "NY"])),
            Or(
                Comparison("UNIQUE_CARRIER", "!=", "AA"),
                Comparison("MONTH", "=", "3"),  # numeric column, string value
            ),
        ),
    )
    CompiledQueryKernel(flights_dataset, query)  # warms the dictionary
    expected = compute_grouped_stats(flights_dataset, query)

    sorts = request.getfixturevalue("sorts")  # counting starts here
    _StringifyRecorder.calls = []
    warm = CompiledQueryKernel(_RecordingDataset(flights_dataset), query)
    assert sorts == []
    assert _StringifyRecorder.calls == []
    assert_stats_equal(warm.evaluate(None), expected)


def test_recorder_sees_the_reference_path_stringify(flights_dataset):
    """The recorder is live: the uncompiled predicate trips it."""
    _StringifyRecorder.calls = []
    proxy = _RecordingDataset(flights_dataset)
    evaluate_filter(
        SetPredicate("DEST_STATE", frozenset(["CA"])),
        proxy.gather_column,
        flights_dataset.num_fact_rows,
    )
    assert _StringifyRecorder.calls == [flights_dataset.num_fact_rows]


@pytest.mark.parametrize(
    "filter_expr",
    [
        SetPredicate("ORIGIN_STATE", frozenset(["CA", "ZZZ-NOT-A-CATEGORY"])),
        SetPredicate("MONTH", frozenset(["1", "12"])),
        Comparison("UNIQUE_CARRIER", "=", "AA"),
        Comparison("UNIQUE_CARRIER", "!=", "AA"),
        Comparison("DAY_OF_WEEK", "=", "3"),
        Comparison("ORIGIN", "=", "ZZZ-NOT-A-CATEGORY"),
        Or(
            And(Comparison("ORIGIN_STATE", "=", "TX"), RangePredicate("DISTANCE", 0.0, 900.0)),
            SetPredicate("DEST_STATE", frozenset(["NY", "FL"])),
        ),
    ],
)
def test_string_predicates_through_the_dictionary(flights_table, flights_dataset, filter_expr):
    """Category-level evaluation gathers to the row-level mask, on both schemas."""
    star = normalize(flights_table, FLIGHTS_STAR_SPEC)
    for dataset in (flights_dataset, star):
        by_rows = evaluate_filter(
            filter_expr, dataset.gather_column, dataset.num_fact_rows
        )
        by_categories = evaluate_filter(
            filter_expr,
            dataset.gather_column,
            dataset.num_fact_rows,
            dataset.encoded_column,
        )
        assert by_categories.dtype == bool
        assert np.array_equal(by_categories, by_rows)
        query = _nominal_query(bins=("DEST_STATE",), filter_expr=filter_expr)
        assert_stats_equal(
            CompiledQueryKernel(dataset, query).evaluate(None),
            compute_grouped_stats(dataset, query),
        )


@pytest.mark.parametrize(
    "bins", [("ORIGIN_STATE",), ("UNIQUE_CARRIER", "DEST_STATE"), ("DEST", "ORIGIN")]
)
def test_normalized_and_denormalized_group_identically(flights_table, flights_dataset, bins):
    """Dimension-size dictionaries (with unreferenced categories or not)
    number the groups exactly as the fact-size ones do."""
    star = normalize(flights_table, FLIGHTS_STAR_SPEC)
    query = _nominal_query(
        bins=bins, filter_expr=RangePredicate("DEP_DELAY", -5.0, 45.0)
    )
    flat_kernel = CompiledQueryKernel(flights_dataset, query)
    star_kernel = CompiledQueryKernel(star, query)
    assert star_kernel._keys == flat_kernel._keys
    assert np.array_equal(star_kernel._row_gid, flat_kernel._row_gid)
    assert_stats_equal(star_kernel.evaluate(None), flat_kernel.evaluate(None))


def test_unreferenced_dimension_categories_do_not_become_groups():
    """A dimension row no fact row points at widens the dictionary only."""
    from repro.data.storage import ForeignKey

    fact = Table("fact", {"k": [0, 2, 2, 0], "v": [1.0, 2.0, 3.0, 4.0]})
    dim = Table("dim", {"id": [0, 1, 2], "name": ["b", "a", "c"]})
    star = Dataset(
        {"fact": fact, "dim": dim},
        "fact",
        [ForeignKey("k", "dim", "id", (("NAME", "name"),))],
    )
    query = AggQuery(
        table="fact",
        bins=(BinDimension("NAME", BinKind.NOMINAL),),
        aggregates=(Aggregate(AggFunc.SUM, "v"),),
    )
    assert star.encoded_column("NAME")[0].tolist() == ["a", "b", "c"]
    kernel = CompiledQueryKernel(star, query)
    assert kernel._keys == [("b",), ("c",)]
    assert_stats_equal(kernel.evaluate(None), compute_grouped_stats(star, query))


def test_cached_kernels_share_one_float64_column(flights_dataset):
    cache = KernelCache(capacity=8)
    aggregates = (Aggregate(AggFunc.COUNT), Aggregate(AggFunc.SUM, "DISTANCE"))
    kernel_a = cache.get(flights_dataset, _nominal_query(aggregates=aggregates))
    kernel_b = cache.get(
        flights_dataset,
        _nominal_query(
            bins=("ORIGIN_STATE",),
            aggregates=aggregates,
            filter_expr=RangePredicate("DEP_DELAY", 0.0, 30.0),
        ),
    )
    assert kernel_a is not kernel_b
    assert kernel_a._agg_values[1] is kernel_b._agg_values[1]
    assert not hasattr(kernel_a, "_columns")  # no private gathers kept alive


# ----------------------------------------------------------------------
# The stratified sampler cuts its strata from the shared codes
# ----------------------------------------------------------------------
def test_strata_match_the_per_category_scan(flights_dataset, tiny_settings):
    engine = StratifiedSamplingEngine(
        flights_dataset, tiny_settings, VirtualClock(), sampling_rate=0.05
    )
    engine.prepare()
    column = engine._stratification_column()
    cardinalities = {
        name: len(np.unique(flights_dataset.fact[name]))
        for name in flights_dataset.fact.column_names
        if not flights_dataset.fact.is_numeric(name)
    }
    assert cardinalities[column] == min(cardinalities.values())

    values = flights_dataset.gather_column(column).astype(str)
    sampled = np.concatenate([indices for indices, _ in engine._strata])
    for (indices, weight), category in zip(engine._strata, np.unique(values)):
        stratum_rows = np.flatnonzero(values == category)
        assert np.isin(indices, stratum_rows).all()
        assert np.all(np.diff(indices) > 0)
        assert weight == len(stratum_rows) / len(indices)
    assert len(engine._strata) == cardinalities[column]
    assert len(np.unique(sampled)) == len(sampled)
