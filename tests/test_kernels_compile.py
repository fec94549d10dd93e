"""Sort-free compile: dictionary-encoded datasets, grouping by counting.

The differential suite proves compiled results equal the sort-based
reference; this module pins *how* a compile gets there — the counting
``unique_inverse`` agrees with ``np.unique`` on every int64 input, the
counting ``dictionary_encode`` with ``np.unique`` over the column read
as strings, the dataset's dictionary encoding and float64 casts are
built once (without a sort), shared, read-only and kept out of pickles,
and a warm compile neither sorts nor stringifies a fact-size array.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.common.clock import VirtualClock
from repro.common.errors import QueryError
from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.data.schema import profile_column
from repro.data.storage import Dataset, Table, dictionary_encode
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
from repro.query import kernels as kernels_module
from repro.query.kernels import CompiledQueryKernel, unique_inverse
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind
from repro.runtime.store import ArtifactStore

from reference_kernels import compute_grouped_stats
from test_kernels_differential import assert_exact_equal, assert_stats_equal

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


@pytest.fixture
def renumberings(monkeypatch):
    """The argument tuples of every ``unique_inverse`` call a compile makes
    (the dictionary encoder's own calls are not counted)."""
    calls = []
    original = kernels_module.unique_inverse
    monkeypatch.setattr(
        kernels_module, "unique_inverse", lambda *a: calls.append(a) or original(*a)
    )
    return calls


def test_one_dimensional_groups_are_bin_codes(flights_table, renumberings):
    """Cold compiles number 1-D groups by their codes and mark the rows a
    filter fails ``-1``: only a 2-D plan counts, each dimension's codes
    and then their packed ranks."""
    dataset = Dataset.from_table(flights_table)  # nothing of it alive yet
    brush = RangePredicate("DEP_DELAY", -5.0, 45.0)
    delays = AggQuery(
        table="flights",
        bins=(BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=20.0),),
        aggregates=(Aggregate(AggFunc.COUNT),),
    )
    kernels = [
        CompiledQueryKernel(dataset, query)
        for query in (
            _nominal_query(),
            delays,
            _nominal_query(filter_expr=brush),  # the nominal plan, filtered
            AggQuery(
                table="flights",
                bins=delays.bins,
                aggregates=delays.aggregates,
                filter=brush,
            ),
        )
    ]
    assert renumberings == []
    assert not kernels[2].all_rows_pass and not kernels[3].all_rows_pass
    two_d = ("UNIQUE_CARRIER", "DEST_STATE")
    kernels.append(CompiledQueryKernel(dataset, _nominal_query(bins=two_d)))
    assert len(renumberings) == 3
    kernels.append(
        CompiledQueryKernel(dataset, _nominal_query(bins=two_d, filter_expr=brush))
    )
    assert len(renumberings) == 3  # a filtered grouping of the live 2-D plan
    for kernel in kernels:
        assert_exact_equal(
            kernel.exact_stats(), compute_grouped_stats(dataset, kernel.query)
        )


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
# dictionary_encode ≡ np.unique(col.astype(str), return_inverse=True)
# ----------------------------------------------------------------------
#: NUL (embedded, and trailing, which numpy drops), ASCII, and the
#: highest BMP and astral code points: four such positions overflow the
#: packing, three do not.
_EDGE_CHARACTERS = st.sampled_from(
    ["\x00", "a", "B", "\uffff", "\U0001f600", "\U0010ffff"]
)
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, float("nan")])


@st.composite
def _encoder_columns(draw):
    size = draw(st.one_of(st.integers(0, 1), st.integers(0, 40)))
    kind = draw(st.sampled_from(["strings", "big-endian strings", "floats", "ints"]))
    if kind == "floats":
        elements, dtype = _EDGE_FLOATS | st.floats(), np.float64
    elif kind == "ints":
        elements = st.integers(-3, 12) | st.integers(INT64_MIN, INT64_MAX)
        dtype = np.int64
    else:
        elements = st.text(_EDGE_CHARACTERS | st.characters(), max_size=5)
        dtype = str
    column = np.array(
        draw(st.lists(elements, min_size=size, max_size=size)), dtype=dtype
    )
    if kind == "big-endian strings":
        column = column.astype(column.dtype.newbyteorder(">"))
    return column


def _assert_encodes_like_numpy(column: np.ndarray) -> None:
    expected_categories, expected_codes = np.unique(
        column.astype(str), return_inverse=True
    )
    categories, codes = dictionary_encode(column)
    assert categories.dtype == expected_categories.dtype
    assert categories.tolist() == expected_categories.tolist()
    assert codes.dtype == np.int64
    assert codes.tolist() == expected_codes.tolist()


# ----------------------------------------------------------------------
# The dataset-level dictionary
# ----------------------------------------------------------------------
class TestEncodedColumn:
    @given(column=_encoder_columns())
    @hyp_settings(max_examples=400, deadline=None)
    def test_dictionary_encode_matches_numpy(self, column):
        _assert_encodes_like_numpy(column)

    @pytest.mark.parametrize(
        "column",
        [
            np.array([], dtype=str),
            np.array([], dtype=np.float64),
            np.array([""]),
            np.array(["", "", "a"]),
            np.array(["a\x00b", "a", "a\x00", "ab", "b\x00\x00"]),
            np.array(["\x00" * 4, "\U0010ffff" * 4, "\U0010ffff\x00\x00\U0010ffff"]),
            np.array([-0.0, 0.0, float("nan"), 0.0, -0.0]),
        ],
        ids=[
            "no-rows", "no-float-rows", "one-empty", "mixed-lengths", "nuls",
            "overflow", "zeros-nan",
        ],
    )
    def test_dictionary_encode_edges(self, column):
        _assert_encodes_like_numpy(column)

    def test_cold_dictionaries_count_instead_of_sorting(self, flights_table, sorts):
        dataset = Dataset.from_table(flights_table)  # nothing encoded yet
        names = [
            name
            for name in flights_table.column_names
            if not flights_table.is_numeric(name)
        ]
        assert {flights_table[name].dtype.str for name in names} == {"<U2", "<U3"}
        for name in names:
            dataset.encoded_column(name)
            profile_column(name, flights_table[name])
        assert sorts == []
        # Four positions spanning all of unicode overflow the packing.
        dictionary_encode(np.array(["\x00" * 4, "\U0010ffff" * 4]))
        assert len(sorts) == 1

    def test_reconstructs_the_string_column(self, flights_dataset):
        # nominal, and numeric (int and float) read as strings; codes take
        # the narrowest type holding the category count (35, 12 and 200)
        for name, dtype in (
            ("ORIGIN_STATE", np.int8), ("MONTH", np.int8), ("DEP_DELAY", np.int16)
        ):
            categories, codes = flights_dataset.encoded_column(name)
            strings = flights_dataset.gather_column(name).astype(str)
            assert categories.tolist() == sorted(set(strings.tolist()))
            assert codes.dtype == dtype
            assert np.array_equal(categories[codes], strings)

    def test_reads_the_stored_arrays(self, flights_table, flights_dataset):
        categories, codes = flights_dataset.encoded_column("ORIGIN")
        stored = flights_table.categorical("ORIGIN")
        assert categories is stored.categories and codes is stored.codes
        assert flights_dataset.value_column("DISTANCE") is flights_table["DISTANCE"]

    def test_fk_columns_encode_at_dimension_size(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        categories, codes = star.encoded_column("ORIGIN_STATE")
        assert len(codes) == star.num_fact_rows
        assert np.array_equal(
            categories[codes], flights_table["ORIGIN_STATE"].astype(str)
        )

    def test_value_column_is_the_stored_column(self):
        table = Table("t", {"f": [0.5, 1.5, -2.0], "i": [1, 2, 3], "s": ["a", "b", "a"]})
        dataset = Dataset.from_table(table)
        assert dataset.value_column("f") is table["f"]
        narrow = dataset.value_column("i")
        assert narrow is table["i"] and narrow.dtype == np.int8
        assert narrow.tolist() == [1, 2, 3]
        with pytest.raises(QueryError, match="nominal"):
            dataset.value_column("s")

    def test_shared_arrays_are_read_only(self, flights_dataset):
        kernel = CompiledQueryKernel(
            flights_dataset,
            _nominal_query(filter_expr=RangePredicate("DISTANCE", 100.0, 2000.0)),
        )
        categories, codes = flights_dataset.encoded_column("UNIQUE_CARRIER")
        for shared in (
            categories,
            codes,
            flights_dataset.value_column("DEP_DELAY"),
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
        assert pickle.dumps(dataset, protocol=pickle.HIGHEST_PROTOCOL) == cold

    def test_round_trip_works(self, flights_dataset):
        clone = pickle.loads(pickle.dumps(flights_dataset))
        assert clone.fingerprint() == flights_dataset.fingerprint()
        assert np.array_equal(
            clone.encoded_column("ORIGIN")[1],
            flights_dataset.encoded_column("ORIGIN")[1],
        )
        distances = clone.value_column("DISTANCE")
        assert distances.dtype == np.int16
        assert distances.tobytes() == flights_dataset.value_column("DISTANCE").tobytes()

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
    """A dimension row no fact row points at widens the dictionary and
    the kernel's code space, never an answer."""
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
    assert kernel.exact_stats().keys == [("b",), ("c",)]
    accumulator = kernel.new_accumulator()
    for rows, keys in (([], []), ([1], [("c",)]), ([0, 3], [("b",), ("c",)])):
        accumulator.update(np.array(rows, dtype=np.int64))
        assert accumulator.stats().keys == keys
    assert_stats_equal(kernel.evaluate(None), compute_grouped_stats(star, query))


def test_cached_kernels_share_one_value_column(flights_dataset):
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
