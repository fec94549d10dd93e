"""Differential test layer: compiled kernels ≡ the reference, bit for bit.

Every query compiles (``repro.query.kernels``); its contract is that
every result it produces — keys, counts, per-group moment arrays,
estimator outputs — is **bitwise identical** to the reference
``compute_grouped_stats`` of ``reference_kernels.py``, which groups only
the rows it is given and sorts to do it. A seeded generator produces
hundreds of random resolved queries spanning every filter shape, bin
type and aggregate mix (plus empty-result and NaN/inf edges), and each
one is checked over the full table and random row-index prefixes.
"""

from __future__ import annotations

import functools
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.data.seed import generate_flights_seed
from repro.data.storage import Dataset, Table
from repro.engines.estimators import StrataMoments, srs_estimate, stratified_estimate
from repro.query.filters import (
    And,
    Comparison,
    Or,
    RangePredicate,
    SetPredicate,
)
from repro.query.groundtruth import evaluate_exact, stats_to_exact_values
from repro.query.kernels import CompiledQueryKernel, PrefixKernelRun
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

from reference_kernels import compute_grouped_stats, grid_from_stats

#: How many random queries the fuzz sweep draws (ISSUE 7: >= 300).
FUZZ_CASES = 320

QUANT_FIELDS = (
    "MONTH",
    "DAY_OF_WEEK",
    "DEP_TIME",
    "ARR_TIME",
    "DEP_DELAY",
    "ARR_DELAY",
    "AIR_TIME",
    "DISTANCE",
    "ELAPSED_TIME",
)
NOMINAL_FIELDS = ("UNIQUE_CARRIER", "ORIGIN", "ORIGIN_STATE", "DEST", "DEST_STATE")


# ----------------------------------------------------------------------
# Exact-equality helpers (bit patterns, so NaN payloads and ±0 count too)
# ----------------------------------------------------------------------
def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def assert_stats_equal(fast, naive, moments=("sums", "sumsqs", "mins", "maxs")):
    assert fast.keys == naive.keys
    assert fast.counts.dtype == naive.counts.dtype
    assert fast.counts.tobytes() == naive.counts.tobytes()
    assert fast.rows_aggregated == naive.rows_aggregated
    assert fast.rows_scanned == naive.rows_scanned
    for name in moments:
        fast_dict = getattr(fast, name)
        naive_dict = getattr(naive, name)
        assert sorted(fast_dict) == sorted(naive_dict)
        for j in naive_dict:
            assert fast_dict[j].dtype == naive_dict[j].dtype, (name, j)
            assert fast_dict[j].tobytes() == naive_dict[j].tobytes(), (name, j)


#: The moments an exact answer reads (no sums of squares).
EXACT_MOMENTS = ("sums", "mins", "maxs")


def assert_exact_equal(exact, naive):
    """A kernel's ``exact_stats()`` is bitwise what the reference holds
    of the moments an exact answer reads."""
    assert_stats_equal(exact, naive, EXACT_MOMENTS)


def assert_estimates_equal(fast_pair, naive_pair):
    for fast_map, naive_map in zip(fast_pair, naive_pair):
        assert fast_map.keys() == naive_map.keys()
        for key, naive_row in naive_map.items():
            fast_row = fast_map[key]
            assert len(fast_row) == len(naive_row)
            for a, b in zip(fast_row, naive_row):
                if a is None or b is None:
                    assert a is None and b is None, (key, a, b)
                else:
                    assert _bits(a) == _bits(b), (key, a, b)


# ----------------------------------------------------------------------
# Seeded random query generator
# ----------------------------------------------------------------------
def _random_filter(rng: random.Random, table: Table):
    shape = rng.randrange(7)
    if shape == 0:
        return None

    def leaf():
        kind = rng.randrange(4)
        if kind == 0:
            field = rng.choice(QUANT_FIELDS)
            column = table[field]
            lo, hi = float(column.min()), float(column.max())
            a, b = sorted(rng.uniform(lo - 10, hi + 10) for _ in range(2))
            which = rng.randrange(3)
            if which == 0:
                return RangePredicate(field, a, b)
            if which == 1:
                return RangePredicate(field, a, None)
            return RangePredicate(field, None, b)
        if kind == 1:
            field = rng.choice(NOMINAL_FIELDS)
            present = sorted(set(table[field][:200].tolist()))
            values = set(rng.sample(present, k=min(len(present), rng.randrange(1, 4))))
            if rng.random() < 0.3:
                values.add("ZZZ-NOT-A-CATEGORY")  # empty-result edge
            return SetPredicate(field, frozenset(values))
        if kind == 2:
            field = rng.choice(QUANT_FIELDS)
            column = table[field]
            op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
            value = float(rng.choice(column[:500]).item()) if rng.random() < 0.7 else rng.uniform(-50, 50)
            return Comparison(field, op, value)
        # Degenerate range: low == high selects nothing (low <= x < high).
        field = rng.choice(QUANT_FIELDS)
        pivot = float(rng.choice(table[field][:500]).item())
        return RangePredicate(field, pivot, pivot)

    if shape <= 3:
        return leaf()
    combinator = And if shape <= 5 else Or
    return combinator(*(leaf() for _ in range(rng.randrange(2, 4))))


def _random_bin(rng: random.Random, table: Table, field: str) -> BinDimension:
    if field in NOMINAL_FIELDS:
        return BinDimension(field=field, kind=BinKind.NOMINAL)
    column = table[field]
    span = float(column.max() - column.min()) or 1.0
    width = span / rng.choice([3, 5, 8, 13, 25])
    reference = float(column.min()) + rng.uniform(-width, width)
    return BinDimension(
        field=field, kind=BinKind.QUANTITATIVE, width=width, reference=reference
    )


def random_query(rng: random.Random, table: Table) -> AggQuery:
    num_bins = rng.choice([1, 1, 2])
    fields = rng.sample(QUANT_FIELDS + NOMINAL_FIELDS, k=num_bins)
    bins = tuple(_random_bin(rng, table, field) for field in fields)
    aggregates = [Aggregate(func=AggFunc.COUNT)]
    for _ in range(rng.randrange(0, 3)):
        func = rng.choice([AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX])
        aggregates.append(Aggregate(func=func, field=rng.choice(QUANT_FIELDS)))
    rng.shuffle(aggregates)
    return AggQuery(
        table=table.name,
        bins=bins,
        aggregates=tuple(aggregates),
        filter=_random_filter(rng, table),
    )


def _check_query(dataset: Dataset, query: AggQuery, np_rng: np.random.Generator):
    kernel = CompiledQueryKernel(dataset, query)
    num_rows = dataset.num_fact_rows

    subsets = [None]
    permutation = np_rng.permutation(num_rows)
    for _ in range(2):
        n = int(np_rng.integers(0, num_rows + 1))
        subsets.append(permutation[:n])
    # Arbitrary index arrays (duplicates allowed) must also agree.
    subsets.append(np_rng.integers(0, num_rows, size=int(np_rng.integers(1, 400))))

    for indices in subsets:
        naive = compute_grouped_stats(dataset, query, indices)
        fast = kernel.evaluate(indices)
        assert_stats_equal(fast, naive)
        n = naive.rows_scanned
        if n:
            assert_estimates_equal(
                srs_estimate(fast, n, num_rows, 0.95),
                srs_estimate(naive, n, num_rows, 0.95),
            )


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def test_differential_fuzz_sweep(flights_table, flights_dataset):
    """>= 300 random queries: compiled == uncompiled on every subset."""
    rng = random.Random(0xC0FFEE)
    np_rng = np.random.default_rng(0xC0FFEE)
    seen_shapes = set()
    for case in range(FUZZ_CASES):
        query = random_query(rng, flights_table)
        seen_shapes.add(
            (
                query.num_bin_dims,
                query.binning_types,
                type(query.filter).__name__,
                tuple(sorted(a.func.value for a in query.aggregates)),
            )
        )
        _check_query(flights_dataset, query, np_rng)
    # The generator must actually exercise diversity, not 320 clones.
    assert len(seen_shapes) > 60


def test_differential_on_normalized_schema(flights_table):
    """FK-dereferenced (join) columns compile and agree bitwise."""
    from repro.data.normalize import normalize

    dataset = normalize(flights_table)
    rng = random.Random(7)
    np_rng = np.random.default_rng(7)
    for _ in range(20):
        query = random_query(rng, flights_table)
        _check_query(dataset, query, np_rng)


def test_nan_and_inf_aggregate_cells(flights_dataset):
    """NaN/inf in aggregated columns flow through bit-identically.

    The sites where they are expected to meet arithmetic are wrapped in
    ``np.errstate(invalid="ignore")``; a warning from anywhere else is a
    new, unsanctioned site and fails this test (the suite runs under
    ``error::RuntimeWarning``, see ``pyproject.toml``).
    """
    values = np.linspace(-5.0, 5.0, 400)
    values[7] = np.nan
    values[123] = np.inf
    values[301] = -np.inf
    values[44] = -0.0
    table = Table(
        "edge",
        {
            "bucket": np.arange(400) % 7,
            "category": np.array([f"c{i % 3}" for i in range(400)]),
            "metric": values,
        },
    )
    dataset = Dataset.from_table(table)
    np_rng = np.random.default_rng(99)
    for bins in (
        (BinDimension(field="bucket", kind=BinKind.QUANTITATIVE, width=2.0, reference=0.0),),
        (BinDimension(field="category", kind=BinKind.NOMINAL),),
        (
            BinDimension(field="bucket", kind=BinKind.QUANTITATIVE, width=3.0, reference=-1.0),
            BinDimension(field="category", kind=BinKind.NOMINAL),
        ),
    ):
        query = AggQuery(
            table="edge",
            bins=bins,
            aggregates=(
                Aggregate(func=AggFunc.COUNT),
                Aggregate(func=AggFunc.SUM, field="metric"),
                Aggregate(func=AggFunc.AVG, field="metric"),
                Aggregate(func=AggFunc.MIN, field="metric"),
                Aggregate(func=AggFunc.MAX, field="metric"),
            ),
        )
        _check_query(dataset, query, np_rng)


def test_empty_result_edges(flights_dataset, flights_table):
    """Filters selecting zero rows produce identical empty stats."""
    np_rng = np.random.default_rng(5)
    for filt in (
        RangePredicate("DISTANCE", 1e9, None),
        SetPredicate("ORIGIN", frozenset({"ZZZ-NOT-A-CATEGORY"})),
        And(RangePredicate("MONTH", 1, None), RangePredicate("MONTH", None, 0)),
    ):
        query = AggQuery(
            table=flights_table.name,
            bins=(BinDimension(field="ORIGIN", kind=BinKind.NOMINAL),),
            aggregates=(
                Aggregate(func=AggFunc.COUNT),
                Aggregate(func=AggFunc.AVG, field="ARR_DELAY"),
            ),
            filter=filt,
        )
        _check_query(flights_dataset, query, np_rng)
        kernel = CompiledQueryKernel(flights_dataset, query)
        stats = kernel.evaluate(None)
        assert stats.keys == []
        assert stats.counts.shape == (0,)


def test_unresolved_query_rejected(flights_dataset, flights_table):
    query = AggQuery(
        table=flights_table.name,
        bins=(BinDimension(field="DISTANCE", kind=BinKind.QUANTITATIVE, bin_count=10),),
        aggregates=(Aggregate(func=AggFunc.COUNT),),
    )
    from repro.common.errors import QueryError

    with pytest.raises(QueryError):
        CompiledQueryKernel(flights_dataset, query)


#: Two quantitative dimensions whose codes span 2**32 + 2 and 2**30: the
#: product of the spans passes 2**62, yet their dense ranks pack small.
WIDE_TABLE = Table(
    "wide",
    {
        "a": np.array([0.0, float(2**32 + 1), 0.0, 5.0]),
        "b": np.array([0.0, float(2**30 - 1), float(2**30 - 1), 7.0]),
        "m": np.array([1.0, 2.0, 3.0, 4.0]),
    },
)
WIDE_BINS = (
    BinDimension(field="a", kind=BinKind.QUANTITATIVE, width=1.0, reference=0.0),
    BinDimension(field="b", kind=BinKind.QUANTITATIVE, width=1.0, reference=0.0),
)


def test_wide_code_spans_compile_and_match_the_reference():
    """Code spans whose product passes 2**62 compile like any other 2-D
    query: lexicographic keys, incremental polls, the reference's bytes."""
    dataset = Dataset.from_table(WIDE_TABLE)
    query = AggQuery(
        table="wide", bins=WIDE_BINS, aggregates=(Aggregate(func=AggFunc.SUM, field="m"),)
    )
    kernel = CompiledQueryKernel(dataset, query)
    assert kernel.all_rows_pass
    assert kernel._keys == [(0, 0), (0, 2**30 - 1), (5, 7), (2**32 + 1, 2**30 - 1)]
    assert_stats_equal(kernel.evaluate(None), compute_grouped_stats(dataset, query))
    prefix = np.array([1, 3, 0], dtype=np.int64)
    assert_stats_equal(
        kernel.evaluate(prefix), compute_grouped_stats(dataset, query, prefix)
    )
    run = PrefixKernelRun(kernel, prefix, offset=0)
    for n in (1, 2, 3):
        assert_stats_equal(
            run.poll(n), compute_grouped_stats(dataset, query, prefix[:n])
        )
    assert run.rebuilds == 0


# ----------------------------------------------------------------------
# Groups no passing row reaches: in the kernel, never in an answer
# ----------------------------------------------------------------------
def _with_nan_delays(table: Table) -> Table:
    """``table`` plus ``NAN_DELAY``: ``DEP_DELAY`` with every ninth value
    NaN, so binning it makes a group of the NaN rows (their codes cast to
    an int64 extreme) that a range filter on it removes."""
    delays = table["DEP_DELAY"].astype(np.float64)
    delays[4::9] = np.nan
    return table.with_columns({"NAN_DELAY": delays})


WHOLE_GROUPS_TABLE = _with_nan_delays(generate_flights_seed(500, seed=4))
WHOLE_GROUPS_DATASET = Dataset.from_table(WHOLE_GROUPS_TABLE)
WHOLE_GROUPS_CARRIERS = sorted(set(WHOLE_GROUPS_TABLE["UNIQUE_CARRIER"].tolist()))


def _quant_dim(field: str, width: float) -> BinDimension:
    return BinDimension(field=field, kind=BinKind.QUANTITATIVE, width=width, reference=0.0)


WHOLE_GROUPS_BINS = (
    (BinDimension(field="UNIQUE_CARRIER", kind=BinKind.NOMINAL),),
    (_quant_dim("MONTH", 1.0),),
    (_quant_dim("DEP_DELAY", 20.0),),
    (_quant_dim("NAN_DELAY", 25.0),),
    (_quant_dim("MONTH", 2.0), BinDimension(field="UNIQUE_CARRIER", kind=BinKind.NOMINAL)),
    # NaN codes sit at the int64 minimum, in either dimension: ranks pack them.
    (_quant_dim("NAN_DELAY", 40.0), BinDimension(field="ORIGIN_STATE", kind=BinKind.NOMINAL)),
    (BinDimension(field="ORIGIN_STATE", kind=BinKind.NOMINAL), _quant_dim("NAN_DELAY", 40.0)),
)
_WHOLE_GROUP_FILTERS = st.one_of(
    st.lists(st.sampled_from(WHOLE_GROUPS_CARRIERS), min_size=1, max_size=4).map(
        lambda kept: SetPredicate("UNIQUE_CARRIER", frozenset(kept))
    ),
    st.tuples(st.integers(1, 12), st.integers(1, 4)).map(
        lambda low_size: RangePredicate("MONTH", low_size[0], sum(low_size))
    ),
    st.tuples(st.integers(-20, 150), st.integers(10, 200)).map(
        lambda low_size: RangePredicate("NAN_DELAY", float(low_size[0]), float(sum(low_size)))
    ),
    st.integers(1, 12).map(lambda month: Comparison("MONTH", "!=", month)),
)
_WHOLE_GROUP_AGGREGATES = (
    Aggregate(func=AggFunc.COUNT),
    Aggregate(func=AggFunc.SUM, field="DISTANCE"),
    Aggregate(func=AggFunc.AVG, field="NAN_DELAY"),
    Aggregate(func=AggFunc.MIN, field="ARR_DELAY"),
    Aggregate(func=AggFunc.MAX, field="AIR_TIME"),
)


def _assert_columns_equal(fast, naive):
    assert list(fast.keys) == list(naive.keys)
    for rows in ("values", "margins", "bounded"):
        for a, b in zip(getattr(fast, rows), getattr(naive, rows)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), rows


@hyp_settings(max_examples=60, deadline=None)
@given(
    bins=st.sampled_from(WHOLE_GROUPS_BINS),
    filter_expr=st.one_of(
        _WHOLE_GROUP_FILTERS,
        st.tuples(_WHOLE_GROUP_FILTERS, _WHOLE_GROUP_FILTERS).map(lambda pair: And(*pair)),
    ),
    aggregates=st.lists(
        st.sampled_from(_WHOLE_GROUP_AGGREGATES), min_size=1, max_size=3, unique=True
    ),
    offset=st.integers(0, 499),
    schedule=st.lists(st.integers(0, 500), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_filters_removing_whole_groups_match_the_reference(
    bins, filter_expr, aggregates, offset, schedule, seed
):
    """A kernel keeps the plan's groups, including those its filter never
    reaches; every answer is still bitwise the reference's, which only
    ever sees the rows it is given."""
    dataset = WHOLE_GROUPS_DATASET
    query = AggQuery(
        table="flights", bins=bins, aggregates=tuple(aggregates), filter=filter_expr
    )
    permutation = np.random.default_rng(seed).permutation(dataset.num_fact_rows)
    sample = permutation[:150]
    stratum_of_row = np.arange(len(sample)) % 3
    # The reference casts passing NaN rows to bin codes in the open (and
    # so warns); which rows warn is not what this property is about.
    with np.errstate(invalid="ignore"):
        kernel = CompiledQueryKernel(dataset, query)
        for rows in (None, sample):
            assert_stats_equal(
                kernel.evaluate(rows), compute_grouped_stats(dataset, query, rows)
            )
        assert_exact_equal(kernel.exact_stats(), compute_grouped_stats(dataset, query))
        # ...and so is the exact answer, NaN cells and signed zeros included.
        exact = evaluate_exact(dataset, query).columns
        reference = stats_to_exact_values(compute_grouped_stats(dataset, query))
        assert list(exact.keys) == list(reference.keys)
        assert [(row.dtype, row.tobytes()) for row in exact.values] == [
            (row.dtype, row.tobytes()) for row in reference.values
        ]

        run = PrefixKernelRun(kernel, permutation, offset)
        for n in schedule:
            rows = np.roll(permutation, -offset)[:n]
            assert_stats_equal(run.poll(n), compute_grouped_stats(dataset, query, rows))

        grid = kernel.evaluate_strata(sample, stratum_of_row, 3)
        reference = grid_from_stats(
            query,
            [
                compute_grouped_stats(dataset, query, sample[stratum_of_row == h])
                for h in range(3)
            ],
        )
        assert grid.counts.any() == reference.counts.any()
        if reference.counts.any():  # as the stratified engine asks
            _assert_columns_equal(
                *(
                    stratified_estimate(
                        query, StrataMoments(cells, [0.5, 0.3, 0.2], [50, 50, 50]), 0.95
                    )
                    for cells in (grid, reference)
                )
            )


INT64_MIN = int(np.iinfo(np.int64).min)
NAN_DELAY_40 = _quant_dim("NAN_DELAY", 40.0)
ORIGIN_STATE = BinDimension(field="ORIGIN_STATE", kind=BinKind.NOMINAL)


def test_nan_codes_in_the_first_dimension_key_as_in_one_dimension():
    """A NaN first coordinate used to wrap the mixed-radix packing into
    keys that were not even int64. Now the keys' first coordinates are
    the true codes, the NaN rows sit under the int64-minimum key as they
    do in 1-D, and summing the 2-D counts over the second dimension gives
    the 1-D answer."""
    dataset = WHOLE_GROUPS_DATASET
    count = (Aggregate(func=AggFunc.COUNT),)
    two_d = evaluate_exact(
        dataset, AggQuery(table="flights", bins=(NAN_DELAY_40, ORIGIN_STATE), aggregates=count)
    ).columns
    one_d = evaluate_exact(
        dataset, AggQuery(table="flights", bins=(NAN_DELAY_40,), aggregates=count)
    ).columns
    delays = WHOLE_GROUPS_TABLE["NAN_DELAY"]
    true_codes = set(np.floor(delays[~np.isnan(delays)] / 40.0).astype(np.int64).tolist())
    assert {key[0] for key in two_d.keys} == true_codes | {INT64_MIN}
    assert [key[0] for key in one_d.keys] == sorted(true_codes | {INT64_MIN})
    marginal = dict.fromkeys((key[0] for key in one_d.keys), 0.0)
    for key, rows in zip(two_d.keys, two_d.values[0].tolist()):
        marginal[key[0]] += rows
    assert list(marginal.values()) == one_d.values[0].tolist()
    assert marginal[INT64_MIN] == np.isnan(delays).sum()


def test_nan_codes_in_the_second_dimension_compile_incrementally():
    """A NaN second coordinate used to raise ``OverflowError``. Now the
    query compiles, polls incrementally and matches the reference value
    for value."""
    dataset = WHOLE_GROUPS_DATASET
    query = AggQuery(
        table="flights",
        bins=(ORIGIN_STATE, NAN_DELAY_40),
        aggregates=_WHOLE_GROUP_AGGREGATES,
    )
    kernel = CompiledQueryKernel(dataset, query)
    assert INT64_MIN in {key[1] for key in kernel._keys}
    permutation = np.random.default_rng(38).permutation(dataset.num_fact_rows)
    run = PrefixKernelRun(kernel, permutation, offset=123)
    with np.errstate(invalid="ignore"):  # the reference casts NaN codes
        for n in (40, 200, 500):
            rows = np.roll(permutation, -123)[:n]
            assert_stats_equal(run.poll(n), compute_grouped_stats(dataset, query, rows))
        assert run.rebuilds == 0
        reference = stats_to_exact_values(compute_grouped_stats(dataset, query))
    exact = evaluate_exact(dataset, query).columns
    assert list(exact.keys) == list(reference.keys)
    assert [row.tobytes() for row in exact.values] == [
        row.tobytes() for row in reference.values
    ]


# ----------------------------------------------------------------------
# Satellite 5 regression: one gather per distinct column, per poll
# ----------------------------------------------------------------------
def _counting_dataset(dataset: Dataset):
    calls = []
    original = dataset.gather_column

    class _Counting:
        def gather_column(self, name):
            calls.append(name)
            return original(name)

        def __getattr__(self, attr):
            return getattr(dataset, attr)

    return _Counting(), calls


def test_gather_column_called_once_per_column_per_poll(flights_dataset, flights_table):
    """The naive path gathers each distinct column exactly once per call."""
    query = AggQuery(
        table=flights_table.name,
        bins=(BinDimension(field="ARR_DELAY", kind=BinKind.QUANTITATIVE, width=10.0, reference=0.0),),
        aggregates=(
            Aggregate(func=AggFunc.AVG, field="ARR_DELAY"),  # same field as bin
            Aggregate(func=AggFunc.SUM, field="ARR_DELAY"),  # and again
        ),
        filter=RangePredicate("ARR_DELAY", -30.0, 90.0),  # and in the filter
    )
    proxy, calls = _counting_dataset(flights_dataset)
    compute_grouped_stats(proxy, query, np.arange(500))
    assert calls == ["ARR_DELAY"], calls


def test_compiled_kernel_gathers_only_at_compile_time(flights_dataset, flights_table):
    """Polling a compiled kernel touches gather_column zero times, and
    compiling it gathers only the numeric filter column: the nominal bin
    reads the table's codes and the aggregate its stored value column."""
    query = AggQuery(
        table=flights_table.name,
        bins=(BinDimension(field="ORIGIN", kind=BinKind.NOMINAL),),
        aggregates=(
            Aggregate(func=AggFunc.COUNT),
            Aggregate(func=AggFunc.AVG, field="DEP_DELAY"),
        ),
        filter=RangePredicate("DISTANCE", 100.0, 2000.0),
    )
    proxy, calls = _counting_dataset(flights_dataset)
    kernel = CompiledQueryKernel(proxy, query)
    compile_calls = list(calls)
    assert compile_calls == ["DISTANCE"]
    for n in (100, 500, 2000):
        kernel.evaluate(np.arange(n))
    assert calls == compile_calls  # zero per-poll gathers


# ----------------------------------------------------------------------
# Group-id dtypes at their boundaries: 127/128 and 32,767/32,768 groups
# ----------------------------------------------------------------------
#: Group count -> the dtype the narrowest-index rule gives its ids.
BOUNDARY_DTYPES = {127: np.int8, 128: np.int16, 32_767: np.int16, 32_768: np.int32}
#: Rows past the first ``groups`` (which reach every group once).
_BOUNDARY_EXTRA_ROWS = 1_000
#: In 2-D the first dimension is ``k // 64`` and the second ``k % 64``
#: (as a string), so each stays narrow while their pack crosses.
_PACK_WIDTH = 64


@functools.lru_cache(maxsize=None)
def boundary_dataset(groups: int) -> Dataset:
    """Every row's group ``k`` in ``[0, groups)``, each reached at least
    once, as a quantitative code (``q``), a category (``s``) and a
    (quantitative, category) pair (``hi``, ``lo``), plus a metric ``m``
    that range filters cut."""
    rng = np.random.default_rng(groups)
    k = np.concatenate(
        [rng.permutation(groups), rng.integers(0, groups, _BOUNDARY_EXTRA_ROWS)]
    )
    return Dataset.from_table(
        Table(
            "boundary",
            {
                "q": k + 0.5,
                "s": np.char.add("c", np.char.zfill(k.astype(str), 5)),
                "hi": (k // _PACK_WIDTH).astype(np.float64),
                "lo": np.char.add("d", (k % _PACK_WIDTH).astype(str)),
                "m": rng.normal(0.0, 1.0, len(k)),
            },
        )
    )


BOUNDARY_BINS = {
    "quantitative": (_quant_dim("q", 1.0),),
    "nominal": (BinDimension(field="s", kind=BinKind.NOMINAL),),
    "2-D pack": (
        _quant_dim("hi", 1.0),
        BinDimension(field="lo", kind=BinKind.NOMINAL),
    ),
}
BOUNDARY_AGGREGATES = (
    Aggregate(func=AggFunc.COUNT),
    Aggregate(func=AggFunc.AVG, field="m"),
    Aggregate(func=AggFunc.MIN, field="q"),
)


@pytest.mark.parametrize("groups", sorted(BOUNDARY_DTYPES))
@pytest.mark.parametrize("bins", sorted(BOUNDARY_BINS))
@hyp_settings(max_examples=3, deadline=None)
@given(
    cut=st.tuples(st.floats(-2.0, 0.5), st.floats(0.1, 3.0)),
    fractions=st.tuples(*(st.floats(0.0, 1.0) for _ in range(4))),
    seed=st.integers(0, 2**16),
)
def test_group_id_dtype_boundaries_match_the_reference(
    groups, bins, cut, fractions, seed
):
    """At each dtype boundary the plan's and the filtered grouping's ids
    take exactly the rule's dtype, and every answer — from scratch, by
    wrapping and shrinking prefix polls, by strata — is bitwise the
    reference's."""
    dataset = boundary_dataset(groups)
    rows = dataset.num_fact_rows
    low, width = cut
    query = AggQuery(
        table="boundary",
        bins=BOUNDARY_BINS[bins],
        aggregates=BOUNDARY_AGGREGATES,
        filter=RangePredicate("m", low, low + width),
    )
    kernel = CompiledQueryKernel(dataset, query)
    assert kernel.num_groups == groups
    assert not kernel.all_rows_pass
    assert kernel._grouping.plan.gid.dtype == BOUNDARY_DTYPES[groups]
    assert kernel._row_gid.dtype == BOUNDARY_DTYPES[groups]

    permutation = np.random.default_rng(seed).permutation(rows)
    sample = permutation[:600]
    for subset in (None, sample):
        assert_stats_equal(
            kernel.evaluate(subset), compute_grouped_stats(dataset, query, subset)
        )

    # A poll that wraps past the permutation's end, then one that shrinks.
    offset_f, first_f, wrap_f, shrink_f = fractions
    offset = 1 + int(offset_f * (rows - 2))
    wrap = rows - offset + 1 + int(wrap_f * (offset - 1))
    run = PrefixKernelRun(kernel, permutation, offset)
    rotation = np.roll(permutation, -offset)
    for n in (int(first_f * wrap), wrap, int(shrink_f * (wrap - 1))):
        assert_stats_equal(run.poll(n), compute_grouped_stats(dataset, query, rotation[:n]))
    assert run.rebuilds == 1

    stratum_of_row = np.arange(len(sample)) % 3
    grid = kernel.evaluate_strata(sample, stratum_of_row, 3)
    reference = grid_from_stats(
        query,
        [
            compute_grouped_stats(dataset, query, sample[stratum_of_row == h])
            for h in range(3)
        ],
    )
    assert grid.counts.any() == reference.counts.any()
    if reference.counts.any():
        _assert_columns_equal(
            *(
                stratified_estimate(
                    query, StrataMoments(cells, [0.5, 0.3, 0.2], [200, 200, 200]), 0.95
                )
                for cells in (grid, reference)
            )
        )
