"""Differential test layer: compiled kernels ≡ the uncompiled path, bit for bit.

The compiled-query kernel (``repro.query.kernels``) exists purely as an
optimization; its contract is that every result it produces — keys,
counts, per-group moment arrays, estimator outputs — is **bitwise
identical** to ``compute_grouped_stats``. A seeded generator produces
hundreds of random resolved queries spanning every filter shape, bin
type and aggregate mix (plus empty-result and NaN/inf edges), and each
one is checked over the full table and random row-index prefixes.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest

from repro.data.storage import Dataset, Table
from repro.engines.estimators import srs_estimate
from repro.query.filters import (
    And,
    Comparison,
    Or,
    RangePredicate,
    SetPredicate,
)
from repro.query.groundtruth import compute_grouped_stats
from repro.query.kernels import CompiledQueryKernel
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

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


def assert_stats_equal(fast, naive):
    assert fast.keys == naive.keys
    assert fast.counts.dtype == naive.counts.dtype
    assert fast.counts.tobytes() == naive.counts.tobytes()
    assert fast.rows_aggregated == naive.rows_aggregated
    assert fast.rows_scanned == naive.rows_scanned
    for name in ("sums", "sumsqs", "mins", "maxs"):
        fast_dict = getattr(fast, name)
        naive_dict = getattr(naive, name)
        assert sorted(fast_dict) == sorted(naive_dict)
        for j in naive_dict:
            assert fast_dict[j].dtype == naive_dict[j].dtype, (name, j)
            assert fast_dict[j].tobytes() == naive_dict[j].tobytes(), (name, j)


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


def test_packing_overflow_falls_back_to_naive_path():
    """Huge 2-D code spans compile in fallback mode yet stay equivalent.

    Spans are chosen in the gap between the kernel's conservative 2**62
    packing guard and the true int64 limit, so the uncompiled path still
    produces a valid answer to compare against: first span 2**32 + 2,
    second span 2**30 gives a maximum packed code just above 2**62.
    """
    table = Table(
        "wide",
        {
            "a": np.array([0.0, float(2**32 + 1), 0.0, 5.0]),
            "b": np.array([0.0, float(2**30 - 1), float(2**30 - 1), 7.0]),
            "m": np.array([1.0, 2.0, 3.0, 4.0]),
        },
    )
    dataset = Dataset.from_table(table)
    query = AggQuery(
        table="wide",
        bins=(
            BinDimension(field="a", kind=BinKind.QUANTITATIVE, width=1.0, reference=0.0),
            BinDimension(field="b", kind=BinKind.QUANTITATIVE, width=1.0, reference=0.0),
        ),
        aggregates=(Aggregate(func=AggFunc.SUM, field="m"),),
    )
    kernel = CompiledQueryKernel(dataset, query)
    assert not kernel.supports_incremental
    naive = compute_grouped_stats(dataset, query)
    assert_stats_equal(kernel.evaluate(None), naive)
    prefix = np.array([1, 3, 0], dtype=np.int64)
    assert_stats_equal(
        kernel.evaluate(prefix), compute_grouped_stats(dataset, query, prefix)
    )


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
    """Polling a compiled kernel touches gather_column zero times."""
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
    assert sorted(set(compile_calls)) == ["DEP_DELAY", "DISTANCE", "ORIGIN"]
    assert len(compile_calls) == 3  # once per distinct column, total
    for n in (100, 500, 2000):
        kernel.evaluate(np.arange(n))
    assert calls == compile_calls  # zero per-poll gathers
