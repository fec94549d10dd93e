"""Aggregate once, and only what is read.

Three kernel behaviours the differential suite does not name:

* ``evaluate_strata`` — one scatter over a concatenated stratified sample
  — fills a ``(stratum, group)`` grid whose rows equal per-stratum
  ``evaluate`` calls bit for bit;
* ``GroupedStats`` carries exactly the moment arrays its reader reads,
  from the kernel and from the reference alike — an exact answer no
  sums of squares;
* a kernel whose filter passes every row accumulates without the
  ``gid >= 0`` compress; one that passes some or no row compresses by
  index, through ``evaluate``, ``evaluate_strata`` and a prefix run;
* both take integer row positions only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import QueryError
from repro.data.storage import Dataset, Table
from repro.engines.estimators import stratified_estimate
from repro.engines.sampling import StratifiedSamplingEngine
from repro.query.filters import Comparison, RangePredicate
from repro.query.groundtruth import StrataGrid
from repro.query.kernels import CompiledQueryKernel, PrefixKernelRun
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

import test_estimator_pins as pins
from reference_kernels import compute_grouped_stats
from test_kernels_differential import (
    WIDE_BINS,
    WIDE_TABLE,
    assert_exact_equal,
    assert_stats_equal,
)

ALL_FUNCS = (
    Aggregate(AggFunc.COUNT),
    Aggregate(AggFunc.SUM, "ARR_DELAY"),
    Aggregate(AggFunc.AVG, "DISTANCE"),
    Aggregate(AggFunc.MIN, "ARR_DELAY"),
    Aggregate(AggFunc.MAX, "AIR_TIME"),
)


def _strata(num_rows: int, num_strata: int, seed: int):
    """Disjoint sorted row samples, concatenated, with their stratum ids."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, num_strata, size=num_rows)
    samples = []
    for h in range(num_strata):
        members = np.flatnonzero(owner == h)
        size = 0 if h == 1 else max(1, len(members) // 5)  # stratum 1: empty
        samples.append(np.sort(rng.choice(members, size=size, replace=False)))
    sizes = [len(sample) for sample in samples]
    return (
        samples,
        np.concatenate(samples),
        np.repeat(np.arange(num_strata), sizes),
    )


def _filled_keys(grid: StrataGrid) -> list:
    """The grid's keys whose column some stratum holds a row of, in order."""
    return [grid.keys[g] for g in np.flatnonzero(grid.counts.any(axis=0))]


def assert_grid_equals_per_stratum(kernel: CompiledQueryKernel, num_strata=6):
    """Row ``h`` of the grid is stratum ``h``'s ``evaluate``, spread over
    the kernel's groups: every other cell is +0.0, or the fold's
    identity. Over the whole table, the filled columns are exactly the
    keys of ``exact_stats``, in order; no other column is ever filled."""
    everything = np.arange(kernel.num_rows)
    whole = kernel.evaluate_strata(everything, np.zeros_like(everything), 1)
    assert _filled_keys(whole) == kernel.exact_stats().keys
    samples, rows, stratum_of_row = _strata(kernel.num_rows, num_strata, seed=3)
    grid = kernel.evaluate_strata(rows, stratum_of_row, num_strata)
    assert grid.keys == whole.keys
    assert set(_filled_keys(grid)) <= set(kernel.exact_stats().keys)
    column = {key: g for g, key in enumerate(grid.keys)}
    moments = ("sums", "sumsqs", "mins", "maxs")
    absent = {"sums": 0.0, "sumsqs": 0.0, "mins": np.inf, "maxs": -np.inf}
    for h, sample in enumerate(samples):
        alone = kernel.evaluate(sample)
        held = [column[key] for key in alone.keys]
        others = np.setdiff1d(np.arange(len(grid.keys)), held)
        assert grid.counts.dtype == alone.counts.dtype
        assert grid.counts[h, held].tobytes() == alone.counts.tobytes()
        assert not grid.counts[h, others].any()
        for name in moments:
            cells, expected = getattr(grid, name), getattr(alone, name)
            assert sorted(cells) == sorted(expected)
            for j in expected:
                assert cells[j].dtype == expected[j].dtype
                assert cells[j][h, held].tobytes() == expected[j].tobytes()
                # absent cells are exact: +0.0, or the fold's identity
                assert (
                    cells[j][h, others].tobytes()
                    == np.full(len(others), absent[name]).tobytes()
                )


def test_strata_grid_equals_per_stratum_evaluate_filtered_2d(flights_dataset):
    query = AggQuery(
        "flights",
        bins=(
            BinDimension("ORIGIN_STATE", BinKind.NOMINAL),
            BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=30.0),
        ),
        aggregates=ALL_FUNCS,
        filter=RangePredicate("DISTANCE", 300.0, 1500.0),
    )
    kernel = CompiledQueryKernel(flights_dataset, query)
    assert not kernel.all_rows_pass
    assert_grid_equals_per_stratum(kernel)


@pytest.fixture(scope="module")
def edge_dataset():
    values = np.linspace(-5.0, 5.0, 400)
    values[[7, 8, 150]] = np.nan
    values[44] = -0.0
    table = Table(
        "edge",
        {
            "id": np.arange(400),
            "bucket": np.arange(400) % 7,
            "category": np.array([f"c{i % 3}" for i in range(400)]),
            "metric": values,
        },
    )
    return Dataset.from_table(table)


@pytest.mark.parametrize("filter_expr", [None, RangePredicate("bucket", 1, None)])
def test_strata_grid_equals_per_stratum_evaluate_nan_column(
    edge_dataset, filter_expr
):
    query = AggQuery(
        "edge",
        bins=(BinDimension("category", BinKind.NOMINAL),),
        aggregates=tuple(
            Aggregate(func, "metric")
            for func in (AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX)
        ),
        filter=filter_expr,
    )
    assert_grid_equals_per_stratum(CompiledQueryKernel(edge_dataset, query))


def test_wide_code_spans_lay_strata_in_one_pass(tiny_settings):
    # Code spans whose product passes 2**62 compile like any other 2-D
    # query (see test_wide_code_spans_compile_and_match_the_reference).
    dataset = Dataset.from_table(WIDE_TABLE)
    query = AggQuery(
        "wide",
        bins=WIDE_BINS,
        aggregates=(Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, "m")),
    )
    kernel = CompiledQueryKernel(dataset, query)
    assert kernel.all_rows_pass

    # Its one-pass grid holds the reference, stratum by stratum (stratum 1
    # is empty), on the kernel's canonical keys.
    samples = [np.array([0, 1]), np.array([], dtype=np.int64), np.array([2, 3])]
    grid = kernel.evaluate_strata(
        np.concatenate(samples), np.array([0, 0, 2, 2]), len(samples)
    )
    assert grid.keys == kernel._keys and len(grid.keys) == 4
    assert grid.counts.tolist() == [[1, 0, 0, 1], [0, 0, 0, 0], [0, 1, 1, 0]]
    for h, rows in enumerate(samples):
        assert_grid_row_equals(grid, h, compute_grouped_stats(dataset, query, rows))

    # ...and the engine answers from it what the reference answers.
    engine = StratifiedSamplingEngine(
        dataset, tiny_settings, VirtualClock(), sampling_rate=0.75
    )
    engine.prepare()
    handle = engine.submit(query)
    engine.clock.advance_to(60.0)
    engine.advance_to(60.0)
    result = engine.result_at(handle, 60.0)
    strata = [
        pins.Stratum(
            compute_grouped_stats(dataset, query, indices), weight, len(indices)
        )
        for indices, weight in engine._strata
    ]
    values, margins = stratified_estimate(
        query, pins.strata_moments(query, strata), tiny_settings.confidence_level
    )
    assert len(values) == 3
    assert result.values == values and result.margins == margins


# ----------------------------------------------------------------------
# Moments on demand
# ----------------------------------------------------------------------
READS = {
    AggFunc.COUNT: set(),
    AggFunc.SUM: {"sums", "sumsqs"},
    AggFunc.AVG: {"sums", "sumsqs"},
    AggFunc.MIN: {"mins"},
    AggFunc.MAX: {"maxs"},
}


@pytest.mark.parametrize(
    "funcs",
    [
        (AggFunc.COUNT,),
        (AggFunc.SUM,),
        (AggFunc.AVG,),
        (AggFunc.MIN,),
        (AggFunc.MAX,),
        (AggFunc.COUNT, AggFunc.AVG),
        (AggFunc.MAX, AggFunc.SUM, AggFunc.COUNT, AggFunc.MIN, AggFunc.AVG),
    ],
    ids=lambda funcs: "+".join(func.value for func in funcs),
)
def test_stats_hold_exactly_the_moments_their_aggregates_read(
    flights_dataset, funcs
):
    query = AggQuery(
        "flights",
        bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
        aggregates=tuple(
            Aggregate(func) if func is AggFunc.COUNT else Aggregate(func, "DISTANCE")
            for func in funcs
        ),
    )
    rows = np.arange(0, flights_dataset.num_fact_rows, 3)
    kernel = CompiledQueryKernel(flights_dataset, query)
    grid = kernel.evaluate_strata(rows, np.zeros(len(rows), dtype=np.int64), 1)
    for stats in (
        compute_grouped_stats(flights_dataset, query, rows),
        kernel.evaluate(rows),
        grid,
    ):
        for name in ("sums", "sumsqs", "mins", "maxs"):
            expected = [j for j, func in enumerate(funcs) if name in READS[func]]
            assert sorted(getattr(stats, name)) == expected, name


def test_exact_answers_fold_no_sums_of_squares(flights_dataset):
    """The reader joins the rule: an exact answer reads counts, sums,
    mins and maxs, so the exact fold holds no ``sumsqs``; the estimating
    folds keep theirs. Each is still bitwise the reference."""
    query = AggQuery(
        "flights",
        bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
        aggregates=ALL_FUNCS,
        filter=RangePredicate("DISTANCE", 300.0, 1500.0),
    )
    kernel = CompiledQueryKernel(flights_dataset, query)
    exact = kernel.exact_stats()
    assert exact.sumsqs == {}
    assert (sorted(exact.sums), sorted(exact.mins), sorted(exact.maxs)) == (
        [1, 2], [3], [4]
    )
    assert_exact_equal(exact, compute_grouped_stats(flights_dataset, query))

    permutation = np.random.default_rng(4).permutation(kernel.num_rows)
    for rows in (None, permutation[:300]):
        stats = kernel.evaluate(rows)
        assert sorted(stats.sumsqs) == [1, 2]
        assert_stats_equal(stats, compute_grouped_stats(flights_dataset, query, rows))
    run = PrefixKernelRun(kernel, permutation, offset=0)
    for n in (100, 300):
        stats = run.poll(n)
        assert sorted(stats.sumsqs) == [1, 2]
        assert_stats_equal(
            stats, compute_grouped_stats(flights_dataset, query, permutation[:n])
        )
    samples, rows, stratum_of_row = _strata(kernel.num_rows, 4, seed=7)
    grid = kernel.evaluate_strata(rows, stratum_of_row, len(samples))
    assert sorted(grid.sumsqs) == [1, 2]
    for h, sample in enumerate(samples):
        assert_grid_row_equals(
            grid, h, compute_grouped_stats(flights_dataset, query, sample)
        )


# ----------------------------------------------------------------------
# The all-rows-pass fast path
# ----------------------------------------------------------------------
def _edge_query(filter_expr):
    return AggQuery(
        "edge",
        bins=(BinDimension("bucket", BinKind.QUANTITATIVE, width=2.0),),
        aggregates=(Aggregate(AggFunc.COUNT),)
        + tuple(
            Aggregate(func, "metric")
            for func in (AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX)
        ),
        filter=filter_expr,
    )


def assert_grid_row_equals(grid: StrataGrid, h: int, expected) -> None:
    """Row ``h`` of ``grid``, restricted to the groups it holds, is
    bitwise the :class:`GroupedStats` ``expected``."""
    held = np.flatnonzero(grid.counts[h])
    assert [grid.keys[g] for g in held] == expected.keys
    assert grid.counts.dtype == expected.counts.dtype
    assert grid.counts[h, held].tobytes() == expected.counts.tobytes()
    for name in ("sums", "sumsqs", "mins", "maxs"):
        cells, moments = getattr(grid, name), getattr(expected, name)
        assert sorted(cells) == sorted(moments)
        for j in moments:
            assert cells[j][h, held].tobytes() == moments[j].tobytes()


@pytest.mark.parametrize(
    "filter_expr, all_pass",
    [
        (None, True),
        (RangePredicate("id", 0, None), True),  # explicit, always true
        (Comparison("id", "!=", 17), False),  # fails exactly one row
        (RangePredicate("id", 400, None), False),  # passes no row
    ],
    ids=["unfiltered", "always-true", "fails-one-row", "passes-no-row"],
)
def test_filters_passing_every_row_skip_the_compress(
    edge_dataset, filter_expr, all_pass
):
    query = _edge_query(filter_expr)
    kernel = CompiledQueryKernel(edge_dataset, query)
    assert kernel.all_rows_pass is all_pass
    rng = np.random.default_rng(17)
    for rows in (None, rng.permutation(400)[:123], np.array([17]), np.array([], int)):
        assert_stats_equal(
            kernel.evaluate(rows), compute_grouped_stats(edge_dataset, query, rows)
        )
    # A stratified sample in one pass (stratum 1 is empty)...
    samples, rows, stratum_of_row = _strata(400, 4, seed=5)
    grid = kernel.evaluate_strata(rows, stratum_of_row, len(samples))
    for h, sample in enumerate(samples):
        assert_grid_row_equals(
            grid, h, compute_grouped_stats(edge_dataset, query, sample)
        )
    # ...and the prefixes of a rotation that wraps past its end.
    permutation = rng.permutation(400)
    run = PrefixKernelRun(kernel, permutation, offset=300)
    for n in (0, 50, 90, 130, 400, 60):
        assert_stats_equal(
            run.poll(n),
            compute_grouped_stats(
                edge_dataset, query, np.roll(permutation, -300)[:n]
            ),
        )


def test_fast_path_equals_compress_path_on_the_same_kernel(edge_dataset):
    kernel = CompiledQueryKernel(edge_dataset, _edge_query(None))
    assert kernel.all_rows_pass
    rows = np.arange(0, 400, 3)
    fast = kernel.evaluate(rows)
    kernel.all_rows_pass = False  # the same kernel, through the compress
    assert_stats_equal(fast, kernel.evaluate(rows))


# ----------------------------------------------------------------------
# Row positions
# ----------------------------------------------------------------------
def test_row_positions_must_be_integers(edge_dataset, fallback_kernels):
    """``take`` would read a boolean mask as positions 0 and 1 (and the
    reference would select by it, counting every mask cell as scanned):
    compiled folds and folds through the reference refuse anything but
    integer positions, and read a list as the positions it holds."""
    query = _edge_query(Comparison("id", "!=", 17))
    mask = np.arange(400) % 3 == 0
    strata = np.arange(400) % 2

    def check(kernel):
        for rows in (mask, mask.nonzero()[0].astype(np.float64), [True, False]):
            with pytest.raises(QueryError, match="integers"):
                kernel.evaluate(rows)
            with pytest.raises(QueryError, match="integers"):
                kernel.evaluate_strata(rows, strata[: len(rows)], 2)
        positions = [5, 17, 399, 3]
        assert_stats_equal(
            kernel.evaluate(positions),
            compute_grouped_stats(edge_dataset, query, np.array(positions)),
        )
        expected = kernel.evaluate_strata(np.array(positions), strata[:4], 2)
        listed = kernel.evaluate_strata(positions, strata[:4], 2)
        assert listed.keys == expected.keys
        assert listed.counts.tobytes() == expected.counts.tobytes()

    check(CompiledQueryKernel(edge_dataset, query))
    with fallback_kernels() as entries:
        check(CompiledQueryKernel(edge_dataset, query))
    assert entries["fold"] and entries["evaluate_strata"]
