"""Kernels share what their queries have in common — and nothing shows.

A compile builds one binning plan per ``bins``, one mask per ``filter``
and one grouping per (bins, filter) pair, each only while no live kernel
of the dataset already holds it (``repro.query.kernels``). This suite
pins the three things that makes safe:

* whatever order queries compile in, and whichever parts happen to be
  alive when they do, every kernel answers bit for bit what a solitary
  cold compile and the reference ``compute_grouped_stats`` answer;
* the sharing is real (``is``) and every shared array is read-only;
* a part dies with the last kernel holding it, a failed build leaves
  nothing behind, and a re-compile after eviction returns the same bytes.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.common.errors import QueryError
from repro.data.normalize import normalize
from repro.data.seed import generate_flights_seed
from repro.data.storage import Dataset, Table
from repro.engines.kernel_cache import (
    KernelCache,
    clear_kernel_cache,
    configure_kernel_cache,
    get_kernel,
    kernel_cache,
)
from repro.engines.estimators import StrataMoments, stratified_estimate
from repro.query import kernels as kernels_module
from repro.query.filters import And, Comparison, Or, RangePredicate, SetPredicate
from repro.query.kernels import CompiledQueryKernel, PrefixKernelRun
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

from reference_kernels import compute_grouped_stats
from test_kernels_differential import (
    EXACT_MOMENTS,
    WIDE_BINS,
    WIDE_TABLE,
    _counting_dataset,
    assert_exact_equal,
    assert_stats_equal,
)

NUM_ROWS = 400
TABLE = generate_flights_seed(NUM_ROWS, seed=3)
CARRIERS = sorted(set(TABLE["UNIQUE_CARRIER"].tolist()))


def _quant(field: str, width: float, reference: float = 0.0) -> BinDimension:
    return BinDimension(field, BinKind.QUANTITATIVE, width=width, reference=reference)


BINS = (
    (BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
    (BinDimension("ORIGIN_STATE", BinKind.NOMINAL),),
    (_quant("DEP_DELAY", 20.0),),
    (_quant("DISTANCE", 250.0, reference=-10.0),),
    (_quant("MONTH", 1.0), BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL)),
    (BinDimension("DEST_STATE", BinKind.NOMINAL), _quant("ARR_DELAY", 30.0)),
)
FILTERS = (
    None,
    RangePredicate("DISTANCE", -1.0, None),  # passes everything
    SetPredicate("ORIGIN", frozenset(["ZZZ-NOT-AN-AIRPORT"])),  # passes nothing
    SetPredicate("UNIQUE_CARRIER", frozenset(CARRIERS[:2])),  # removes whole groups
    RangePredicate("DEP_DELAY", -5.0, 45.0),
    Comparison("MONTH", ">=", 7),
    And(RangePredicate("DISTANCE", 200.0, 1800.0), Comparison("ARR_DELAY", "<", 30.0)),
    Or(SetPredicate("DEST_STATE", frozenset(["CA", "TX"])), Comparison("MONTH", "=", 2)),
)
AGGREGATES = (
    (Aggregate(AggFunc.COUNT),),
    (Aggregate(AggFunc.AVG, "ARR_DELAY"),),
    (
        Aggregate(AggFunc.SUM, "DISTANCE"),
        Aggregate(AggFunc.MIN, "DEP_DELAY"),
        Aggregate(AggFunc.MAX, "AIR_TIME"),
        Aggregate(AggFunc.COUNT),
    ),
)
SAMPLE = np.random.default_rng(9).permutation(NUM_ROWS)[:150]
STRATUM_OF_ROW = np.arange(len(SAMPLE)) % 3


def _query(bins, filter_expr, aggregates, table: str = "flights") -> AggQuery:
    return AggQuery(table=table, bins=bins, aggregates=aggregates, filter=filter_expr)


def _dataset(which: str):
    """A fresh dataset (so nothing of it is alive): de-normalized, star
    schema, or the differential suite's attribute-forwarding proxy."""
    if which == "star":
        return normalize(TABLE)
    flat = Dataset.from_table(TABLE)
    return _counting_dataset(flat)[0] if which == "proxy" else flat


def _moment_bytes(stats_or_grid, moments=("sums", "sumsqs", "mins", "maxs")):
    return {
        name: {j: a.tobytes() for j, a in getattr(stats_or_grid, name).items()}
        for name in moments
    }


def _snapshot(kernel: CompiledQueryKernel):
    """Everything a caller can observe of ``kernel``, as comparable bytes."""
    observed = {
        "qualifying_fraction": kernel.qualifying_fraction,
        "all_rows_pass": kernel.all_rows_pass,
        "num_groups": kernel.num_groups,
        "mask": kernel.full_mask.tobytes(),
    }
    for name, stats, moments in (
        ("sample", kernel.evaluate(SAMPLE), ("sums", "sumsqs", "mins", "maxs")),
        ("exact", kernel.exact_stats(), EXACT_MOMENTS),
    ):
        observed[name] = (
            stats.keys,
            stats.counts.tobytes(),
            _moment_bytes(stats, moments),
            stats.rows_aggregated,
            stats.rows_scanned,
        )
    grid = kernel.evaluate_strata(SAMPLE, STRATUM_OF_ROW, 3)
    observed["grid"] = (grid.keys, grid.counts.tobytes(), _moment_bytes(grid))
    return observed


def _cold_snapshot(dataset, query):
    """A solitary compile: nothing of the dataset alive before or after."""
    live = kernels_module._PARTS.get(dataset, {})
    assert ("groupings", query.bins, query.filter) not in live
    assert ("masks", query.filter) not in live
    kernel = CompiledQueryKernel(dataset, query)
    snapshot = _snapshot(kernel)
    assert_stats_equal(kernel.evaluate(SAMPLE), compute_grouped_stats(dataset, query, SAMPLE))
    assert_exact_equal(kernel.exact_stats(), compute_grouped_stats(dataset, query))
    assert kernel.qualifying_fraction == float(kernel.full_mask.mean())
    return snapshot


def _distinct_parts(kernels) -> dict:
    """How many distinct plans, masks and groupings ``kernels`` hold."""
    groupings = {id(k._grouping): k._grouping for k in kernels}.values()
    return {
        "plans": len({id(g.plan) for g in groupings if g.plan is not None}),
        "masks": len({id(g.mask) for g in groupings}),
        "groupings": len(groupings),
    }


def _assert_read_only(array: np.ndarray):
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[:1] = array[:1]


# ----------------------------------------------------------------------
# Any order, any parts alive: same bytes as a solitary cold compile
# ----------------------------------------------------------------------
@hyp_settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(["flat", "star", "proxy"]),
    sequence=st.lists(
        st.tuples(
            st.sampled_from(range(len(BINS))),
            st.sampled_from(range(len(FILTERS))),
            st.sampled_from(range(len(AGGREGATES))),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_any_compile_order_equals_solitary_cold_compiles(which, sequence):
    dataset = _dataset(which)
    table = "flights_fact" if which == "star" else "flights"
    queries = [
        _query(BINS[b], FILTERS[f], AGGREGATES[a], table) for b, f, a in sequence
    ]
    expected = {query: _cold_snapshot(dataset, query) for query in set(queries)}

    cache = KernelCache(2)  # parts die and are rebuilt mid-sequence
    for query in queries:
        kernel = cache.get(dataset, query)
        assert _snapshot(kernel) == expected[query]
        _assert_read_only(kernel._row_gid)
        _assert_read_only(kernel.full_mask)
    del kernel
    live = list(cache._entries.values())
    for first in live:
        for second in live:
            same_bins = first.query.bins == second.query.bins
            same_filter = first.query.filter == second.query.filter
            assert (first._row_gid is second._row_gid) == (
                (same_bins and same_filter)
                # a filter passing every row *is* the unfiltered grouping's array
                or (same_bins and first.all_rows_pass and second.all_rows_pass)
            )
            if same_filter:
                assert first.full_mask is second.full_mask
            plans = (first._grouping.plan, second._grouping.plan)
            if same_bins and None not in plans:
                assert plans[0] is plans[1]
                _assert_read_only(plans[0].gid)


# ----------------------------------------------------------------------
# The sharing is real
# ----------------------------------------------------------------------
class TestIdentity:
    @pytest.fixture
    def dataset(self):
        return Dataset.from_table(TABLE)

    def test_same_bins_share_one_plan(self, dataset):
        unfiltered = CompiledQueryKernel(dataset, _query(BINS[4], None, AGGREGATES[0]))
        brushed = CompiledQueryKernel(dataset, _query(BINS[4], FILTERS[4], AGGREGATES[1]))
        other = CompiledQueryKernel(dataset, _query(BINS[4], FILTERS[5], AGGREGATES[0]))
        assert brushed._grouping.plan is unfiltered._grouping.plan
        assert other._grouping.plan.gid is unfiltered._grouping.plan.gid
        # an unfiltered kernel's row-group ids *are* the plan's array
        assert unfiltered._row_gid is unfiltered._grouping.plan.gid
        assert brushed._row_gid is not other._row_gid
        for kernel in (unfiltered, brushed, other):
            _assert_read_only(kernel._row_gid)
            _assert_read_only(kernel._grouping.plan.gid)

    def test_same_bins_and_filter_share_one_grouping(self, dataset):
        kernels = [
            CompiledQueryKernel(dataset, _query(BINS[2], FILTERS[6], aggregates))
            for aggregates in AGGREGATES
        ]
        assert all(k._grouping is kernels[0]._grouping for k in kernels)
        assert all(k._row_gid is kernels[0]._row_gid for k in kernels)
        assert all(k._keys is kernels[0]._keys for k in kernels)

    def test_same_filter_shares_one_mask(self, dataset):
        kernels = [
            CompiledQueryKernel(dataset, _query(bins, FILTERS[7], AGGREGATES[0]))
            for bins in BINS
        ]
        assert all(k.full_mask is kernels[0].full_mask for k in kernels)
        _assert_read_only(kernels[0].full_mask)
        assert len({id(k._row_gid) for k in kernels}) == len(BINS)

    def test_each_live_part_is_built_once(self, dataset):
        kernels = [
            CompiledQueryKernel(dataset, _query(bins, filter_expr, aggregates))
            for bins in BINS[:3]
            for filter_expr in FILTERS[3:6]
            for aggregates in AGGREGATES
        ]
        assert len(kernels) == 27
        assert _distinct_parts(kernels) == {"plans": 3, "masks": 3, "groupings": 9}

    def test_datasets_do_not_share(self):
        first, second = Dataset.from_table(TABLE), Dataset.from_table(TABLE)
        query = _query(BINS[0], FILTERS[4], AGGREGATES[0])
        a, b = CompiledQueryKernel(first, query), CompiledQueryKernel(second, query)
        assert a._grouping is not b._grouping
        assert _snapshot(a) == _snapshot(b)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
class TestEdges:
    def test_empty_table(self):
        empty = Dataset.from_table(TABLE.select(np.zeros(NUM_ROWS, dtype=bool)))
        for filter_expr in (None, FILTERS[4]):
            query = _query(BINS[4], filter_expr, AGGREGATES[2])
            kernel = CompiledQueryKernel(empty, query)
            assert kernel._grouping.plan is None  # nothing to plan over
            assert kernel.num_groups == 0 and kernel.qualifying_fraction == 0.0
            assert kernel.all_rows_pass
            assert_stats_equal(kernel.evaluate(None), compute_grouped_stats(empty, query))

    def test_filter_passing_nothing_builds_no_plan(self):
        dataset = Dataset.from_table(TABLE)
        kernel = CompiledQueryKernel(dataset, _query(BINS[2], FILTERS[2], AGGREGATES[1]))
        assert kernel._grouping.plan is None
        assert ("plans", BINS[2]) not in kernels_module._PARTS[dataset]
        assert kernel.num_groups == 0 and not kernel.all_rows_pass
        assert not (kernel._row_gid >= 0).any()

    def test_filter_passing_everything_is_the_plan(self):
        dataset = Dataset.from_table(TABLE)
        kernel = CompiledQueryKernel(dataset, _query(BINS[3], FILTERS[1], AGGREGATES[0]))
        assert kernel.all_rows_pass and kernel.qualifying_fraction == 1.0
        assert kernel._row_gid is kernel._grouping.plan.gid
        assert kernel._keys is kernel._grouping.plan.keys

    def test_filter_removing_whole_groups_never_answers_them(self):
        dataset = Dataset.from_table(TABLE)
        query = _query(BINS[0], FILTERS[3], AGGREGATES[1])
        kernel = CompiledQueryKernel(dataset, query)
        # The kernel keeps the plan's code space; the filtered-out
        # carriers are empty groups, and no answer ever names them.
        assert kernel._keys is kernel._grouping.plan.keys
        assert [key[0] for key in kernel._keys] == CARRIERS
        reached = [(carrier,) for carrier in CARRIERS[:2]]
        assert kernel.exact_stats().keys == reached
        assert set(kernel.evaluate(SAMPLE).keys) <= set(reached)
        run = PrefixKernelRun(kernel, SAMPLE, offset=100)
        assert all(set(run.poll(n).keys) <= set(reached) for n in (10, 80, 150))
        grid = kernel.evaluate_strata(SAMPLE, STRATUM_OF_ROW, 3)
        assert grid.keys == kernel._keys
        filled = [kernel._keys[g] for g in np.flatnonzero(grid.counts.any(axis=0))]
        assert set(filled) <= set(reached)
        estimate = stratified_estimate(
            query, StrataMoments(grid, [0.5, 0.3, 0.2], [50, 50, 50]), 0.95
        )
        assert sorted(estimate.keys) == sorted(filled)
        assert_exact_equal(kernel.exact_stats(), compute_grouped_stats(dataset, query))

    def test_wide_span_plan_is_built_once_and_shared(self):
        # Code spans whose product passes 2**62 pack their ranks: one plan,
        # shared by every filter like any other.
        dataset = Dataset.from_table(WIDE_TABLE)
        aggregates = (Aggregate(AggFunc.SUM, "m"),)
        kernels = [
            CompiledQueryKernel(dataset, _query(WIDE_BINS, filter_expr, aggregates, "wide"))
            for filter_expr in (
                None, RangePredicate("a", None, 10.0), RangePredicate("m", None, 2.5)
            )
        ]
        assert _distinct_parts(kernels)["plans"] == 1
        plan = kernels[0]._grouping.plan
        assert kernels[0].all_rows_pass and kernels[0]._row_gid is plan.gid
        assert plan.keys == [(0, 0), (0, 2**30 - 1), (5, 7), (2**32 + 1, 2**30 - 1)]
        prefix = np.array([3, 0, 2], dtype=np.int64)
        for kernel in kernels:
            assert kernel._grouping.plan is plan and kernel._keys is plan.keys
            _assert_read_only(kernel._row_gid)
            for rows in (None, prefix):
                assert_stats_equal(
                    kernel.evaluate(rows),
                    compute_grouped_stats(dataset, kernel.query, rows),
                )

    def test_nan_rows_a_filter_excludes_do_not_warn(self):
        # The suite runs under error::RuntimeWarning: the all-rows plan must
        # not warn about rows the query never asked for.
        values = np.arange(40, dtype=np.float64)
        values[[3, 17]] = np.nan
        dataset = Dataset.from_table(Table("t", {"x": values, "m": values * 2.0}))
        query = _query(
            (_quant("x", 10.0),), RangePredicate("x", 0.0, None),
            (Aggregate(AggFunc.SUM, "m"),), "t",
        )
        kernel = CompiledQueryKernel(dataset, query)
        # The NaN rows' group stays in the plan's code space, empty.
        assert kernel._keys is kernel._grouping.plan.keys
        reached = [(0,), (1,), (2,), (3,)]
        assert set(reached) <= set(kernel._keys)
        assert_stats_equal(kernel.evaluate(None), compute_grouped_stats(dataset, query))
        assert kernel.exact_stats().keys == reached
        permutation = np.arange(40)[::-1]
        run = PrefixKernelRun(kernel, permutation, offset=30)
        for n in (5, 20, 40):
            stats = run.poll(n)
            assert set(stats.keys) <= set(reached)
            rows = np.roll(permutation, -30)[:n]
            assert_stats_equal(stats, compute_grouped_stats(dataset, query, rows))

    def test_counting_proxy_shares_like_a_dataset(self):
        proxy, calls = _counting_dataset(Dataset.from_table(TABLE))
        first = CompiledQueryKernel(proxy, _query(BINS[2], FILTERS[4], AGGREGATES[0]))
        gathered = len(calls)
        second = CompiledQueryKernel(proxy, _query(BINS[2], FILTERS[4], AGGREGATES[1]))
        assert second._grouping is first._grouping
        # the shared grouping's columns are not gathered again, and an
        # aggregate reads its stored value column
        assert gathered == 2 and calls[gathered:] == []


# ----------------------------------------------------------------------
# A failed build leaves nothing behind
# ----------------------------------------------------------------------
class TestFailedBuilds:
    def test_non_numeric_dimension_raises_the_same_error_again(self):
        dataset = Dataset.from_table(TABLE)
        query = _query((_quant("ORIGIN", 5.0),), None, AGGREGATES[0])
        for _ in range(3):
            with pytest.raises(QueryError, match="non-numeric column 'ORIGIN'"):
                CompiledQueryKernel(dataset, query)
        gc.collect()  # tracebacks pin the failed compile's frames
        # the mask it built first is gone with the kernel that never was
        assert len(kernels_module._PARTS[dataset]) == 0

    def test_unresolved_dimension_raises_the_same_error_again(self):
        dataset = Dataset.from_table(TABLE)
        bins = (BinDimension("DISTANCE", BinKind.QUANTITATIVE, bin_count=10),)
        for _ in range(2):
            with pytest.raises(QueryError, match="unresolved"):
                CompiledQueryKernel(dataset, _query(bins, FILTERS[4], AGGREGATES[0]))
        assert dataset not in kernels_module._PARTS

    def test_bad_filter_raises_the_same_error_again_and_poisons_nothing(self):
        dataset = Dataset.from_table(TABLE)
        good = CompiledQueryKernel(dataset, _query(BINS[0], None, AGGREGATES[0]))
        for filter_expr, message in (
            (RangePredicate("NO_SUCH_COLUMN", 0.0, 1.0), "not reachable"),
            (RangePredicate("ORIGIN", 0.0, 1.0), "non-numeric column 'ORIGIN'"),
        ):
            query = _query(BINS[0], filter_expr, AGGREGATES[0])
            for _ in range(3):
                with pytest.raises(QueryError, match=message):
                    CompiledQueryKernel(dataset, query)
        again = CompiledQueryKernel(dataset, _query(BINS[0], FILTERS[4], AGGREGATES[0]))
        assert again._grouping.plan is good._grouping.plan
        gc.collect()  # tracebacks pin the failed compiles' frames
        assert sorted(key[0] for key in kernels_module._PARTS[dataset]) == [
            "groupings", "groupings", "masks", "masks", "plans",
        ]


# ----------------------------------------------------------------------
# Lifetime: parts die with the last kernel holding them
# ----------------------------------------------------------------------
def _probes(kernel: CompiledQueryKernel):
    grouping = kernel._grouping
    return [
        weakref.ref(part)
        for part in (grouping, grouping.plan, grouping.mask, grouping.row_gid)
    ]


class TestLifetime:
    @pytest.fixture
    def process_cache(self):
        original = kernel_cache()
        yield configure_kernel_cache
        configure_kernel_cache(original.capacity)

    def test_clear_kernel_cache_leaves_no_part_alive(self, process_cache):
        process_cache(8)
        dataset = Dataset.from_table(TABLE)
        probes = []
        for bins in BINS[:3]:
            for filter_expr in FILTERS[3:6]:
                probes += _probes(get_kernel(dataset, _query(bins, filter_expr, AGGREGATES[1])))
        assert all(probe() is not None for probe in probes[-4:])
        clear_kernel_cache()
        assert all(probe() is None for probe in probes)
        assert len(kernels_module._PARTS[dataset]) == 0
        registry = weakref.ref(kernels_module._PARTS[dataset])
        del dataset
        gc.collect()
        assert registry() is None  # the dataset's entry dies with it

    def test_eviction_through_fifty_binnings_at_capacity_one(self):
        dataset = Dataset.from_table(TABLE)
        cache = KernelCache(1)

        def query_of(width: int) -> AggQuery:  # bins and filter both its own
            brush = RangePredicate("DEP_DELAY", -5.0, 40.0 + width)
            return _query((_quant("DISTANCE", float(width)),), brush, AGGREGATES[2])

        first_query = query_of(7)
        first_bytes = _snapshot(cache.get(dataset, first_query))
        probes = _probes(cache.get(dataset, first_query))
        for width in range(8, 58):
            kernel = cache.get(dataset, query_of(width))
            assert all(probe() is None for probe in probes)
            probes = _probes(kernel)
            del kernel
            # one kernel alive: its grouping, its plan, its mask
            assert len(kernels_module._PARTS[dataset]) == 3
        assert cache.evictions == 50
        kernel = cache.get(dataset, first_query)
        assert _snapshot(kernel) == first_bytes
        # The last kernel's parts died with its eviction: the recompile
        # built one plan, one mask and one grouping, and they are all
        # that is alive.
        assert all(probe() is None for probe in probes)
        assert _distinct_parts([kernel]) == {"plans": 1, "masks": 1, "groupings": 1}
        assert len(kernels_module._PARTS[dataset]) == 3
        del kernel
        cache.clear()
        assert len(kernels_module._PARTS[dataset]) == 0

    def test_a_part_outlives_eviction_while_another_kernel_holds_it(self):
        dataset = Dataset.from_table(TABLE)
        cache = KernelCache(2)
        keeper = cache.get(dataset, _query(BINS[4], None, AGGREGATES[0]))
        plan = weakref.ref(keeper._grouping.plan)
        del keeper
        for filter_expr in FILTERS[3:8]:  # evicts the unfiltered kernel, not the plan
            kernel = cache.get(dataset, _query(BINS[4], filter_expr, AGGREGATES[0]))
            assert kernel._grouping.plan is plan()
        del kernel
        cache.clear()
        assert plan() is None
