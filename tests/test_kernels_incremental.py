"""Incremental prefix aggregation ≡ from-scratch, at every poll.

``PrefixKernelRun`` answers poll *n* by folding only the delta rows since
the previous poll into a running accumulator, across rotation wraps too
(rebuilding from scratch on shrinking prefixes). Its contract is bitwise equality
with a from-scratch evaluation of the same prefix at **every** poll —
this module drives randomized poll schedules (growing, repeated,
shrinking, wrap-crossing) against that contract, both on the raw
``PrefixKernelRun`` API and through the progressive engine (including
cancel-then-reissue reuse and ``workflow_start`` cache clears).
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest

from repro.common.clock import VirtualClock
from repro.engines.cost import PROGRESSIVE_FIRST_QUERY_PENALTY
from repro.engines.estimators import srs_estimate
from repro.engines.kernel_cache import get_kernel
from repro.engines.onlineagg import OnlineAggEngine
from repro.engines.progressive import ProgressiveEngine
from repro.query.kernels import PrefixKernelRun
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

from reference_kernels import compute_grouped_stats


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


def assert_results_equal(fast, naive):
    """QueryResult equality down to bit patterns (margins may hold None)."""
    assert fast.query == naive.query
    assert fast.rows_processed == naive.rows_processed
    assert fast.exact == naive.exact
    assert _bits(fast.fraction) == _bits(naive.fraction)
    for fast_map, naive_map in ((fast.values, naive.values), (fast.margins, naive.margins)):
        assert fast_map.keys() == naive_map.keys()
        for key, naive_row in naive_map.items():
            fast_row = fast_map[key]
            assert len(fast_row) == len(naive_row)
            for a, b in zip(fast_row, naive_row):
                if a is None or b is None:
                    assert a is None and b is None, (key, a, b)
                else:
                    assert _bits(a) == _bits(b), (key, a, b)


def _rotation_slice(permutation: np.ndarray, offset: int, n: int) -> np.ndarray:
    rows = len(permutation)
    end = offset + n
    if end <= rows:
        return permutation[offset:end]
    return np.concatenate([permutation[offset:], permutation[: end - rows]])


@pytest.fixture
def filtered_query():
    """A 2-D filtered query with a MIN/MAX mix (the hardest stats shape)."""
    from repro.query.filters import RangePredicate

    return AggQuery(
        table="flights",
        bins=(
            BinDimension("MONTH", BinKind.QUANTITATIVE, width=2.0),
            BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),
        ),
        aggregates=(
            Aggregate(AggFunc.COUNT),
            Aggregate(AggFunc.SUM, "DISTANCE"),
            Aggregate(AggFunc.MIN, "ARR_DELAY"),
            Aggregate(AggFunc.MAX, "ARR_DELAY"),
        ),
        filter=RangePredicate("DEP_DELAY", -20.0, 120.0),
    )


# ----------------------------------------------------------------------
# Raw PrefixKernelRun schedules
# ----------------------------------------------------------------------
class TestPrefixKernelRunSchedules:
    def _check_schedule(self, dataset, query, offset, schedule):
        kernel = get_kernel(dataset, query)
        permutation = np.random.default_rng(23).permutation(dataset.num_fact_rows)
        run = PrefixKernelRun(kernel, permutation, offset)
        for n in schedule:
            incremental = run.poll(n)
            indices = _rotation_slice(permutation, offset, n)
            assert_stats_equal(incremental, kernel.evaluate(indices))
            assert_stats_equal(
                incremental, compute_grouped_stats(dataset, query, indices)
            )
            assert run.polled_n == n

    def test_randomized_schedules(
        self, flights_dataset, carrier_count_query, delay_avg_query, filtered_query
    ):
        rows = flights_dataset.num_fact_rows
        for seed, query in enumerate(
            (carrier_count_query, delay_avg_query, filtered_query)
        ):
            rng = random.Random(1000 + seed)
            for trial in range(6):
                offset = rng.randrange(rows)
                schedule = [rng.randrange(rows + 1) for _ in range(12)]
                # Mix in pathological steps: repeats, full table, zero.
                schedule[3] = schedule[2]
                schedule.append(rows)
                schedule.append(0)
                self._check_schedule(flights_dataset, query, offset, schedule)

    def test_monotone_growth_never_rebuilds(self, flights_dataset, delay_avg_query):
        kernel = get_kernel(flights_dataset, delay_avg_query)
        permutation = np.random.default_rng(5).permutation(flights_dataset.num_fact_rows)
        run = PrefixKernelRun(kernel, permutation, offset=0)
        for n in (10, 10, 500, 2000, flights_dataset.num_fact_rows):
            stats = run.poll(n)
            assert stats.rows_aggregated <= n
        assert run.rebuilds == 0

    def test_wrap_crossing_continues_and_matches(self, flights_dataset, filtered_query):
        rows = flights_dataset.num_fact_rows
        kernel = get_kernel(flights_dataset, filtered_query)
        permutation = np.random.default_rng(9).permutation(rows)
        offset = rows - 7  # the 3 -> 9 delta straddles the permutation end
        run = PrefixKernelRun(kernel, permutation, offset)
        for n in (3, 9, 15, rows // 2, rows):
            incremental = run.poll(n)
            indices = _rotation_slice(permutation, offset, n)
            assert_stats_equal(
                incremental, compute_grouped_stats(flights_dataset, filtered_query, indices)
            )
        # The wrapping delta is one concatenated slice folded onto the
        # running accumulator: the same rows in the same order as a rebuild.
        assert run.rebuilds == 0

    def test_shrinking_prefix_rebuilds_and_matches(self, flights_dataset, delay_avg_query):
        rows = flights_dataset.num_fact_rows
        kernel = get_kernel(flights_dataset, delay_avg_query)
        permutation = np.random.default_rng(13).permutation(rows)
        run = PrefixKernelRun(kernel, permutation, offset=100)
        run.poll(4000)
        rebuilds_before = run.rebuilds
        shrunk = run.poll(1500)
        assert run.rebuilds == rebuilds_before + 1
        indices = _rotation_slice(permutation, 100, 1500)
        assert_stats_equal(
            shrunk, compute_grouped_stats(flights_dataset, delay_avg_query, indices)
        )


# ----------------------------------------------------------------------
# Engine-level: progressive polls, reuse, workflow clears
# ----------------------------------------------------------------------
@pytest.fixture
def engine(flights_dataset, tiny_settings):
    engine = ProgressiveEngine(flights_dataset, tiny_settings, VirtualClock())
    engine.prepare()
    engine.workflow_start()
    return engine


def _run_to(engine, t):
    engine.clock.advance_to(t)
    engine.advance_to(t)


def _naive_result(engine, query, n):
    """What the uncompiled path would answer for a prefix of size ``n``."""
    from repro.common.rng import derive_seed
    from repro.query.model import QueryResult

    offset = (
        derive_seed(engine.settings.seed, engine.name, "rotation", query)
        % engine.actual_rows
    )
    indices = _rotation_slice(engine._permutation, offset, n)
    stats = compute_grouped_stats(engine.dataset, query, indices)
    values, margins = srs_estimate(
        stats, n, engine.actual_rows, engine.settings.confidence_level
    )
    return QueryResult(
        query=query,
        values=values,
        margins=margins,
        rows_processed=n,
        fraction=n / engine.actual_rows,
        exact=(n >= engine.actual_rows),
    )


class TestEngineIncremental:
    def test_progressive_polls_match_naive(self, engine, filtered_query):
        start = engine.clock.now()
        handle = engine.submit(filtered_query)
        for dt in (0.4, 0.9, 0.9, 1.6, 3.0, 8.0):
            _run_to(engine, start + dt)
            result = engine.result_at(handle, start + dt)
            if result is None:
                continue
            assert_results_equal(
                result, _naive_result(engine, filtered_query, result.rows_processed)
            )

    def test_cancel_then_reissue_reuses_kernel_run(self, engine, delay_avg_query):
        start = engine.clock.now()
        handle = engine.submit(delay_avg_query)
        _run_to(engine, start + 1.0)
        first = engine.result_at(handle, start + 1.0)
        engine.cancel(handle)
        run = engine._kernel_runs[delay_avg_query]

        # Re-issue: the same PrefixKernelRun continues from where it was.
        again = engine.submit(delay_avg_query)
        _run_to(engine, start + 2.5)
        second = engine.result_at(again, start + 2.5)
        assert engine._kernel_runs[delay_avg_query] is run
        assert second.rows_processed >= first.rows_processed  # reuse head start
        assert_results_equal(
            second, _naive_result(engine, delay_avg_query, second.rows_processed)
        )
        engine.cancel(again)

    def test_workflow_start_clears_and_stays_equivalent(self, engine, filtered_query):
        start = engine.clock.now()
        handle = engine.submit(filtered_query)
        _run_to(engine, start + 2.0)
        engine.result_at(handle, start + 2.0)
        engine.cancel(handle)
        assert filtered_query in engine._kernel_runs

        engine.workflow_start()
        assert engine._kernel_runs == {}

        # Post-clear polls rebuild from scratch, still bitwise-equivalent.
        start = engine.clock.now()
        handle = engine.submit(filtered_query)
        _run_to(engine, start + 1.2)
        result = engine.result_at(handle, start + 1.2)
        assert result is not None
        assert_results_equal(
            result, _naive_result(engine, filtered_query, result.rows_processed)
        )
        engine.cancel(handle)

    def test_kernels_disabled_bitwise_identical_results(
        self, flights_dataset, tiny_settings, filtered_query, fallback_kernels
    ):
        """The A/B switch: an engine whose kernels all fold through the
        sort-based reference answers identically."""

        def drive():
            engine = ProgressiveEngine(flights_dataset, tiny_settings, VirtualClock())
            engine.prepare()
            engine.workflow_start()
            start = engine.clock.now()
            handle = engine.submit(filtered_query)
            results = []
            for dt in (0.7 + PROGRESSIVE_FIRST_QUERY_PENALTY, 2.1, 5.0):
                _run_to(engine, start + dt)
                results.append(engine.result_at(handle, start + dt))
            return results

        fast = drive()
        with fallback_kernels() as entries:
            slow = drive()
        assert entries["poll"]
        assert any(result is not None for result in fast)
        for a, b in zip(fast, slow):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert_results_equal(a, b)

    def test_onlineagg_polls_match_naive(
        self, flights_dataset, tiny_settings, carrier_count_query
    ):
        # XDB is only online for single COUNT/SUM aggregates; others take
        # the blocking-exact fallback, which never touches kernel runs.
        engine = OnlineAggEngine(flights_dataset, tiny_settings, VirtualClock())
        engine.prepare()
        engine.workflow_start()
        start = engine.clock.now()
        handle = engine.submit(carrier_count_query)
        saw_result = False
        for dt in (0.5, 1.4, 3.5, 9.0):
            _run_to(engine, start + dt)
            result = engine.result_at(handle, start + dt)
            if result is None:
                continue
            saw_result = True
            assert_results_equal(
                result, _naive_result(engine, carrier_count_query, result.rows_processed)
            )
        assert saw_result

    def test_onlineagg_hashes_a_query_rotation_once(
        self, flights_dataset, tiny_settings, carrier_count_query, monkeypatch
    ):
        """The rotation offset is a ``str(query)`` plus a SHA-256: paid
        when the query's run is built, not again on every poll."""
        import repro.engines.base
        from repro.common.rng import derive_seed

        hashed = []

        def counting(*parts):
            hashed.append(parts)
            return derive_seed(*parts)

        monkeypatch.setattr(repro.engines.base, "derive_seed", counting)
        engine = OnlineAggEngine(flights_dataset, tiny_settings, VirtualClock())
        engine.prepare()
        engine.workflow_start()
        start = engine.clock.now()
        handle = engine.submit(carrier_count_query)
        polled = set()
        for dt in (0.5, 1.4, 3.5, 9.0):
            _run_to(engine, start + dt)
            result = engine.result_at(handle, start + dt)
            if result is not None:
                polled.add(result.rows_processed)
        assert len(polled) >= 3
        assert len(hashed) == 1 and hashed[0][2:] == ("rotation", carrier_count_query)
