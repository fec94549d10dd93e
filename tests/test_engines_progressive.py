"""Tests for the progressive engine (IDEA stand-in): polling at any time,
convergence to exact, result reuse, speculation, warm-up penalty."""

import math

import numpy as np
import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import EngineError
from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.engines.cost import PROGRESSIVE_FIRST_QUERY_PENALTY
from repro.engines.progressive import ProgressiveEngine
from repro.query.groundtruth import evaluate_exact


@pytest.fixture
def engine(flights_dataset, tiny_settings):
    engine = ProgressiveEngine(flights_dataset, tiny_settings, VirtualClock())
    engine.prepare()
    engine.workflow_start()
    return engine


def _run_to(engine, t):
    engine.clock.advance_to(t)
    engine.advance_to(t)


def _warm(engine, query):
    """Burn the first-query penalty so tests see steady-state behaviour."""
    handle = engine.submit(query)
    _run_to(engine, engine.clock.now() + PROGRESSIVE_FIRST_QUERY_PENALTY + 0.2)
    engine.cancel(handle)
    return engine


class TestProgressivePolling:
    def test_early_poll_returns_partial_result(self, engine, carrier_count_query):
        _warm(engine, carrier_count_query)
        start = engine.clock.now()
        handle = engine.submit(carrier_count_query)
        _run_to(engine, start + 0.5)
        result = engine.result_at(handle, start + 0.5)
        assert result is not None
        assert not result.exact
        assert 0 < result.fraction < 1

    def test_quality_improves_with_time(self, engine, carrier_count_query,
                                        flights_oracle):
        _warm(engine, carrier_count_query)
        start = engine.clock.now()
        handle = engine.submit(carrier_count_query)
        truth = flights_oracle.answer(carrier_count_query)
        fractions, errors = [], []
        for dt in (0.3, 1.0, 3.0):
            _run_to(engine, start + dt)
            result = engine.result_at(handle, start + dt)
            fractions.append(result.fraction)
            diffs = [
                abs(result.values[k][0] - truth.values[k][0]) / truth.values[k][0]
                for k in result.values
                if k in truth.values and truth.values[k][0] > 0
            ]
            errors.append(np.mean(diffs))
        assert fractions == sorted(fractions)
        assert errors[-1] <= errors[0]

    def test_converges_to_exact(self, engine, carrier_count_query,
                                flights_dataset):
        _warm(engine, carrier_count_query)
        start = engine.clock.now()
        handle = engine.submit(carrier_count_query)
        _run_to(engine, start + 500.0)
        result = engine.result_at(handle, start + 500.0)
        assert result.exact
        expected = evaluate_exact(flights_dataset, carrier_count_query)
        for key, row in expected.values.items():
            assert result.values[key] == pytest.approx(row)

    def test_margins_present_and_shrinking(self, engine, delay_avg_query):
        _warm(engine, delay_avg_query)
        start = engine.clock.now()
        handle = engine.submit(delay_avg_query)
        _run_to(engine, start + 0.4)
        early = engine.result_at(handle, start + 0.4)
        _run_to(engine, start + 4.0)
        late = engine.result_at(handle, start + 4.0)
        shared = [
            k for k in early.values
            if k in late.values
            and early.margins[k][0] is not None
            and late.margins[k][0] is not None
        ]
        assert shared
        early_margin = np.mean([early.margins[k][0] for k in shared])
        late_margin = np.mean([late.margins[k][0] for k in shared])
        assert late_margin < early_margin

    def test_result_at_historical_time(self, engine, carrier_count_query):
        """Polling a past time returns what was visible then."""
        _warm(engine, carrier_count_query)
        start = engine.clock.now()
        handle = engine.submit(carrier_count_query)
        _run_to(engine, start + 5.0)
        early = engine.result_at(handle, start + 0.5)
        late = engine.result_at(handle, start + 5.0)
        assert early.rows_processed < late.rows_processed


class TestWarmUpPenalty:
    def test_first_query_delayed(self, flights_dataset, tiny_settings):
        engine = ProgressiveEngine(flights_dataset, tiny_settings, VirtualClock())
        engine.prepare()
        engine.workflow_start()
        handle = engine.submit(flights_dataset and _simple_query())
        probe = PROGRESSIVE_FIRST_QUERY_PENALTY * 0.8
        _run_to(engine, probe)
        assert engine.result_at(handle, probe) is None  # still warming up
        _run_to(engine, PROGRESSIVE_FIRST_QUERY_PENALTY + 0.5)
        assert engine.result_at(handle, PROGRESSIVE_FIRST_QUERY_PENALTY + 0.5)

    def test_second_query_not_delayed(self, engine, carrier_count_query):
        _warm(engine, carrier_count_query)
        start = engine.clock.now()
        handle = engine.submit(carrier_count_query)
        _run_to(engine, start + 0.3)
        assert engine.result_at(handle, start + 0.3) is not None

    def test_workflow_start_does_not_rearm_penalty(self, engine,
                                                   carrier_count_query):
        _warm(engine, carrier_count_query)
        engine.workflow_end()
        engine.workflow_start()
        start = engine.clock.now()
        handle = engine.submit(carrier_count_query)
        _run_to(engine, start + 0.3)
        assert engine.result_at(handle, start + 0.3) is not None


class TestResultReuse:
    def test_reissued_query_resumes(self, engine, carrier_count_query):
        _warm(engine, carrier_count_query)
        start = engine.clock.now()
        first = engine.submit(carrier_count_query)
        _run_to(engine, start + 2.0)
        first_result = engine.result_at(first, start + 2.0)
        engine.cancel(first)

        second = engine.submit(carrier_count_query)
        t = engine.clock.now() + 0.2
        _run_to(engine, t)
        resumed = engine.result_at(second, t)
        # 0.2s alone would give far fewer rows than the reused 2.0s sample.
        assert resumed.rows_processed >= first_result.rows_processed

    def test_reuse_cleared_between_workflows(self, engine, carrier_count_query):
        _warm(engine, carrier_count_query)
        start = engine.clock.now()
        first = engine.submit(carrier_count_query)
        _run_to(engine, start + 2.0)
        engine.cancel(first)
        engine.workflow_end()
        engine.workflow_start()

        second = engine.submit(carrier_count_query)
        t = engine.clock.now() + 0.2
        _run_to(engine, t)
        fresh = engine.result_at(second, t)
        assert fresh.fraction < 0.5  # no resumed sample

    def test_different_query_does_not_reuse(self, engine, carrier_count_query,
                                            delay_avg_query):
        _warm(engine, carrier_count_query)
        start = engine.clock.now()
        first = engine.submit(carrier_count_query)
        _run_to(engine, start + 2.0)
        engine.cancel(first)
        other = engine.submit(delay_avg_query)
        t = engine.clock.now() + 0.2
        _run_to(engine, t)
        result = engine.result_at(other, t)
        assert result.fraction < 0.5


class TestSpeculation:
    def test_disabled_by_default(self, engine, carrier_count_query):
        engine.link_vizs([carrier_count_query])
        assert engine.speculative_tuples(carrier_count_query) == 0

    def test_speculative_queries_accumulate_during_idle(
        self, flights_dataset, tiny_settings, carrier_count_query
    ):
        engine = ProgressiveEngine(
            flights_dataset, tiny_settings, VirtualClock(), speculation=True
        )
        engine.prepare()
        engine.workflow_start()
        engine.link_vizs([carrier_count_query])
        _run_to(engine, 5.0)
        assert engine.speculative_tuples(carrier_count_query) > 0

    def test_matching_submit_consumes_speculation(
        self, flights_dataset, tiny_settings, carrier_count_query
    ):
        engine = ProgressiveEngine(
            flights_dataset, tiny_settings, VirtualClock(), speculation=True
        )
        engine.prepare()
        engine.workflow_start()
        engine.link_vizs([carrier_count_query])
        _run_to(engine, 8.0)
        accumulated = engine.speculative_tuples(carrier_count_query)
        assert accumulated > 0
        handle = engine.submit(carrier_count_query)
        _run_to(engine, 8.0 + 0.05)
        result = engine.result_at(handle, 8.0 + 0.05)
        assert result is not None
        assert result.rows_processed >= accumulated
        # Speculative task consumed.
        assert engine.speculative_tuples(carrier_count_query) == 0

    def test_longer_think_time_means_more_speculation(
        self, flights_dataset, tiny_settings, carrier_count_query, delay_avg_query
    ):
        def accumulated_after(idle):
            engine = ProgressiveEngine(
                flights_dataset, tiny_settings, VirtualClock(), speculation=True
            )
            engine.prepare()
            engine.workflow_start()
            engine.link_vizs([carrier_count_query, delay_avg_query])
            _run_to(engine, idle)
            return engine.speculative_tuples(carrier_count_query)

        assert accumulated_after(8.0) > accumulated_after(1.0)

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_idle_candidates_split_the_engine_evenly(
        self, flights_dataset, tiny_settings, k
    ):
        engine = _speculating(flights_dataset, tiny_settings)
        candidates = _candidates(k)
        engine.link_vizs(candidates)
        _run_to(engine, _SPECULATION_DELTA)
        for query in candidates:
            share = _SPECULATION_DELTA * engine._sampling_rate(query) / k
            assert abs(engine.speculative_tuples(query) - math.floor(share)) <= 1

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_foreground_query_pauses_speculation(
        self, flights_dataset, tiny_settings, k
    ):
        engine = _speculating(flights_dataset, tiny_settings)
        handle = engine.submit(_candidates(k + 1)[-1])
        candidates = _candidates(k)
        engine.link_vizs(candidates)
        _run_to(engine, _SPECULATION_DELTA)
        # The foreground query runs throughout.
        foreground = engine.result_at(handle, _SPECULATION_DELTA)
        assert foreground is None or foreground.rows_processed < engine.actual_rows
        for query in candidates:
            idle_share = _SPECULATION_DELTA * engine._sampling_rate(query) / k
            assert engine.speculative_tuples(query) < 1e-3 * math.floor(idle_share)

    @pytest.mark.parametrize("k", [1, 5, 25])
    @pytest.mark.parametrize("tr, think", [(1, 1), (1, 2), (1, 3), (0.5, 2.5)])
    def test_head_start_is_think_minus_tr(
        self, flights_dataset, tiny_settings, k, tr, think
    ):
        # The driver cancels the foreground query at its TR deadline; the
        # candidates then share the idle engine until the next interaction
        # arrives at the think time (think - TR <= 2 s stays in the table).
        engine = _speculating(flights_dataset, tiny_settings)
        handle = engine.submit(_candidates(k + 1)[-1])
        candidates = _candidates(k)
        engine.link_vizs(candidates)
        _run_to(engine, tr)
        engine.cancel(handle)
        _run_to(engine, think)
        result = engine.result_at(engine.submit(candidates[0]), think)
        rows = 0 if result is None else result.rows_processed
        head_start = (think - tr) * engine._sampling_rate(candidates[0]) / k
        assert abs(rows - math.floor(head_start)) <= 1


#: Virtual seconds of speculation: short enough that no candidate (and
#: no foreground query) exhausts the 6 000-row table.
_SPECULATION_DELTA = 2.0


def _speculating(dataset, settings) -> ProgressiveEngine:
    engine = ProgressiveEngine(dataset, settings, VirtualClock(), speculation=True)
    engine.prepare()
    engine.workflow_start()
    return engine


def _candidates(k):
    """``k`` distinct carrier histograms, one distance brush each."""
    from repro.query.filters import RangePredicate
    from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

    return [
        AggQuery(
            "flights",
            bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.COUNT),),
            filter=RangePredicate("DISTANCE", float(10 * i), None),
        )
        for i in range(k)
    ]


class TestConstraints:
    def test_rejects_normalized_dataset(self, flights_table, tiny_settings):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        with pytest.raises(EngineError, match="joins"):
            ProgressiveEngine(star, tiny_settings, VirtualClock())

    def test_capabilities(self, engine):
        assert engine.capabilities.progressive
        assert engine.capabilities.returns_margins
        assert not engine.capabilities.supports_joins


def _simple_query():
    from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

    return AggQuery(
        "flights",
        bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
        aggregates=(Aggregate(AggFunc.COUNT),),
    )
