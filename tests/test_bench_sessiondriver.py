"""Tests for the steppable session driver (§4.4 event loop, factored out).

The refactor contract: :class:`SessionDriver` stepped to completion is
*byte-identical* to the historical serial loop (now a façade in
:class:`BenchmarkDriver`), and its event interface is safe for external
pacing — ``next_event_time`` is pure, events are processed in
nondecreasing time order, and records stream out as they are produced.
"""

import io

import pytest

from repro.bench.driver import BenchmarkDriver, SessionDriver
from repro.bench.experiments import MAIN_ENGINES, make_engine
from repro.bench.report import DetailedReport
from repro.common.clock import VirtualClock
from repro.common.errors import BenchmarkError
from repro.engines.columnstore import ColumnStoreEngine
from repro.engines.progressive import ProgressiveEngine
from repro.query.groundtruth import GroundTruthOracle
from repro.query.model import AggFunc, Aggregate, BinColumns, BinDimension, BinKind
from repro.workflow.spec import (
    CreateViz,
    Link,
    SelectBins,
    VizSpec,
    Workflow,
    WorkflowType,
)


def _viz(name, field="DEP_DELAY", nominal=False):
    bins = (
        (BinDimension(field, BinKind.NOMINAL),)
        if nominal
        else (BinDimension(field, BinKind.QUANTITATIVE, width=20.0),)
    )
    return VizSpec(name, "flights", bins, (Aggregate(AggFunc.COUNT),))


@pytest.fixture
def two_workflows(flights_table):
    import numpy as np

    carriers, counts = np.unique(
        flights_table["UNIQUE_CARRIER"], return_counts=True
    )
    top_carrier = str(carriers[np.argmax(counts)])
    first = Workflow(
        name="wf_a",
        workflow_type=WorkflowType.CUSTOM,
        interactions=(
            CreateViz(_viz("a", "UNIQUE_CARRIER", nominal=True)),
            CreateViz(_viz("b")),
            Link("a", "b"),
            SelectBins("a", ((top_carrier,),)),
        ),
    )
    second = Workflow(
        name="wf_b",
        workflow_type=WorkflowType.CUSTOM,
        interactions=(
            CreateViz(_viz("a", "ARR_DELAY")),
            CreateViz(_viz("b", "DISTANCE")),
        ),
    )
    return [first, second]


def _engine(engine_cls, dataset, settings):
    engine = engine_cls(dataset, settings, VirtualClock())
    engine.prepare()
    return engine


def _csv(records):
    buffer = io.StringIO()
    DetailedReport(records).to_csv(buffer)
    return buffer.getvalue()


class TestSerialEquivalence:
    def test_suite_matches_benchmark_driver(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        serial = BenchmarkDriver(
            _engine(ProgressiveEngine, flights_dataset, tiny_settings),
            flights_oracle,
            tiny_settings,
        ).run_suite(two_workflows)
        session = SessionDriver(
            _engine(ProgressiveEngine, flights_dataset, tiny_settings),
            flights_oracle,
            tiny_settings,
            two_workflows,
        ).run()
        assert _csv(session) == _csv(serial)

    def test_stepwise_equals_run(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        driver = SessionDriver(
            _engine(ColumnStoreEngine, flights_dataset, tiny_settings),
            flights_oracle,
            tiny_settings,
            two_workflows,
        )
        collected = []
        while not driver.finished:
            collected.extend(driver.step())
        reference = SessionDriver(
            _engine(ColumnStoreEngine, flights_dataset, tiny_settings),
            flights_oracle,
            tiny_settings,
            two_workflows,
        ).run()
        assert _csv(collected) == _csv(reference)
        assert collected == driver.records


class TestEventInterface:
    def test_next_event_time_is_pure(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        driver = SessionDriver(
            _engine(ProgressiveEngine, flights_dataset, tiny_settings),
            flights_oracle,
            tiny_settings,
            two_workflows,
        )
        clock_before = driver.clock.now()
        assert driver.next_event_time() == driver.next_event_time()
        assert driver.clock.now() == clock_before

    def test_events_nondecreasing_and_finish(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        driver = SessionDriver(
            _engine(ProgressiveEngine, flights_dataset, tiny_settings),
            flights_oracle,
            tiny_settings,
            two_workflows,
        )
        times = []
        while not driver.finished:
            event_time = driver.next_event_time()
            assert event_time is not None
            times.append(event_time)
            driver.step()
        assert times == sorted(times)
        assert driver.next_event_time() is None
        assert driver.step() == []

    def test_records_stream_via_on_record(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        streamed = []
        driver = SessionDriver(
            _engine(ProgressiveEngine, flights_dataset, tiny_settings),
            flights_oracle,
            tiny_settings,
            two_workflows,
            on_record=streamed.append,
        )
        records = driver.run()
        assert streamed == records

    def test_first_query_id_offsets_numbering(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        driver = SessionDriver(
            _engine(ProgressiveEngine, flights_dataset, tiny_settings),
            flights_oracle,
            tiny_settings,
            two_workflows[:1],
            first_query_id=100,
        )
        records = driver.run()
        assert [r.query_id for r in records] == list(
            range(100, 100 + len(records))
        )
        assert driver.next_query_id == 100 + len(records)

    def test_scale_mismatch_rejected(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        engine = _engine(ProgressiveEngine, flights_dataset, tiny_settings)
        with pytest.raises(BenchmarkError):
            SessionDriver(
                engine,
                flights_oracle,
                tiny_settings.with_(scale=tiny_settings.scale + 1),
                two_workflows,
            )


class TestLifecycle:
    def test_workflow_hooks_called_per_workflow(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        engine = _engine(ProgressiveEngine, flights_dataset, tiny_settings)
        calls = []
        original_start, original_end = engine.workflow_start, engine.workflow_end
        engine.workflow_start = lambda: (calls.append("start"), original_start())
        engine.workflow_end = lambda: (calls.append("end"), original_end())
        SessionDriver(
            engine, flights_oracle, tiny_settings, two_workflows
        ).run()
        assert calls == ["start", "end", "start", "end"]

    def test_lifecycle_false_suppresses_hooks(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        engine = _engine(ProgressiveEngine, flights_dataset, tiny_settings)
        calls = []
        engine.workflow_start = lambda: calls.append("start")
        engine.workflow_end = lambda: calls.append("end")
        SessionDriver(
            engine, flights_oracle, tiny_settings, two_workflows,
            lifecycle=False,
        ).run()
        assert calls == []

    def test_lifecycle_false_frees_speculation_hints(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        # Without workflow_end (shared-engine serving), the driver must
        # still tell the engine its link hints are obsolete at workflow
        # end — otherwise stale speculative tasks pin the engine's
        # speculation cap and keep consuming capacity forever.
        engine = ProgressiveEngine(
            flights_dataset, tiny_settings, VirtualClock(), speculation=True
        )
        engine.prepare()
        driver = SessionDriver(
            engine, flights_oracle, tiny_settings, two_workflows,
            lifecycle=False,
        )
        driver.run()
        assert engine._speculative == {}
        assert engine.scheduler.active_tasks() == []


class TestAnswersStayColumns:
    @pytest.mark.parametrize("engine_name", MAIN_ENGINES)
    def test_hot_path_never_builds_the_dict_views(
        self, monkeypatch, engine_name, flights_dataset, tiny_settings, two_workflows
    ):
        """Kernel → estimate → metrics hands arrays over; the dict views
        of ``QueryResult.values`` / ``.margins`` belong to the store and
        adapter boundary (no store here)."""

        class Recorder:  # a non-data descriptor, as cached_property is
            reads = []

            def __get__(self, columns, owner):
                self.reads.append(columns)
                return {}, {}

        monkeypatch.setattr(BinColumns, "by_key", Recorder())
        engine = make_engine(engine_name, flights_dataset, tiny_settings, VirtualClock())
        engine.prepare()
        records = SessionDriver(
            engine, GroundTruthOracle(flights_dataset), tiny_settings, two_workflows
        ).run()
        assert len(records) >= 6
        assert any(not record.metrics.tr_violated for record in records)
        assert Recorder.reads == []
        # ...and the recorder does see a read when one happens.
        query = two_workflows[1].interactions[0].viz.base_query()
        assert GroundTruthOracle(flights_dataset).answer(query).values == {}
        assert len(Recorder.reads) == 1
