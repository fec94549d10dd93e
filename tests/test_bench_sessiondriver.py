"""Tests for the steppable session driver (§4.4 event loop, factored out).

The refactor contract: :class:`SessionDriver` stepped to completion is
*byte-identical* to the historical serial loop (now a façade in
:class:`BenchmarkDriver`), and its event interface is safe for external
pacing — ``next_event_time`` is pure, events are processed in
nondecreasing time order, and records stream out as they are produced.
"""

import io

import pytest

from repro.bench import driver as driver_module
from repro.bench.driver import BenchmarkDriver, SessionDriver
from repro.bench.experiments import MAIN_ENGINES, make_engine
from repro.bench.report import DetailedReport
from repro.common.clock import VirtualClock
from repro.common.errors import BenchmarkError
from repro.engines.columnstore import ColumnStoreEngine
from repro.engines.progressive import ProgressiveEngine
from repro.query.filters import And, RangePredicate, SetPredicate
from repro.query.groundtruth import GroundTruthOracle
from repro.query.model import AggFunc, Aggregate, BinColumns, BinDimension, BinKind
from repro.server import ArrivalProcess, OpenSystemManager
from repro.workflow.spec import (
    CreateViz,
    Link,
    SelectBins,
    SetFilter,
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


#: The source bins of ``_hint_workflow``'s first link: the carriers of
#: the 6 000-row flights fixture.
CARRIERS = (
    "AD BK CR DY EF FM GT HA IH JO KV LC MJ NQ OX PE QL RS SZ TG UN VU WB XI YP"
).split()


def _hint_workflow():
    """Two links: a nominal source, then a filtered quantitative source
    into a target with its own filter (every part a hint captures)."""
    distance = VizSpec(
        "c", "flights",
        (BinDimension("DISTANCE", BinKind.QUANTITATIVE, width=1000.0),),
        (Aggregate(AggFunc.COUNT),),
    )
    return Workflow(
        name="hints",
        workflow_type=WorkflowType.CUSTOM,
        interactions=(
            CreateViz(_viz("a", "UNIQUE_CARRIER", nominal=True)),
            CreateViz(_viz("b")),
            CreateViz(distance),
            Link("a", "b"),
            SetFilter("b", RangePredicate("ARR_DELAY", -10.0, 60.0)),
            SetFilter("c", RangePredicate("AIR_TIME", 30.0, 300.0)),
            Link("c", "b"),
            SelectBins("c", ((1,),)),
        ),
    )


def _pinned_links():
    """Per link, the speculative queries the eagerly building driver
    handed a speculating engine — pinned from it, in its order."""
    target = _viz("b")
    first = [
        target.base_query(SetPredicate("UNIQUE_CARRIER", frozenset([carrier])))
        for carrier in CARRIERS
    ]
    second = [
        target.base_query(And(
            RangePredicate("ARR_DELAY", -10.0, 60.0),
            RangePredicate("DISTANCE", low, low + 1000.0),
            RangePredicate("AIR_TIME", 30.0, 300.0),
        ))
        for low in (0.0, 1000.0, 2000.0)
    ]
    return [first, second]


def _spied(engine):
    """``engine`` recording every link_vizs / delete_vizs call."""
    calls = []
    link, delete = engine.link_vizs, engine.delete_vizs
    engine.link_vizs = lambda queries: (
        calls.append(("link", list(queries))), link(queries)
    )
    engine.delete_vizs = lambda queries: (
        calls.append(("delete", list(queries))), delete(queries)
    )
    return calls


@pytest.fixture
def hint_builds(monkeypatch):
    """Counts speculative filters the driver builds (one conjoin each)."""
    built = []
    conjoin = driver_module.conjoin
    monkeypatch.setattr(
        driver_module, "conjoin", lambda parts: built.append(parts) or conjoin(parts)
    )
    return built


class TestSpeculationHints:
    def _idea(self, dataset, settings, speculation):
        engine = ProgressiveEngine(
            dataset, settings, VirtualClock(), speculation=speculation
        )
        engine.prepare()
        return engine

    def _step_to_links(self, driver, links):
        while driver.interaction_counts.get("link", 0) < links:
            driver.step()

    def test_speculating_engine_gets_the_pinned_lists(
        self, flights_dataset, tiny_settings, flights_oracle
    ):
        engine = self._idea(flights_dataset, tiny_settings, True)
        calls = _spied(engine)
        SessionDriver(
            engine, flights_oracle, tiny_settings, [_hint_workflow()]
        ).run()
        assert calls == [("link", queries) for queries in _pinned_links()]

    @pytest.mark.parametrize("engine_name", MAIN_ENGINES + ("system-y-sim",))
    def test_non_speculating_shared_engine_gets_no_hint(
        self, engine_name, flights_dataset, tiny_settings, flights_oracle,
        hint_builds,
    ):
        engine = make_engine(engine_name, flights_dataset, tiny_settings, VirtualClock())
        engine.prepare()
        calls = _spied(engine)
        SessionDriver(
            engine, flights_oracle, tiny_settings, [_hint_workflow()],
            lifecycle=False,
        ).run()
        assert calls == [] and hint_builds == []

    def test_speculating_shared_engine_frees_the_pinned_queries_at_workflow_end(
        self, flights_dataset, tiny_settings, flights_oracle
    ):
        engine = self._idea(flights_dataset, tiny_settings, True)
        calls = _spied(engine)
        SessionDriver(
            engine, flights_oracle, tiny_settings, [_hint_workflow()],
            lifecycle=False,
        ).run()
        first, second = _pinned_links()
        assert calls == [("link", first), ("link", second), ("delete", first + second)]

    @pytest.mark.parametrize("links", [1, 2])
    @pytest.mark.parametrize("speculation", [True, False])
    def test_shared_engine_frees_what_was_linked_on_abandon(
        self, links, speculation, flights_dataset, tiny_settings, flights_oracle,
        hint_builds,
    ):
        engine = self._idea(flights_dataset, tiny_settings, speculation)
        calls = _spied(engine)
        driver = SessionDriver(
            engine, flights_oracle, tiny_settings, [_hint_workflow()],
            lifecycle=False,
        )
        self._step_to_links(driver, links)
        driver.abandon()
        pinned = _pinned_links()[:links]
        linked = [("link", queries) for queries in pinned]
        freed = [("delete", [q for queries in pinned for q in queries])]
        assert calls == (linked + freed if speculation else [])
        assert bool(hint_builds) == speculation

    def test_shared_workflow_end_keeps_other_sessions_reuse(
        self, flights_dataset, tiny_settings, flights_oracle, two_workflows
    ):
        """Session A's reuse head start for a query equal to one of B's
        single-bin hints survives B's workflow end on a shared engine."""
        settings = tiny_settings.with_(time_requirement=0.5)  # never the table
        selecting = two_workflows[:1]  # its last query is a carrier selection

        def reissued_rows(linkers):
            engine = self._idea(flights_dataset, settings, False)
            rows = []
            for workflows in [selecting, *linkers, selecting]:
                records = SessionDriver(
                    engine, flights_oracle, settings, workflows, lifecycle=False
                ).run()
                rows.append(records[-1].rows_processed)
            return rows[0], rows[-1]

        first, reissued = reissued_rows([[_hint_workflow()]])
        assert reissued == 2 * first > 0  # resumed from A's first deadline
        assert reissued_rows([]) == (first, reissued)

    def test_private_engine_abandon_frees_only_linked_hints(
        self, flights_dataset, tiny_settings, flights_oracle, hint_builds
    ):
        first, _ = _pinned_links()
        for speculation, expected in (
            (True, [("link", first), ("delete", first)]),
            (False, []),
        ):
            engine = self._idea(flights_dataset, tiny_settings, speculation)
            calls = _spied(engine)
            driver = SessionDriver(
                engine, flights_oracle, tiny_settings, [_hint_workflow()]
            )
            self._step_to_links(driver, 1)
            driver.abandon()
            assert calls == expected
        assert len(hint_builds) == len(first)  # the speculating run's only

    @pytest.mark.parametrize("engine_name", MAIN_ENGINES + ("system-y-sim",))
    def test_serial_run_builds_no_speculative_query(
        self, engine_name, flights_dataset, tiny_settings, flights_oracle,
        hint_builds,
    ):
        engine = make_engine(engine_name, flights_dataset, tiny_settings, VirtualClock())
        engine.prepare()
        records = BenchmarkDriver(engine, flights_oracle, tiny_settings).run_workflow(
            _hint_workflow()
        )
        assert len(records) == 8 and hint_builds == []

    def test_abandoned_open_session_builds_no_speculative_query(
        self, server_ctx, hint_builds
    ):
        arrivals = ArrivalProcess(
            0.5, 30.0, seed=server_ctx.settings.seed, mean_residence=6.0
        )
        results = OpenSystemManager.for_engine(
            server_ctx, "idea-sim", arrivals, per_session=1
        ).run()
        assert any(
            result.abandoned and result.interaction_counts.get("link")
            for result in results
        )
        assert hint_builds == []


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
