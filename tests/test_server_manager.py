"""Tests for the asyncio session server (docs/server.md guarantees).

The acceptance properties:

* **serial equivalence** — per-session reports from isolated serving are
  byte-identical to the same workflows run through the serial driver
  (``repro run`` path), at 1 and at N sessions;
* **determinism under contention** — shared-engine serving is a pure
  function of its configuration;
* **pacing invariance** — accelerated wall-clock pacing never changes
  the bytes;
* sessions genuinely interleave (the global step trace switches between
  sessions).
"""

import gc
import io

import pytest

from repro.bench.experiments import make_engine
from repro.bench.report import DetailedReport
from repro.common.clock import VirtualClock
from repro.common.errors import BenchmarkError
from repro.common.rng import derive_session_seed
from repro.engines.base import Engine
from repro.engines.scheduler import FairSessionPolicy
from repro.obs import observed
from repro.server import (
    ArrivalProcess,
    RecordSpool,
    SessionArrival,
    SessionManager,
    SessionSpec,
    serial_baseline,
    session_specs,
)
from repro.workflow.spec import WorkflowType
from serve_cells import serve_cell

# The shared ExperimentContext (S, scale=50 000, seed=5, TR=1 s) comes
# from the session-scoped ``server_ctx`` fixture in conftest.py.


def _csv(records):
    buffer = io.StringIO()
    DetailedReport(records).to_csv(buffer)
    return buffer.getvalue()


class TestSessionSpecs:
    def test_deterministic_and_independent_of_count(self, server_ctx):
        three = session_specs(server_ctx, 3, per_session=1)
        five = session_specs(server_ctx, 5, per_session=1)
        for a, b in zip(three, five):
            assert a.session_id == b.session_id
            assert a.seed == b.seed
            assert [w.to_dict() for w in a.workflows] == [
                w.to_dict() for w in b.workflows
            ]

    def test_seeds_follow_purpose_string(self, server_ctx):
        specs = session_specs(server_ctx, 2, per_session=1)
        for index, spec in enumerate(specs):
            assert spec.seed == derive_session_seed(
                server_ctx.settings.seed, index
            )
        assert specs[0].seed != specs[1].seed

    def test_spec_validation(self):
        with pytest.raises(BenchmarkError):
            SessionSpec(session_id="", workflows=())


class TestSerialEquivalence:
    @pytest.mark.parametrize("num_sessions", [1, 4])
    def test_isolated_sessions_match_serial_runs(self, server_ctx, num_sessions):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", num_sessions, per_session=2
        )
        results = manager.run()
        baseline = serial_baseline(
            server_ctx, "idea-sim",
            session_specs(server_ctx, num_sessions, per_session=2),
        )
        assert len(results) == num_sessions
        for result, reference in zip(results, baseline):
            assert result.csv_text() == reference.csv_text()

    def test_frontend_engine_serves(self, server_ctx):
        """system-y-sim (a delegating non-Engine) works in both modes."""
        isolated = SessionManager.for_engine(
            server_ctx, "system-y-sim", 2, per_session=1
        )
        results = isolated.run()
        baseline = serial_baseline(
            server_ctx, "system-y-sim",
            session_specs(server_ctx, 2, per_session=1),
        )
        for result, reference in zip(results, baseline):
            assert result.csv_text() == reference.csv_text()
        shared = SessionManager.for_engine(
            server_ctx, "system-y-sim", 2, per_session=1, share_engine=True
        )
        assert sum(r.num_queries for r in shared.run()) > 0

    def test_shared_engine_group_reset_after_run(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "monetdb-sim", 2, per_session=1, share_engine=True
        )
        manager.run()
        scheduler = manager._shared_engine.scheduler
        assert scheduler._current_group is None

    def test_matches_repro_run_suite(self, server_ctx):
        """The exact `repro run` workflows through a 1-session server."""
        settings = server_ctx.settings
        workflows = server_ctx.workflows(WorkflowType.MIXED, 2)
        spec = SessionSpec("session-0", tuple(workflows), seed=settings.seed)
        engine = make_engine(
            "monetdb-sim", server_ctx.dataset(settings.data_size), settings,
            VirtualClock(),
        )
        manager = SessionManager(
            server_ctx.oracle(settings.data_size),
            settings,
            1,
            lambda index: (spec, None),
            engine_factory=lambda: engine,
        )
        (result,) = manager.run()
        # The `repro run` path: ExperimentContext.run on a fresh engine.
        serial_records = server_ctx.run("monetdb-sim", workflows)
        assert result.csv_text() == _csv(serial_records)


class TestSharedEngine:
    def test_deterministic_across_runs(self, server_ctx):
        def serve():
            manager = SessionManager.for_engine(
                server_ctx, "idea-sim", 4, per_session=1, share_engine=True
            )
            return manager, manager.run()

        manager_a, results_a = serve()
        _, results_b = serve()
        for a, b in zip(results_a, results_b):
            assert a.csv_text() == b.csv_text()
        assert isinstance(
            manager_a._shared_engine.scheduler.policy, FairSessionPolicy
        )

    def test_contention_differs_from_isolated(self, server_ctx):
        shared = SessionManager.for_engine(
            server_ctx, "monetdb-sim", 4, per_session=1, share_engine=True
        ).run()
        isolated = SessionManager.for_engine(
            server_ctx, "monetdb-sim", 4, per_session=1
        ).run()
        assert any(
            a.csv_text() != b.csv_text() for a, b in zip(shared, isolated)
        )

    def test_scheduler_tasks_grouped_by_session(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "monetdb-sim", 3, per_session=1, share_engine=True
        )
        manager.run()
        engine = manager._shared_engine
        groups = {
            engine.scheduler.task_group(state.task_id)
            for state in engine._handles.values()
        }
        assert groups == {"session-0", "session-1", "session-2"}


class TestPacingAndStreams:
    def test_accelerated_pacing_is_byte_identical(self, server_ctx):
        paced = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, accel=1_000_000.0
        ).run()
        unpaced = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1
        ).run()
        for a, b in zip(paced, unpaced):
            assert a.csv_text() == b.csv_text()

    def test_trace_interleaves_sessions(self, server_ctx):
        with observed(enabled=True) as tracer:
            SessionManager.for_engine(
                server_ctx, "idea-sim", 3, per_session=1
            ).run()
        turns = _marks(tracer, "manager.turn")
        switches = sum(1 for a, b in zip(turns, turns[1:]) if a[1] != b[1])
        assert switches >= 3
        times = [t for t, _ in turns]
        assert times == sorted(times)

    def test_streams_receive_every_record_in_order(self, server_ctx):
        seen = []
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1,
            on_record=lambda session_id, record: seen.append(
                (session_id, record.query_id)
            ),
        )
        results = manager.run()
        assert len(seen) == sum(result.num_queries for result in results)
        for result in results:
            mine = [q for s, q in seen if s == result.session_id]
            assert mine == [r.query_id for r in result.records]


class TestValidation:
    def test_single_shot(self, server_ctx):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 1, per_session=1
        )
        manager.run()
        with pytest.raises(BenchmarkError):
            manager.run()

    def test_engine_topology_is_exclusive(self, server_ctx):
        spec = session_specs(server_ctx, 1, per_session=1)[0]
        oracle = server_ctx.oracle(server_ctx.settings.data_size)
        with pytest.raises(BenchmarkError):
            SessionManager(
                oracle, server_ctx.settings, 1, lambda index: (spec, None)
            )

    @pytest.mark.parametrize("population", [0, -1])
    def test_closed_population_needs_a_session(self, server_ctx, population):
        with pytest.raises(BenchmarkError, match="at least one session"):
            SessionManager.for_engine(server_ctx, "idea-sim", population)

    def test_duplicate_session_ids_rejected(self, server_ctx):
        spec = session_specs(server_ctx, 1, per_session=1)[0]
        settings = server_ctx.settings

        def new_engine():
            return make_engine(
                "idea-sim", server_ctx.dataset(settings.data_size), settings,
                VirtualClock(),
            )

        manager = SessionManager(
            server_ctx.oracle(settings.data_size), settings, 2,
            lambda index: (spec, None), engine_factory=new_engine,
        )
        with pytest.raises(BenchmarkError, match="duplicate session id"):
            manager.run()


def _marks(tracer, name):
    """``(vt, session)`` of every ``name`` trace event, in order."""
    return [
        (entry["vt"], entry["session"])
        for entry in tracer.entries()
        if entry["name"] == name
    ]


class TestSessionsDieWithTheirRun:
    """Sessions are built at spawn and dropped at retirement, so the
    manager holds no session's engine once its run returns."""

    @pytest.mark.parametrize("spooled", [False, True])
    def test_no_isolated_engine_outlives_the_run(self, server_ctx, spooled):
        def live_engines():
            gc.collect()
            return sum(1 for obj in gc.get_objects() if isinstance(obj, Engine))

        before = live_engines()
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 4, per_session=1,
            spool=RecordSpool() if spooled else None,
        )
        results = manager.run()
        assert manager.aggregate.sessions_served == 4
        assert len(results) == (0 if spooled else 4)
        assert live_engines() == before


class _AllAtZero:
    """An arrival source that is a closed population: N arrivals at vt 0."""

    def __init__(self, num_sessions):
        self.num_sessions = num_sessions

    def schedule(self):
        return [SessionArrival(i, 0.0) for i in range(self.num_sessions)]

    def iter_schedule(self):
        return iter(self.schedule())


class TestDepartedSessionsPayForWhatTheyFired:
    def test_scripted_workflows_materialize_only_as_fired(self, server_ctx):
        """A scripted session that walks away leaves the rest of its
        workflow ungenerated (the fill stops where the driver stopped)."""
        arrivals = ArrivalProcess(
            0.5, 30.0, seed=server_ctx.settings.seed, mean_residence=6.0
        )
        results = SessionManager.for_engine(
            server_ctx, "idea-sim", arrivals, per_session=1
        ).run()
        unbuilt = 0
        for result in results:
            (workflow,) = result.spec.workflows
            built = len(workflow.interactions._walk.interactions)
            fired = sum(result.interaction_counts.values())
            # One sampled action may emit two interactions (create + link).
            assert fired <= built <= min(fired + 2, workflow.num_interactions)
            assert result.abandoned or built == workflow.num_interactions
            unbuilt += workflow.num_interactions - built
        assert unbuilt > 0


class TestIsolatedEnginesArePrivate:
    """An isolated session's engine serves that session alone, so nothing
    steps it after ``abandon()`` — why a lifecycle session's abandon frees
    only the hints it actually handed its engine. (The serial façade runs
    every session to completion and never abandons one.)"""

    @pytest.fixture
    def drivers(self, monkeypatch):
        from repro.server import manager

        made = []

        class Recording(manager.SessionDriver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(manager, "SessionDriver", Recording)
        return made

    @staticmethod
    def _assert_private(drivers):
        engines = {id(driver.engine) for driver in drivers}
        assert len(engines) == len(drivers)
        assert all(driver.lifecycle and driver.finished for driver in drivers)

    def test_open_system_sessions(self, server_ctx, drivers):
        arrivals = ArrivalProcess(
            0.5, 30.0, seed=server_ctx.settings.seed, mean_residence=6.0
        )
        results = SessionManager.for_engine(
            server_ctx, "idea-sim", arrivals, per_session=1
        ).run()
        assert any(result.abandoned for result in results)
        assert len(drivers) == len(results)
        self._assert_private(drivers)

    def test_tcp_connections(self, server_ctx, drivers):
        from repro.net.client import NetClient, scripted_csv_over_tcp
        from repro.net.server import ServerThread, TcpSessionServer

        (spec,) = session_specs(server_ctx, 1, per_session=1)
        server = TcpSessionServer(server_ctx, serve_cell(server_ctx, 2))
        with ServerThread(server) as (host, port):
            # One interaction, then the peer vanishes: an abandon...
            ghost = NetClient(host, port).connect()
            ghost.hello()
            ghost.attach_client(name="ghost")
            ghost.send_interaction(spec.workflows[0].interactions[0])
            ghost.drain(0.05)
            ghost.close()
            # ...and the next connection still gets an engine of its own.
            scripted_csv_over_tcp(host, port, 0, per_session=1)
        assert len(drivers) == 2
        self._assert_private(drivers)


class TestClosedIsOpenWithArrivalsAtZero:
    """Why one manager serves both populations: a closed population *is*
    an arrival schedule with every session arriving at virtual time 0 and
    never departing."""

    @pytest.mark.parametrize("policy", [None, "markov"])
    @pytest.mark.parametrize("share_engine", [False, True])
    @pytest.mark.parametrize("num_sessions", [1, 4])
    def test_per_session_bytes_equal(
        self, server_ctx, num_sessions, share_engine, policy
    ):
        kwargs = dict(per_session=1, share_engine=share_engine, policy=policy)
        with observed(enabled=True) as closed:
            closed_results = SessionManager.for_engine(
                server_ctx, "idea-sim", num_sessions, **kwargs
            ).run()
        with observed(enabled=True) as opened:
            open_results = SessionManager.for_engine(
                server_ctx, "idea-sim", _AllAtZero(num_sessions), **kwargs
            ).run()
        assert [r.session_id for r in open_results] == [
            r.session_id for r in closed_results
        ]
        assert [r.csv_text() for r in open_results] == [
            r.csv_text() for r in closed_results
        ]
        assert all(r.departed_at is None for r in open_results)
        # Same grant order too; only the arrival schedule's sessions are
        # announced.
        turns = _marks(closed, "manager.turn")
        assert turns and _marks(opened, "manager.turn") == turns
        assert _marks(closed, "manager.arrival") == []
        assert _marks(opened, "manager.arrival") == [
            (0.0, r.session_id) for r in open_results
        ]

