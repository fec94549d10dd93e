"""Shared-engine serving over TCP: turn protocol, equivalence, adversaries.

The tentpole contract: a shared-engine run served over loopback TCP —
scripted clients *and* client-driven wire replays — produces per-session
reports **byte-identical** to the in-process ``repro serve
--share-engine`` run of the same configuration, because the TCP server
drives the exact same shared-engine :class:`SessionManager`, merely
pacing each step turn through TURN_GRANT/TURN_DONE frames.

The adversarial half: a client that answers a grant out of order, never
answers it (wall-clock turn timeout), or disconnects while holding the
turn abandons exactly its own session — scheduler group swept — and the
*remaining* sessions' reports are byte-identical to an in-process run
where that session abandoned at the same point.
"""

import threading

import pytest

from repro.common.errors import ProtocolError
from repro.net.client import (
    NetClient,
    fetch_scripted_session,
    records_csv_text,
    replay_workflow,
)
from repro.net.protocol import (
    CAP_SHARED_ENGINE,
    Barrier,
    TurnDone,
    TurnGrant,
)
from repro.net.server import ServerThread, TcpSessionServer
from repro.server import (
    SessionAbandoned,
    SessionManager,
    SessionTurnHook,
    make_session,
)
from serve_cells import serve_cell


@pytest.fixture(scope="module")
def shared_reference(server_ctx):
    """In-process serve --share-engine: 2 sessions × 1 mixed workflow."""
    return SessionManager.for_engine(
        server_ctx, "idea-sim", 2, per_session=1, share_engine=True
    ).run()


class _AbandonAfterSteps(SessionTurnHook):
    """In-process stand-in for a remote client dying mid-run."""

    def __init__(self, kill_after: int):
        self.kill_after = kill_after
        self.steps = 0

    async def on_step(self, event_time, records, driver):
        self.steps += 1
        if self.steps >= self.kill_after:
            raise SessionAbandoned("test abandonment")


@pytest.fixture(scope="module")
def abandoned_reference(server_ctx):
    """In-process shared run where session 0 abandons after its 1st step.

    Every TCP adversarial scenario below kills session 0 at exactly that
    point (the first grant is session 0's, time-0 ties break by index),
    so the survivor's bytes must match this run's session 1.
    """
    manager = SessionManager.for_engine(
        server_ctx, "idea-sim", 2, per_session=1, share_engine=True,
        turn_hooks={0: _AbandonAfterSteps(1)},
    )
    results = manager.run()
    assert manager.abandoned == ["session-0"]
    return results


def _shared_server(ctx, sessions=2, **kwargs):
    return TcpSessionServer(
        ctx, serve_cell(ctx, sessions, share_engine=True), **kwargs
    )


def _fetch_in_thread(host, port, index, out, errors):
    def run():
        try:
            _, records, _ = fetch_scripted_session(
                host, port, index, per_session=1
            )
            out[index] = records_csv_text(records)
        except Exception as error:  # noqa: BLE001 - surfaced by the test
            errors.append((index, error))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestSharedEquivalence:
    def test_scripted_sessions_byte_identical(
        self, server_ctx, shared_reference
    ):
        out, errors = {}, []
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            threads = [
                _fetch_in_thread(host, port, index, out, errors)
                for index in range(2)
            ]
            for thread in threads:
                thread.join(120)
        assert not errors
        for index, expected in enumerate(shared_reference):
            assert out[index] == expected.csv_text()

    def test_wire_replay_byte_identical(self, server_ctx, shared_reference):
        # Session 0 client-driven: its scripted workflow crosses the
        # wire interaction by interaction; both sessions must still
        # reproduce the all-scripted in-process bytes.
        workflow = shared_reference[0].spec.workflows[0]
        out, errors = {}, []
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            def replay():
                try:
                    _, records, _ = replay_workflow(
                        host, port, workflow, session_index=0
                    )
                    out[0] = records_csv_text(records)
                except Exception as error:  # noqa: BLE001
                    errors.append((0, error))

            replay_thread = threading.Thread(target=replay, daemon=True)
            replay_thread.start()
            scripted_thread = _fetch_in_thread(host, port, 1, out, errors)
            replay_thread.join(120)
            scripted_thread.join(120)
        assert not errors
        assert out[0] == shared_reference[0].csv_text()
        assert out[1] == shared_reference[1].csv_text()

    def test_hello_announces_shared_capability(self, server_ctx):
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                hello = client.hello()
                # Leave without attaching; the run never starts.
        assert CAP_SHARED_ENGINE in hello.capabilities

    def test_repeated_runs_are_byte_identical(self, server_ctx):
        outputs = []
        for _ in range(2):
            out, errors = {}, []
            with ServerThread(_shared_server(server_ctx)) as (host, port):
                threads = [
                    _fetch_in_thread(host, port, index, out, errors)
                    for index in range(2)
                ]
                for thread in threads:
                    thread.join(120)
            assert not errors
            outputs.append((out[0], out[1]))
        assert outputs[0] == outputs[1]


class TestAttachValidation:
    def _handshake(self, client):
        client.hello()

    def test_out_of_range_slot_rejected(self, server_ctx):
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                with pytest.raises(ProtocolError, match="out of range"):
                    client.attach_scripted(7, per_session=1)

    def test_duplicate_slot_rejected(self, server_ctx):
        with ServerThread(
            _shared_server(server_ctx, 3)
        ) as (host, port):
            with NetClient(host, port) as first:
                first.hello()
                first.attach_scripted(0, per_session=1)
                with NetClient(host, port) as second:
                    second.hello()
                    with pytest.raises(ProtocolError, match="already"):
                        second.attach_scripted(0, per_session=1)

    def test_mismatched_workload_rejected(self, server_ctx):
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                with pytest.raises(
                    ProtocolError,
                    match=r"mismatched attach fields: per_session=3 \(server: "
                    r"1\), workflow_type='sequential' \(server: 'mixed'\), "
                    r"policy='markov' \(server: None\)$",
                ):
                    client.attach_scripted(
                        0, per_session=3, workflow_type="sequential",
                        policy="markov",
                    )

    def test_accel_rejected(self, server_ctx):
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                with pytest.raises(ProtocolError, match="accel"):
                    client.attach_scripted(0, per_session=1, accel=10.0)

    def test_unknown_client_workflow_type_rejected_at_attach(
        self, server_ctx, shared_reference
    ):
        # Refused on its own connection, before it claims a slot: the run
        # used to fail for every participant after the barrier.
        out, errors = {}, []
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                with pytest.raises(ProtocolError, match="unknown workflow"):
                    client.attach_client(workflow_type="sideways")
            threads = [
                _fetch_in_thread(host, port, index, out, errors)
                for index in range(2)
            ]
            for thread in threads:
                thread.join(60)
        assert not errors
        assert [out[0], out[1]] == [r.csv_text() for r in shared_reference]

    def test_reserved_client_name_rejected(self, server_ctx):
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                with pytest.raises(ProtocolError, match="reserved"):
                    client.attach_client(name="session-1", session_index=0)


class TestAdversaries:
    """Misbehaving clients abandon only themselves; survivors unchanged."""

    def _survivor_matches(self, out, errors, abandoned_reference):
        assert not errors
        assert out[1] == abandoned_reference[1].csv_text()

    def test_out_of_order_turn_done(self, server_ctx, abandoned_reference):
        out, errors = {}, []
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            survivor = _fetch_in_thread(host, port, 1, out, errors)
            with NetClient(host, port, auto_ack=False) as client:
                client.hello()
                client.attach_scripted(0, per_session=1)
                # Barrier, then the first grant (time-0 tie → slot 0).
                message = client.read_message()
                assert isinstance(message, Barrier)
                grant = client.read_message()
                assert isinstance(grant, TurnGrant)
                assert grant.turn == 0
                client.send(TurnDone(turn=99))
                with pytest.raises(ProtocolError, match="out-of-order"):
                    while True:
                        client.read_message()
            survivor.join(120)
        self._survivor_matches(out, errors, abandoned_reference)

    def test_client_never_answers_grant(self, server_ctx,
                                        abandoned_reference):
        # Virtual time stalls (nobody advances while the grant is
        # outstanding) until the wall-clock turn timeout abandons the
        # silent session; the survivor then runs to completion.
        out, errors = {}, []
        server = _shared_server(server_ctx, turn_timeout=0.4)
        with ServerThread(server) as (host, port):
            survivor = _fetch_in_thread(host, port, 1, out, errors)
            with NetClient(host, port, auto_ack=False) as client:
                client.hello()
                client.attach_scripted(0, per_session=1)
                with pytest.raises(ProtocolError, match="turn timeout"):
                    while True:  # Barrier, grant 0, then the error
                        client.read_message()
            survivor.join(120)
        self._survivor_matches(out, errors, abandoned_reference)

    def test_disconnect_while_holding_the_turn(self, server_ctx,
                                               abandoned_reference):
        out, errors = {}, []
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            survivor = _fetch_in_thread(host, port, 1, out, errors)
            client = NetClient(host, port, auto_ack=False).connect()
            client.hello()
            client.attach_scripted(0, per_session=1)
            message = client.read_message()
            assert isinstance(message, Barrier)
            grant = client.read_message()
            assert isinstance(grant, TurnGrant)
            client.close()  # vanish while holding the turn
            survivor.join(120)
        self._survivor_matches(out, errors, abandoned_reference)

    def test_incomplete_population_aborts_with_typed_error(self, server_ctx):
        # One participant attaches then nobody else joins: an attached-
        # but-dead peer is undetectable pre-barrier (its socket may hold
        # pipelined frames), so the barrier must time out with a typed
        # error instead of wedging every connected client forever.
        server = _shared_server(server_ctx, barrier_timeout=0.3)
        with ServerThread(server) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                client.attach_scripted(0, per_session=1)
                with pytest.raises(ProtocolError, match="barrier timeout"):
                    client.read_message()

    def test_client_driven_detach_without_interactions(self, server_ctx):
        # A shared-run participant that joins client-driven and
        # immediately detaches is a clean zero-query session; the
        # scripted neighbor must be unaffected (it matches the run where
        # session 0's slot produced nothing — i.e. the abandoned run).
        out, errors = {}, []
        with ServerThread(_shared_server(server_ctx)) as (host, port):
            survivor = _fetch_in_thread(host, port, 1, out, errors)
            with NetClient(host, port) as client:
                client.hello()
                client.attach_client(name="walker", session_index=0)
                client.detach()
                records, summary = client.collect()
            survivor.join(120)
        assert not errors
        assert records == []
        assert summary.queries == 0


class TestManagerTurnHooks:
    """The in-process half of the contract, without sockets."""

    def test_noop_hooks_change_no_bytes(self, server_ctx,
                                        shared_reference):
        manager = SessionManager.for_engine(
            server_ctx, "idea-sim", 2, per_session=1, share_engine=True,
            turn_hooks={0: SessionTurnHook(), 1: SessionTurnHook()},
        )
        results = manager.run()
        for result, expected in zip(results, shared_reference):
            assert result.csv_text() == expected.csv_text()
        assert manager.abandoned == []

    def test_session_driver_steps_counts_processed_events(
        self, server_ctx, shared_reference
    ):
        from repro.bench.driver import SessionDriver
        from repro.bench.experiments import make_engine
        from repro.common.clock import VirtualClock

        settings = server_ctx.settings
        dataset = server_ctx.dataset(settings.data_size, False)
        oracle = server_ctx.oracle(settings.data_size, False)
        engine = make_engine("idea-sim", dataset, settings,
                             VirtualClock(), False)
        engine.prepare()
        workflow = shared_reference[0].spec.workflows[0]
        driver = SessionDriver(engine, oracle, settings, [workflow])
        records = driver.run()
        # One step per processed event: every deadline evaluation plus
        # every interaction fire.
        assert driver.steps == len(records) + len(workflow.interactions)

    def test_abandonment_sweeps_the_scheduler_group(self, server_ctx):
        from repro.bench.experiments import make_engine
        from repro.common.clock import VirtualClock

        settings = server_ctx.settings
        dataset = server_ctx.dataset(settings.data_size, False)
        engine = make_engine("idea-sim", dataset, settings,
                             VirtualClock(), False)
        run = SessionManager(
            server_ctx.oracle(settings.data_size, False),
            settings,
            2,
            lambda index: make_session(server_ctx, index, per_session=1),
            engine=engine,
            turn_hooks={0: _AbandonAfterSteps(2)},
        )
        run.run()
        assert run.abandoned == ["session-0"]
        assert "session-0" not in engine.scheduler.active_groups()
