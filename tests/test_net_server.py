"""TCP server integration tests: byte-identity, stalls, disconnects.

Runs a real :class:`~repro.net.server.TcpSessionServer` on a loopback
socket (background thread) and drives it with the blocking client
library — the same path ``repro connect`` takes. The headline assertions
extend the server subsystem's determinism guarantee across the wire:
scripted and client-driven sessions reassemble reports byte-identical to
their in-process equivalents.
"""

import asyncio
import json
import socket
import struct

import pytest

from repro.common.errors import BenchmarkError, ProtocolError
from repro.net.client import (
    NetClient,
    fetch_scripted_session,
    records_csv_text,
    replay_workflow,
    scripted_csv_over_tcp,
)
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Attach,
    Detach,
    Hello,
    Message,
    Record,
    encode_message,
)
from repro.net.server import ServerThread, TcpSessionServer, _WireHook
from repro.bench.codec import record_to_dict
from repro.server import SessionManager, make_session
from repro.server.manager import SessionTurnHook
from repro.workflow.policy import (
    PENDING,
    ExternalInteractionSource,
    PolicyView,
)
from repro.workflow.spec import CreateViz
from serve_cells import serve_cell


@pytest.fixture(scope="module")
def reference(server_ctx):
    """In-process serve results for 2 sessions × 1 mixed workflow."""
    return SessionManager.for_engine(
        server_ctx, "idea-sim", 2, per_session=1
    ).run()


def _server(ctx, sessions=None):
    """An isolated server: unbounded, or stopping after ``sessions``."""
    return TcpSessionServer(
        ctx, "idea-sim" if sessions is None else serve_cell(ctx, sessions)
    )


class TestScriptedOverTcp:
    def test_byte_identical_to_in_process_serve(self, server_ctx, reference):
        with ServerThread(_server(server_ctx)) as (host, port):
            for index, expected in enumerate(reference):
                session_id, csv_text = scripted_csv_over_tcp(
                    host, port, index, per_session=1
                )
                assert session_id == expected.session_id
                assert csv_text == expected.csv_text()

    def test_detach_summary_matches_records(self, server_ctx, reference):
        with ServerThread(_server(server_ctx)) as (host, port):
            _, records, summary = fetch_scripted_session(
                host, port, 0, per_session=1
            )
        assert summary.queries == len(records) == reference[0].num_queries
        assert summary.makespan == max(r.end_time for r in records)

    def test_policy_session_over_tcp_is_deterministic(self, server_ctx):
        with ServerThread(_server(server_ctx)) as (host, port):
            _, first, _ = fetch_scripted_session(
                host, port, 0, per_session=1, policy="markov"
            )
            _, second, _ = fetch_scripted_session(
                host, port, 0, per_session=1, policy="markov"
            )
        assert records_csv_text(first) == records_csv_text(second)
        # ... and identical to the in-process policy run.
        in_process = SessionManager.for_engine(
            server_ctx, "idea-sim", 1, per_session=1, policy="markov"
        ).run()
        assert records_csv_text(first) == in_process[0].csv_text()

    def test_accelerated_pacing_changes_no_bytes(self, server_ctx, reference):
        with ServerThread(_server(server_ctx)) as (host, port):
            _, csv_text = scripted_csv_over_tcp(host, port, 0, per_session=1)
            _, records, _ = fetch_scripted_session(
                host, port, 0, per_session=1, accel=1_000_000.0
            )
        assert records_csv_text(records) == csv_text == reference[0].csv_text()

    def test_concurrent_connections_stay_isolated(self, server_ctx, reference):
        import threading

        results = {}

        def fetch(index):
            results[index] = scripted_csv_over_tcp(
                "127.0.0.1", port, index, per_session=1
            )[1]

        with ServerThread(_server(server_ctx)) as (host, port):
            threads = [
                threading.Thread(target=fetch, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        for index, expected in enumerate(reference):
            assert results[index] == expected.csv_text()

    def test_max_sessions_stops_the_server(self, server_ctx):
        server = _server(server_ctx, 1)
        with ServerThread(server) as (host, port):
            scripted_csv_over_tcp(host, port, 0, per_session=1)
        assert server.sessions_served == 1


class TestClientDriven:
    def test_replay_byte_identical_to_serial(self, server_ctx, reference):
        workflow = reference[0].spec.workflows[0]
        with ServerThread(_server(server_ctx)) as (host, port):
            session_id, records, _ = replay_workflow(host, port, workflow)
        assert session_id == workflow.name
        assert records_csv_text(records) == reference[0].csv_text()

    def test_incremental_sends_equal_bulk_sends(self, server_ctx, reference):
        # Sending interaction-by-interaction (draining records between
        # sends, like a real frontend) produces the same bytes as the
        # bulk replay: wall arrival time never leaks into results.
        workflow = reference[0].spec.workflows[0]
        with ServerThread(_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                client.attach_client(
                    name=workflow.name,
                    workflow_type=workflow.workflow_type.value,
                )
                collected = []
                for interaction in workflow.interactions:
                    client.send_interaction(interaction)
                    for message in client.drain(0.05):
                        collected.append(message.record)
                client.detach()
                tail, _ = client.collect()
                collected.extend(tail)
        assert records_csv_text(collected) == reference[0].csv_text()

    def test_detach_without_interactions_is_a_clean_noop(self, server_ctx):
        # REPL `quit` / piped-stdin EOF detach before interacting: the
        # session ends with an empty summary, not an error.
        with ServerThread(_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                client.attach_client(name="empty")
                client.detach()
                records, summary = client.collect()
        assert records == []
        assert summary.queries == 0
        assert summary.makespan == 0.0

    def test_mid_session_disconnect_keeps_server_alive(
        self, server_ctx, reference
    ):
        workflow = reference[0].spec.workflows[0]
        with ServerThread(_server(server_ctx)) as (host, port):
            # Connect, send one interaction, vanish without detaching.
            client = NetClient(host, port).connect()
            client.hello()
            client.attach_client(name="ghost")
            client.send_interaction(workflow.interactions[0])
            client.drain(0.05)
            client.close()
            # The server must absorb the abandonment and serve the next
            # connection normally.
            _, csv_text = scripted_csv_over_tcp(host, port, 0, per_session=1)
        assert csv_text == reference[0].csv_text()


class TestHandshake:
    def test_hello_reports_engine_and_version(self, server_ctx):
        with ServerThread(_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                hello = client.hello()
        assert hello.version == PROTOCOL_VERSION
        assert hello.role == "server"
        assert hello.engine == "idea-sim"
        assert hello.capabilities == ()  # isolated server: no turn mode

    def test_v1_client_gets_typed_version_error(self, server_ctx):
        # v2-server/v1-client half of the negotiation matrix: the server
        # answers an old HELLO with a typed `version` ERROR frame that
        # carries its supported versions — not a generic decode failure.
        import json

        from repro.net.protocol import SUPPORTED_VERSIONS, split_frame

        with ServerThread(_server(server_ctx)) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                body = json.dumps({
                    "v": 1, "type": "hello", "version": 1,
                    "role": "client", "software": "old-client",
                }).encode("utf-8")
                sock.sendall(struct.pack(">I", len(body)) + body)
                buffer = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    buffer += chunk
                    if split_frame(buffer) is not None:
                        break
        frame, _ = split_frame(buffer)
        answer = json.loads(frame.decode("utf-8"))
        assert answer["type"] == "error"
        assert answer["code"] == "version"
        assert answer["data"]["supported_versions"] == list(
            SUPPORTED_VERSIONS
        )
        assert "1" in answer["message"]

    def test_v2_client_raises_clearly_against_v1_server(self, server_ctx):
        # v1-server/v2-client half of the matrix: a fake old server
        # answers HELLO with a v1 frame; the client must surface a clear
        # ProtocolError naming the versions, not die decoding.
        import json
        import threading

        from repro.net.protocol import read_frame_async  # noqa: F401

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def fake_v1_server():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                # Swallow the client's hello (length prefix + body).
                header = conn.recv(4)
                (length,) = struct.unpack(">I", header)
                while length > 0:
                    length -= len(conn.recv(length))
                body = json.dumps({
                    "v": 1, "type": "hello", "version": 1,
                    "role": "server", "software": "old-server",
                }).encode("utf-8")
                conn.sendall(struct.pack(">I", len(body)) + body)

        thread = threading.Thread(target=fake_v1_server, daemon=True)
        thread.start()
        try:
            with NetClient("127.0.0.1", port, timeout=10) as client:
                with pytest.raises(
                    ProtocolError, match="server speaks protocol version 1"
                ):
                    client.hello()
        finally:
            listener.close()
            thread.join(10)

    def test_frame_before_hello_gets_error(self, server_ctx):
        with ServerThread(_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.send(Detach())
                with pytest.raises(ProtocolError, match="expected hello"):
                    client.read_message()

    def test_oversized_frame_gets_error(self, server_ctx):
        with ServerThread(_server(server_ctx)) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(struct.pack(">I", 1 << 30))
                sock.sendall(b"x" * 64)
                with NetClient(host, port):
                    pass  # server stays up for the next connection
                answer = sock.recv(65536)
        assert b"error" in answer

    def test_unknown_workflow_type_gets_error(self, server_ctx):
        with ServerThread(_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                client.send(Attach(mode="scripted", workflow_type="sideways"))
                with pytest.raises(ProtocolError, match="workflow type"):
                    client.read_message()

    def test_invalid_attach_fields_get_protocol_errors(
        self, server_ctx, reference
    ):
        # Hand-encoded: the client-side Attach constructor refuses these.
        class RawAttach(Message):
            TYPE = "attach"

            def __init__(self, **fields):
                self.fields = fields

            def to_dict(self):
                return {"v": PROTOCOL_VERSION, "type": self.TYPE, **self.fields}

        bad = [
            {"accel": 0.0}, {"accel": -1.0}, {"accel": float("nan")},
            {"per_session": 0}, {"per_session": -2},
            {"session_index": -1},
        ]
        with ServerThread(_server(server_ctx)) as (host, port):
            for fields in bad:
                with NetClient(host, port) as client:
                    client.hello()
                    client.send(RawAttach(mode="scripted", **fields))
                    (field,) = fields
                    with pytest.raises(
                        ProtocolError, match=rf"\[protocol\].*{field}"
                    ):
                        client.read_message()
            _, csv_text = scripted_csv_over_tcp(host, port, 0, per_session=1)
        assert csv_text == reference[0].csv_text()


def _send_raw(client: NetClient, body: dict) -> None:
    """Frame ``body`` by hand: input the typed message classes refuse."""
    data = json.dumps(body).encode("utf-8")
    client._sock.sendall(struct.pack(">I", len(data)) + data)


_WEIRD_BIN_VIZ = {
    "type": "create_viz",
    "viz": {
        "name": "v", "source": "flights",
        "binning": [{"field": "DISTANCE", "kind": "weird"}],
        "aggregates": [{"func": "count"}],
    },
}


class TestMalformedClientFrames:
    @pytest.mark.parametrize("interaction, path", [
        ([], "interaction"),
        (_WEIRD_BIN_VIZ, r"interaction\.viz\.binning\[0\]\.kind"),
    ], ids=["non-object", "unknown-bin-kind"])
    def test_malformed_interact_gets_typed_error_and_server_serves_on(
        self, server_ctx, reference, interaction, path
    ):
        with ServerThread(_server(server_ctx)) as (host, port):
            with NetClient(host, port) as client:
                client.hello()
                client.attach_client(name="bad")
                _send_raw(client, {
                    "v": PROTOCOL_VERSION, "type": "interact",
                    "interaction": interaction,
                })
                with pytest.raises(
                    ProtocolError,
                    match=rf"\[protocol\]: malformed interact frame: {path}: ",
                ):
                    client.read_message()
            # The connection handler survived: the next one is served.
            _, csv_text = scripted_csv_over_tcp(host, port, 0, per_session=1)
        assert csv_text == reference[0].csv_text()


def test_isolated_trace_equals_in_process_trace(server_ctx):
    """A TCP connection is a calendar session: its virtual-only trace is
    the in-process run's, line for line (``manager.turn`` included)."""
    from repro.obs import observed
    from repro.obs.sink import entry_line

    def virtual_trace(run):
        with observed(enabled=True) as tracer:
            run()
            return [
                entry_line(entry, virtual_only=True)
                for entry in tracer.entries()
            ]

    def over_tcp():
        with ServerThread(_server(server_ctx)) as (host, port):
            fetch_scripted_session(host, port, 0, per_session=2)

    in_process = virtual_trace(
        SessionManager.for_engine(server_ctx, "idea-sim", 1, per_session=2).run
    )
    assert virtual_trace(over_tcp) == in_process


class TestExternalSource:
    """Unit tests of the stall machinery without a socket."""

    def _view(self):
        from repro.workflow.graph import VizGraph

        return PolicyView(
            session_id="s",
            workflow_index=0,
            interaction_index=0,
            graph=VizGraph(),
            records=[],
        )

    def test_pending_until_fed_then_pops_in_order(self, reference):
        source = ExternalInteractionSource()
        assert source.begin_workflow(0) is not None
        assert source.begin_workflow(1) is None
        assert source.next_interaction(self._view()) is PENDING
        first, second = reference[0].spec.workflows[0].interactions[:2]
        source.feed(first)
        source.feed(second)
        assert source.next_interaction(self._view()) is first
        assert source.next_interaction(self._view()) is second
        assert source.next_interaction(self._view()) is PENDING
        source.finish()
        assert source.next_interaction(self._view()) is None

    def test_feeding_after_finish_rejected(self, reference):
        source = ExternalInteractionSource()
        source.finish()
        with pytest.raises(BenchmarkError):
            source.feed(reference[0].spec.workflows[0].interactions[0])

    def test_driver_stalls_and_resumes(self, server_ctx, reference):
        from repro.bench.driver import SessionDriver
        from repro.bench.experiments import make_engine
        from repro.common.clock import VirtualClock

        settings = server_ctx.settings
        dataset = server_ctx.dataset(settings.data_size, False)
        oracle = server_ctx.oracle(settings.data_size, False)
        engine = make_engine("idea-sim", dataset, settings, VirtualClock(), False)
        engine.prepare()
        source = ExternalInteractionSource()
        driver = SessionDriver(
            engine, oracle, settings, [], session_id="x", policy=source
        )
        assert driver.needs_input
        with pytest.raises(BenchmarkError, match="stalled"):
            driver.step()
        workflow = reference[0].spec.workflows[0]
        source.feed(workflow.interactions[0])
        driver.resume()
        assert not driver.needs_input
        produced = []
        # Step until the driver stalls again — the first interaction
        # fires and its deadline tail drains (deadlines are steppable
        # while stalled; the grid slot is not).
        while not driver.needs_input:
            produced.extend(driver.step())
        assert driver.in_flight == 0
        assert produced  # the first create's query was evaluated
        source.finish()
        driver.resume()
        assert driver.finished


# ----------------------------------------------------------------------
# Frame batching: an isolated, unpaced session writes at flush points
# ----------------------------------------------------------------------

class _CountingWriter:
    """A stream writer that records every transport write it is given."""

    def __init__(self, writer, high_water=None):
        self._writer = writer
        self.writes = []
        if high_water is not None:
            writer.transport.set_write_buffer_limits(high=high_water)

    def write(self, data):
        self.writes.append(bytes(data))
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


class _CountingServer(TcpSessionServer):
    """Wraps each connection's writer in a :class:`_CountingWriter`."""

    def __init__(self, ctx, high_water=None):
        super().__init__(ctx, "idea-sim")
        self.high_water = high_water
        self.writers = []

    async def _handle(self, reader, writer):
        counting = _CountingWriter(writer, self.high_water)
        self.writers.append(counting)
        await super()._handle(reader, counting)


def _frames(frame_log):
    """The wire frames a logging client received, prefixes included."""
    bodies = [body.encode("utf-8") for body in frame_log]
    return [struct.pack(">I", len(body)) + body for body in bodies]


def _scripted_over_counting_server(ctx, accel=None, high_water=None):
    """(frames received, writes made) of one scripted two-workflow session."""
    server = _CountingServer(ctx, high_water)
    with ServerThread(server) as (host, port):
        with NetClient(host, port, log_frames=True) as client:
            client.hello()
            client.attach_scripted(0, per_session=2, accel=accel)
            client.collect()
    (writer,) = server.writers
    return _frames(client.frame_log), writer.writes


class TestFrameBatching:
    def test_unpaced_session_writes_once_per_flush_point(self, server_ctx):
        frames, writes = _scripted_over_counting_server(server_ctx)
        # HELLO and the attached PROGRESS answer the client at once; the
        # records, the workflow PROGRESS and the DETACH leave in one
        # write at the session's only flush point, the DETACH.
        assert len(b"".join(frames[2:])) < 64 * 1024
        assert writes == frames[:2] + [b"".join(frames[2:])]
        assert any(b'"event":"workflow"' in frame for frame in frames)

    def test_paced_session_writes_once_per_frame_of_the_same_stream(
        self, server_ctx
    ):
        unpaced, _ = _scripted_over_counting_server(server_ctx)
        frames, writes = _scripted_over_counting_server(server_ctx, accel=1e4)
        assert writes == frames == unpaced

    def test_queue_past_the_high_water_mark_flushes_early(self, server_ctx):
        high = 2048
        frames, writes = _scripted_over_counting_server(
            server_ctx, high_water=high
        )
        assert b"".join(writes) == b"".join(frames)
        batches = writes[2:]
        assert len(batches) > 2
        sizes = iter(len(frame) for frame in frames[2:])
        for batch in batches[:-1]:
            # Whole frames, queued until they reach the mark, not beyond.
            total = last = 0
            while total < len(batch):
                last = next(sizes)
                total += last
            assert total == len(batch)
            assert total - last < high <= total
        assert len(batches[-1]) - len(frames[-1]) < high

    def test_lock_step_client_sees_each_record_before_it_sends_more(
        self, server_ctx, reference
    ):
        # A client that waits for an interaction's records before it
        # sends the next one: the server must flush before it reads, or
        # both ends wait forever.
        workflow = reference[0].spec.workflows[0]
        due = {}
        for record in reference[0].records:
            due[record.start_time] = due.get(record.start_time, 0) + 1
        think = server_ctx.settings.think_time
        collected = []
        with ServerThread(_server(server_ctx)) as (host, port):
            with NetClient(host, port, timeout=10) as client:
                client.hello()
                client.attach_client(
                    name=workflow.name,
                    workflow_type=workflow.workflow_type.value,
                )
                for index, interaction in enumerate(workflow.interactions):
                    client.send_interaction(interaction)
                    if index == len(workflow.interactions) - 1:
                        break
                    for _ in range(due.get(index * think, 0)):
                        message = client.read_message()
                        while not isinstance(message, Record):
                            message = client.read_message()
                        collected.append(message.record)
                client.detach()
                tail, _ = client.collect()
        assert sum(due.values()) > len(tail)
        assert records_csv_text(collected + tail) == reference[0].csv_text()

    def test_session_error_follows_every_record_before_it(self, server_ctx):
        # A scripted session's engine fails mid-run. Nothing flushed its
        # queue before, so the ERROR's flush carries every record the
        # session evaluated, in order, and then the ERROR.
        server = _server(server_ctx)
        server._new_engine = _failing_on_submit(server._new_engine, 6)
        with ServerThread(server) as (host, port):
            with NetClient(host, port, log_frames=True) as client:
                client.hello()
                client.attach_scripted(0)
                with pytest.raises(ProtocolError, match="engine failed"):
                    client.collect()
        frames = [json.loads(body) for body in client.frame_log]
        assert [frame["type"] for frame in frames[-1:]] == ["error"]
        received = [frame["record"] for frame in frames[2:-1]]

        class Collect(SessionTurnHook):
            async def on_step(self, event_time, records, driver):
                evaluated.extend(record_to_dict(r) for r in records)

        evaluated = []
        spec, policy = make_session(server_ctx, 0, per_session=1)
        manager = SessionManager(
            [spec], server._oracle, server_ctx.settings,
            engines=[_failing_on_submit(server._new_engine, 6)()],
            policies=[policy], turn_hooks={0: Collect()},
        )
        with pytest.raises(BenchmarkError, match="engine failed"):
            manager.run()
        assert evaluated
        def text(records):  # NaN-safe: NaN == NaN only as text
            return [json.dumps(record, sort_keys=True) for record in records]

        assert text(evaluated) == text(received)

    def test_vanished_peer_is_abandoned_at_the_next_flush(self, server_ctx):
        server = _server(server_ctx)
        spec, policy = make_session(server_ctx, 0, per_session=2)
        writer = _VanishedPeer(high_water=4096)
        hook = _WireHook(
            server, None, writer, spec.session_id, batched=True
        )
        manager = SessionManager(
            [spec], server._oracle, server_ctx.settings,
            engines=[server._new_engine()], policies=[policy],
            turn_hooks={0: hook},
        )
        (result,) = asyncio.run(manager.run_async())
        assert manager.abandoned == [spec.session_id]
        assert hook.abandoned
        # One batch reached the dead socket; the session stopped there.
        (batch,) = writer.writes
        assert len(batch) >= 4096
        assert 0 < len(result.records) < _full_session_queries(server_ctx)

    def test_frame_counters_and_stage_cover_every_frame(self, server_ctx):
        from repro.obs import get_metrics, get_profiler, observed

        for accel in (None, 1e4):
            with observed(enabled=True):
                frames, writes = _scripted_over_counting_server(
                    server_ctx, accel=accel
                )
                metrics = get_metrics().snapshot()["metrics"]
                stages = {name: count for name, count, _ in get_profiler().rows()}
            sent = {
                entry["labels"].get("type", ""): entry["value"]
                for entry in metrics
                if entry["name"] == "repro_frames_sent_total"
            }
            (sent_bytes,) = [
                entry["value"] for entry in metrics
                if entry["name"] == "repro_frame_bytes_sent_total"
            ]
            types = {}
            for frame in frames:
                kind = json.loads(frame[4:])["type"]
                types[kind] = types.get(kind, 0) + 1
            assert sent == types
            assert sent_bytes == sum(len(frame) for frame in frames)
            # One entry per encode and one per transport write.
            assert stages["frame_io"] == len(frames) + len(writes)


def _failing_on_submit(new_engine, calls):
    """An engine factory whose engines raise on their ``calls``-th submit."""

    def build():
        engine = new_engine()
        submit = engine.submit
        made = []

        def failing(query):
            made.append(query)
            if len(made) == calls:
                raise BenchmarkError("engine failed")
            return submit(query)

        engine.submit = failing
        return engine

    return build


class _VanishedPeer:
    """A writer whose peer is gone: every drain fails."""

    def __init__(self, high_water):
        self.writes = []
        self.transport = self
        self._high_water = high_water

    def get_write_buffer_limits(self):
        return 0, self._high_water

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        raise ConnectionResetError("peer vanished")


def _full_session_queries(ctx):
    """Queries of scripted session 0 (two workflows) run to the end."""
    (result,) = SessionManager.for_engine(ctx, "idea-sim", 1, per_session=2).run()
    return result.num_queries
