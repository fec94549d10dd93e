"""Blocking client library for the network front-end.

:class:`NetClient` speaks the :mod:`repro.net.protocol` frames over a
plain socket — the dependency-free path a real IDE frontend (or remote
load generator, §3's "unpredictable and speed-dependent" user) would
take. On top of it:

* :func:`fetch_scripted_session` — attach in scripted mode, let the
  server run session *i*'s seeded suite (or adaptive policy), and
  reassemble the streamed records;
* :func:`replay_workflow` — drive a client-mode session by sending a
  pre-generated workflow's interactions over the wire (the scripted
  replay client of docs/protocol.md);
* :func:`scripted_csv_over_tcp` — the acceptance helper: the detailed
  CSV a scripted client reconstructs, compared byte-for-byte against
  in-process ``repro serve`` output by ``tests/test_net_server.py``.

Records cross the wire through :func:`repro.bench.codec.record_to_dict`
round trips, so the client-side
:class:`~repro.bench.report.DetailedReport` renders **byte-identical**
CSV to the server-side one — JSON preserves every float (NaN included)
exactly.
"""

from __future__ import annotations

import io
import socket
from typing import List, Optional, Tuple

from repro.bench.driver import QueryRecord
from repro.bench.report import DetailedReport
from repro.common.errors import ProtocolError
from repro.net.protocol import (
    SUPPORTED_VERSIONS,
    Attach,
    Detach,
    ErrorMessage,
    Hello,
    Interact,
    Message,
    Record,
    Stats,
    StatsPush,
    StatsRequest,
    StatsSubscribe,
    StatsUnsubscribe,
    SubmitViz,
    TurnDone,
    TurnGrant,
    check_record,
    encode_message,
    decode_body,
    split_frame,
)
from repro.obs.tracer import get_tracer
from repro.workflow.spec import CreateViz, Interaction, Workflow

#: Default socket timeout (seconds) — generous, but hangs must surface.
DEFAULT_TIMEOUT = 60.0


class NetClient:
    """One connection to a :class:`~repro.net.server.TcpSessionServer`.

    Usable as a context manager; :meth:`hello` performs the handshake,
    the ``attach_*`` methods join a session, and :meth:`read_message` /
    :meth:`collect` consume the server's stream. With ``log_frames``
    set, every received frame's canonical JSON text is appended to
    :attr:`frame_log` — how the golden transcript is captured.

    Shared-engine servers pace sessions with TURN_GRANT frames that must
    be acknowledged (docs/protocol.md's v2 turn protocol). By default
    the client acknowledges transparently inside :meth:`read_message`
    (grants are still logged to :attr:`frame_log`, never surfaced to
    callers), so scripted fetches, wire replays and the REPL work
    unchanged against both serving modes. Pass ``auto_ack=False`` to
    drive the turn protocol by hand — what the adversarial tests do.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = DEFAULT_TIMEOUT,
        log_frames: bool = False,
        auto_ack: bool = True,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.auto_ack = auto_ack
        self.frame_log: List[str] = [] if log_frames else None
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self._offset = 0  # where the next frame in ``_buffer`` starts
        self._correlated = False

    # ------------------------------------------------------------------
    def connect(self) -> "NetClient":
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "NetClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        if self._sock is None:
            raise ProtocolError("client is not connected")
        self._sock.sendall(encode_message(message))

    def read_message(self) -> Message:
        """Block until one complete frame arrives; decode it.

        With :attr:`auto_ack` on (the default), TURN_GRANT frames from a
        shared-engine server are acknowledged immediately and skipped —
        callers see the same stream an isolated server would send.
        """
        if self._sock is None:
            raise ProtocolError("client is not connected")
        while True:
            split = split_frame(self._buffer, self._offset)
            if split is not None:
                body, self._offset = split
                if self.frame_log is not None:
                    self.frame_log.append(body.decode("utf-8"))
                message = decode_body(body)
                if isinstance(message, ErrorMessage):
                    raise ProtocolError(
                        f"server error [{message.code}]: {message.message}"
                    )
                if isinstance(message, Record):
                    check_record(message.record)  # decoded unchecked
                elif isinstance(message, TurnGrant) and self.auto_ack:
                    self.send(
                        TurnDone(
                            turn=message.turn,
                            session_id=message.session_id,
                        )
                    )
                    continue
                return message
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            self._buffer = self._buffer[self._offset:] + chunk
            self._offset = 0

    def drain(self, timeout: float = 0.2) -> List[Message]:
        """Read whatever frames are already in flight (REPL convenience)."""
        messages: List[Message] = []
        if self._sock is None:
            return messages
        self._sock.settimeout(timeout)
        try:
            while True:
                messages.append(self.read_message())
        except socket.timeout:
            pass
        finally:
            self._sock.settimeout(self.timeout)
        return messages

    # ------------------------------------------------------------------
    def hello(self, client_host: str = "") -> Hello:
        """Handshake; returns the server's HELLO.

        ``client_host`` names this client for cross-host trace
        correlation: it rides the outgoing HELLO, and when tracing is
        enabled the server's ``run`` id (plus ``client_host``) is
        stamped onto every local trace entry, so per-host trace files
        stitch into one timeline with ``repro trace merge``.

        Raises a clear :class:`ProtocolError` on a version mismatch in
        either direction: a newer server's typed ``version`` ERROR frame
        surfaces with its ``supported_versions``, and an older server's
        HELLO (decodable across versions) is rejected here by name
        instead of dying in the codec.
        """
        self.send(Hello(role="client", host=client_host))
        answer = self.read_message()
        if not isinstance(answer, Hello):
            raise ProtocolError(f"expected hello, got {answer.TYPE!r}")
        if answer.version not in SUPPORTED_VERSIONS:
            supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
            raise ProtocolError(
                f"server speaks protocol version {answer.version}; "
                f"this client supports {supported}"
            )
        tracer = get_tracer()
        if tracer.enabled:
            context = {}
            if answer.run:
                context["run"] = answer.run
            if client_host:
                context["host"] = client_host
            if context:
                tracer.set_context(**context)
                self._correlated = True
        return answer

    def attach_scripted(
        self,
        session_index: int,
        *,
        per_session: int = 1,
        workflow_type: str = "mixed",
        policy: Optional[str] = None,
        accel: Optional[float] = None,
    ) -> Message:
        """Join as a server-side scripted (or policy-driven) session."""
        self.send(
            Attach(
                mode="scripted",
                session_index=session_index,
                per_session=per_session,
                workflow_type=workflow_type,
                policy=policy,
                accel=accel,
            )
        )
        return self.read_message()  # Progress(attached)

    def attach_client(
        self,
        *,
        name: Optional[str] = None,
        workflow_type: str = "custom",
        accel: Optional[float] = None,
        session_index: int = 0,
    ) -> Message:
        """Join as a client-driven session (this connection is the user).

        ``session_index`` matters only on a shared-engine server, where
        it is the timeline slot this session claims.
        """
        self.send(
            Attach(
                mode="client",
                workflow_type=workflow_type,
                accel=accel,
                name=name,
                session_index=session_index,
            )
        )
        return self.read_message()  # Progress(attached)

    def stats(self) -> Stats:
        """Pull the server's live metrics snapshot.

        Sent *instead of* an ATTACH after the HELLO exchange — a stats
        probe never joins the timeline, so it cannot perturb any
        session's bytes. The server answers with one STATS frame and
        closes the connection.
        """
        self.send(StatsRequest())
        answer = self.read_message()
        if not isinstance(answer, Stats):
            raise ProtocolError(f"expected stats, got {answer.TYPE!r}")
        return answer

    def send_interaction(self, interaction: Interaction) -> None:
        """Client-driven mode: submit one §4.3 interaction."""
        if isinstance(interaction, CreateViz):
            self.send(SubmitViz(interaction.viz))
        else:
            self.send(Interact(interaction))

    def detach(self) -> None:
        """Client-driven mode: no more interactions (tail still drains)."""
        self.send(Detach())

    def collect(self) -> Tuple[List[QueryRecord], Detach]:
        """Read until the server's DETACH; returns (records, summary)."""
        records: List[QueryRecord] = []
        tracer = get_tracer()
        while True:
            message = self.read_message()
            if isinstance(message, Record):
                records.append(message.record)
                if tracer.enabled and self._correlated:
                    # The client-side trace of a *correlated* session:
                    # one event per reassembled record at its evaluation
                    # instant, so a per-client trace file has a virtual
                    # timeline to merge on (repro trace merge). Gated on
                    # correlation so uncorrelated traced runs keep their
                    # pinned bytes (trace_tcp_shared.jsonl).
                    tracer.event(
                        "client.record",
                        message.record.end_time,
                        session=message.session_id,
                        seq=message.seq,
                    )
            elif isinstance(message, Detach):
                return records, message
            # Progress frames are informational; skip.

    # ------------------------------------------------------------------
    # Streaming telemetry (stats_subscribe)
    # ------------------------------------------------------------------
    def subscribe_stats(self) -> None:
        """Subscribe to pushed telemetry windows (instead of an ATTACH)."""
        self.send(StatsSubscribe())

    def unsubscribe_stats(self) -> None:
        """Ask the server to end the stream (a final frame follows)."""
        self.send(StatsUnsubscribe())

    def iter_stats(self):
        """Yield :class:`StatsPush` frames until the final one (excluded).

        The generator returns when the server sends its ``final=True``
        frame — after the shared run ends, or in answer to
        :meth:`unsubscribe_stats`.
        """
        while True:
            message = self.read_message()
            if not isinstance(message, StatsPush):
                raise ProtocolError(
                    f"expected stats_push, got {message.TYPE!r}"
                )
            if message.final:
                return
            yield message


# ----------------------------------------------------------------------
# High-level helpers
# ----------------------------------------------------------------------

def fetch_server_stats(
    host: str, port: int, *, timeout: float = DEFAULT_TIMEOUT
) -> Stats:
    """One-shot stats probe: connect, HELLO, STATS_REQUEST, disconnect."""
    with NetClient(host, port, timeout=timeout) as client:
        client.hello()
        return client.stats()


def stream_server_stats(
    host: str, port: int, *, timeout: float = DEFAULT_TIMEOUT
) -> List[StatsPush]:
    """Subscribe and collect the full pushed window stream of one run.

    Blocks until the server's shared run ends (its final frame closes
    the stream); returns every non-final STATS_PUSH in push order. The
    frames are entirely virtual-axis data, so two runs of the same
    configuration return byte-identical payloads — the over-the-wire
    acceptance check of docs/observability.md.
    """
    with NetClient(host, port, timeout=timeout) as client:
        client.hello()
        client.subscribe_stats()
        return list(client.iter_stats())


def fetch_scripted_session(
    host: str,
    port: int,
    session_index: int,
    *,
    per_session: int = 1,
    workflow_type: str = "mixed",
    policy: Optional[str] = None,
    accel: Optional[float] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Tuple[str, List[QueryRecord], Detach]:
    """Run one scripted session over TCP; returns (id, records, summary)."""
    with NetClient(host, port, timeout=timeout) as client:
        client.hello()
        progress = client.attach_scripted(
            session_index,
            per_session=per_session,
            workflow_type=workflow_type,
            policy=policy,
            accel=accel,
        )
        records, summary = client.collect()
        return progress.session_id, records, summary


def replay_workflow(
    host: str,
    port: int,
    workflow: Workflow,
    *,
    name: Optional[str] = None,
    accel: Optional[float] = None,
    session_index: int = 0,
    timeout: float = DEFAULT_TIMEOUT,
) -> Tuple[str, List[QueryRecord], Detach]:
    """Drive a client-mode session with a pre-generated workflow.

    The scripted replay client: every interaction crosses the wire, the
    server fires it on the think-time grid, and the records that come
    back are byte-identical to a serial in-process run of the same
    workflow (``tests/test_net_server.py`` checks this). Against a
    shared-engine server the same call claims timeline slot
    ``session_index`` and rides the turn protocol transparently.
    """
    with NetClient(host, port, timeout=timeout) as client:
        client.hello()
        progress = client.attach_client(
            name=name or workflow.name,
            workflow_type=workflow.workflow_type.value,
            accel=accel,
            session_index=session_index,
        )
        for interaction in workflow.interactions:
            client.send_interaction(interaction)
        client.detach()
        records, summary = client.collect()
        return progress.session_id, records, summary


def records_csv_text(records: List[QueryRecord]) -> str:
    """The Table-1 detailed CSV of reassembled records, as a string."""
    buffer = io.StringIO()
    DetailedReport(records).to_csv(buffer)
    return buffer.getvalue()


def scripted_csv_over_tcp(
    host: str,
    port: int,
    session_index: int,
    *,
    per_session: int = 1,
    workflow_type: str = "mixed",
    policy: Optional[str] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Tuple[str, str]:
    """(session id, detailed CSV) of one scripted session fetched over TCP.

    The byte-equivalence acceptance path: this CSV must equal the
    corresponding in-process ``repro serve`` session's
    ``SessionResult.csv_text()`` exactly.
    """
    session_id, records, _ = fetch_scripted_session(
        host,
        port,
        session_index,
        per_session=per_session,
        workflow_type=workflow_type,
        policy=policy,
        timeout=timeout,
    )
    return session_id, records_csv_text(records)
