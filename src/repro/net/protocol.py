"""The versioned wire protocol of the network front-end.

What crosses the wire is exactly the paper's vocabulary: §4.3
interactions and visualizations outbound, §4.7-metric records inbound,
under the §3 interactive session lifecycle.

Frames
------
A frame is a 4-byte big-endian unsigned body length followed by a UTF-8
JSON object (the *body*). Bodies are encoded canonically — sorted keys,
minimal separators — so a message's bytes are a pure function of its
content, which is what lets the golden transcript in ``tests/golden/``
pin an entire server→client session byte-for-byte. Bodies above
:data:`MAX_FRAME_BYTES` are rejected on both ends (a malformed or
malicious length prefix must not allocate unbounded memory).

Messages
--------
Every body carries ``{"v": PROTOCOL_VERSION, "type": <tag>, ...}``. The
typed catalog (one dataclass per tag) mirrors the session lifecycle:

==============  ======================================================
``hello``       version/role/capability handshake; both sides send one
                first. Decodes across protocol versions so a mismatch
                can be answered with a typed ``error`` frame.
``attach``      client joins as a session: ``scripted`` (server-side
                suite or policy) or ``client`` (frontend-driven)
``submit_viz``  client-driven: create a visualization (a
                :class:`~repro.workflow.spec.VizSpec` payload)
``interact``    client-driven: any §4.3 interaction
``record``      server → client: one evaluated
                :class:`~repro.bench.driver.QueryRecord`
``progress``    server → client: lifecycle events (attached, workflow
                transitions)
``barrier``     server → client (shared-engine serving): all expected
                sessions have attached; the shared run starts now
``turn_grant``  server → client (shared-engine serving): this session
                won the global virtual timeline and is stepping
``turn_done``   client → server: acknowledge a grant, releasing the
                shared timeline for the next globally minimal event
``detach``      client → server: end the session (the deadline tail
                still drains); server → client: final summary
``stats_request``  client → server (instead of ``attach``): ask for the
                server's live observability snapshot
``stats``       server → client: the snapshot — metrics registry
                (counters/gauges/histograms) plus per-stage wall-time
                profile, as produced by :func:`repro.obs.stats_payload`
``stats_subscribe``  client → server (instead of ``attach``): stream the
                windowed virtual-time series; like ``stats_request`` the
                probe never joins the timeline. Requires the server's
                streaming telemetry to be enabled (``--stats-window``)
``stats_push``  server → client: one flushed telemetry window
                (:mod:`repro.obs.timeseries` fields) plus any SLO alerts
                it raised; a final frame (``final=true``, no window)
                marks the end of the run's stream. Entirely virtual-axis
                data — pushed bytes are deterministic
``stats_unsubscribe``  client → server: stop the stream early; the
                server confirms with a final ``stats_push`` and closes
``error``       protocol violation or session failure; sender closes.
                Decodes across protocol versions; a version-mismatch
                error carries ``data.supported_versions``.
==============  ======================================================

Every message, and every payload inside one (visualizations,
interactions, §4.7 records), encodes and decodes through the shared
:mod:`repro.common.codec`, so what crosses the wire round-trips through
exactly the serialization the on-disk formats already trust, and a
malformed field is a typed ``ProtocolError`` naming its path
(``malformed record frame: seq: expected int, got null``). JSON floats
round-trip exactly (``repr``-based encoding), including the NaN values a
TR-violated record carries — byte-identical reports on the far side are
therefore possible, and ``tests/test_net_protocol.py`` fuzzes the
encode→decode→encode fixpoint to keep it that way.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type

from repro.bench import codec
from repro.bench.codec import record_to_dict  # noqa: F401 - re-exported
from repro.bench.driver import QueryRecord
from repro.common.codec import OMIT_UNSET, Codable, checker, union
from repro.common.errors import ProtocolError
from repro.workflow.spec import Interaction, VizSpec

#: Version tag carried in every message; bumped on incompatible change.
#: v2 added the shared-engine turn protocol (BARRIER/TURN_GRANT/TURN_DONE),
#: HELLO capability negotiation, and typed version-mismatch errors.
PROTOCOL_VERSION = 2

#: Versions this side can speak. A peer announcing anything else gets a
#: typed ERROR frame carrying this tuple (see :func:`version_error`).
SUPPORTED_VERSIONS = (2,)

#: Message tags that decode regardless of the frame's version tag, so
#: mismatched peers can still exchange a handshake and a typed error
#: instead of failing with a generic decode exception.
VERSION_EXEMPT_TYPES = frozenset({"hello", "error"})

#: HELLO capability advertised by servers that grant wire-level step
#: turns (shared-engine serving over TCP).
CAP_SHARED_ENGINE = "shared-engine"

#: Hard cap on a frame body (decoded JSON text), both directions.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The 4-byte big-endian unsigned length prefix.
_HEADER = struct.Struct(">I")


# ----------------------------------------------------------------------
# Record serialization (repro.bench.codec, typed for the wire)
# ----------------------------------------------------------------------

#: A record decoded unchecked (:mod:`repro.bench.codec`), returned if every
#: field holds its declared type; else a :class:`ProtocolError`. A client
#: reads a peer's records through it; the server's own spool does not.
check_record = checker(QueryRecord, ProtocolError)


def record_from_dict(data: dict) -> QueryRecord:
    """Rebuild the exact :class:`QueryRecord` a server evaluated."""
    try:
        record = codec.record_from_dict(data)
    except (KeyError, TypeError) as error:
        raise ProtocolError(f"malformed record payload: {error}") from error
    return check_record(record)


# ----------------------------------------------------------------------
# Message catalog
# ----------------------------------------------------------------------

class Message(Codable, error=ProtocolError):
    """Base of all wire messages; subclasses set :attr:`TYPE`.

    ``to_dict`` is the whole frame body (``v`` and ``type`` included) and
    ``Message.from_dict`` reads any message by its ``type``.
    """

    TYPE: str = ""


@dataclass(frozen=True)
class Hello(Message):
    """Handshake: each side announces version, role and capabilities.

    ``capabilities`` is the v2 negotiation hook: the server advertises
    optional serving modes (currently :data:`CAP_SHARED_ENGINE` when it
    grants wire-level step turns) so clients can fail fast instead of
    discovering an unsupported mode mid-session. v1 peers never sent the
    field; it decodes as an empty tuple.
    """

    version: int = PROTOCOL_VERSION
    role: str = "client"  # "client" | "server"
    software: str = "idebench-repro"
    engine: Optional[str] = None  # server → client: engine being served
    capabilities: Tuple[str, ...] = ()
    #: Cross-host trace correlation (optional): the server's HELLO names
    #: the run (``run``, a stable digest of its configuration) and each
    #: side may name itself (``host``). Clients stamp both onto their
    #: trace entries so ``repro trace merge`` can stitch per-host files
    #: into one timeline. Empty strings are omitted from the payload —
    #: handshake bytes without correlation are unchanged from v2.0.
    run: str = field(default="", metadata=OMIT_UNSET)
    host: str = field(default="", metadata=OMIT_UNSET)

    TYPE = "hello"

    @classmethod
    def from_dict(cls, data: dict) -> "Hello":
        # A bare cross-version hello (no "version") reports the frame's
        # "v", so the mismatch can be answered with a typed error.
        if isinstance(data, dict) and "version" not in data:
            data = {**data, "version": data.get("v") or 0}
        return super().from_dict(data)


#: Session modes a client may attach in.
ATTACH_MODES = ("scripted", "client")


@dataclass(frozen=True)
class Attach(Message):
    """Join the server as one session.

    ``scripted`` mode runs server-side: session ``session_index``'s
    seeded workflow suite (or, with ``policy`` set, its adaptive policy)
    exactly as ``repro serve`` would — which is what makes the scripted
    TCP report byte-identical to the in-process one. ``client`` mode
    turns the connection into the interaction source: the server stalls
    on the think-time grid until the frontend sends SUBMIT_VIZ/INTERACT
    frames.
    """

    mode: str = "scripted"
    session_index: int = 0
    per_session: int = 1
    workflow_type: str = "mixed"
    policy: Optional[str] = None
    accel: Optional[float] = None
    name: Optional[str] = None  # client mode: session id override

    TYPE = "attach"

    def __post_init__(self):
        if self.mode not in ATTACH_MODES:
            raise ProtocolError(
                f"unknown attach mode {self.mode!r} "
                f"(choose from: {', '.join(ATTACH_MODES)})"
            )
        if self.mode == "client" and self.policy is not None:
            raise ProtocolError(
                "client-driven sessions are their own interaction source; "
                "policy= applies to scripted mode only"
            )
        if self.accel is not None and not (
            math.isfinite(self.accel) and self.accel > 0
        ):
            raise ProtocolError(
                f"accel must be unset or a finite number > 0, got "
                f"{self.accel!r}"
            )
        if self.per_session < 1:
            raise ProtocolError(
                f"per_session must be >= 1, got {self.per_session!r}"
            )
        if self.session_index < 0:
            raise ProtocolError(
                f"session_index must be >= 0, got {self.session_index!r}"
            )


@dataclass(frozen=True)
class SubmitViz(Message):
    """Client-driven: create a visualization (sugar for INTERACT)."""

    viz: VizSpec

    TYPE = "submit_viz"


@dataclass(frozen=True)
class Interact(Message):
    """Client-driven: one §4.3 interaction (the on-disk dict format)."""

    interaction: Interaction

    TYPE = "interact"


@dataclass(frozen=True)
class Record(Message):
    """Server → client: one evaluated query record, in deadline order."""

    session_id: str
    seq: int
    record: QueryRecord

    TYPE = "record"


@dataclass(frozen=True)
class Progress(Message):
    """Server → client: session lifecycle events.

    ``event`` is ``attached`` (session accepted; payload names the
    session id, mode and engine) or ``workflow`` (a workflow boundary;
    payload carries the new workflow index).
    """

    session_id: str
    event: str
    payload: dict = field(default_factory=dict)

    TYPE = "progress"


@dataclass(frozen=True)
class Barrier(Message):
    """Server → client (shared-engine serving): the shared run starts.

    Sent to every attached session once all ``sessions`` expected
    participants have joined; no ``turn_grant`` precedes it. The barrier
    is what lets the server register the whole population with the
    global virtual timeline *before* the first grant — the same
    all-declared-before-any-grant rule the in-process
    :class:`~repro.server.manager.SessionManager` enforces.
    """

    sessions: int
    event: str = "start"

    TYPE = "barrier"


@dataclass(frozen=True)
class TurnGrant(Message):
    """Server → client (shared-engine serving): your session steps now.

    The session holding the globally minimal ``(event_time, slot)`` pair
    is granted its step; the RECORD frames that step produced follow,
    and the server then waits for the matching :class:`TurnDone` before
    declaring the session's next event. ``turn`` counts grants per
    session from 0 — the acknowledgement must echo it exactly.
    """

    session_id: str
    turn: int
    event_time: float

    TYPE = "turn_grant"


@dataclass(frozen=True)
class TurnDone(Message):
    """Client → server: acknowledge :class:`TurnGrant` number ``turn``.

    Releases the shared timeline: until the acknowledgement arrives, no
    session is granted another step — a slow client therefore blocks
    only *virtual* time (every session waits, order unchanged), never
    corrupts it. An out-of-order or unsolicited ``turn_done`` is a
    protocol violation and abandons the sending session.
    """

    turn: int
    session_id: Optional[str] = None

    TYPE = "turn_done"


@dataclass(frozen=True)
class Detach(Message):
    """Session end.

    Client → server: "no more interactions" (fields unset; the deadline
    tail still drains and its records still stream). Server → client:
    the final summary — record count and virtual makespan.
    """

    session_id: Optional[str] = None
    queries: Optional[int] = None
    makespan: Optional[float] = None

    TYPE = "detach"


@dataclass(frozen=True)
class StatsRequest(Message):
    """Client → server: pull the live observability snapshot.

    Sent after the HELLO exchange *instead of* an ATTACH — a stats
    probe is not a session: it never joins the timeline, so probing a
    busy server cannot perturb any running session's bytes. The server
    answers with one :class:`Stats` frame and the conversation ends.
    """

    TYPE = "stats_request"


@dataclass(frozen=True)
class Stats(Message):
    """Server → client: live metrics + stage profile (``repro connect
    --stats``).

    ``data`` is :func:`repro.obs.stats_payload` output: the canonical
    metrics snapshot (``data["metrics"]``, reloadable via
    :meth:`repro.obs.MetricsRegistry.from_snapshot`) and the wall-time
    stage attribution (``data["profile"]``). Wall-time values are
    inherently nondeterministic — STATS frames are therefore never part
    of the golden transcripts.
    """

    data: dict
    sessions_served: int = 0

    TYPE = "stats"


@dataclass(frozen=True)
class StatsSubscribe(Message):
    """Client → server: stream windowed telemetry (``repro top``).

    Sent after the HELLO exchange *instead of* an ATTACH — a subscriber
    is a probe, not a session: it never joins the timeline, so watching
    a busy server cannot perturb any running session's bytes. The
    server answers with a :class:`StatsPush` per flushed virtual-time
    window (see :mod:`repro.obs.timeseries`); windows flushed before the
    subscription are replayed first, so a late subscriber still sees the
    whole deterministic stream. Requires the server's streaming
    telemetry to be enabled (``repro serve --tcp --stats-window``);
    otherwise the server answers with a typed ``error`` frame.
    """

    TYPE = "stats_subscribe"


@dataclass(frozen=True)
class StatsPush(Message):
    """Server → subscriber: one flushed telemetry window (+ SLO alerts).

    ``window`` is a :mod:`repro.obs.timeseries` window dict; ``alerts``
    are the typed SLO alerts that window raised (``repro.obs.slo``).
    The closing frame of a stream carries ``final=True`` and no window.
    Every field is virtual-axis data — a pushed stream's bytes are a
    pure function of the run configuration (the two-axis contract), so
    over-the-wire windows compare byte-for-byte with the in-process
    series.
    """

    seq: int
    window: Optional[dict] = None
    alerts: Tuple[dict, ...] = ()
    final: bool = False

    TYPE = "stats_push"


@dataclass(frozen=True)
class StatsUnsubscribe(Message):
    """Subscriber → server: stop the stream before the run ends.

    The server confirms with a final :class:`StatsPush` (``final=True``)
    and closes the connection; frames already in flight may still arrive
    first.
    """

    TYPE = "stats_unsubscribe"


@dataclass(frozen=True)
class ErrorMessage(Message):
    """A protocol violation or session failure; the sender closes.

    ``data`` carries optional machine-readable detail; a ``version``
    error (see :func:`version_error`) puts the sender's
    ``supported_versions`` there so a mismatched peer can report exactly
    what would have been accepted.
    """

    code: str = "error"
    message: str = ""
    data: Optional[dict] = None

    TYPE = "error"


def version_error(peer_version: object) -> ErrorMessage:
    """The typed ERROR frame answering an unsupported HELLO version.

    Satisfies the negotiation contract: a version mismatch is answered
    with a frame the peer can decode (``error`` is version-exempt) that
    names the versions this side accepts — never a generic decode
    failure on either end.
    """
    supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
    return ErrorMessage(
        code="version",
        message=(
            f"unsupported protocol version {peer_version!r} "
            f"(this side supports: {supported})"
        ),
        data={"supported_versions": list(SUPPORTED_VERSIONS)},
    )


#: Tag → message class; the complete catalog (every class above).
MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.TYPE: cls for cls in Message.__subclasses__()
}
union(
    Message, "type", MESSAGE_TYPES, noun="message", label="{} frame",
    header={"v": PROTOCOL_VERSION},
)


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------

def encode_body(message: Message) -> bytes:
    """The canonical JSON body of ``message`` (no length prefix).

    Canonical means sorted keys and minimal separators: the bytes are a
    pure function of the message content, which the golden transcript
    test relies on. ``allow_nan`` stays on — TR-violated records carry
    NaN metrics and must cross the wire unchanged.
    """
    return json.dumps(
        message.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=True
    ).encode("utf-8")


def encode_message(message: Message) -> bytes:
    """``message`` as a complete frame (length prefix + canonical body)."""
    body = encode_body(message)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Message:
    """Parse one frame body back into its typed message."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    return decode_message(data)


def decode_message(data: object) -> Message:
    """Parse a decoded JSON body (a dict) into its typed message."""
    if not isinstance(data, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("v")
    exempt = isinstance(data.get("type"), str) and data["type"] in VERSION_EXEMPT_TYPES
    if version not in SUPPORTED_VERSIONS and not exempt:
        # Handshake and error frames decode across versions so the
        # mismatch can be *negotiated* (typed version error, clear
        # client exception) instead of dying in the codec.
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side supports {supported}"
        )
    return Message.from_dict(data)


def split_frame(buffer: bytes, start: int = 0) -> Optional[tuple]:
    """``(body, end)`` of the frame at ``buffer[start:]``, or None if
    it is incomplete.

    The incremental decoder for blocking sockets: feed accumulated bytes,
    get back the first complete frame body and the offset just past it,
    so a burst of many frames splits without copying its remainder.
    Raises :class:`ProtocolError` on an oversized length prefix.
    """
    if len(buffer) - start < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buffer, start)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length prefix of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    end = start + _HEADER.size + length
    if len(buffer) < end:
        return None
    return buffer[start + _HEADER.size:end], end


async def read_frame_async(reader) -> bytes:
    """Read one frame body from an :class:`asyncio.StreamReader`.

    Raises :class:`asyncio.IncompleteReadError` on EOF mid-frame and
    :class:`ProtocolError` on an oversized length prefix.
    """
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length prefix of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return await reader.readexactly(length)


async def read_message_async(reader) -> Message:
    """Read and decode one typed message from a stream reader."""
    return decode_body(await read_frame_async(reader))
