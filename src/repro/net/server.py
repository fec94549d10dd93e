"""The asyncio TCP server: real frontends driving simulated engines.

Every accepted connection is one simulated IDE session (§2.2's one user)
and every session is a calendar session: an entry on a
:class:`~repro.server.manager.SessionManager`'s event calendar, stepped
by the one loop in-process ``repro serve`` runs, with a
:class:`_WireHook` streaming each step's records back as RECORD frames.
After the HELLO handshake the client ATTACHes in one of two modes:

* **scripted** — the session is ``session_index``'s seeded workflow suite
  (or, with ``policy`` set, its adaptive policy), built by the same
  :func:`~repro.server.manager.make_session` ``repro serve`` uses. The
  report a scripted client reassembles — and the server's virtual-time
  trace — is **byte-identical** to the in-process ``repro serve`` run of
  the same configuration (docs/protocol.md).
* **client** — the connection is the interaction source: SUBMIT_VIZ and
  INTERACT frames feed an
  :class:`~repro.workflow.policy.ExternalInteractionSource`, and the
  session *stalls* on the think-time grid (the hook's ``wait_input``)
  whenever the next interaction has not arrived. Interactions still fire
  at exact grid instants, so wall arrival time never leaks into results.

Isolated and shared serving differ only in the hook and the engine
topology:

* **isolated** (default) — each connection is a one-session manager on
  its own engine over the shared dataset; concurrent connections
  interleave freely on the event loop without affecting each other's
  bytes. An ATTACH with ``accel`` paces its session through the
  manager's :class:`~repro.server.clock.AsyncClock` (1.0 = real time,
  the original IDEBench driver's behavior) without changing results.
* **shared** (a serve cell with ``share_engine``, ``repro serve --tcp
  --share-engine``) — every connection is one session of *one*
  shared-engine manager, paced by :class:`_SharedTurnHook`: the server
  waits until all ``serving.sessions`` participants have attached (each
  ATTACH claims one ``session_index`` slot), broadcasts a BARRIER, and
  announces each step turn as a TURN_GRANT frame; the timeline is
  released only when the client's TURN_DONE arrives. A slow (or stalled
  client-driven) frontend therefore blocks only *virtual* time — the
  deterministic ``(time, slot)`` order is unchanged — and reports come
  out **byte-identical** to the in-process ``repro serve
  --share-engine`` run (docs/protocol.md's v2 contract). A frontend that
  disconnects while holding the turn, times out on its acknowledgement,
  or violates the turn protocol abandons exactly its own session
  (scheduler group swept via ``cancel_group``), like an open-system
  churn departure.

:class:`ServerThread` runs a server on a background thread with its own
event loop — how the tests and the perf ledger's ``tcp_scripted``
workload embed a loopback server in one process.
"""

from __future__ import annotations

import asyncio
import contextlib
import re
import threading
from typing import Dict, List, Optional, Set, Union

from repro.common.errors import BenchmarkError, ConfigurationError, ProtocolError
from repro.obs import stats_payload, timed_stage
from repro.obs.metrics import get_metrics
from repro.obs.slo import SloWatchdog
from repro.obs.timeseries import TimeSeries, set_timeseries
from repro.obs.tracer import get_tracer
from repro.runtime.executor import cell_context, serving_manager
from repro.runtime.spec import RunSpec
from repro.server.manager import (
    SessionAbandoned,
    SessionManager,
    SessionTurnHook,
    _engine_source,
    make_session,
)
from repro.server.session import SessionSpec
from repro.net.protocol import (
    CAP_SHARED_ENGINE,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Attach,
    Barrier,
    Detach,
    ErrorMessage,
    Hello,
    Interact,
    Message,
    Progress,
    Record,
    Stats,
    StatsPush,
    StatsRequest,
    StatsSubscribe,
    StatsUnsubscribe,
    SubmitViz,
    TurnDone,
    TurnGrant,
    encode_message,
    read_message_async,
    version_error,
)
from repro.workflow.policy import ExternalInteractionSource
from repro.workflow.spec import CreateViz, WorkflowType

#: Software tag announced in the server's HELLO.
SERVER_SOFTWARE = "idebench-repro"

#: Wall-clock seconds a shared-engine server waits for a client's
#: TURN_DONE (or, for a stalled client-driven session, its next
#: interaction frame) before abandoning the session. Also bounds every
#: server→client send of the turn protocol, so a client that
#: acknowledges but stops *reading* cannot jam the run once the socket
#: buffers fill.
DEFAULT_TURN_TIMEOUT = 30.0

#: Wall-clock seconds a shared-engine server waits for the whole
#: population to attach. A client that attached and died before the
#: barrier is undetectable without reading its socket (which may hold
#: legitimately pipelined frames), so an incomplete population would
#: otherwise wedge the server forever — this bound turns that into a
#: typed error on every waiting connection and a clean server exit.
DEFAULT_BARRIER_TIMEOUT = 120.0

#: Scripted shared-run slots own ids of this shape; client-driven
#: sessions may not squat on them.
_SCRIPTED_ID = re.compile(r"session-\d+")

#: Stream-queue sentinels: the run finished (drain and send the final
#: frame) vs. the subscriber asked to stop (send the final frame now).
_STREAM_END = object()
_STREAM_STOP = object()


class TcpSessionServer:
    """Serves simulated IDE sessions over length-prefixed JSON frames.

    Parameters
    ----------
    ctx:
        The :class:`~repro.bench.experiments.ExperimentContext` providing
        dataset, oracle and column profiles (shared across all
        connections; engines are per-connection).
    spec:
        The :class:`~repro.runtime.spec.RunSpec` the server runs — the
        cell in-process ``repro serve`` would run — and its only workload
        input: engine, settings and ``speculation``. A ``mode="serve"``
        spec's ``serving.sessions`` ends an isolated server after that
        many sessions; with ``serving.share_engine`` it is the population
        of ONE shared-engine run, whose sessions contend on a single
        engine under per-session fair scheduling, paced by the wire-level
        turn protocol, and every scripted ATTACH must ask for the spec's
        ``workflows`` and ``serving.policy``; the server serves this one
        run and stops. A spec without a serving selector, or a bare
        engine name, serves isolated sessions until :meth:`request_stop`.
        Open-system (``churn="open"``) cells are not served over TCP.
    host, port:
        Bind address. Port ``0`` picks an ephemeral port; the bound port
        is on :attr:`port` once running (and passed to ``on_ready``).
    turn_timeout:
        Shared mode: wall seconds to wait for a client's TURN_DONE (or a
        stalled client-driven session's next frame) before abandoning
        it; also bounds each turn-protocol send to a non-reading peer.
    barrier_timeout:
        Shared mode: wall seconds to wait for the whole population to
        attach before aborting the run with typed errors (an
        attached-then-dead client would otherwise wedge the barrier
        forever).
    stats_window:
        Enable streaming telemetry: the shared run folds a
        :class:`~repro.obs.timeseries.TimeSeries` with this virtual
        window width, and ``stats_subscribe`` probes receive one
        STATS_PUSH per flushed window (``repro top``). Shared mode only
        — windows ride the global virtual timeline. ``None`` (default)
        disables streaming; subscribers get a typed error.
    slo_rules:
        ``METRIC>THRESHOLD`` strings (:func:`repro.obs.slo.parse_rule`)
        the streaming watchdog evaluates per window; alerts ride the
        pushed frames (and the trace, when tracing is on). They need a
        ``stats_window``.
    correlate:
        Announce the spec's :attr:`~repro.runtime.spec.RunSpec.cell_id`
        as the run correlation id (:attr:`run_id`): the server's HELLO
        then carries ``run``/``host`` fields that clients stamp onto
        their trace entries (``repro trace merge``). Off (default), the
        handshake bytes are those of pre-correlation servers.
    on_ready:
        Optional callback ``(host, port)`` invoked once listening.
    """

    def __init__(
        self,
        ctx,
        spec: Union[RunSpec, str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        turn_timeout: float = DEFAULT_TURN_TIMEOUT,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
        stats_window: Optional[float] = None,
        slo_rules=(),
        correlate: bool = False,
        on_ready=None,
    ):
        if isinstance(spec, str):
            spec = RunSpec(spec, ctx.settings)
        serving = spec.serving
        if serving is not None and serving.churn != "closed":
            raise ConfigurationError(
                "TCP serving runs a closed population: an open-system cell "
                "(arrival_rate, horizon, residence) is served in-process only"
            )
        if turn_timeout <= 0:
            raise BenchmarkError(
                f"turn_timeout must be positive, got {turn_timeout!r}"
            )
        if barrier_timeout <= 0:
            raise BenchmarkError(
                f"barrier_timeout must be positive, got {barrier_timeout!r}"
            )
        self.share_engine = serving is not None and serving.share_engine
        if stats_window is not None and not self.share_engine:
            raise BenchmarkError(
                "streaming telemetry (stats_window) requires shared-"
                "engine serving: windows are folded on the shared run's "
                "global virtual timeline"
            )
        if slo_rules and stats_window is None:
            raise ConfigurationError(
                "SLO rules need a telemetry window (stats_window, "
                "--stats-window): the watchdog judges the windowed series, "
                "so without a window its rules would be silently ignored"
            )
        self.spec = spec
        self.ctx = cell_context(ctx, spec)
        self.host = host
        self.port = port
        #: Sessions served before the server stops (``None``: no bound).
        self.max_sessions = None if serving is None else serving.sessions
        self.turn_timeout = turn_timeout
        self.barrier_timeout = barrier_timeout
        self.run_id = spec.cell_id if correlate else ""
        self._series: Optional[TimeSeries] = None
        self._watchdog: Optional[SloWatchdog] = None
        #: ``(window, alerts)`` pairs in flush order — the deterministic
        #: stream every subscriber receives (late ones replay it first).
        self._push_log: List[tuple] = []
        self._push_queues: Set[asyncio.Queue] = set()
        self._push_done = False
        if stats_window is not None:
            self._watchdog = SloWatchdog(slo_rules)
            self._series = TimeSeries(window=stats_window)
            self._series.add_listener(self._on_window)
        self.sessions_served = 0
        self._on_ready = on_ready
        self._client_counter = 0
        self._done: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._handlers: Set[asyncio.Task] = set()
        self._shared_run: Optional[_SharedRun] = None
        if self.share_engine:
            # One run: its manager is built, as in-process serving builds
            # it, once the whole population has attached.
            self._shared_run = _SharedRun(self)
        else:
            self._oracle, self._new_engine = _engine_source(
                self.ctx, spec.engine, spec.speculation
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until ``max_sessions`` end or stop is requested.

        Returns the number of sessions served.
        """
        return asyncio.run(self.run_async())

    async def run_async(self) -> int:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        server = await asyncio.start_server(self._accept, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        if self._on_ready is not None:
            self._on_ready(self.host, self.port)
        async with server:
            await self._done.wait()
        if self._shared_run is not None:
            # A stop before the whole population attached means the run
            # will never start: release the waiting handlers (they
            # answer with a typed error) instead of blocking shutdown.
            self._shared_run.shutdown()
        if self._handlers:
            await asyncio.gather(
                *list(self._handlers), return_exceptions=True
            )
        if self._shared_run is not None and self._shared_run.task is not None:
            await asyncio.gather(
                self._shared_run.task, return_exceptions=True
            )
        return self.sessions_served

    def request_stop(self) -> None:
        """Ask a running server to stop accepting and shut down (thread-safe)."""
        loop, done = self._loop, self._done
        if loop is None or done is None or loop.is_closed():
            return  # never started, or already torn down
        try:
            loop.call_soon_threadsafe(done.set)
        except RuntimeError:  # pragma: no cover - loop closed mid-call
            pass

    def _session_ended(self) -> None:
        self.sessions_served += 1
        if (
            self.max_sessions is not None
            and self.sessions_served >= self.max_sessions
        ):
            self._done.set()

    # ------------------------------------------------------------------
    # Streaming telemetry (stats_subscribe probes)
    # ------------------------------------------------------------------
    def _on_window(self, window: dict) -> None:
        """Series listener: evaluate SLO rules, log, fan to subscribers.

        Runs synchronously inside the shared run's event loop at each
        virtual-window flush, so the push order *is* the flush order.
        """
        alerts = tuple(self._watchdog.evaluate(window))
        item = (window, alerts)
        self._push_log.append(item)
        for queue in self._push_queues:
            queue.put_nowait(item)

    def _finish_stream(self) -> None:
        """Shared run over: flush the tail and release every subscriber."""
        if self._series is None or self._push_done:
            return
        self._series.finalize()  # no-op if the manager already did
        self._push_done = True
        for queue in self._push_queues:
            queue.put_nowait(_STREAM_END)

    async def _serve_stats_stream(self, reader, writer) -> None:
        if self._series is None:
            raise ProtocolError(
                "streaming telemetry is disabled on this server; start "
                "it with --stats-window to accept stats_subscribe probes"
            )
        queue: asyncio.Queue = asyncio.Queue()
        # Snapshot + register with no await in between (single-threaded
        # loop): a late subscriber replays every window already flushed,
        # then follows live — no gap, no duplicate.
        backlog = list(self._push_log)
        done = self._push_done
        if not done:
            self._push_queues.add(queue)
        watcher = asyncio.ensure_future(
            self._watch_unsubscribe(reader, queue)
        )
        seq = 0
        try:
            for window, alerts in backlog:
                await self._send(
                    writer, StatsPush(seq=seq, window=window, alerts=alerts)
                )
                seq += 1
            while not done:
                item = await queue.get()
                if item is _STREAM_END or item is _STREAM_STOP:
                    break
                window, alerts = item
                await self._send(
                    writer, StatsPush(seq=seq, window=window, alerts=alerts)
                )
                seq += 1
            await self._send(writer, StatsPush(seq=seq, final=True))
        except (ConnectionError, OSError):
            pass  # subscriber vanished; nothing to answer
        finally:
            self._push_queues.discard(queue)
            watcher.cancel()

    async def _watch_unsubscribe(self, reader, queue: asyncio.Queue) -> None:
        """Turn a STATS_UNSUBSCRIBE (or a dead socket) into a stop signal."""
        try:
            message = await read_message_async(reader)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            queue.put_nowait(_STREAM_STOP)
            return
        if isinstance(message, StatsUnsubscribe):
            queue.put_nowait(_STREAM_STOP)
        # Anything else is ignored: the probe's only defined follow-up
        # is an unsubscribe, and erroring mid-push would race the stream.

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _accept(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._handle(reader, writer)
        finally:
            # Deregister only after the socket is fully closed: the
            # shutdown gather in run_async must cover the close itself,
            # or the loop tears down mid-wait_closed and logs spurious
            # CancelledErrors.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
            finally:
                self._handlers.discard(task)

    async def _handle(self, reader, writer) -> None:
        attached = False
        try:
            hello = await self._recv(reader)
            if not isinstance(hello, Hello):
                raise ProtocolError(
                    f"expected hello, got {hello.TYPE!r}"
                )
            if hello.version not in SUPPORTED_VERSIONS:
                # Typed negotiation failure: the peer can decode this
                # (error frames are version-exempt) and learn exactly
                # which versions would have been accepted.
                await self._send(writer, version_error(hello.version))
                return
            await self._send(
                writer,
                Hello(
                    version=PROTOCOL_VERSION,
                    role="server",
                    software=SERVER_SOFTWARE,
                    engine=self.spec.engine,
                    capabilities=(
                        (CAP_SHARED_ENGINE,) if self.share_engine else ()
                    ),
                    run=self.run_id,
                    host="server" if self.run_id else "",
                ),
            )
            attach = await self._recv(reader)
            if isinstance(attach, StatsSubscribe):
                # Streaming probe: push every flushed telemetry window
                # until the run ends or it unsubscribes. Like a stats
                # probe it never joins the timeline and is not counted
                # as a session.
                await self._serve_stats_stream(reader, writer)
                return
            if isinstance(attach, StatsRequest):
                # Observability probe: answer with the live metrics
                # snapshot and hang up. The probe never joins
                # the timeline (no ATTACH), so it cannot perturb any
                # session's bytes — and it is not counted as a session.
                await self._send(
                    writer,
                    Stats(
                        data=stats_payload(),
                        sessions_served=self.sessions_served,
                    ),
                )
                return
            if not isinstance(attach, Attach):
                raise ProtocolError(
                    f"expected attach, got {attach.TYPE!r}"
                )
            if self.share_engine:
                # Shared-run sessions are counted by the run coordinator
                # (all at once, when the run ends), not per handler.
                await self._serve_shared(reader, writer, attach)
            else:
                attached = True
                await self._serve_isolated(reader, writer, attach)
        except ProtocolError as error:
            await self._send_error(writer, "protocol", str(error))
        except BenchmarkError as error:
            await self._send_error(writer, "session", str(error))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # Peer vanished (mid-session disconnect): nothing to answer.
            pass
        finally:
            if attached:
                self._session_ended()

    async def _send(self, writer, message: Message) -> None:
        await self._write(writer, self._frame(message))

    def _frame(self, message: Message) -> bytes:
        """``message`` encoded as one frame, counted as sent."""
        if not get_tracer().enabled:
            return encode_message(message)
        with timed_stage("frame_io"):
            payload = encode_message(message)
        metrics = get_metrics()
        metrics.counter(
            "repro_frames_sent_total",
            labels={"type": message.TYPE},
            help="Wire frames sent by the server.",
        ).inc()
        metrics.counter(
            "repro_frame_bytes_sent_total",
            help="Wire bytes sent by the server (including prefixes).",
        ).inc(len(payload))
        return payload

    async def _write(self, writer, payload: bytes) -> None:
        """One transport write of one or more frames, then a drain."""
        with timed_stage("frame_io"):
            writer.write(payload)
            await writer.drain()

    async def _recv(self, reader) -> Message:
        message = await read_message_async(reader)
        if get_tracer().enabled:
            get_metrics().counter(
                "repro_frames_received_total",
                labels={"type": message.TYPE},
                help="Wire frames received by the server.",
            ).inc()
        return message

    async def _send_error(self, writer, code: str, text: str) -> None:
        try:
            await self._send(writer, ErrorMessage(code=code, message=text))
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            pass

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    async def _serve_isolated(self, reader, writer, attach: Attach) -> None:
        """One connection, one session: a one-session manager on its own
        engine, paced by the ATTACH's ``accel``."""
        workflow_type = _workflow_type(attach)
        batched = attach.accel is None
        if attach.mode == "client":
            session_id = attach.name or f"client-{self._client_counter}"
            self._client_counter += 1
            hook = _WireHook(
                self, reader, writer, session_id,
                ExternalInteractionSource(session_id, workflow_type), batched,
            )
            session = hook.session(None, None)  # the frontend is the source
        else:
            session = make_session(
                self.ctx,
                attach.session_index,
                per_session=attach.per_session,
                workflow_type=workflow_type,
                policy=attach.policy,
            )
            hook = _WireHook(self, reader, writer, session[0].session_id,
                             batched=batched)
        manager = SessionManager(
            self._oracle,
            self.ctx.settings,
            1,
            lambda index: session,
            engine_factory=self._new_engine,
            accel=attach.accel,
            turn_hooks={0: hook},
        )
        payload = {
            "mode": attach.mode,
            "engine": self.spec.engine,
            "workflow_type": attach.workflow_type,
        }
        if hook.source is None:
            payload.update(policy=attach.policy, per_session=attach.per_session)
        await self._send(
            writer,
            Progress(
                session_id=hook.session_id, event="attached", payload=payload
            ),
        )
        try:
            (result,) = await manager.run_async()
        except BenchmarkError:  # ProtocolError included
            await hook.write_queued()  # the records before it, then ERROR
            raise
        if not hook.abandoned:
            await hook.detach(result.records)

    async def _serve_shared(self, reader, writer, attach: Attach) -> None:
        """One slot of the shared run: attach, wait for the run, detach."""
        run = self._shared_run
        hook = run.register(attach, reader, writer)
        await self._send(
            writer,
            Progress(
                session_id=hook.session_id,
                event="attached",
                payload={
                    "mode": attach.mode,
                    "engine": self.spec.engine,
                    "shared": True,
                    "sessions": run.expected,
                    "session_index": attach.session_index,
                    **run.workload,
                },
            ),
        )
        run.maybe_start()
        await hook.done.wait()
        if hook.error is not None:
            await self._send_error(writer, "session", hook.error)
        elif not hook.abandoned:
            # An abandoned peer disconnected, timed out or violated the
            # turn protocol; the hook already said what could be said.
            await hook.detach(hook.records)


def _workflow_type(attach: Attach) -> WorkflowType:
    try:
        return WorkflowType(attach.workflow_type)
    except ValueError as error:
        raise ProtocolError(
            f"unknown workflow type {attach.workflow_type!r}"
        ) from error


class _SharedRun:
    """Coordinates exactly one shared-engine run over TCP.

    Connections claim ``session_index`` slots at ATTACH; once all
    ``expected`` slots are filled the coordinator broadcasts a BARRIER,
    builds the server's serve cell through
    :func:`~repro.runtime.executor.serving_manager` — the builder
    in-process ``repro serve --share-engine`` uses — and runs it with one
    :class:`_SharedTurnHook` per slot, which is precisely why the
    per-session reports come out byte-identical to the in-process run.
    A client-driven slot swaps its external source in for the slot's
    scripted session (:meth:`_WireHook.session`).
    """

    def __init__(self, server: "TcpSessionServer"):
        spec = server.spec
        self.server = server
        self.expected = spec.serving.sessions
        #: The scripted workload of the cell, as the ATTACH fields that
        #: must ask for it (``policy`` ``None`` is a scripted user).
        self.workload = {
            "per_session": spec.workflows.count,
            "workflow_type": spec.workflows.workflow_type,
            "policy": (
                None if spec.serving.policy == "scripted"
                else spec.serving.policy
            ),
        }
        self.slots: Dict[int, _SharedTurnHook] = {}
        self.started = False
        self.aborted = False
        self.task: Optional[asyncio.Task] = None
        self._barrier_watchdog: Optional[asyncio.Task] = None

    # -- attachment ----------------------------------------------------
    def register(self, attach: Attach, reader, writer) -> "_SharedTurnHook":
        server = self.server
        if self.aborted:
            raise ProtocolError(
                "the shared-engine run was aborted (barrier timeout); "
                "restart the server for a fresh run"
            )
        if self.started:
            raise ProtocolError(
                "the shared-engine run has already started; this server "
                "serves exactly one shared run per process"
            )
        if self._barrier_watchdog is None:
            # Arm on the first attach: a participant that dies before
            # the barrier is undetectable (its socket may hold
            # legitimately pipelined frames we must not consume early),
            # so an incomplete population must time out instead of
            # wedging every connected client forever.
            self._barrier_watchdog = asyncio.ensure_future(
                self._barrier_deadline()
            )
        index = attach.session_index
        if not 0 <= index < self.expected:
            raise ProtocolError(
                f"session_index {index} out of range for a "
                f"{self.expected}-session shared run"
            )
        if index in self.slots:
            raise ProtocolError(
                f"session_index {index} is already attached"
            )
        if attach.accel is not None:
            raise ProtocolError(
                "shared-engine sessions share one global virtual "
                "timeline; per-session accel pacing is not available"
            )
        if attach.mode == "scripted":
            mismatched = [
                f"{name}={getattr(attach, name)!r} (server: {value!r})"
                for name, value in self.workload.items()
                if getattr(attach, name) != value
            ]
            if mismatched:
                raise ProtocolError(
                    "shared-engine serving fixes the scripted workload "
                    "server-side so every participant runs the exact "
                    "configuration the report is deterministic for; "
                    "mismatched attach fields: " + ", ".join(mismatched)
                )
            session_id, source = f"session-{index}", None
        else:
            session_id = attach.name or f"client-{index}"
            if _SCRIPTED_ID.fullmatch(session_id):
                raise ProtocolError(
                    f"session name {session_id!r} is reserved for "
                    f"scripted slots"
                )
            taken = {hook.session_id for hook in self.slots.values()}
            if session_id in taken:
                raise ProtocolError(
                    f"session name {session_id!r} is already attached"
                )
            source = ExternalInteractionSource(
                session_id, _workflow_type(attach)
            )
        hook = _SharedTurnHook(server, reader, writer, session_id, source)
        self.slots[index] = hook
        return hook

    def maybe_start(self) -> None:
        """Start the run once the whole population has attached."""
        if self.started or self.aborted or len(self.slots) < self.expected:
            return
        self.started = True
        if self._barrier_watchdog is not None:
            self._barrier_watchdog.cancel()
        self.task = asyncio.ensure_future(self._execute())

    def _fail(self, error: str) -> None:
        """Release every waiting slot with ``error``."""
        for hook in self.slots.values():
            if not hook.done.is_set():
                hook.error = error
                hook.done.set()

    async def _barrier_deadline(self) -> None:
        try:
            await asyncio.sleep(self.server.barrier_timeout)
        except asyncio.CancelledError:  # population completed in time
            return
        if self.started or self.aborted:
            return
        self.aborted = True
        self._fail(
            f"barrier timeout: only {len(self.slots)} of {self.expected} "
            f"sessions attached within {self.server.barrier_timeout:g}s; "
            f"the shared run was aborted"
        )
        # No run can ever happen now; let the server exit cleanly.
        self.server.request_stop()

    def shutdown(self) -> None:
        """Server stopping: fail slots whose run can no longer happen.

        A run that already started finishes (or times out) on its own —
        its slots get their events from :meth:`_execute`. Only a
        never-started run leaves handlers waiting forever.
        """
        if self.started:
            return
        if self._barrier_watchdog is not None:
            self._barrier_watchdog.cancel()
        self._fail(
            f"server stopped with {len(self.slots)} of {self.expected} "
            f"sessions attached; the shared run never started"
        )
        # A run that never starts flushes no windows; release any
        # waiting subscribers with an empty (final-only) stream.
        self.server._finish_stream()

    # -- the run -------------------------------------------------------
    async def _execute(self) -> None:
        server = self.server
        previous_series = (
            set_timeseries(server._series)
            if server._series is not None
            else None
        )
        hooks = [self.slots[index] for index in range(self.expected)]
        try:
            for hook in hooks:
                # A peer dead already is abandoned at its first grant.
                with contextlib.suppress(ConnectionError, OSError):
                    await server._send(
                        hook.writer, Barrier(sessions=self.expected)
                    )
            manager = serving_manager(
                server.ctx, server.spec, turn_hooks=dict(enumerate(hooks))
            )
            results = await manager.run_async()
        except Exception as error:  # noqa: BLE001 - reported to every peer
            self._fail(f"shared run failed: {error}")
        else:
            for hook, result in zip(hooks, results):
                hook.records = result.records
                hook.done.set()
        finally:
            if server._series is not None:
                set_timeseries(previous_series)
                server._finish_stream()
            for _ in range(self.expected):
                server._session_ended()


class _WireHook(SessionTurnHook):
    """Wires one calendar session to its TCP connection.

    Streams each step's records as RECORD frames — plus a ``workflow``
    PROGRESS frame when a scripted session crosses a workflow boundary —
    and yields to the event loop after every step, so concurrent
    connections interleave. A stalled client-driven session's source is
    fed from the socket in :meth:`wait_input`. A vanished peer becomes
    :class:`SessionAbandoned`: the manager retires exactly this session,
    cancelling its in-flight queries (the departed user never saw them).

    An isolated unpaced session's hook is ``batched``: it queues frames
    and writes them with one write + drain at each flush point (before a
    read from the peer, the DETACH or an ERROR, and at the transport's
    write high-water mark), so a vanished peer shows at the next flush.
    """

    def __init__(self, server: TcpSessionServer, reader, writer,
                 session_id: str,
                 source: Optional[ExternalInteractionSource] = None,
                 batched: bool = False):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.session_id = session_id
        self.source = source
        self.seq = 0
        self.workflow = 0
        self.abandoned = False
        #: Encoded frames awaiting the next flush, and the queued size
        #: that forces one (0 unbatched: each frame is written when made).
        self._queued = bytearray()
        self._high_water = (
            writer.transport.get_write_buffer_limits()[1] if batched else 0
        )

    # -- SessionTurnHook interface -------------------------------------
    def session(self, spec, policy):
        if self.source is None:
            return spec, policy
        return SessionSpec(self.session_id, policy="external"), self.source

    async def wait_input(self, driver) -> None:
        source = self.source
        if not (source.buffered or source.finished):
            # Frames absorbed while awaiting an earlier acknowledgement
            # (pipelined replay clients) are already queued; read the
            # socket only when none are, after sending every record due
            # so far (a lock-step client waits for them).
            await self._flush()
            message = await self._read()
            if not self._feed(message):
                await self._reject(message)
        if source.finished and not source.buffered and (
            not driver.interaction_counts
        ):
            # Detached without ever interacting (REPL `quit`, piped-stdin
            # EOF): a legitimate no-op session, retired cleanly with a
            # zero-query summary.
            driver.abandon()
        else:
            driver.resume()

    async def on_step(self, event_time: float, records, driver) -> None:
        for record in records:
            await self._send(Record(self.session_id, self.seq, record))
            self.seq += 1
        if driver.workflow_index != self.workflow and not driver.finished:
            self.workflow = driver.workflow_index
            await self._send(
                Progress(
                    session_id=self.session_id,
                    event="workflow",
                    payload={"index": self.workflow},
                )
            )
        # Let other connections interleave between events.
        await asyncio.sleep(0)

    async def detach(self, records) -> None:
        """Close the completed session with its DETACH summary."""
        summary = Detach(
            session_id=self.session_id,
            queries=len(records),
            makespan=max((r.end_time for r in records), default=0.0),
        )
        self._queued += self.server._frame(summary)
        await self.write_queued()

    async def write_queued(self) -> None:
        """Write every queued frame with one write + drain."""
        if self._queued:
            # Swapped, not cleared: the transport may keep a view of it.
            payload, self._queued = self._queued, bytearray()
            await self.server._write(self.writer, payload)

    # -- internals -----------------------------------------------------
    def _feed(self, message: Message) -> bool:
        """Queue a client-driven frame on the source; False if it is none."""
        if isinstance(message, Detach):
            self.source.finish()
        elif isinstance(message, SubmitViz):
            self.source.feed(CreateViz(message.viz))
        elif isinstance(message, Interact):
            self.source.feed(message.interaction)
        else:
            return False
        return True

    async def _reject(self, message: Message) -> None:
        raise ProtocolError(
            f"unexpected {message.TYPE!r} frame in a client-driven session"
        )

    async def _send(self, message: Message) -> None:
        self._queued += self.server._frame(message)
        if len(self._queued) >= self._high_water:
            await self._flush()

    async def _flush(self) -> None:
        try:
            await self.write_queued()
        except (ConnectionError, OSError):
            self._gone()

    async def _read(self) -> Message:
        try:
            return await self.server._recv(self.reader)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self._gone()

    def _gone(self) -> None:
        self.abandoned = True
        raise SessionAbandoned(
            f"session {self.session_id!r} disconnected mid-run"
        )


class _SharedTurnHook(_WireHook):
    """One slot of a shared-engine run: the wire hook plus turns.

    Every callback runs while the session holds the global timeline, so
    a slow acknowledgement (or a stalled client-driven frontend) blocks
    virtual time for the whole run — order unchanged. Each step is
    announced as a TURN_GRANT and released by the matching TURN_DONE;
    every read and send is bounded by the server's turn timeout, and a
    protocol violation is answered with a typed error before the session
    is abandoned. The run coordinator learns the slot's outcome through
    ``done`` (``records`` or ``error``).
    """

    def __init__(self, server: TcpSessionServer, reader, writer,
                 session_id: str,
                 source: Optional[ExternalInteractionSource] = None):
        super().__init__(server, reader, writer, session_id, source)
        self.turn = 0
        self.records: List = []
        self.done = asyncio.Event()
        self.error: Optional[str] = None

    # -- SessionTurnHook interface -------------------------------------
    async def on_turn(self, event_time: float) -> None:
        await self._send(TurnGrant(self.session_id, self.turn, event_time))

    async def on_step(self, event_time: float, records, driver) -> None:
        await super().on_step(event_time, records, driver)
        # The grant→TURN_DONE round trip is where a shared run's wall
        # time goes when a frontend is slow; profile it as its own stage.
        with timed_stage("turn_grant"):
            await self._await_ack()
        self.turn += 1

    # -- internals -----------------------------------------------------
    async def _await_ack(self) -> None:
        while True:
            message = await self._read()
            if isinstance(message, TurnDone):
                if message.turn != self.turn:
                    await self._violate(
                        "turn",
                        f"out-of-order turn_done: expected turn "
                        f"{self.turn}, got {message.turn}",
                    )
                return
            # A pipelining client-driven frontend may send its next
            # interactions (or its detach) before acknowledging the
            # turn; they queue for the grid while the wait goes on.
            if self.source is None or not self._feed(message):
                await self._violate(
                    "protocol",
                    f"unexpected {message.TYPE!r} frame while awaiting "
                    f"turn_done {self.turn}",
                )

    async def _reject(self, message: Message) -> None:
        if isinstance(message, TurnDone):
            await self._violate(
                "turn",
                f"unsolicited turn_done (no grant outstanding for "
                f"session {self.session_id!r})",
            )
        await self._violate(
            "protocol",
            f"unexpected {message.TYPE!r} frame in a client-driven "
            f"shared session",
        )

    async def _send(self, message: Message) -> None:
        """Send with the turn timeout applied to the drain.

        The read side alone cannot bound a misbehaving peer: a client
        that pre-sends valid ascending TURN_DONE frames but stops
        *reading* satisfies every acknowledgement from the buffer while
        ``writer.drain()`` blocks forever once the socket fills. The
        session holds the global timeline during sends, so this must
        time out like any other turn-protocol wait — no error frame is
        attempted (the pipe is jammed); the session is simply abandoned.
        """
        try:
            await asyncio.wait_for(
                super()._send(message), self.server.turn_timeout
            )
        except asyncio.TimeoutError:
            self.abandoned = True
            raise SessionAbandoned(
                f"session {self.session_id!r} stopped reading; send "
                f"blocked past the {self.server.turn_timeout:g}s turn "
                f"timeout"
            ) from None

    async def _read(self) -> Message:
        try:
            return await asyncio.wait_for(
                super()._read(), self.server.turn_timeout
            )
        except asyncio.TimeoutError:
            await self._violate(
                "turn",
                f"session {self.session_id!r} sent no frame within "
                f"the {self.server.turn_timeout:g}s turn timeout; "
                f"abandoning it (virtual time was stalled, never "
                f"corrupted)",
            )

    async def _violate(self, code: str, text: str) -> None:
        self.abandoned = True
        await self.server._send_error(self.writer, code, text)
        raise SessionAbandoned(text)


class ServerThread:
    """Run a :class:`TcpSessionServer` on a dedicated background thread.

    Context manager: entering starts the thread (with its own asyncio
    loop) and blocks until the server is listening, yielding
    ``(host, port)``; exiting requests a stop and joins. Lets blocking
    clients — the tests, the perf ledger — talk to a loopback server
    inside one process::

        server = TcpSessionServer(ctx, "idea-sim")
        with ServerThread(server) as (host, port):
            records = fetch_scripted_session(host, port, 0)
    """

    def __init__(self, server: TcpSessionServer, join_timeout: float = 30.0):
        self.server = server
        self.join_timeout = join_timeout
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    def __enter__(self):
        previous_ready = self.server._on_ready

        def on_ready(host, port):
            if previous_ready is not None:
                previous_ready(host, port)
            self._ready.set()

        self.server._on_ready = on_ready

        def main():
            try:
                self.server.run()
            except BaseException as error:  # pragma: no cover - diagnostics
                self._failure = error
                self._ready.set()

        self._thread = threading.Thread(
            target=main, name="tcp-session-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.join_timeout):  # pragma: no cover
            raise BenchmarkError("TCP server failed to start listening")
        if self._failure is not None:
            raise BenchmarkError(
                f"TCP server failed to start: {self._failure}"
            ) from self._failure
        return self.server.host, self.server.port

    def __exit__(self, exc_type, exc, tb):
        self.server.request_stop()
        self._thread.join(self.join_timeout)
        return False
