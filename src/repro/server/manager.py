"""The asyncio session server: N concurrent simulated IDE sessions.

IDEBench models interactive exploration as think-time-paced sessions
issuing concurrent queries (§2.2, §4.4). The serial driver simulates one
such session at a time; the managers here serve *many at once* from a
single process, the way a deployed exploration backend would face its
users. Each session is a :class:`~repro.bench.driver.SessionDriver` (the
steppable event machine factored out of the serial driver); one
event-calendar loop (:meth:`_ManagerCore._run_calendar`) grants step
turns in **global virtual-time order** — the discrete-event merge of all
sessions' event queues, with ties broken by session index, so a run's
event order (and thus its output) is a pure function of its inputs.

Two populations, one loop: :class:`OpenSystemManager` follows a seeded
:class:`ArrivalProcess` (sessions arrive and depart mid-run);
:class:`SessionManager` serves a fixed set of sessions, which is the
same thing with every arrival at virtual time 0 and no departure.

Two engine topologies:

* **isolated** (default): every session gets its own engine instance over
  the *shared* dataset/oracle/profiles. Sessions do not contend, so each
  session's report is byte-identical to running its workflows through the
  serial :class:`~repro.bench.driver.BenchmarkDriver` — the server's
  acceptance guarantee (``repro serve --verify`` and
  ``tests/test_server_manager.py`` check it).
* **shared** (``engine=...``): all sessions share one engine instance and
  contend for its capacity. The engine's scheduler runs the
  :class:`~repro.engines.scheduler.FairSessionPolicy` with one group per
  session, so capacity splits fairly across sessions first and across
  each session's concurrent queries second. Results differ from serial
  (contention is the point) but remain deterministic: the same
  configuration always produces the same bytes.

Wall-clock pacing is orthogonal: with ``accel`` set, an
:class:`~repro.server.clock.AsyncClock` sleeps each event to its wall
deadline while the simulation still advances to exact virtual times —
paced runs are byte-identical to unpaced ones (docs/server.md).
"""

from __future__ import annotations

import asyncio
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.bench.driver import QueryRecord, SessionDriver
from repro.common.clock import VirtualClock, perf_seconds
from repro.common.config import BenchmarkSettings
from repro.common.errors import BenchmarkError
from repro.common.rng import derive_rng, derive_session_seed
from repro.engines.kernel_cache import kernel_cache
from repro.engines.scheduler import FairSessionPolicy, WeightedSharingPolicy
from repro.obs import timed_stage
from repro.obs.metrics import get_metrics
from repro.obs.sink import RingBuffer
from repro.obs.timeseries import get_timeseries
from repro.obs.tracer import get_tracer
from repro.server.clock import AsyncClock
from repro.server.session import SessionResult, SessionSpec, SessionStream
from repro.server.spool import RecordSpool, ServingAggregate
from repro.workflow.generator import WorkflowGenerator
from repro.workflow.policy import InteractionPolicy, make_policy
from repro.workflow.spec import WorkflowType

#: Entries a trace ring keeps when ``trace_capture=True`` (an
#: always-growing trace list at 10⁵ sessions is a memory leak, so capture
#: is opt-in and bounded).
DEFAULT_TRACE_CAPACITY = 65536

#: Calendar slot of the arrival spawner — below every session index, so
#: at equal virtual times the arrival is processed first.
_SPAWNER = -1


def _make_trace_ring(trace_capture: Union[bool, int]) -> Optional[RingBuffer]:
    """Build the opt-in bounded step-trace ring (None = capture off)."""
    if trace_capture is False or trace_capture is None:
        return None
    if trace_capture is True:
        return RingBuffer(DEFAULT_TRACE_CAPACITY)
    return RingBuffer(int(trace_capture))


class SessionAbandoned(Exception):
    """Control-flow signal: a :class:`SessionTurnHook` retires its session.

    Raised by hook callbacks (remote client disconnected mid-turn, turn
    acknowledgement timed out, protocol violation) to make the manager
    abandon exactly that session — in-flight queries cancelled, the
    scheduler's session group swept on a shared engine — while every
    other session keeps running. Not a :class:`BenchmarkError`: it is
    the *expected* path for remote churn, not a failure of the run.
    """


class SessionTurnHook:
    """Per-session pacing hook for externally driven (remote) sessions.

    The session server's wire-level turn protocol plugs in here: every
    callback is awaited **while the session holds the global virtual
    timeline**, so whatever the hook does (send a TURN_GRANT frame,
    stream records, wait for the client's TURN_DONE) cannot reorder the
    global event sequence — a slow remote frontend stalls virtual time
    for everyone, it never corrupts it. A run with no-op hooks is
    byte-identical to a run without hooks.

    Any callback may raise :class:`SessionAbandoned` to retire the
    session mid-run (the manager then cancels its in-flight queries and,
    on a shared engine, sweeps its scheduler group).
    """

    async def wait_input(self, driver) -> None:
        """Called while the session's driver ``needs_input`` (an
        external interaction source answered PENDING). Feed the source
        and ``driver.resume()``; the manager re-checks ``needs_input``
        after every call. Sessions without external sources never
        reach this."""
        raise BenchmarkError(
            "session stalled for external input but its turn hook does "
            "not implement wait_input"
        )

    def session(
        self, spec: SessionSpec, policy: Optional[InteractionPolicy]
    ) -> Tuple[SessionSpec, Optional[InteractionPolicy]]:
        """The ``(spec, policy)`` the hooked slot runs, asked once when
        the manager is built: the session built for the slot, unless the
        hook's frontend is itself the interaction source."""
        return spec, policy

    async def on_turn(self, event_time: float) -> None:
        """Called after the session won the timeline, before it steps."""

    async def on_step(self, event_time: float, records, driver) -> None:
        """Called after the step, with the records it produced and the
        session's driver (whose ``workflow_index`` shows workflow
        boundaries); return only when the turn may be released (e.g. the
        remote client acknowledged)."""


#: One live session of the calendar: a flyweight, no coroutine each.
_Live = Tuple[SessionDriver, SessionSpec, "SessionArrival"]


class _ManagerCore:
    """The serving loop both managers run.

    A run is an iterator of :class:`SessionArrival` merged with the live
    sessions' event queues on one heap. Subclasses say where arrivals
    come from (:meth:`_arrivals`) and what a spawned session is made of
    (:meth:`_spawn`); everything else — admission, turn grants, hooked
    or plain stepping, departures, abandonment, result and aggregate
    bookkeeping — is here, once, keyed on data (``turn_hooks``,
    ``arrival.departure_time``, ``spool``) rather than on the caller.
    """

    def __init__(
        self,
        oracle,
        settings: BenchmarkSettings,
        *,
        engine,
        accel: Optional[float],
        on_record: Optional[Callable[[str, QueryRecord], None]],
        trace_capture: Union[bool, int],
        spool: Optional[RecordSpool],
        turn_hooks: Optional[Dict[int, SessionTurnHook]] = None,
    ):
        if spool is not None and turn_hooks:
            raise BenchmarkError(
                "record spooling is incompatible with turn hooks: the "
                "wire protocol replays retained per-session records"
            )
        self.oracle = oracle
        self.settings = settings
        self.shared = engine is not None
        self._shared_engine = engine
        if self.shared and isinstance(
            engine.scheduler.policy, WeightedSharingPolicy
        ):
            engine.scheduler.set_policy(FairSessionPolicy())
        self.accel = accel
        self._pacer = AsyncClock(accel) if accel is not None else None
        self._on_record = on_record
        self.spool = spool
        #: Incremental run totals, folded as records and retirements
        #: happen (global virtual-time order) — spooled or not.
        self.aggregate = ServingAggregate()
        self.streams: Dict[str, SessionStream] = {}
        self._trace_ring = _make_trace_ring(trace_capture)
        self.wall_seconds: float = 0.0
        #: Session ids whose turn hook raised :class:`SessionAbandoned`.
        self.abandoned: List[str] = []
        self._hooks: Dict[int, SessionTurnHook] = dict(turn_hooks or {})
        #: Retained results by session index. The slot is reserved at
        #: spawn, so iteration order is arrival order no matter when
        #: each session retires; empty in spool mode.
        self._results: Dict[int, Optional[SessionResult]] = {}
        self._ran = False

    # ------------------------------------------------------------------
    @property
    def trace(self) -> List[Tuple[float, str]]:
        """Captured ``(virtual time, session id)`` step marks (see
        ``trace_capture``); empty when capture is off."""
        if self._trace_ring is None:
            return []
        return list(self._trace_ring)

    def _trace_mark(self, time: float, label: str) -> None:
        if self._trace_ring is not None:
            self._trace_ring.append((time, label))

    # ------------------------------------------------------------------
    def _arrivals(self) -> Iterator["SessionArrival"]:
        """The run's arrival stream, in arrival order."""
        raise NotImplementedError

    def _spawn(
        self, arrival: "SessionArrival"
    ) -> Tuple[SessionDriver, SessionSpec]:
        """Build (and announce) the session that ``arrival`` brings."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run(self) -> List[SessionResult]:
        """Serve every arrival to completion (blocking wrapper)."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> List[SessionResult]:
        """Serve sessions concurrently; results in arrival order.

        A spooled run returns ``[]``: everything observable already went
        through the spool and :attr:`aggregate`, no record lists exist.
        """
        if self._ran:
            raise BenchmarkError(
                f"{type(self).__name__} is single-shot: it already ran"
            )
        self._ran = True
        if self.shared:
            # The shared engine lives for the whole serving run (Listing
            # 1's lifecycle, once per service session, not per workflow).
            if not self._shared_engine.is_prepared:
                self._shared_engine.prepare()
            self._shared_engine.workflow_start()
        started = perf_seconds()
        await self._run_calendar(self._arrivals())
        series = get_timeseries()
        if series.enabled:
            series.finalize()
        self.wall_seconds = perf_seconds() - started
        if self.shared:
            self._shared_engine.workflow_end()
            # Confine the serving run's mutation of the caller's engine:
            # without this, later tasks submitted outside the server would
            # silently inherit the last-stepped session's group.
            self._shared_engine.scheduler.set_group(None)
        return list(self._results.values())

    async def _run_calendar(
        self, arrivals: Iterator["SessionArrival"]
    ) -> None:
        """One loop, a heap of ``(event_time, index)`` — no per-session task.

        The spawner is one calendar entry at slot :data:`_SPAWNER` (below
        every session index, so an arrival at an equal instant processes
        first); it holds the next pending arrival, so the schedule is
        consumed lazily. Sessions are flyweights — ``(driver, spec,
        arrival)`` in a dict keyed by index. Exactly the minimal
        ``(time, index)`` entry is processed at a time and the session's
        next event is declared before the next pop, so the global order
        is fully serialized; hook callbacks (the TCP turn protocol) are
        awaited while the calendar holds the turn and therefore stall
        virtual time for everyone without ever reordering it. Granting
        is the heap pop, O(log N).
        """
        heap: List[Tuple[float, int]] = []
        live: Dict[int, _Live] = {}
        pending = next(arrivals, None)
        if pending is not None:
            heapq.heappush(heap, (pending.arrival_time, _SPAWNER))
        while heap:
            event_time, index = heapq.heappop(heap)
            if self._pacer is not None:
                await self._pacer.sleep_until(event_time)
            arriving = index == _SPAWNER
            if arriving:
                arrival, index = pending, pending.index
                driver, spec = self._spawn(arrival)
                live[index] = (driver, spec, arrival)
                if self.spool is None:
                    self._results[index] = None  # reserves arrival order
                self.aggregate.session_started()
                series = get_timeseries()
                if series.enabled:
                    series.session_started(event_time)
                pending = next(arrivals, None)
                if pending is not None:
                    heapq.heappush(heap, (pending.arrival_time, _SPAWNER))
            else:
                driver, spec, arrival = live[index]
                self._turn_granted(
                    event_time, spec.session_id, queue_depth=len(heap)
                )
            hook = self._hooks.get(index)
            try:
                if hook is None:
                    if not arriving:
                        driver.step()
                else:
                    if not arriving:
                        await hook.on_turn(event_time)
                        await hook.on_step(event_time, driver.step(), driver)
                    # An externally sourced session may be stalled on the
                    # think-time grid (PENDING). It holds the calendar —
                    # nobody advances — until its frontend supplies the
                    # interaction: remote think time blocks virtual time
                    # for everyone, exactly like a large think-time gap
                    # would, and never reorders events.
                    while driver.needs_input:
                        with timed_stage("pending_stall"):
                            await hook.wait_input(driver)
            except SessionAbandoned:
                # The remote frontend vanished, timed out, or violated
                # the turn protocol mid-run: retire exactly this session.
                self._retire(live.pop(index), event_time, abandoned=True)
                continue
            next_time = driver.next_event_time()
            if next_time is not None and next_time < arrival.departure_time:
                heapq.heappush(heap, (next_time, index))
            else:
                # Done — or, with an event left at/past the departure
                # instant, the user walked away mid-workload.
                self._retire(
                    live.pop(index), event_time,
                    departed=next_time is not None,
                )

    def _turn_granted(
        self, event_time: float, session_id: str, queue_depth: int = 0
    ) -> None:
        """Per-grant side effects (the golden corpus pins their order)."""
        self._trace_mark(event_time, session_id)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("manager.turn", event_time, session=session_id)
            get_metrics().counter(
                "repro_turns_total",
                help="Step turns granted by the global virtual timeline.",
            ).inc()
        series = get_timeseries()
        if series.enabled:
            # Windowed telemetry rides the grant sequence: scheduler
            # pressure (sessions waiting for a turn) and the compiled-
            # kernel cache's cumulative counters, both at deterministic
            # virtual instants (docs/observability.md).
            series.observe_turn(event_time, queue_depth=queue_depth)
            cache = kernel_cache()
            series.observe_kernel(event_time, cache.hits, cache.misses)
        if self.shared:
            self._shared_engine.scheduler.set_group(session_id)

    def _start_session(
        self,
        arrival: "SessionArrival",
        spec: SessionSpec,
        policy: Optional[InteractionPolicy],
        engine,
    ) -> SessionDriver:
        """Wire a session's stream and driver onto ``engine``."""
        stream = SessionStream(spec.session_id, retain=self.spool is None)
        if self._on_record is not None:
            stream.subscribe(self._on_record)
        if self.spool is not None:
            stream.subscribe(self.spool.append)
        stream.subscribe(self.aggregate.observe_record)
        self.streams[spec.session_id] = stream
        if not engine.is_prepared:
            engine.prepare()
        # The session's virtual life starts at its arrival instant. The
        # spawner holds the globally minimal calendar slot, so advancing
        # the engine clock here is monotone for every live session.
        if engine.clock.now() < arrival.arrival_time:
            engine.clock.advance_to(arrival.arrival_time)
            engine.advance_to(arrival.arrival_time)
        return SessionDriver(
            engine,
            self.oracle,
            self.settings,
            list(spec.workflows) if policy is None else [],
            session_id=spec.session_id,
            lifecycle=not self.shared,
            on_record=stream.push,
            policy=policy,
        )

    def _retire(
        self,
        session: _Live,
        now: float,
        departed: bool = False,
        abandoned: bool = False,
    ) -> None:
        """Take a session off the calendar and settle its footprint.

        A session that ``departed`` (open-system churn) or was
        ``abandoned`` by its turn hook leaves work in flight: those
        queries are cancelled, never evaluated — the user never saw
        them — and, on a shared engine, its whole scheduler group is
        swept so ghost load cannot skew the survivors.
        """
        driver, spec, arrival = session
        if departed:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "manager.depart",
                    arrival.departure_time,
                    session=spec.session_id,
                )
        if abandoned:
            self.abandoned.append(spec.session_id)
        if departed or abandoned:
            driver.abandon()
            if self.shared:
                self._shared_engine.scheduler.cancel_group(spec.session_id)
        series = get_timeseries()
        if series.enabled:
            # Folded at the global processing instant (monotone), even
            # for departures whose nominal instant lies earlier.
            series.session_finished(now)
        counts = dict(driver.interaction_counts)
        self.aggregate.session_finished(driver.steps, counts, departed=departed)
        if self.spool is None:
            self._results[arrival.index] = SessionResult(
                spec,
                self.streams[spec.session_id].records,
                interaction_counts=counts,
                departed_at=arrival.departure_time if departed else None,
                steps=driver.steps,
            )
            return
        # Constant-memory mode: free everything the session owned —
        # stream, driver and (isolated mode) its whole engine go with
        # it; a shared engine sheds the session's settled scheduler
        # tasks and handles.
        del self.streams[spec.session_id]
        if self.shared:
            self._shared_engine.release_settled(spec.session_id)


class SessionManager(_ManagerCore):
    """Multiplexes N simulated IDE sessions over shared engine state.

    The closed system: a fixed population, all present from virtual time
    0 and each running to completion: one ``SessionArrival(i, 0.0)``
    per spec, fed to the shared calendar loop.

    Parameters
    ----------
    specs:
        The sessions to serve (unique ids).
    oracle, settings:
        Shared ground-truth oracle and benchmark settings.
    engines:
        Isolated mode — one *prepared or fresh* engine per spec (the
        manager prepares any engine that is not yet prepared). Mutually
        exclusive with ``engine``.
    engine:
        Shared mode — a single engine all sessions contend on. If its
        scheduler still runs the default
        :class:`~repro.engines.scheduler.WeightedSharingPolicy`, the
        manager installs :class:`~repro.engines.scheduler.FairSessionPolicy`
        (one group per session) before preparing it.
    accel:
        Optional wall-clock pacing: virtual seconds per wall second
        (``1.0`` = real time). ``None`` steps as fast as possible.
    on_record:
        Optional callback ``(session_id, record)`` subscribed to every
        session's metric stream.
    policies:
        Optional per-spec :class:`~repro.workflow.policy.InteractionPolicy`
        list (``None`` entries run scripted). A session with a policy
        chooses its interactions online from its observed records —
        adaptive users (docs/server.md).
    turn_hooks:
        Optional ``{spec index: SessionTurnHook}`` map. Hooked sessions
        pace their step turns through the hook (the TCP turn protocol)
        and may swap in their own session (:meth:`SessionTurnHook.session`:
        a client-driven TCP slot); a hook raising
        :class:`SessionAbandoned` retires just that session. Abandoned
        session ids accumulate on :attr:`abandoned`.
    trace_capture:
        Opt-in step tracing. ``False`` (default) records nothing; ``True``
        keeps the newest :data:`DEFAULT_TRACE_CAPACITY` entries in a
        bounded ring; an integer sets the ring capacity. :attr:`trace`
        then yields ``(virtual time, session id)`` marks.
    spool:
        Optional :class:`~repro.server.spool.RecordSpool` switching the
        run to constant-memory mode: records are spilled the moment they
        are produced instead of retained, per-session state is freed as
        sessions retire, and :meth:`run_async` returns ``[]`` (there are
        no per-session record lists to build results from) —
        :attr:`aggregate` carries the run totals. Incompatible with
        ``turn_hooks`` (the TCP layer needs retained records).

    A manager is single-shot: :meth:`run` (or :meth:`run_async`) may be
    called once; per-session streams are available on :attr:`streams`
    while it runs, results come back as :class:`SessionResult` in spec
    order. :attr:`trace` records the global step order ``(virtual time,
    session id)`` for interleaving diagnostics when ``trace_capture`` is
    enabled.
    """

    def __init__(
        self,
        specs: Sequence[SessionSpec],
        oracle,
        settings: BenchmarkSettings,
        *,
        engines: Optional[Sequence] = None,
        engine=None,
        accel: Optional[float] = None,
        on_record: Optional[Callable[[str, QueryRecord], None]] = None,
        policies: Optional[Sequence[Optional[InteractionPolicy]]] = None,
        turn_hooks: Optional[Dict[int, SessionTurnHook]] = None,
        trace_capture: Union[bool, int] = False,
        spool: Optional[RecordSpool] = None,
    ):
        self._specs = list(specs)
        if not self._specs:
            raise BenchmarkError("session manager needs at least one session")
        self._policies = list(policies) if policies is not None else [None] * len(
            self._specs
        )
        if len(self._policies) != len(self._specs):
            raise BenchmarkError(
                f"{len(self._specs)} sessions need {len(self._specs)} "
                f"policies, got {len(self._policies)}"
            )
        unknown = [
            i for i in (turn_hooks or {}) if not 0 <= i < len(self._specs)
        ]
        if unknown:
            raise BenchmarkError(
                f"turn hooks reference unknown session indexes {unknown!r}"
            )
        for index, hook in (turn_hooks or {}).items():
            self._specs[index], self._policies[index] = hook.session(
                self._specs[index], self._policies[index]
            )
        ids = [spec.session_id for spec in self._specs]
        if len(set(ids)) != len(ids):
            raise BenchmarkError(f"duplicate session ids: {ids}")
        for spec, policy in zip(self._specs, self._policies):
            if policy is None and not spec.workflows:
                raise BenchmarkError(
                    f"session {spec.session_id!r} declares policy "
                    f"{spec.policy!r} but no policy object was supplied"
                )
        if (engines is None) == (engine is None):
            raise BenchmarkError(
                "pass exactly one of engines= (isolated) or engine= (shared)"
            )
        self._engines = (
            [engine] * len(self._specs) if engines is None else list(engines)
        )
        if len(self._engines) != len(self._specs):
            raise BenchmarkError(
                f"{len(self._specs)} sessions need {len(self._specs)} "
                f"engines, got {len(self._engines)}"
            )
        super().__init__(
            oracle, settings, engine=engine, accel=accel,
            on_record=on_record, trace_capture=trace_capture, spool=spool,
            turn_hooks=turn_hooks,
        )

    # ------------------------------------------------------------------
    @property
    def specs(self) -> List[SessionSpec]:
        return list(self._specs)

    @property
    def num_sessions(self) -> int:
        return len(self._specs)

    def _arrivals(self) -> Iterator["SessionArrival"]:
        return (SessionArrival(index, 0.0) for index in range(len(self._specs)))

    def _spawn(
        self, arrival: "SessionArrival"
    ) -> Tuple[SessionDriver, SessionSpec]:
        index = arrival.index
        spec = self._specs[index]
        driver = self._start_session(
            arrival, spec, self._policies[index], self._engines[index]
        )
        return driver, spec

    # ------------------------------------------------------------------
    @classmethod
    def for_engine(
        cls,
        ctx,
        engine_name: str,
        num_sessions: int,
        *,
        per_session: int = 2,
        workflow_type: WorkflowType = WorkflowType.MIXED,
        share_engine: bool = False,
        accel: Optional[float] = None,
        speculation: bool = False,
        on_record: Optional[Callable[[str, QueryRecord], None]] = None,
        policy: Optional[str] = None,
        turn_hooks: Optional[Dict[int, SessionTurnHook]] = None,
        trace_capture: Union[bool, int] = False,
        spool: Optional[RecordSpool] = None,
    ) -> "SessionManager":
        """Build a manager from an :class:`ExperimentContext`.

        Sessions get deterministic per-session workflow suites via
        :func:`make_session` (scripted and ``replay``) or adaptive
        per-session policies seeded from the same purpose strings
        (``markov``/``uncertainty``); engines come from the engine
        registry over the context's shared dataset.
        """
        oracle, new_engine = _engine_source(ctx, engine_name, speculation)
        pairs = _make_sessions(
            ctx, num_sessions, per_session, workflow_type, policy
        )
        if share_engine:
            topology = {"engine": new_engine()}
        else:
            topology = {"engines": [new_engine() for _ in pairs]}
        return cls(
            [spec for spec, _ in pairs], oracle, ctx.settings, accel=accel,
            on_record=on_record,
            policies=[built for _, built in pairs],
            turn_hooks=turn_hooks, trace_capture=trace_capture, spool=spool,
            **topology,
        )


def _engine_source(ctx, engine_name: str, speculation: bool):
    """``(oracle, engine factory)`` over the context's shared dataset."""
    from repro.bench.experiments import make_engine

    settings = ctx.settings
    dataset = ctx.dataset(settings.data_size)
    oracle = ctx.oracle(settings.data_size)

    def new_engine():
        return make_engine(
            engine_name, dataset, settings, VirtualClock(), speculation
        )

    return oracle, new_engine


def shared_policy_generator(ctx) -> WorkflowGenerator:
    """One sampling generator over the context's profiles (read-only).

    Adaptive policies of *every* session in a run share this generator
    (their randomness comes from per-session rng streams, never from
    generator state), so building it once per run (:func:`_session_factory`)
    keeps construction cost constant.
    """
    return WorkflowGenerator(
        ctx.profiles(ctx.settings.data_size),
        table=ctx.settings.dataset,
        seed=ctx.settings.seed,
    )


def make_session(
    ctx,
    index: int,
    *,
    per_session: int = 2,
    workflow_type: WorkflowType = WorkflowType.MIXED,
    policy: Optional[str] = None,
    generator: Optional[WorkflowGenerator] = None,
) -> Tuple[SessionSpec, Optional[InteractionPolicy]]:
    """The canonical constructor of session *index*'s spec and policy.

    Session *i*'s seed is
    :func:`~repro.common.rng.derive_session_seed`\\ ``(root, i)`` — a pure
    function of ``(root seed, i)``, independent of how many sessions run,
    of stepping order, and of whether the session starts at time zero
    (closed system) or arrives mid-run (open system): both managers call
    this one function, so the invariant cannot drift between them.
    Scripted sessions (and the ``replay`` policy) carry a workflow suite
    *described* from that seed — its interactions materialize from the
    same stream as the driver fires them, so spawning costs the same
    whether the session stays or leaves; adaptive policies carry only the
    seed — their interactions are chosen online. ``generator`` may pass a
    shared sampling generator for adaptive policies (built on demand
    otherwise).
    """
    seed = derive_session_seed(ctx.settings.seed, index)
    workflows: Tuple = ()
    if policy is None or policy == "replay":
        per_session_generator = WorkflowGenerator(
            ctx.profiles(ctx.settings.data_size),
            table=ctx.settings.dataset,
            seed=seed,
        )
        workflows = tuple(
            per_session_generator.generate_suite(workflow_type, per_session)
        )
    spec = SessionSpec(
        session_id=f"session-{index}",
        workflows=workflows,
        seed=seed,
        policy=policy,
    )
    if policy is None:
        return spec, None
    built = make_policy(
        policy,
        workflows=workflows or None,
        generator=generator if generator is not None else shared_policy_generator(ctx),
        per_session=per_session,
        workflow_type=workflow_type,
        seed=seed,
    )
    return spec, built


def _session_factory(
    ctx,
    per_session: int,
    workflow_type: WorkflowType,
    policy: Optional[str],
) -> Callable[[int], Tuple[SessionSpec, Optional[InteractionPolicy]]]:
    """``index → make_session(ctx, index, …)``, its arguments checked now.

    Both managers build their sessions through this, so a bad count
    fails before a caller opens a spool, even where (open system) the
    first session is only made at its arrival.
    """
    if per_session < 1:
        raise BenchmarkError(f"per_session must be >= 1, got {per_session!r}")
    generator = shared_policy_generator(ctx) if policy is not None else None

    def factory(index: int):
        return make_session(
            ctx,
            index,
            per_session=per_session,
            workflow_type=workflow_type,
            policy=policy,
            generator=generator,
        )

    return factory


def _make_sessions(
    ctx,
    num_sessions: int,
    per_session: int,
    workflow_type: WorkflowType,
    policy: Optional[str],
) -> List[Tuple[SessionSpec, Optional[InteractionPolicy]]]:
    """Sessions ``0 … num_sessions-1`` via :func:`make_session`."""
    if num_sessions < 1:
        raise BenchmarkError(f"need at least one session, got {num_sessions!r}")
    factory = _session_factory(ctx, per_session, workflow_type, policy)
    return [factory(index) for index in range(num_sessions)]


def session_specs(
    ctx,
    num_sessions: int,
    per_session: int = 2,
    workflow_type: WorkflowType = WorkflowType.MIXED,
    policy: Optional[str] = None,
) -> List[SessionSpec]:
    """Deterministic per-session workload specs (see :func:`make_session`)."""
    pairs = _make_sessions(ctx, num_sessions, per_session, workflow_type, policy)
    return [spec for spec, _ in pairs]


# ----------------------------------------------------------------------
# Open-system serving: seeded arrivals and mid-run churn
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SessionArrival:
    """One scheduled session of an open-system run.

    ``departure_time`` is the virtual instant the user walks away
    (``inf`` = stays until their workload completes). A departing
    session abandons whatever is still in flight — queries are
    cancelled, never evaluated.
    """

    index: int
    arrival_time: float
    departure_time: float = math.inf

    def __post_init__(self):
        if self.arrival_time < 0:
            raise BenchmarkError(
                f"arrival time must be >= 0, got {self.arrival_time!r}"
            )
        if self.departure_time <= self.arrival_time:
            raise BenchmarkError(
                f"session {self.index} departs at {self.departure_time!r} "
                f"before arriving at {self.arrival_time!r}"
            )


class RateSchedule:
    """A piecewise-constant (optionally periodic) arrival-rate curve.

    The non-stationary extension of the open-system arrival process:
    instead of one flat rate, the rate is a deterministic function of
    virtual time — diurnal load, flash crowds, or any hand-written
    piecewise profile. ``points`` is an ascending sequence of
    ``(time, rate)`` pairs starting at time 0; each rate holds from its
    time until the next point (or forever). With ``period`` set the
    curve wraps, so a 60-second diurnal cycle covers any horizon.

    A schedule is pure data: :class:`ArrivalProcess` samples it by
    *thinning* a homogeneous Poisson stream at :attr:`max_rate`, which
    keeps churned runs byte-deterministic — the draw is still a pure
    function of the seed and the schedule.
    """

    def __init__(
        self,
        points: Sequence[Tuple[float, float]],
        period: Optional[float] = None,
    ):
        if not points:
            raise BenchmarkError("a rate schedule needs at least one point")
        times = [float(t) for t, _ in points]
        rates = [float(r) for _, r in points]
        nonfinite = [v for v in times + rates if not math.isfinite(v)]
        if nonfinite:
            raise BenchmarkError(
                f"schedule times and rates must be finite, got {nonfinite[0]!r}"
            )
        if times[0] != 0.0:
            raise BenchmarkError(
                f"the first schedule point must be at time 0, got {times[0]!r}"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise BenchmarkError(
                f"schedule point times must be strictly ascending: {times!r}"
            )
        if any(rate < 0 for rate in rates):
            raise BenchmarkError(f"rates must be >= 0: {rates!r}")
        if max(rates) <= 0:
            raise BenchmarkError("at least one schedule rate must be positive")
        if period is not None and not times[-1] < period < math.inf:
            raise BenchmarkError(
                f"period {period!r} must be finite and exceed the last "
                f"point time {times[-1]!r}"
            )
        self.points: List[Tuple[float, float]] = list(zip(times, rates))
        self.period = float(period) if period is not None else None

    @property
    def max_rate(self) -> float:
        """The thinning envelope: the largest rate anywhere on the curve."""
        return max(rate for _, rate in self.points)

    def rate_at(self, time: float) -> float:
        """The instantaneous arrival rate at virtual ``time``."""
        if time < 0:
            raise BenchmarkError(f"time must be >= 0, got {time!r}")
        if self.period is not None:
            time = time % self.period
        current = self.points[0][1]
        for point_time, rate in self.points:
            if point_time > time:
                break
            current = rate
        return current

    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, rate: float) -> "RateSchedule":
        """A flat schedule (equivalent to the homogeneous process)."""
        return cls([(0.0, rate)])

    @classmethod
    def diurnal(
        cls,
        base: float,
        *,
        amplitude: float = 0.8,
        period: float = 60.0,
        steps: int = 24,
    ) -> "RateSchedule":
        """A sinusoidal day/night cycle sampled into ``steps`` segments.

        ``rate(t) = base * (1 + amplitude * sin(2πt/period))``, clipped
        at 0 — quiet nights, busy middays, repeating every ``period``
        virtual seconds.
        """
        if not 0.0 < amplitude <= 1.0:
            raise BenchmarkError(
                f"amplitude must be in (0, 1], got {amplitude!r}"
            )
        if steps < 2:
            raise BenchmarkError(f"steps must be >= 2, got {steps!r}")
        if not 0 < period < math.inf:
            raise BenchmarkError(
                f"period must be positive and finite, got {period!r}"
            )
        points = []
        for i in range(steps):
            t = period * i / steps
            rate = base * (1.0 + amplitude * math.sin(2.0 * math.pi * i / steps))
            points.append((t, max(rate, 0.0)))
        return cls(points, period=period)

    @classmethod
    def flash_crowd(
        cls, base: float, *, peak: float, at: float, width: float
    ) -> "RateSchedule":
        """Baseline load with one burst: ``peak`` from ``at`` for ``width``."""
        if at <= 0 or width <= 0:
            raise BenchmarkError(
                f"flash crowd needs at > 0 and width > 0, got "
                f"at={at!r} width={width!r}"
            )
        return cls([(0.0, base), (at, peak), (at + width, base)])

    @classmethod
    def parse(cls, spec: str, base_rate: float, horizon: float) -> "RateSchedule":
        """Build a schedule from a CLI spec string.

        Grammar (``repro serve --arrival-schedule``)::

            constant
            diurnal[:amplitude=0.8][:period=60]
            flash[:peak=5x|RATE][:at=T][:width=W]
            piecewise:T=R,T=R,...

        ``base_rate`` is the ``--arrivals`` value; flash defaults put a
        5× burst one third into the ``horizon`` lasting a sixth of it.
        """
        head, _, tail = spec.partition(":")
        options: Dict[str, str] = {}
        if tail:
            for item in tail.split(","):
                key, sep, value = item.partition("=")
                if not sep or not key.strip():
                    raise BenchmarkError(
                        f"malformed schedule option {item!r} in {spec!r} "
                        f"(expected key=value)"
                    )
                options[key.strip()] = value.strip()
        def no_leftovers():
            if options:
                raise BenchmarkError(
                    f"unknown schedule option(s) {sorted(options)!r} "
                    f"in {spec!r}"
                )

        try:
            if head == "constant":
                no_leftovers()
                return cls.constant(base_rate)
            if head == "diurnal":
                amplitude = float(options.pop("amplitude", 0.8))
                period = float(options.pop("period", min(horizon, 60.0)))
                steps = int(options.pop("steps", 24))
                no_leftovers()
                return cls.diurnal(
                    base_rate, amplitude=amplitude, period=period, steps=steps
                )
            if head == "flash":
                peak_text = options.pop("peak", "5x")
                at = float(options.pop("at", horizon / 3.0))
                width = float(options.pop("width", horizon / 6.0))
                no_leftovers()
                peak = (
                    base_rate * float(peak_text[:-1])
                    if peak_text.endswith("x")
                    else float(peak_text)
                )
                return cls.flash_crowd(base_rate, peak=peak, at=at, width=width)
            if head == "piecewise":
                points = [
                    (float(t), float(r))
                    for t, r in (pair.split("=") for pair in tail.split(","))
                ]
                return cls(points)
        except (ValueError, IndexError) as error:
            # Bad numeric values / malformed pairs; unknown-option and
            # schedule-shape errors above are already BenchmarkErrors.
            raise BenchmarkError(
                f"malformed arrival schedule {spec!r}: {error}"
            ) from error
        raise BenchmarkError(
            f"unknown arrival schedule kind {head!r} "
            f"(choose from: constant, diurnal, flash, piecewise)"
        )


class ArrivalProcess:
    """Seeded Poisson arrivals (and exponential residences) over virtual time.

    The open-system counterpart of the closed N-session configuration:
    sessions join at rate ``rate`` per virtual second until ``horizon``,
    and — with ``mean_residence`` set — leave after an exponentially
    distributed stay, mid-workload if need be. With ``rate_schedule``
    set the process is *non-stationary*: candidate arrivals are drawn at
    the schedule's max rate and thinned to the instantaneous rate (the
    standard non-homogeneous Poisson construction), so diurnal cycles
    and flash crowds ride on the exact same machinery. Either way the
    whole schedule is a pure function of ``(seed, rate/schedule,
    horizon, mean_residence, max_sessions)``: it is drawn once, up
    front, from the ``("open-system-arrivals",)`` purpose stream, so
    churned runs stay byte-deterministic no matter how stepping
    interleaves (and a homogeneous process draws the exact same stream
    it always did).
    """

    def __init__(
        self,
        rate: float,
        horizon: float,
        *,
        seed: int = 42,
        mean_residence: Optional[float] = None,
        max_sessions: Optional[int] = None,
        rate_schedule: Optional[RateSchedule] = None,
    ):
        # Negated comparisons: NaN fails every one of them.
        if not 0 < rate < math.inf:
            raise BenchmarkError(
                f"arrival rate must be positive and finite, got {rate!r}"
            )
        if not horizon > 0:
            raise BenchmarkError(f"horizon must be positive, got {horizon!r}")
        if mean_residence is not None and not mean_residence > 0:
            raise BenchmarkError(
                f"mean residence must be positive, got {mean_residence!r}"
            )
        if max_sessions is not None and max_sessions < 1:
            raise BenchmarkError(
                f"max sessions must be >= 1, got {max_sessions!r}"
            )
        # Without an end, the draw must reach max_sessions: a schedule
        # that falls to rate 0 for good would thin every candidate away.
        if horizon == math.inf and (max_sessions is None or (
            rate_schedule is not None and rate_schedule.period is None
            and not rate_schedule.points[-1][1] > 0
        )):
            raise BenchmarkError(
                "an infinite horizon needs max sessions and a rate that "
                "stays positive (a period or a positive last rate)"
            )
        self.rate = float(rate)
        self.horizon = float(horizon)
        self.seed = seed
        self.mean_residence = mean_residence
        self.max_sessions = max_sessions
        self.rate_schedule = rate_schedule

    def schedule(self) -> List[SessionArrival]:
        """The deterministic arrival/departure schedule of this process."""
        return list(self.iter_schedule())

    def iter_schedule(self) -> Iterator[SessionArrival]:
        """Stream the schedule one arrival at a time (same draw order).

        The RNG stream is consumed sequentially, so this yields exactly
        the arrivals :meth:`schedule` materializes — but a 10⁵-session
        serving run can consume them without ever holding the whole
        schedule in memory (the manager's constant-memory mode does).
        """
        rng = derive_rng(self.seed, "open-system-arrivals")
        envelope = (
            self.rate_schedule.max_rate
            if self.rate_schedule is not None
            else self.rate
        )
        produced = 0
        now = 0.0
        while self.max_sessions is None or produced < self.max_sessions:
            now += float(rng.exponential(1.0 / envelope))
            if now >= self.horizon:
                break
            if self.rate_schedule is not None:
                # Thinning: accept a candidate with probability
                # rate(t)/max_rate. The uniform draw happens for every
                # candidate, so the accepted set is a pure function of
                # the seed and the schedule.
                accept = float(rng.random()) * envelope
                if accept >= self.rate_schedule.rate_at(now):
                    continue
            departure = math.inf
            if self.mean_residence is not None:
                departure = now + float(rng.exponential(self.mean_residence))
            yield SessionArrival(
                index=produced,
                arrival_time=now,
                departure_time=departure,
            )
            produced += 1



class OpenSystemManager(_ManagerCore):
    """Serves an *open system*: sessions arrive and depart mid-run.

    Where :class:`SessionManager` steps a fixed population to
    completion, this manager follows an :class:`ArrivalProcess`: the
    calendar's spawner slot creates each session at its scheduled
    arrival instant — deterministic per-session seed via
    :func:`~repro.common.rng.derive_session_seed`, scripted suite or
    adaptive policy via ``session_factory`` — and lets it compete for
    step turns. Sessions whose ``departure_time`` overtakes their next
    event *abandon*: in-flight queries are cancelled (never evaluated),
    speculation hints freed, and — on a shared engine — the scheduler's
    whole session group is cancelled
    (:meth:`~repro.engines.scheduler.ProcessorSharingScheduler.cancel_group`),
    so ghost load from churned-out users cannot skew the survivors.

    Determinism: the schedule is a pure function of the arrival
    process, every grant follows global ``(time, index)`` order with the
    spawner below all sessions, and abandonment happens at the departing
    session's own last event time — so a churned run's bytes are a pure
    function of its configuration, invariant to wall pacing (``accel``)
    and re-invocation.

    ``arrivals`` is an :class:`ArrivalProcess` (or anything with its
    ``schedule()`` / ``iter_schedule()``); the remaining parameters are
    :class:`SessionManager`'s, with ``engine_factory`` (a fresh engine
    per arriving session) in place of ``engines``. With a ``spool`` the
    schedule is streamed, never materialized, so memory stays
    O(active sessions).
    """

    def __init__(
        self,
        oracle,
        settings: BenchmarkSettings,
        arrivals: ArrivalProcess,
        session_factory: Callable[
            [int], Tuple[SessionSpec, Optional[InteractionPolicy]]
        ],
        *,
        engine_factory: Optional[Callable[[], object]] = None,
        engine=None,
        accel: Optional[float] = None,
        on_record: Optional[Callable[[str, QueryRecord], None]] = None,
        trace_capture: Union[bool, int] = False,
        spool: Optional[RecordSpool] = None,
    ):
        if (engine_factory is None) == (engine is None):
            raise BenchmarkError(
                "pass exactly one of engine_factory= (isolated) or "
                "engine= (shared)"
            )
        super().__init__(
            oracle, settings, engine=engine, accel=accel,
            on_record=on_record, trace_capture=trace_capture, spool=spool,
        )
        self.arrivals = arrivals
        self._engine_factory = engine_factory
        self._session_factory = session_factory
        #: Materialized only on demand — a constant-memory run never
        #: holds the full arrival schedule (it streams iter_schedule()).
        self._schedule_cache: Optional[List[SessionArrival]] = None

    # ------------------------------------------------------------------
    @property
    def schedule(self) -> List[SessionArrival]:
        """The full (materialized) arrival schedule of this run."""
        if self._schedule_cache is None:
            self._schedule_cache = self.arrivals.schedule()
        return self._schedule_cache

    def _arrivals(self) -> Iterator[SessionArrival]:
        if self.spool is not None:
            return self.arrivals.iter_schedule()
        return iter(self.schedule)

    def _spawn(
        self, arrival: SessionArrival
    ) -> Tuple[SessionDriver, SessionSpec]:
        self._trace_mark(arrival.arrival_time, "arrival")
        spec, policy = self._session_factory(arrival.index)
        engine = self._shared_engine if self.shared else self._engine_factory()
        driver = self._start_session(arrival, spec, policy, engine)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "manager.arrival", arrival.arrival_time, session=spec.session_id
            )
            get_metrics().counter(
                "repro_sessions_spawned_total",
                help="Open-system sessions spawned mid-run.",
            ).inc()
        return driver, spec

    # ------------------------------------------------------------------
    @classmethod
    def for_engine(
        cls,
        ctx,
        engine_name: str,
        arrivals: ArrivalProcess,
        *,
        policy: Optional[str] = None,
        per_session: int = 2,
        workflow_type: WorkflowType = WorkflowType.MIXED,
        share_engine: bool = False,
        accel: Optional[float] = None,
        speculation: bool = False,
        on_record: Optional[Callable[[str, QueryRecord], None]] = None,
        trace_capture: Union[bool, int] = False,
        spool: Optional[RecordSpool] = None,
    ) -> "OpenSystemManager":
        """Build an open-system manager from an :class:`ExperimentContext`.

        Arriving session *i* gets the same purpose-string seed
        (:func:`~repro.common.rng.derive_session_seed`\\ ``(root, i)``)
        closed-system session *i* would get, so its workload is
        identical whether it arrives mid-run or starts at time zero.
        """
        oracle, new_engine = _engine_source(ctx, engine_name, speculation)
        session_factory = _session_factory(ctx, per_session, workflow_type, policy)
        if share_engine:
            topology = {"engine": new_engine()}
        else:
            topology = {"engine_factory": new_engine}
        return cls(
            oracle, ctx.settings, arrivals, session_factory, accel=accel,
            on_record=on_record, trace_capture=trace_capture, spool=spool,
            **topology,
        )


def serial_baseline(
    ctx,
    engine_name: str,
    specs: Sequence[SessionSpec],
    *,
    speculation: bool = False,
) -> List[SessionResult]:
    """Run each session's workflows through the serial suite runner.

    The reference the server's isolated mode is compared against: one
    fresh engine per session, stepped to completion by
    :meth:`~repro.bench.experiments.ExperimentContext.run`. Per-session
    detailed reports must be byte-identical to the server's.
    """
    return [
        SessionResult(
            spec, ctx.run(engine_name, spec.workflows, speculation=speculation)
        )
        for spec in specs
    ]
