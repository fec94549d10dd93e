"""The benchmark driver: discrete-event execution of workflows (§4.4).

The driver "runs/simulates workflows, delegates interactions to system
drivers, and generates reports". Concretely, for every workflow:

1. interactions fire ``think_time`` seconds apart (§4.6) — under the
   stress configuration (think 1 s, TR up to 10 s) queries from earlier
   interactions are still running when the next interaction fires, and the
   simulation handles the overlap faithfully;
2. each interaction updates the viz graph and submits one query per
   affected visualization — *simultaneously*, so they share engine
   capacity (§2.2's multiple concurrent queries);
3. every query gets a deadline ``submit + TR``; at the deadline the driver
   fetches whatever answer is visible, cancels the query ("queries whose
   run-time exceed TR are cancelled", §4.7), computes all metrics against
   the cached exact ground truth, and appends a row to the detailed
   report;
4. on ``link`` interactions the driver hands the engine the speculative
   queries every single-bin selection on the source would trigger
   (the Exp.-3 extension; engines without speculation ignore the hint).

The event loop itself lives in :class:`SessionDriver` — a *steppable*
discrete-event machine representing one simulated IDE session (one user,
one engine, one suite of workflows). ``next_event_time()`` peeks at the
session's next due event and ``step()`` processes exactly one event, so a
session can be

* run to completion in-process (:meth:`SessionDriver.run` — what
  :class:`BenchmarkDriver` does, byte-identical to the historical serial
  loop), or
* multiplexed with other sessions by an external pacer such as the
  asyncio session server (:mod:`repro.server`), which steps many sessions
  in global virtual-time order — optionally paced to wall time.

Because engines account for time exclusively through their clock and
scheduler (never through wall time), *when* ``step()`` is called has no
effect on the records a session produces; only the session's own event
times do. That is the determinism guarantee the session server builds on
(see docs/server.md).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.clock import VirtualClock
from repro.common.config import BenchmarkSettings
from repro.common.errors import BenchmarkError
from repro.bench.metrics import QueryMetrics, compute_metrics
from repro.obs.metrics import DEFAULT_VT_BUCKETS, get_metrics
from repro.obs.tracer import get_tracer
from repro.query.filters import conjoin
from repro.query.groundtruth import GroundTruthOracle
from repro.workflow.policy import (
    PENDING,
    InteractionPolicy,
    PolicyView,
    WorkflowPlan,
)
from repro.query.model import AggQuery
from repro.workflow.graph import VizGraph, VizNode
from repro.workflow.spec import DiscardViz, Interaction, Link, Workflow, WorkflowType

#: Cap on speculative queries enumerated per link (the Exp.-3 source viz
#: has 25 bins; a small headroom covers other workflows).
MAX_SPECULATIVE_PER_LINK = 40

#: Slop for "deadline due at interaction time" comparisons (float dust).
_TIE_EPSILON = 1e-12


@dataclass
class QueryRecord:
    """One row of the detailed report — the columns of Table 1."""

    query_id: int
    interaction_id: int
    viz_name: str
    driver: str
    data_size: str
    think_time: float
    time_requirement: float
    workflow: str
    workflow_type: str
    start_time: float
    end_time: float
    metrics: QueryMetrics
    bin_dims: int
    binning_type: str
    agg_type: str
    rows_processed: int
    fraction: float
    num_concurrent: int
    qualifying_fraction: float

    @property
    def tr_violated(self) -> bool:
        return self.metrics.tr_violated


@dataclass(order=True)
class _Deadline:
    time: float
    sequence: int
    handle: int = field(compare=False)
    viz_name: str = field(compare=False)
    interaction_id: int = field(compare=False)
    query: AggQuery = field(compare=False)
    submitted_at: float = field(compare=False)
    num_concurrent: int = field(compare=False)


class SessionDriver:
    """One simulated IDE session as a steppable discrete-event machine.

    A session executes ``workflows`` back to back against ``engine``:
    interactions fire on the think-time grid, each submitted query gets a
    ``TR`` deadline, and deadlines due at (or before, within float dust
    of) an interaction's fire time are evaluated *before* the interaction
    fires — exactly the ordering of the historical serial loop.

    The two-method event interface makes the session externally pacable:

    ``next_event_time()``
        absolute virtual time of the next due event (``None`` when the
        session has finished). Pure — never advances the clock or touches
        the engine.
    ``step()``
        process exactly one event: either evaluate one due deadline
        (returns the produced :class:`QueryRecord` in a list) or fire one
        interaction (returns ``[]``). Advances the session's clock to the
        event time.

    Parameters
    ----------
    engine, oracle, settings:
        As for :class:`BenchmarkDriver`. The engine must be prepared.
    workflows:
        The session's workflow suite, run sequentially.
    session_id:
        Identifier used by the session server for seeding, grouping and
        reporting; purely informational here.
    first_query_id:
        Value of the first record's ``query_id`` (the counter then
        increments per query, across workflow boundaries).
    lifecycle:
        When True (default) the driver brackets every workflow with
        ``engine.workflow_start()`` / ``engine.workflow_end()`` (Listing
        1's lifecycle hooks). The session server's shared-engine mode
        passes False: a long-lived engine serving many sessions must not
        let one session's workflow boundary clear another session's
        caches.
    on_record:
        Optional callback invoked with every produced record as soon as
        its deadline is evaluated — the per-session metric stream hook.
    policy:
        Optional :class:`~repro.workflow.policy.InteractionPolicy`. When
        given, ``workflows`` must be empty and the session's workflows
        are chosen *online*: the policy's ``begin_workflow`` /
        ``next_interaction`` answers replace the pre-generated
        interaction lists, and every produced record is fed to
        ``policy.observe`` — the adaptive-user hook (docs/server.md).
        Interactions still fire on the think-time grid; the policy picks
        *what* happens, never *when*.
    """

    def __init__(
        self,
        engine,
        oracle: GroundTruthOracle,
        settings: BenchmarkSettings,
        workflows: Sequence[Workflow],
        session_id: str = "session-0",
        first_query_id: int = 0,
        lifecycle: bool = True,
        on_record: Optional[Callable[[QueryRecord], None]] = None,
        policy: Optional[InteractionPolicy] = None,
    ):
        if engine.settings.scale != settings.scale:
            raise BenchmarkError("engine and driver settings disagree on scale")
        if policy is not None and workflows:
            raise BenchmarkError(
                "pass either pre-generated workflows or a policy, not both"
            )
        self.engine = engine
        self.oracle = oracle
        self.settings = settings
        self.clock = engine.clock
        self.session_id = session_id
        self.lifecycle = lifecycle
        self.on_record = on_record
        self.records: List[QueryRecord] = []
        self.interaction_counts: dict = {}
        #: Events processed so far (deadline evaluations + interaction
        #: fires) — a progress diagnostic for external pacers; always
        #: equals ``len(records)`` + interactions fired.
        self.steps = 0
        self._workflows = list(workflows)
        self._query_counter = first_query_id
        self._wf_index = 0
        self._interaction_index = 0
        self._wf_start: Optional[float] = None
        self._graph = VizGraph()
        self._deadlines: List[_Deadline] = []
        self._sequence = 0
        self._hinted: List[AggQuery] = []
        self._policy = policy
        self._plan: Optional[WorkflowPlan] = None
        self._pending: Optional[Interaction] = None
        self._stalled = False
        if policy is not None:
            self._plan = policy.begin_workflow(0)
            self._finished = self._plan is None
            if not self._finished:
                self._prefetch()
        else:
            self._finished = not self._workflows

    # ------------------------------------------------------------------
    # Event interface
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once every workflow has run and every deadline is drained."""
        return self._finished

    @property
    def next_query_id(self) -> int:
        """The ``query_id`` the next evaluated deadline would receive."""
        return self._query_counter

    @property
    def workflow_index(self) -> int:
        """Index of the workflow the session is currently executing."""
        return self._wf_index

    @property
    def in_flight(self) -> int:
        """Queries submitted but not yet evaluated (outstanding deadlines)."""
        return len(self._deadlines)

    @property
    def needs_input(self) -> bool:
        """True when the session can only proceed with external input.

        Only ever True in policy mode with an external interaction
        source (:class:`~repro.workflow.policy.ExternalInteractionSource`)
        that answered :data:`~repro.workflow.policy.PENDING`: the next
        grid slot needs an interaction the frontend has not sent yet and
        no deadline is due before it. Callers (the TCP server) must not
        :meth:`step` while this holds; they feed the source and call
        :meth:`resume`.
        """
        if self._finished or not self._stalled:
            return False
        if self._wf_start is None:
            return True
        fire_at = self._fire_time()
        return not (
            self._deadlines and self._deadlines[0].time <= fire_at + _TIE_EPSILON
        )

    def resume(self) -> None:
        """Re-ask a stalled session's policy for the pending interaction.

        No-op unless stalled. May raise (via ``_prefetch``) if the
        source ends an empty workflow — a client that detaches without
        ever interacting.
        """
        if self._stalled and not self._finished:
            self._prefetch()
            # The source may have ended the workflow while queries are
            # still in flight (client detached mid-tail) — or with
            # nothing in flight at all, in which case the session is
            # over right now and no further step() will ever run.
            self._maybe_finish_workflow()

    def next_event_time(self) -> Optional[float]:
        """Absolute time of the next due event; None when finished.

        Pure: repeated calls without an intervening :meth:`step` return
        the same value and have no side effects.
        """
        if self._finished:
            return None
        if self._wf_start is None:
            # The next workflow starts (and its first interaction fires)
            # at the current time — workflow transitions take zero time.
            return self.clock.now()
        if self._interactions_pending():
            fire_at = self._fire_time()
            if self._deadlines and self._deadlines[0].time <= fire_at + _TIE_EPSILON:
                return self._deadlines[0].time
            return fire_at
        # All interactions fired; only the deadline tail remains.
        return self._deadlines[0].time

    def step(self) -> List[QueryRecord]:
        """Process exactly one due event; returns any records produced."""
        if self._finished:
            return []
        if self._wf_start is None:
            if self.lifecycle:
                self.engine.workflow_start()
            self._wf_start = self.clock.now()
        produced: List[QueryRecord] = []
        pending = self._interactions_pending()
        fire_at = self._fire_time() if pending else None
        tracer = get_tracer()
        if self._deadlines and (
            fire_at is None or self._deadlines[0].time <= fire_at + _TIE_EPSILON
        ):
            deadline = heapq.heappop(self._deadlines)
            self._advance(deadline.time)
            if tracer.enabled:
                span = tracer.span(
                    "driver.deadline",
                    deadline.time,
                    session=self.session_id,
                    viz=deadline.viz_name,
                )
                with span:
                    record = self._evaluate(deadline)
                    span.set("query_id", record.query_id)
                    span.set("tr_violated", record.tr_violated)
                self._observe_record(record)
            else:
                record = self._evaluate(deadline)
            self.records.append(record)
            produced.append(record)
            if self._policy is not None:
                self._policy.observe(record)
            if self.on_record is not None:
                self.on_record(record)
        else:
            if self._stalled:
                raise BenchmarkError(
                    "session is stalled waiting for an external "
                    "interaction; check needs_input before step()"
                )
            self._advance(fire_at)
            interaction = self._next_interaction()
            if tracer.enabled:
                tracer.event(
                    "driver.interaction",
                    fire_at,
                    session=self.session_id,
                    kind=interaction.kind,
                )
                get_metrics().counter(
                    "repro_interactions_total",
                    labels={"kind": interaction.kind},
                    help="Interactions fired, by kind.",
                ).inc()
            self._fire_interaction(interaction, fire_at)
            self._interaction_index += 1
            if self._policy is not None:
                self._prefetch()
        self.steps += 1
        if tracer.enabled:
            get_metrics().counter(
                "repro_driver_steps_total",
                help="SessionDriver events processed (deadlines + interactions).",
            ).inc()
        self._maybe_finish_workflow()
        return produced

    def run(self) -> List[QueryRecord]:
        """Step the session to completion; returns all records."""
        while not self._finished:
            self.step()
        return self.records

    def abandon(self) -> None:
        """Retire the session *now* (open-system churn departure).

        Cancels every outstanding query the session still has in flight,
        frees its speculation hints, closes the workflow lifecycle if
        this driver owns it, and marks the session finished. Pending
        events are dropped — the departed user never sees them, so no
        further records are produced.
        """
        if self._finished:
            return
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "driver.abandon",
                self.clock.now(),
                session=self.session_id,
                in_flight=len(self._deadlines),
            )
            get_metrics().counter(
                "repro_sessions_abandoned_total",
                help="Sessions retired mid-run (churn departures, disconnects).",
            ).inc()
        for deadline in self._deadlines:
            self.engine.cancel(deadline.handle)
        self._deadlines = []
        if self._hinted:
            self.engine.delete_vizs(self._hinted)
            self._hinted = []
        if self.lifecycle and self._wf_start is not None:
            self.engine.workflow_end()
        self._finished = True

    def _observe_record(self, record: QueryRecord) -> None:
        """Record-level metrics (only called while tracing is enabled)."""
        registry = get_metrics()
        registry.counter(
            "repro_records_total",
            help="Query deadlines evaluated into detailed-report rows.",
        ).inc()
        if record.tr_violated:
            registry.counter(
                "repro_tr_violations_total",
                help="Records whose time requirement was violated (§4.7).",
            ).inc()
        registry.histogram(
            "repro_query_latency_vt_seconds",
            help="Virtual-time query latency (end_time - start_time).",
            bounds=DEFAULT_VT_BUCKETS,
        ).observe(record.end_time - record.start_time)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _interactions_pending(self) -> bool:
        if self._policy is not None:
            # A stalled session *does* have a pending interaction — the
            # frontend just has not told us what it is yet — so the
            # workflow must not be treated as finished.
            return self._pending is not None or self._stalled
        workflow = self._workflows[self._wf_index]
        return self._interaction_index < len(workflow.interactions)

    def _next_interaction(self) -> Interaction:
        if self._policy is not None:
            return self._pending
        return self._workflows[self._wf_index].interactions[self._interaction_index]

    def _prefetch(self) -> None:
        """Ask the policy for the upcoming interaction (policy mode only).

        Called right after an interaction fires (and at workflow start),
        so the policy decides with exactly the records whose deadlines
        resolved before that moment — the dashboard state the simulated
        user is looking at. ``None`` ends the current workflow once its
        deadline tail drains.
        """
        last_latency = 0.0
        if self.records:
            last = self.records[-1]
            last_latency = last.end_time - last.start_time
        view = PolicyView(
            session_id=self.session_id,
            workflow_index=self._wf_index,
            interaction_index=self._interaction_index,
            graph=self._graph,
            records=self.records,
            queue_depth=len(self._deadlines),
            last_latency=last_latency,
        )
        answer = self._policy.next_interaction(view)
        if answer is PENDING:
            # External source: the frontend has not sent the next
            # interaction yet. Stall — deadlines keep draining, the
            # grid slot waits for resume().
            self._pending = None
            self._stalled = True
            return
        self._stalled = False
        self._pending = answer
        if self._pending is None and self._interaction_index == 0:
            raise BenchmarkError(
                f"policy {self._policy.name!r} produced an empty workflow"
            )

    def _workflow_name(self) -> str:
        if self._policy is not None:
            return self._plan.name
        return self._workflows[self._wf_index].name

    def _workflow_type(self) -> WorkflowType:
        if self._policy is not None:
            return self._plan.workflow_type
        return self._workflows[self._wf_index].workflow_type

    def _fire_time(self) -> float:
        return self._wf_start + self._interaction_index * self.settings.think_time

    def _fire_interaction(self, interaction: Interaction, fire_at: float) -> None:
        # ``fire_at`` is the exact think-time grid value. The clock can sit
        # float dust past it (a deadline within _TIE_EPSILON drains first),
        # and the grid value — not clock.now() — must stamp submissions and
        # deadlines, exactly like the historical serial loop.
        kind = interaction.kind
        self.interaction_counts[kind] = self.interaction_counts.get(kind, 0) + 1
        if isinstance(interaction, DiscardViz):
            # Tell the engine before the node disappears (Listing 1's
            # delete_vizs: "free memory, if applicable").
            if interaction.viz_name in self._graph:
                self.engine.delete_vizs(
                    [self._graph.query_for(interaction.viz_name)]
                )
        applied = self._graph.apply(interaction)
        if isinstance(interaction, Link):
            self._hint_speculation(self._graph, interaction)

        submitted: List[Tuple[int, str, AggQuery]] = []
        for viz_name in applied.affected:
            query = self._graph.query_for(viz_name)
            handle = self.engine.submit(query)
            submitted.append((handle, viz_name, query))
        for handle, viz_name, query in submitted:
            heapq.heappush(
                self._deadlines,
                _Deadline(
                    time=fire_at + self.settings.time_requirement,
                    sequence=self._sequence,
                    handle=handle,
                    viz_name=viz_name,
                    interaction_id=self._interaction_index,
                    query=query,
                    submitted_at=fire_at,
                    num_concurrent=len(submitted),
                ),
            )
            self._sequence += 1

    def _maybe_finish_workflow(self) -> None:
        if self._interactions_pending() or self._deadlines:
            return
        if self.lifecycle:
            self.engine.workflow_end()
        elif self._hinted:
            # Without the workflow_end hook (shared-engine serving) the
            # engine would never learn this workflow's speculation hints
            # are obsolete: stale speculative tasks would keep consuming
            # capacity and pin the engine's speculation cap for every
            # other session. Free exactly what this session hinted.
            self.engine.delete_vizs(self._hinted)
        self._hinted = []
        self._wf_index += 1
        self._interaction_index = 0
        self._wf_start = None
        self._graph = VizGraph()
        if self._policy is not None:
            self._plan = self._policy.begin_workflow(self._wf_index)
            if self._plan is None:
                self._finished = True
            else:
                self._prefetch()
        elif self._wf_index >= len(self._workflows):
            self._finished = True

    def _advance(self, time: float) -> None:
        now = self.clock.now()
        if time > now:
            if isinstance(self.clock, VirtualClock):
                self.clock.advance_to(time)
            else:
                self.clock.advance(time - now)
        self.engine.advance_to(self.clock.now())

    def _evaluate(self, deadline: _Deadline) -> QueryRecord:
        result = self.engine.result_at(deadline.handle, deadline.time)
        end_time = self.engine.completion_time(deadline.handle, deadline.time)
        self.engine.cancel(deadline.handle)
        ground_truth = self.oracle.answer(deadline.query)
        metrics = compute_metrics(result, ground_truth)
        record = QueryRecord(
            query_id=self._query_counter,
            interaction_id=deadline.interaction_id,
            viz_name=deadline.viz_name,
            driver=self.engine.name,
            data_size=self.settings.data_size.name,
            think_time=self.settings.think_time,
            time_requirement=self.settings.time_requirement,
            workflow=self._workflow_name(),
            workflow_type=self._workflow_type().value,
            start_time=deadline.submitted_at,
            end_time=end_time,
            metrics=metrics,
            bin_dims=deadline.query.num_bin_dims,
            binning_type=" ".join(deadline.query.binning_types),
            agg_type=deadline.query.agg_type,
            rows_processed=result.rows_processed if result else 0,
            fraction=result.fraction if result else 0.0,
            num_concurrent=deadline.num_concurrent,
            qualifying_fraction=self.engine.qualifying_fraction(deadline.query),
        )
        self._query_counter += 1
        return record

    def _hint_speculation(self, graph: VizGraph, link: Link) -> None:
        """Enumerate the single-bin-selection queries a link enables (§5.4).

        IDEA's experimental extension "executes queries for every possible
        single bin selection in the source visualization". The candidate
        bins come from the exact answer of the source's current query —
        the same bins the source visualization is displaying.
        """
        source_query = graph.query_for(link.source)
        source_result = self.oracle.answer(source_query)
        source_node: VizNode = graph.node(link.source)
        target_node: VizNode = graph.node(link.target)
        upstream = graph.effective_filter(link.source)
        speculative: List[AggQuery] = []
        for key in source_result.columns.keys:
            probe = VizNode(spec=source_node.spec, selection=(key,))
            selection_filter = probe.selection_filter()
            effective = conjoin(
                [target_node.own_filter, selection_filter, upstream]
            )
            speculative.append(target_node.spec.base_query(effective))
            if len(speculative) >= MAX_SPECULATIVE_PER_LINK:
                break
        self._hinted.extend(speculative)
        self.engine.link_vizs(speculative)


class BenchmarkDriver:
    """Runs workflows against one engine and collects detailed records.

    A thin serial façade over :class:`SessionDriver`: each
    :meth:`run_workflow` call steps a one-workflow session to completion,
    carrying the query-id counter across calls so a suite numbers its
    queries consecutively (Table 1's ``id`` column).
    """

    def __init__(
        self,
        engine,
        oracle: GroundTruthOracle,
        settings: BenchmarkSettings,
    ):
        if engine.settings.scale != settings.scale:
            raise BenchmarkError("engine and driver settings disagree on scale")
        self.engine = engine
        self.oracle = oracle
        self.settings = settings
        self.clock = engine.clock
        self._query_counter = 0

    # ------------------------------------------------------------------
    def run_workflow(self, workflow: Workflow) -> List[QueryRecord]:
        """Execute one workflow; returns one record per submitted query."""
        session = SessionDriver(
            self.engine,
            self.oracle,
            self.settings,
            [workflow],
            first_query_id=self._query_counter,
        )
        records = session.run()
        self._query_counter = session.next_query_id
        return records

    def run_suite(self, workflows: Sequence[Workflow]) -> List[QueryRecord]:
        """Run several workflows back to back (records concatenated)."""
        records: List[QueryRecord] = []
        for workflow in workflows:
            records.extend(self.run_workflow(workflow))
        return records
