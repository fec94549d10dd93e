"""Interaction policies: scripted, adaptive and uncertainty-driven users.

IDEBench models users as *pre-generated* interaction workflows (§4.3).
Its own outlook — and Purich et al.'s adaptive benchmark (PAPERS.md) —
argue that realistic exploration load comes from users who *react* to
what they see: an empty chart makes a real user loosen their filter, a
noisy estimate makes them drill in. An :class:`InteractionPolicy` is that
user model: instead of indexing into a fixed interaction list, the
session driver (:class:`repro.bench.driver.SessionDriver`) asks the
policy for the next interaction, handing it a :class:`PolicyView` of the
live dashboard and every metric record the session has observed so far.

Four policies ship:

* :class:`ReplayPolicy` — replays a pre-generated workflow suite through
  the policy code path. Byte-identical to scripted execution (the golden
  corpus proves it), so it doubles as the regression anchor for the
  adaptive machinery.
* :class:`MarkovPolicy` — walks the workflow generator's own §4.3 fills
  *online* (:meth:`~repro.workflow.generator.WorkflowGenerator.walk`:
  the typed, anchored chain actions, and for ``mixed`` its segments with
  tidy-up discards) against the live dashboard, and between walk steps
  reacts to empty/low-cardinality results by clearing the offending
  viz's filter. Without a reaction it emits the generator's
  interactions exactly.
* :class:`LoadAdaptivePolicy` — the same walk, plus backing off under
  server strain: it discards the newest chart, or gives the workflow up.
* :class:`UncertaintyChaserPolicy` — AIDE-style exploration: it chases
  the visualization with the widest relative margins of error (falling
  back to missing-bin mass when an engine reports no margins), drilling
  in with filters/selections and periodically spawning linked detail
  views on the most uncertain viz.

Determinism: a policy draws randomness exclusively from a
:func:`repro.common.rng.derive_rng` stream keyed by the session's seed
plus the ``("policy", <name>)`` purpose string, and decisions depend only
on the session's own observed records — never on wall time or stepping
interleave. Adaptive runs are therefore byte-identical across repeated
invocations, acceleration factors and serving topologies with the same
configuration (docs/server.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.common.errors import WorkflowError
from repro.common.rng import derive_rng
from repro.workflow.generator import WorkflowGenerator, WorkflowWalk
from repro.workflow.graph import VizGraph
from repro.workflow.spec import (
    CreateViz,
    DiscardViz,
    Interaction,
    Link,
    SelectBins,
    SetFilter,
    Workflow,
    WorkflowType,
)

#: Registry of policy names accepted by ``make_policy`` (and the CLI).
POLICY_NAMES = ("replay", "markov", "uncertainty", "load-adaptive")

#: Sentinel an *external* interaction source returns from
#: ``next_interaction`` when the next interaction is not known yet (the
#: remote frontend has not sent it). The session driver then *stalls* —
#: it keeps draining due deadlines but will not fire an interaction —
#: until :meth:`repro.bench.driver.SessionDriver.resume` is called.
#: In-process policies never return this.
PENDING = object()

#: A result delivering this many bins or fewer counts as "empty/low
#: cardinality" — the signal MarkovPolicy reacts to by re-filtering.
LOW_CARDINALITY_BINS = 1

#: A generative policy's reaction that ends the current workflow (the
#: user gives up on the task).
_GIVE_UP = object()


@dataclass(frozen=True)
class WorkflowPlan:
    """Header of one policy-driven workflow (name + type for reporting)."""

    name: str
    workflow_type: WorkflowType


@dataclass(frozen=True)
class PolicyView:
    """What a policy may observe when choosing the next interaction.

    ``graph`` is the session's live dashboard (treat as read-only) and
    ``records`` every metric record evaluated so far, in evaluation
    order — the information a real user has at the moment they act.
    """

    session_id: str
    workflow_index: int
    interaction_index: int
    graph: VizGraph
    records: Sequence  # QueryRecord, duck-typed to avoid a bench import
    #: Server-side load signals (Purich et al.'s adaptive direction):
    #: how many of the session's queries are still in flight, and the
    #: end-to-end latency of the last evaluated one (0.0 before the
    #: first). Both are pure functions of the session's own event
    #: history, so policies reading them stay byte-deterministic.
    queue_depth: int = 0
    last_latency: float = 0.0


class InteractionPolicy:
    """Chooses a session's interactions online (the adaptive-user hook).

    The session driver calls, in order:

    1. :meth:`begin_workflow` when a workflow would start — return its
       :class:`WorkflowPlan`, or ``None`` to end the session;
    2. :meth:`next_interaction` for every interaction — return ``None``
       to end the current workflow (its deadline tail still drains);
    3. :meth:`observe` with every produced record, the instant its
       deadline is evaluated.

    The first :meth:`next_interaction` of a workflow must not be ``None``
    (workflows cannot be empty).
    """

    name: str = "policy"

    def begin_workflow(self, index: int) -> Optional[WorkflowPlan]:
        raise NotImplementedError

    def next_interaction(self, view: PolicyView) -> Optional[Interaction]:
        raise NotImplementedError

    def observe(self, record) -> None:  # pragma: no cover - trivial default
        """Called with every evaluated :class:`QueryRecord` of the session."""


class ReplayPolicy(InteractionPolicy):
    """Replays a pre-generated suite through the policy code path.

    Produces exactly the interactions (and thus exactly the bytes) the
    scripted driver produces for the same suite — the determinism anchor
    adaptive runs are regression-tested against.
    """

    name = "replay"

    def __init__(self, workflows: Sequence[Workflow]):
        if not workflows:
            raise WorkflowError("replay policy needs at least one workflow")
        self._workflows = list(workflows)
        self._cursor = 0

    def begin_workflow(self, index: int) -> Optional[WorkflowPlan]:
        if index >= len(self._workflows):
            return None
        self._cursor = 0
        workflow = self._workflows[index]
        return WorkflowPlan(workflow.name, workflow.workflow_type)

    def next_interaction(self, view: PolicyView) -> Optional[Interaction]:
        workflow = self._workflows[view.workflow_index]
        if self._cursor >= len(workflow.interactions):
            return None
        interaction = workflow.interactions[self._cursor]
        self._cursor += 1
        return interaction


class ExternalInteractionSource(InteractionPolicy):
    """Adapter for interactions arriving from *outside* the process.

    The network front-end (:mod:`repro.net`) maps each client-driven TCP
    connection to one session whose interactions are chosen by the
    remote frontend. This class is the bridge: the connection handler
    :meth:`feed`\\ s decoded interactions into a buffer, the session
    driver pops them through the normal policy interface, and when the
    buffer is empty the source answers :data:`PENDING` — the driver
    stalls (see :attr:`repro.bench.driver.SessionDriver.needs_input`)
    instead of ending the workflow, because the frontend may still be
    thinking. :meth:`finish` ends the session (the client detached); the
    deadline tail then drains normally.

    Interactions still *fire* on the think-time grid regardless of when
    their frames arrive, so a client that sends the same interactions as
    a scripted session produces byte-identical records — wall arrival
    time never leaks into the simulation.
    """

    name = "external"

    def __init__(
        self,
        plan_name: str = "client",
        workflow_type: WorkflowType = WorkflowType.CUSTOM,
    ):
        self._plan_name = plan_name
        self._workflow_type = workflow_type
        self._buffer: List[Interaction] = []
        self._finished = False

    def feed(self, interaction: Interaction) -> None:
        """Queue one frontend interaction for the driver to fire."""
        if self._finished:
            raise WorkflowError(
                "external source already finished; cannot accept interactions"
            )
        self._buffer.append(interaction)

    def finish(self) -> None:
        """No more interactions will arrive (the client detached)."""
        self._finished = True

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def begin_workflow(self, index: int) -> Optional[WorkflowPlan]:
        # One client workflow per attachment: the TCP session *is* the
        # workflow, ended by the client's detach.
        if index > 0:
            return None
        return WorkflowPlan(self._plan_name, self._workflow_type)

    def next_interaction(self, view: PolicyView) -> Optional[Interaction]:
        if self._buffer:
            return self._buffer.pop(0)
        if self._finished:
            return None
        return PENDING  # type: ignore[return-value]


class _GenerativePolicy(InteractionPolicy):
    """Shared machinery of the policies that synthesize interactions.

    Each workflow is a :class:`~repro.workflow.generator.WorkflowWalk`
    on the policy's own stream, stepped against the session's live
    dashboard. Between walk steps (never inside one, so a create+link
    pair stays whole) the user may :meth:`_react` to what it has seen;
    a reaction counts against the workflow's budget like any other
    interaction.
    """

    def __init__(
        self,
        generator: WorkflowGenerator,
        per_session: int,
        seed: int = 0,
    ):
        if per_session < 1:
            raise WorkflowError(
                f"policy needs at least one workflow, got {per_session!r}"
            )
        self._generator = generator
        self._per_session = per_session
        self._rng = derive_rng(seed, "policy", self.name)
        self._walk: Optional[WorkflowWalk] = None
        self._cursor = 0

    def begin_workflow(self, index: int) -> Optional[WorkflowPlan]:
        if index >= self._per_session:
            return None
        self._walk = self._start_walk()
        self._cursor = 0
        return self._plan(index)

    def next_interaction(self, view: PolicyView) -> Optional[Interaction]:
        walk = self._walk
        walk.graph = view.graph
        if self._cursor == len(walk.interactions):  # between walk steps
            if walk.remaining <= 0:
                return None
            reaction = self._react(view)
            if reaction is _GIVE_UP:
                return None
            if reaction is not None:
                walk.emit(reaction)
            else:
                self._step(walk)
                if self._cursor == len(walk.interactions):  # walk is done
                    return None
        interaction = walk.interactions[self._cursor]
        self._cursor += 1
        return interaction

    def _start_walk(self) -> WorkflowWalk:
        raise NotImplementedError

    def _step(self, walk: WorkflowWalk) -> None:
        """Emit the walk's next action, or nothing once the walk is done."""
        raise NotImplementedError

    def _plan(self, index: int) -> WorkflowPlan:
        raise NotImplementedError

    def _react(self, view: PolicyView):
        """The interaction to fire before the next walk step, ``None``
        to walk on, or :data:`_GIVE_UP`."""
        return None


class MarkovPolicy(_GenerativePolicy):
    """Walks the §4.3 workflow generator online, reacting as it goes.

    Each workflow is the generator's own walk
    (:meth:`WorkflowGenerator.walk`) for the configured type: the
    type's Fig.-3 chain with its anchored actions (chain tail, 1:N hub,
    N:1 sink), or for ``mixed`` three to four such segments with
    tidy-up discards. With no reaction it emits exactly the interactions
    ``generate`` would for an rng in the same state. Unlike the offline
    generator, the policy sees the session's metric stream: when a query
    comes back empty (or with :data:`LOW_CARDINALITY_BINS` or fewer
    bins), the policy's next move is to clear that visualization's own
    filter — the "that filtered everything away, undo it" reaction of a
    real user — before resuming the walk.
    """

    name = "markov"

    def __init__(
        self,
        generator: WorkflowGenerator,
        per_session: int,
        workflow_type: WorkflowType = WorkflowType.MIXED,
        seed: int = 0,
    ):
        super().__init__(generator, per_session, seed)
        self._workflow_type = workflow_type
        self._fill: Iterator[None] = iter(())
        self._refilter: List[str] = []

    def _start_walk(self) -> WorkflowWalk:
        self._refilter = []
        walk, self._fill = self._generator.walk(self._rng, self._workflow_type)
        return walk

    def _step(self, walk: WorkflowWalk) -> None:
        next(self._fill, None)

    def _plan(self, index: int) -> WorkflowPlan:
        return WorkflowPlan(
            f"markov_{self._workflow_type.value}_{index}", self._workflow_type
        )

    def observe(self, record) -> None:
        metrics = record.metrics
        if (
            not metrics.tr_violated
            and metrics.bins_delivered <= LOW_CARDINALITY_BINS
            and record.viz_name not in self._refilter
        ):
            self._refilter.append(record.viz_name)

    def _react(self, view: PolicyView):
        # Undo filters that emptied a chart.
        graph = view.graph
        while self._refilter:
            name = self._refilter.pop(0)
            if name in graph and graph.node(name).own_filter is not None:
                return SetFilter(name, None)
        return None


class LoadAdaptivePolicy(MarkovPolicy):
    """A markov user who *backs off* when the server is struggling.

    Purich et al.'s adaptive benchmark observes that real exploration
    load is elastic: users slow down and shed work when the system lags.
    This policy closes that loop with the server-side signals
    :class:`PolicyView` now carries: when the session's in-flight query
    count reaches ``backoff_depth``, the last evaluated query violated
    its time requirement (the user saw a blank chart), or its end-to-end
    latency ran *past* ``backoff_fraction`` × TR (progressive engines
    complete exactly at the deadline, so only genuine overruns trip
    this), the user's next move *sheds load* — discarding the newest
    dashboard visualization (closing charts, the way a real user reacts
    to a sluggish dashboard) instead of issuing new queries.
    With one viz left there is nothing worth closing, so the user simply
    walks away (the workflow ends early).

    Under light load the policy is exactly a :class:`MarkovPolicy` walk;
    decisions depend only on the session's own observed records and
    in-flight count, so runs remain byte-deterministic.
    """

    name = "load-adaptive"

    def __init__(
        self,
        generator: WorkflowGenerator,
        per_session: int,
        workflow_type: WorkflowType = WorkflowType.MIXED,
        seed: int = 0,
        backoff_depth: int = 6,
        backoff_fraction: float = 1.0,
    ):
        super().__init__(
            generator, per_session, workflow_type=workflow_type, seed=seed
        )
        if backoff_depth < 1:
            raise WorkflowError(
                f"backoff_depth must be >= 1, got {backoff_depth!r}"
            )
        if backoff_fraction <= 0.0:
            raise WorkflowError(
                f"backoff_fraction must be positive, got {backoff_fraction!r}"
            )
        self._backoff_depth = backoff_depth
        self._backoff_fraction = backoff_fraction
        self._last_record = None
        self.backoffs = 0

    def _plan(self, index: int) -> WorkflowPlan:
        # Strain is per task: a violated record at the end of the
        # previous workflow must not make the user give up on the next
        # one before it produced anything.
        self._last_record = None
        return WorkflowPlan(f"load_adaptive_{index}", self._workflow_type)

    def observe(self, record) -> None:
        super().observe(record)
        self._last_record = record

    def _overloaded(self, view: PolicyView) -> bool:
        if view.queue_depth >= self._backoff_depth:
            return True
        # The latency signal counts only once the *current* workflow has
        # an evaluated record (every record observed since begin_workflow
        # belongs to it — the previous workflow's deadline tail drains
        # before a new workflow starts).
        if self._last_record is None or not view.records:
            return False
        if view.records[-1] is not self._last_record:
            return False  # stale: latest record predates this workflow
        last = view.records[-1]
        if last.metrics.tr_violated:
            return True
        budget = last.time_requirement * self._backoff_fraction
        return view.last_latency > budget

    def _react(self, view: PolicyView):
        names = view.graph.viz_names
        # An empty dashboard means the user just sat down: always start
        # working; back off only once there is something to shed.
        if names and self._overloaded(view):
            self.backoffs += 1
            if len(names) > 1:
                # Shed the newest chart (highest creation counter; names
                # are viz_<n>, so the lexicographically-by-length-then-
                # value max is the latest). Deterministic tie-break.
                newest = max(names, key=lambda n: (len(n), n))
                return DiscardViz(newest)
            return _GIVE_UP  # one chart left: the user gives up on this task
        return super()._react(view)


class UncertaintyChaserPolicy(_GenerativePolicy):
    """Chases the visualization with the widest confidence intervals.

    AIDE-style exploration: every observed record scores its viz by the
    mean *relative* margin of error the engine reported (§4.7's Margins
    metric); engines that report no margins score by missing-bin mass,
    and TR-violated queries score 1 (nothing is known about them). The
    policy then drills into the currently most uncertain viz — selecting
    bins when it has linked descendants to drive, filtering it otherwise
    — and every ``explore_every`` interactions links a fresh detail viz
    to it. Vizs never queried yet rank as maximally uncertain, so the
    chaser keeps broadening until estimates stabilize.
    """

    name = "uncertainty"

    def __init__(
        self,
        generator: WorkflowGenerator,
        per_session: int,
        seed: int = 0,
        explore_every: int = 4,
    ):
        super().__init__(generator, per_session, seed)
        if explore_every < 2:
            raise WorkflowError(
                f"explore_every must be >= 2, got {explore_every!r}"
            )
        self._explore_every = explore_every
        self._uncertainty: Dict[str, float] = {}

    def _start_walk(self) -> WorkflowWalk:
        self._uncertainty = {}
        return WorkflowWalk(self._generator.config, self._rng)

    def _plan(self, index: int) -> WorkflowPlan:
        return WorkflowPlan(f"uncertainty_{index}", WorkflowType.CUSTOM)

    def observe(self, record) -> None:
        metrics = record.metrics
        if metrics.tr_violated:
            score = 1.0
        elif metrics.margin_avg == metrics.margin_avg:  # not NaN
            score = float(metrics.margin_avg)
        else:
            score = float(metrics.missing_bins)
        self._uncertainty[record.viz_name] = score

    def _chase_target(self, graph: VizGraph) -> str:
        # Unqueried vizs are maximally uncertain; ties break by name so
        # the choice is a pure function of the observed records.
        return max(
            sorted(graph.viz_names),
            key=lambda name: self._uncertainty.get(name, float("inf")),
        )

    def _step(self, walk: WorkflowWalk) -> None:
        """One drill-in on the most uncertain viz, or a detail view."""
        generator, rng, graph = self._generator, self._rng, walk.graph
        if not graph.viz_names:
            name = walk.next_viz_name()
            walk.emit(CreateViz(generator.sample_viz_spec(rng, name)))
            return
        target = self._chase_target(graph)
        every = self._explore_every
        explore = len(walk.interactions) % every == every - 1
        can_create = len(graph) < generator.config.max_vizs
        if explore and can_create and walk.remaining >= 2:
            detail = walk.next_viz_name()
            walk.emit(CreateViz(generator.sample_viz_spec(rng, detail)))
            walk.emit(Link(target, detail))
            return
        spec = graph.node(target).spec
        if graph.children(target):
            walk.emit(SelectBins(target, generator.sample_selection(rng, spec)))
        else:
            walk.emit(SetFilter(target, generator.sample_filter(rng, spec)))


def make_policy(
    name: str,
    *,
    workflows: Optional[Sequence[Workflow]] = None,
    generator: Optional[WorkflowGenerator] = None,
    per_session: int = 2,
    workflow_type: WorkflowType = WorkflowType.MIXED,
    seed: int = 0,
) -> InteractionPolicy:
    """Build a policy by registry name (the CLI's ``--policy`` values).

    ``replay`` needs ``workflows``; the generative policies need a
    ``generator`` (column profiles) and draw their own randomness from
    ``seed`` — pass the session's seed for per-session streams.
    """
    if name == "replay":
        if workflows is None:
            raise WorkflowError("replay policy requires pre-generated workflows")
        return ReplayPolicy(workflows)
    if name not in POLICY_NAMES:
        raise WorkflowError(
            f"unknown policy {name!r} (choose from: {', '.join(POLICY_NAMES)})"
        )
    if generator is None:
        raise WorkflowError(f"{name} policy requires a workflow generator")
    if name == "uncertainty":
        return UncertaintyChaserPolicy(generator, per_session, seed=seed)
    walker = MarkovPolicy if name == "markov" else LoadAdaptivePolicy
    return walker(generator, per_session, workflow_type=workflow_type, seed=seed)


def interaction_mix(counts: Dict[str, int]) -> Dict[str, float]:
    """Normalize per-kind interaction counts into fractions (sum 1.0).

    The ``bench-adaptive`` report compares these mixes across policies —
    the acceptance check that adaptive users behave *measurably*
    differently from replayed ones.
    """
    total = sum(counts.values())
    if total == 0:
        return {}
    return {kind: counts[kind] / total for kind in sorted(counts)}


def mix_distance(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Total-variation distance between two interaction mixes (0..1)."""
    kinds = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in kinds)
