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

Three policies ship:

* :class:`ReplayPolicy` — replays a pre-generated workflow suite through
  the policy code path. Byte-identical to scripted execution (the golden
  corpus proves it), so it doubles as the regression anchor for the
  adaptive machinery.
* :class:`MarkovPolicy` — samples the paper's workflow Markov chains
  *online*, materializing each action against the live dashboard, and
  reacts to empty/low-cardinality results by clearing the offending
  viz's filter before continuing the walk.
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
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.errors import WorkflowError
from repro.common.rng import derive_rng, pick
from repro.workflow.generator import _CHAINS, WorkflowGenerator
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
    """Shared machinery of the policies that synthesize interactions."""

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
        self._budget = 0
        self._emitted = 0
        self._queue: List[Interaction] = []
        self._viz_counter = 0

    # -- per-workflow state ------------------------------------------------
    def _start_workflow(self) -> None:
        config = self._generator.config
        self._budget = int(
            self._rng.integers(
                config.interactions_min, config.interactions_max + 1
            )
        )
        self._emitted = 0
        self._queue = []
        self._viz_counter = 0

    def _next_name(self) -> str:
        name = f"viz_{self._viz_counter}"
        self._viz_counter += 1
        return name

    @property
    def _room(self) -> int:
        return self._budget - self._emitted - len(self._queue)

    def _emit(self, interactions: List[Interaction]) -> Interaction:
        first, rest = interactions[0], interactions[1:]
        self._queue.extend(rest)
        self._emitted += 1
        return first

    def next_interaction(self, view: PolicyView) -> Optional[Interaction]:
        if self._queue:
            self._emitted += 1
            return self._queue.pop(0)
        if self._emitted >= self._budget:
            return None
        chosen = self._choose(view)
        if not chosen:
            return None
        return self._emit(chosen)

    def _choose(self, view: PolicyView) -> List[Interaction]:
        raise NotImplementedError

    # -- shared materializers ---------------------------------------------
    def _create(self, rng: np.random.Generator) -> List[Interaction]:
        name = self._next_name()
        return [CreateViz(self._generator.sample_viz_spec(rng, name))]

    def _filter(self, graph: VizGraph, target: str) -> List[Interaction]:
        node = graph.node(target)
        return [
            SetFilter(target, self._generator.sample_filter(self._rng, node.spec))
        ]

    def _select(self, graph: VizGraph, target: str) -> List[Interaction]:
        node = graph.node(target)
        return [
            SelectBins(
                target, self._generator.sample_selection(self._rng, node.spec)
            )
        ]


class MarkovPolicy(_GenerativePolicy):
    """Samples the §4.3 workflow Markov chains online, reacting as it goes.

    Each workflow picks one of the four Fig.-3 chains (or the configured
    base type) and walks it one action at a time, materializing actions
    against the *live* dashboard. Unlike the offline generator, the
    policy sees the session's metric stream: when a query comes back
    empty (or with :data:`LOW_CARDINALITY_BINS` or fewer bins), the
    policy's next move is to clear that visualization's own filter — the
    "that filtered everything away, undo it" reaction of a real user —
    before resuming the chain walk.
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
        self._walker = None
        self._refilter: List[str] = []

    def begin_workflow(self, index: int) -> Optional[WorkflowPlan]:
        if index >= self._per_session:
            return None
        self._start_workflow()
        self._refilter = []
        base_types = sorted(_CHAINS, key=lambda t: t.value)
        if self._workflow_type is WorkflowType.MIXED:
            base = pick(self._rng, base_types)
        elif self._workflow_type in _CHAINS:
            base = self._workflow_type
        else:
            raise WorkflowError(
                f"markov policy cannot run type {self._workflow_type.value!r}"
            )
        self._walker = _CHAINS[base].iter_walk(self._rng)
        return WorkflowPlan(f"markov_{base.value}_{index}", base)

    def observe(self, record) -> None:
        metrics = record.metrics
        if (
            not metrics.tr_violated
            and metrics.bins_delivered <= LOW_CARDINALITY_BINS
            and record.viz_name not in self._refilter
        ):
            self._refilter.append(record.viz_name)

    def _choose(self, view: PolicyView) -> List[Interaction]:
        graph = view.graph
        # Adaptive reaction first: undo filters that emptied a chart.
        while self._refilter:
            name = self._refilter.pop(0)
            if name in graph and graph.node(name).own_filter is not None:
                return [SetFilter(name, None)]
        config = self._generator.config
        for _ in range(16):  # chain walks always reach a feasible action
            action = next(self._walker)
            names = graph.viz_names
            can_create = len(graph) < config.max_vizs
            if not names:
                if not can_create:  # pragma: no cover - max_vizs >= 1
                    return []
                return self._create(self._rng)
            if action == "create" and can_create:
                return self._create(self._rng)
            if action == "extend" and can_create and self._room >= 2:
                source = pick(self._rng, names)
                created = self._create(self._rng)
                target = created[0].viz.name
                return created + [Link(source, target)]
            if action == "select":
                candidates = [n for n in names if graph.children(n)] or names
                return self._select(graph, pick(self._rng, candidates))
            if action in ("filter", "create", "extend"):
                target = pick(self._rng, names)
                node = graph.node(target)
                if node.own_filter is not None and self._rng.random() < 0.12:
                    return [SetFilter(target, None)]  # clear (undo)
                return self._filter(graph, target)
        return []


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

    def begin_workflow(self, index: int) -> Optional[WorkflowPlan]:
        plan = super().begin_workflow(index)
        if plan is None:
            return None
        # Strain is per task: a violated record at the end of the
        # previous workflow must not make the user give up on the next
        # one before it produced anything.
        self._last_record = None
        return WorkflowPlan(f"load_adaptive_{index}", plan.workflow_type)

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

    def _choose(self, view: PolicyView) -> List[Interaction]:
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
                return [DiscardViz(newest)]
            return []  # one chart left: the user gives up on this task
        return super()._choose(view)


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

    def begin_workflow(self, index: int) -> Optional[WorkflowPlan]:
        if index >= self._per_session:
            return None
        self._start_workflow()
        self._uncertainty = {}
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

    def _choose(self, view: PolicyView) -> List[Interaction]:
        graph = view.graph
        config = self._generator.config
        can_create = len(graph) < config.max_vizs
        if not graph.viz_names:
            return self._create(self._rng)
        target = self._chase_target(graph)
        explore = (
            self._emitted % self._explore_every == self._explore_every - 1
        )
        if explore and can_create and self._room >= 2:
            created = self._create(self._rng)
            detail = created[0].viz.name
            return created + [Link(target, detail)]
        if graph.children(target):
            return self._select(graph, target)
        return self._filter(graph, target)


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
    if name == "markov":
        if generator is None:
            raise WorkflowError("markov policy requires a workflow generator")
        return MarkovPolicy(
            generator, per_session, workflow_type=workflow_type, seed=seed
        )
    if name == "uncertainty":
        if generator is None:
            raise WorkflowError("uncertainty policy requires a workflow generator")
        return UncertaintyChaserPolicy(generator, per_session, seed=seed)
    if name == "load-adaptive":
        if generator is None:
            raise WorkflowError(
                "load-adaptive policy requires a workflow generator"
            )
        return LoadAdaptivePolicy(
            generator, per_session, workflow_type=workflow_type, seed=seed
        )
    raise WorkflowError(
        f"unknown policy {name!r} (choose from: {', '.join(POLICY_NAMES)})"
    )


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
