"""Workflow generation: the four IDE browsing patterns of Fig. 3.

Each workflow type is sampled from a Markov chain over abstract *actions*
(create a viz, extend the link structure, filter, select, discard); every
sampled action is then materialized into one or more concrete interactions
using the dataset's column profiles — quantitative filters are built from
quantiles so their selectivity is controlled, selections target populated
bins, and binnings use the same width/bin-count definitions real frontends
use (§2.2).

A shadow :class:`~repro.workflow.graph.VizGraph` validates every emitted
interaction, so generated workflows are structurally correct by
construction (no dangling viz references, no cyclic links).

Calibration note: ``WorkloadConfig.agg_distribution`` controls the mix of
aggregate functions. The default mix yields ≈65 % of queries that XDB-style
online aggregation cannot execute online (AVG, or several aggregates in
one query) — the fraction behind the paper's headline "approXimateDB
violates the time requirement consistently around 66 %" finding. The mix
is consistent with the paper's own Table 1 trace, which is dominated by
``avg`` and ``count`` queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common import codec
from repro.common.errors import WorkflowError
from repro.common.rng import choice_cdf, derive_rng, pick, pick_weighted, uniform
from repro.data.schema import ColumnKind, ColumnProfile
from repro.query.filters import Filter, RangePredicate, SetPredicate
from repro.query.model import AggFunc, Aggregate, BinDimension, BinKey, BinKind
from repro.workflow.graph import VizGraph
from repro.workflow.markov import MarkovChain
from repro.workflow.spec import (
    CreateViz,
    DiscardViz,
    Interaction,
    Link,
    SelectBins,
    SetFilter,
    VizSpec,
    Workflow,
    WorkflowType,
)


@dataclass(frozen=True)
class WorkloadConfig(codec.Codable, error=WorkflowError, strict=True):
    """Tunable probability distributions of the generator (§4.3).

    All values are defaults of the *default configuration*; research groups
    can adjust them to their scenario, as the paper's customizability
    requirement demands (§3.2).
    """

    #: Bounds on the number of interactions per workflow (inclusive).
    interactions_min: int = 14
    interactions_max: int = 22
    #: Probability that a new viz bins in two dimensions (binned scatter).
    two_dim_probability: float = 0.15
    #: Probability that a 1-D viz bins a nominal column.
    nominal_dim_probability: float = 0.35
    #: Probability that a quantitative dimension uses the fixed-bin-count
    #: definition (resolved against the profile) rather than fixed width.
    bin_count_probability: float = 0.35
    #: Candidate bin counts for the fixed-count definition.
    bin_count_choices: Tuple[int, ...] = (10, 25, 50, 100)
    #: Candidate target bin counts for deriving a "nice" fixed width.
    width_target_bins: Tuple[int, ...] = (10, 20, 40)
    #: Aggregate mix: (spec, weight). ``count+avg`` emits two aggregates.
    agg_distribution: Tuple[Tuple[str, float], ...] = (
        ("count", 0.23),
        ("avg", 0.52),
        ("sum", 0.07),
        ("count+avg", 0.13),
        ("min", 0.025),
        ("max", 0.025),
    )
    #: Range-filter selectivity is drawn log-uniformly from this interval.
    filter_selectivity_range: Tuple[float, float] = (0.005, 0.6)
    #: Maximum number of categories in a nominal filter.
    max_filter_categories: int = 5
    #: Maximum number of bins per selection.
    max_select_keys: int = 3
    #: Cap on simultaneously existing visualizations.
    max_vizs: int = 8
    #: Cap on linked targets (1:N) / sources (N:1) / chain length.
    max_fanout: int = 5

    def __post_init__(self):
        if self.interactions_min < 2 or self.interactions_max < self.interactions_min:
            raise WorkflowError(
                "interaction bounds must satisfy 2 <= min <= max, got "
                f"[{self.interactions_min}, {self.interactions_max}]"
            )
        if not self.agg_distribution:
            raise WorkflowError("aggregate distribution must be non-empty")
        weights = [weight for _, weight in self.agg_distribution]
        if not (
            all(0 <= weight < math.inf for weight in weights)
            and 0 < sum(weights) < math.inf
        ):
            raise WorkflowError(
                "aggregate weights must be finite, non-negative and not all "
                f"zero, got {weights}"
            )
        for name in ("bin_count_choices", "width_target_bins"):
            if not getattr(self, name):
                raise WorkflowError(f"{name} must be non-empty")
        low, high = self.filter_selectivity_range
        if not 0 < low <= high <= 1:
            raise WorkflowError(
                f"selectivity range must satisfy 0 < low <= high <= 1, got "
                f"({low}, {high})"
            )


_CHAINS: Dict[WorkflowType, MarkovChain] = {
    WorkflowType.INDEPENDENT: MarkovChain(
        states=("create", "filter"),
        transitions={
            "create": {"create": 0.45, "filter": 0.55},
            "filter": {"create": 0.30, "filter": 0.70},
        },
        initial="create",
    ),
    WorkflowType.SEQUENTIAL: MarkovChain(
        states=("extend", "select", "filter"),
        transitions={
            "extend": {"extend": 0.45, "select": 0.40, "filter": 0.15},
            "select": {"extend": 0.30, "select": 0.50, "filter": 0.20},
            "filter": {"extend": 0.35, "select": 0.45, "filter": 0.20},
        },
        initial="extend",
    ),
    WorkflowType.ONE_TO_N: MarkovChain(
        states=("extend", "select", "filter"),
        transitions={
            "extend": {"extend": 0.50, "select": 0.40, "filter": 0.10},
            "select": {"extend": 0.25, "select": 0.60, "filter": 0.15},
            "filter": {"extend": 0.25, "select": 0.60, "filter": 0.15},
        },
        initial="extend",
    ),
    WorkflowType.N_TO_ONE: MarkovChain(
        states=("extend", "select", "filter"),
        transitions={
            "extend": {"extend": 0.50, "select": 0.40, "filter": 0.10},
            "select": {"extend": 0.30, "select": 0.55, "filter": 0.15},
            "filter": {"extend": 0.30, "select": 0.55, "filter": 0.15},
        },
        initial="extend",
    ),
}


class WorkflowWalk:
    """One workflow's walk: its budget, what it emitted, the dashboard.

    Its fill (a generator function over the walk, held by the consumer
    so the two form no reference cycle) samples one action per
    ``next()`` and emits its one or two interactions; the consumer
    applies them to :attr:`graph` before the next step reads it.
    Offline the graph is a shadow the walk owns
    (:class:`_LazyInteractions`); a policy points it at the session's
    live dashboard, which the session driver applies to
    (:mod:`repro.workflow.policy`).
    """

    def __init__(self, config: WorkloadConfig, rng: np.random.Generator):
        self.budget = int(
            rng.integers(config.interactions_min, config.interactions_max + 1)
        )
        self.interactions: List[Interaction] = []
        self.graph = VizGraph()
        self._viz_counter = 0

    @property
    def remaining(self) -> int:
        return self.budget - len(self.interactions)

    def emit(self, interaction: Interaction) -> None:
        if self.remaining <= 0:
            raise WorkflowError("interaction budget exhausted")
        self.interactions.append(interaction)

    def next_viz_name(self) -> str:
        name = f"viz_{self._viz_counter}"
        self._viz_counter += 1
        return name


class _LazyInteractions(Sequence):
    """Read-only view of a workflow that is generated as it is read.

    ``len()`` is the budget — every fill emits exactly ``budget``
    interactions — so it costs nothing; reading index *i* advances the
    fill, one sampled action at a time, only until interaction *i*
    exists. The fill owns its RNG stream, so reading later changes no
    byte. Its scalar draws use :mod:`repro.common.rng`'s draw forms
    (``pick``, ``pick_weighted``, ``uniform``): the same stream and
    values as the ``Generator`` calls they replace, at a tenth of the
    cost per draw. ``==``/``hash`` agree with the tuple form and
    pickling reduces to it. Single consumer: a read from inside a
    running fill (another thread, or re-entrantly) fails with
    ``ValueError: generator already executing`` and leaves the
    materialized prefix intact.
    """

    __slots__ = ("_walk", "_fill")

    def __init__(self, walk: WorkflowWalk, fill: Iterator[None]):
        self._walk = walk
        self._fill = fill

    def __len__(self) -> int:
        return self._walk.budget

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        index = range(len(self))[index]  # wraps negatives, IndexError outside
        walk = self._walk
        done = walk.interactions
        while len(done) <= index:
            start = len(done)
            next(self._fill, None)
            if len(done) == start:
                raise WorkflowError(
                    f"fill stopped at {len(done)} of {len(self)} interactions"
                )
            for interaction in done[start:]:  # validates as it mirrors
                walk.graph.apply(interaction)
        return done[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _LazyInteractions)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)

    def __repr__(self) -> str:
        done = len(self._walk.interactions)
        return f"<{len(self)} interactions, {done} materialized>"


class WorkflowGenerator:
    """Samples workflows of the four Fig.-3 types plus mixed.

    Parameters
    ----------
    profiles:
        Column profiles of the (logical, de-normalized) dataset — see
        :func:`repro.data.schema.profile_table`.
    table:
        Logical table name queries reference.
    config:
        Probability distributions (defaults reproduce the paper's setup).
    seed:
        Root seed; the stream for workflow *i* of type *t* is derived as
        ``(seed, "workflow", t, i)``, so suites are stable under growth.
    """

    def __init__(
        self,
        profiles: Dict[str, ColumnProfile],
        table: str,
        config: Optional[WorkloadConfig] = None,
        seed: int = 42,
    ):
        if not profiles:
            raise WorkflowError("generator needs at least one column profile")
        self.profiles = dict(profiles)
        self.table = table
        self.config = config or WorkloadConfig()
        self.seed = seed
        self._quantitative = [
            p for p in self.profiles.values()
            if p.kind is ColumnKind.QUANTITATIVE and p.span > 0
        ]
        self._nominal = [
            p for p in self.profiles.values()
            if p.kind is ColumnKind.NOMINAL and p.cardinality >= 2
        ]
        if not self._quantitative:
            raise WorkflowError("dataset has no usable quantitative columns")
        self._agg_specs, weights = zip(*self.config.agg_distribution)
        weights = np.array(weights, dtype=np.float64)
        self._agg_cdf = choice_cdf(weights / weights.sum())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self, workflow_type: WorkflowType, index: int = 0) -> Workflow:
        """Describe workflow ``index`` of ``workflow_type``.

        Only the budget is drawn here; the interactions materialize from
        the workflow's own RNG stream as they are read (see
        :class:`_LazyInteractions`), so a session that departs early
        never pays for the interactions it did not fire.
        """
        rng = derive_rng(self.seed, "workflow", workflow_type.value, index)
        return Workflow(
            name=f"{workflow_type.value}_{index}",
            workflow_type=workflow_type,
            interactions=_LazyInteractions(*self.walk(rng, workflow_type)),
        )

    def walk(
        self, rng: np.random.Generator, workflow_type: WorkflowType
    ) -> Tuple[WorkflowWalk, Iterator[None]]:
        """Start one workflow of ``workflow_type`` on ``rng``'s stream.

        Draws the budget now and returns the walk with its fill; each
        ``next()`` of the fill samples one action — the type's chain walk
        with its anchored actions, or :meth:`_fill_mixed`'s segments.
        :meth:`generate` and the markov policies
        (:mod:`repro.workflow.policy`) are its two callers.
        """
        walk = WorkflowWalk(self.config, rng)
        if workflow_type is WorkflowType.MIXED:
            return walk, self._fill_mixed(walk, rng)
        if workflow_type in _CHAINS:
            return walk, self._fill_segment(walk, rng, workflow_type, walk.budget)
        raise WorkflowError(
            f"cannot generate workflows of type {workflow_type.value!r}"
        )

    def generate_suite(
        self, workflow_type: WorkflowType, count: int
    ) -> List[Workflow]:
        """Generate ``count`` workflows of one type."""
        return [self.generate(workflow_type, i) for i in range(count)]

    # ------------------------------------------------------------------
    # Public sampling API (shared with the adaptive interaction policies)
    # ------------------------------------------------------------------
    def sample_viz_spec(
        self, rng: np.random.Generator, name: str
    ) -> VizSpec:
        """Sample one visualization spec named ``name``.

        The same materialization the offline generator uses, exposed so
        online policies (:mod:`repro.workflow.policy`) build dashboards
        from the identical distributions.
        """
        if not name:
            raise WorkflowError("viz needs a name")
        return self._sample_viz(None, rng, name)

    def sample_filter(self, rng: np.random.Generator, viz: VizSpec) -> Filter:
        """Sample a filter for ``viz`` (see :meth:`_sample_filter`)."""
        return self._sample_filter(rng, viz)

    def sample_selection(
        self, rng: np.random.Generator, viz: VizSpec
    ) -> Tuple[BinKey, ...]:
        """Sample a bin selection for ``viz`` (see :meth:`_sample_selection`)."""
        return self._sample_selection(rng, viz)

    # ------------------------------------------------------------------
    # Type-specific fills
    # ------------------------------------------------------------------
    def _fill_mixed(
        self, walk: WorkflowWalk, rng: np.random.Generator
    ) -> Iterator[None]:
        """Mixed workflows: consecutive segments of the four base types.

        §5.1: mixed workflows "exhibit usage patterns from all four
        workflow types". The budget is split into three or four segments,
        each running one base type's sampler on the shared dashboard.
        """
        base_types = list(_CHAINS)
        rng.shuffle(base_types)
        num_segments = int(rng.integers(3, 5))
        segments = base_types[:num_segments]
        while walk.remaining > 0:
            for segment_type in segments:
                if walk.remaining <= 0:
                    break
                segment_budget = max(
                    2, min(walk.remaining, walk.budget // num_segments)
                )
                yield from self._fill_segment(
                    walk, rng, segment_type, segment_budget
                )
            # Occasionally tidy up the dashboard, as real users do.
            if walk.remaining > 0 and len(walk.graph) > 4 and rng.random() < 0.4:
                victim = self._pick_leaf(walk, rng)
                if victim is not None:
                    walk.emit(DiscardViz(victim))
                    yield

    def _fill_segment(
        self,
        walk: WorkflowWalk,
        rng: np.random.Generator,
        workflow_type: WorkflowType,
        segment_budget: int,
    ) -> Iterator[None]:
        """Walk one base type's chain for ``segment_budget`` interactions.

        Like every fill, a generator function: it yields after each
        sampled action (one or two emitted interactions). The typed
        action carries its anchor (chain tail, hub or sink) from step to
        step.
        """
        walker = _CHAINS[workflow_type].iter_walk(rng)
        typed_action = self._TYPED_ACTIONS[workflow_type]
        stop_at = len(walk.interactions) + segment_budget
        anchor: Optional[str] = None
        while walk.remaining > 0 and len(walk.interactions) < stop_at:
            anchor = typed_action(self, walk, rng, next(walker), anchor)
            yield

    # -- independent browsing (Fig. 3a) ---------------------------------
    def _independent_action(
        self, walk: WorkflowWalk, rng: np.random.Generator, action: str, _anchor
    ) -> None:
        can_create = len(walk.graph) < self.config.max_vizs
        if action == "create" and can_create or len(walk.graph) == 0:
            walk.emit(CreateViz(self._sample_viz(walk, rng)))
            return
        viz_name = pick(rng, walk.graph.viz_names)
        node = walk.graph.node(viz_name)
        if node.own_filter is not None and rng.random() < 0.12:
            walk.emit(SetFilter(viz_name, None))  # clear (undo)
            return
        walk.emit(SetFilter(viz_name, self._sample_filter(rng, node.spec)))

    # -- sequential linking (Fig. 3b) ------------------------------------
    def _sequential_action(
        self,
        walk: WorkflowWalk,
        rng: np.random.Generator,
        action: str,
        tail: Optional[str],
    ) -> Optional[str]:
        if tail not in walk.graph:  # never set, or discarded by a policy
            tail = None
        chain_members = self._chain_members(walk, tail)
        chain_full = len(chain_members) >= self.config.max_fanout
        if tail is None or (action == "extend" and not chain_full):
            if walk.remaining < 2 and tail is not None:
                action = "select"  # no room for create+link
            else:
                new_name = walk.next_viz_name()
                walk.emit(CreateViz(self._sample_viz(walk, rng, new_name)))
                if tail is not None:
                    if walk.remaining > 0:
                        walk.emit(Link(tail, new_name))
                return new_name
        if action == "filter":
            target = pick(rng, chain_members)
            node = walk.graph.node(target)
            walk.emit(SetFilter(target, self._sample_filter(rng, node.spec)))
            return tail
        # select: prefer non-tail members so descendants exist.
        candidates = [m for m in chain_members if walk.graph.children(m)]
        target = pick(rng, candidates or chain_members)
        node = walk.graph.node(target)
        walk.emit(SelectBins(target, self._sample_selection(rng, node.spec)))
        return tail

    def _chain_members(self, walk: WorkflowWalk, tail: Optional[str]) -> List[str]:
        if tail is None:
            return []
        members = [tail]
        current = tail
        while True:
            parents = walk.graph.parents(current)
            if not parents:
                break
            current = parents[0]
            members.append(current)
        return list(reversed(members))

    # -- 1:N linking (Fig. 3c) -------------------------------------------
    def _one_to_n_action(
        self,
        walk: WorkflowWalk,
        rng: np.random.Generator,
        action: str,
        hub: Optional[str],
    ) -> Optional[str]:
        if hub not in walk.graph:
            name = walk.next_viz_name()
            walk.emit(CreateViz(self._sample_viz(walk, rng, name)))
            return name
        targets = walk.graph.children(hub)
        can_extend = (
            len(targets) < self.config.max_fanout
            and len(walk.graph) < self.config.max_vizs
            and walk.remaining >= 2
        )
        if (action == "extend" or not targets) and can_extend:
            new_name = walk.next_viz_name()
            walk.emit(CreateViz(self._sample_viz(walk, rng, new_name)))
            walk.emit(Link(hub, new_name))
            return hub
        hub_node = walk.graph.node(hub)
        if action == "filter" or not targets:
            # Selections without descendants trigger nothing; prefer a
            # filter (which re-queries the hub itself) in that case.
            walk.emit(SetFilter(hub, self._sample_filter(rng, hub_node.spec)))
        else:
            walk.emit(SelectBins(hub, self._sample_selection(rng, hub_node.spec)))
        return hub

    # -- N:1 linking (Fig. 3d) ---------------------------------------------
    def _n_to_one_action(
        self,
        walk: WorkflowWalk,
        rng: np.random.Generator,
        action: str,
        target: Optional[str],
    ) -> Optional[str]:
        if target not in walk.graph:
            name = walk.next_viz_name()
            walk.emit(CreateViz(self._sample_viz(walk, rng, name)))
            return name
        sources = walk.graph.parents(target)
        can_extend = (
            len(sources) < self.config.max_fanout
            and len(walk.graph) < self.config.max_vizs
            and walk.remaining >= 2
        )
        if (action == "extend" or not sources) and can_extend:
            new_name = walk.next_viz_name()
            walk.emit(CreateViz(self._sample_viz(walk, rng, new_name)))
            walk.emit(Link(new_name, target))
            return target
        if not sources:
            # No sources yet and no room to create one: act on the target.
            target_node = walk.graph.node(target)
            walk.emit(SetFilter(target, self._sample_filter(rng, target_node.spec)))
            return target
        source = pick(rng, sources)
        source_node = walk.graph.node(source)
        if action == "filter":
            walk.emit(SetFilter(source, self._sample_filter(rng, source_node.spec)))
        else:
            walk.emit(SelectBins(source, self._sample_selection(rng, source_node.spec)))
        return target

    #: The typed step of each base type: ``(walk, rng, action, anchor) →
    #: anchor``.
    _TYPED_ACTIONS = {
        WorkflowType.INDEPENDENT: _independent_action,
        WorkflowType.SEQUENTIAL: _sequential_action,
        WorkflowType.ONE_TO_N: _one_to_n_action,
        WorkflowType.N_TO_ONE: _n_to_one_action,
    }

    def _pick_leaf(self, walk: WorkflowWalk, rng: np.random.Generator) -> Optional[str]:
        """A viz with no outgoing links (safe to discard without orphaning)."""
        leaves = [
            name for name in walk.graph.viz_names
            if not walk.graph.children(name)
        ]
        if not leaves:
            return None
        return pick(rng, leaves)

    # ------------------------------------------------------------------
    # Materialization of specs, filters, selections
    # ------------------------------------------------------------------
    def _sample_viz(
        self,
        walk: WorkflowWalk,
        rng: np.random.Generator,
        name: Optional[str] = None,
    ) -> VizSpec:
        name = name or walk.next_viz_name()
        if rng.random() < self.config.two_dim_probability:
            first = self._sample_quantitative_dim(rng)
            if self._nominal and rng.random() < 0.5:
                second = self._sample_nominal_dim(rng, exclude=())
            else:
                second = self._sample_quantitative_dim(rng, exclude=(first.field,))
            bins: Tuple[BinDimension, ...] = (first, second)
        elif self._nominal and rng.random() < self.config.nominal_dim_probability:
            bins = (self._sample_nominal_dim(rng, exclude=()),)
        else:
            bins = (self._sample_quantitative_dim(rng),)
        aggregates = self._sample_aggregates(rng, exclude={d.field for d in bins})
        return VizSpec(name=name, source=self.table, bins=bins, aggregates=aggregates)

    def _sample_quantitative_dim(
        self, rng: np.random.Generator, exclude: Tuple[str, ...] = ()
    ) -> BinDimension:
        candidates = [p for p in self._quantitative if p.name not in exclude]
        profile = pick(rng, candidates)
        if rng.random() < self.config.bin_count_probability:
            bin_count = int(pick(rng, self.config.bin_count_choices))
            # The generator resolves immediately (it has the profile), as
            # the frontend's min/max pre-query would.
            return BinDimension(
                field=profile.name,
                kind=BinKind.QUANTITATIVE,
                bin_count=bin_count,
            ).resolved(profile.minimum, profile.maximum)
        target_bins = int(pick(rng, self.config.width_target_bins))
        width = _nice_width(profile.span / target_bins)
        reference = _nice_floor(profile.minimum, width)
        return BinDimension(
            field=profile.name,
            kind=BinKind.QUANTITATIVE,
            width=width,
            reference=reference,
        )

    def _sample_nominal_dim(
        self, rng: np.random.Generator, exclude: Tuple[str, ...]
    ) -> BinDimension:
        candidates = [p for p in self._nominal if p.name not in exclude]
        if not candidates:
            raise WorkflowError("no nominal columns available")
        profile = pick(rng, candidates)
        return BinDimension(field=profile.name, kind=BinKind.NOMINAL)

    def _sample_aggregates(
        self, rng: np.random.Generator, exclude: set
    ) -> Tuple[Aggregate, ...]:
        choice = pick_weighted(rng, self._agg_specs, self._agg_cdf)
        numeric_candidates = [
            p.name for p in self._quantitative if p.name not in exclude
        ] or [p.name for p in self._quantitative]
        field_name = pick(rng, numeric_candidates)
        if choice == "count":
            return (Aggregate(AggFunc.COUNT),)
        if choice == "count+avg":
            return (Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, field_name))
        return (Aggregate(AggFunc(choice), field_name),)

    def _sample_filter(self, rng: np.random.Generator, viz: VizSpec) -> Filter:
        """A filter on a column *other* than the viz's bin dimensions.

        Filtering a histogram by a different attribute is the dominant
        pattern in the use case of §2.1 ("filter age query by patients
        admitted on weekends"). Selectivity varies over orders of
        magnitude — §5.5 found predicate specificity to be the single most
        performance-relevant workload factor.
        """
        bin_fields = {dim.field for dim in viz.bins}
        if self._nominal and rng.random() < 0.35:
            candidates = [p for p in self._nominal if p.name not in bin_fields]
            if candidates:
                profile = pick(rng, candidates)
                k = int(
                    rng.integers(
                        1, min(self.config.max_filter_categories, profile.cardinality) + 1
                    )
                )
                # Weight toward frequent categories (rank-biased).
                ranks = np.arange(profile.cardinality, dtype=np.float64)
                weights = 1.0 / (1.0 + ranks)
                chosen = rng.choice(
                    profile.cardinality, size=k, replace=False, p=weights / weights.sum()
                )
                return SetPredicate(
                    profile.name,
                    frozenset(profile.categories[int(i)] for i in chosen),
                )
        candidates = [p for p in self._quantitative if p.name not in bin_fields]
        profile = pick(rng, candidates or self._quantitative)
        low_sel, high_sel = self.config.filter_selectivity_range
        # np.exp, not math.exp: the two differ in the last bit.
        selectivity = float(
            np.exp(uniform(rng, np.log(low_sel), np.log(high_sel)))
        )
        start = uniform(rng, 0.0, 1.0 - selectivity)
        low = profile.quantile(start)
        high = profile.quantile(start + selectivity)
        if high <= low:
            high = low + max(profile.span * 0.001, 1e-9)
        return RangePredicate(profile.name, low, high)

    def _sample_selection(
        self, rng: np.random.Generator, viz: VizSpec
    ) -> Tuple[BinKey, ...]:
        """Select 1..max populated-looking bins of ``viz``."""
        num_keys = int(rng.integers(1, self.config.max_select_keys + 1))
        keys: List[BinKey] = []
        for _ in range(num_keys):
            coords = []
            for dim in viz.bins:
                if dim.kind is BinKind.QUANTITATIVE:
                    profile = self.profiles[dim.field]
                    value = profile.quantile(uniform(rng, 0.05, 0.95))
                    coords.append(int(np.floor((value - dim.reference) / dim.width)))
                else:
                    profile = self.profiles[dim.field]
                    top = min(10, profile.cardinality)
                    coords.append(profile.categories[int(rng.integers(top))])
            key = tuple(coords)
            if key not in keys:
                keys.append(key)
        return tuple(keys)


def _nice_width(raw: float) -> float:
    """Round ``raw`` up to a 1/2/5 × 10^m 'nice' bin width."""
    if raw <= 0:
        raise WorkflowError(f"bin width must be positive, got {raw}")
    magnitude = 10.0 ** np.floor(np.log10(raw))
    for factor in (1.0, 2.0, 5.0, 10.0):
        if raw <= factor * magnitude + 1e-12:
            return float(factor * magnitude)
    return float(10.0 * magnitude)


def _nice_floor(value: float, width: float) -> float:
    """Largest multiple of ``width`` not exceeding ``value``."""
    return float(np.floor(value / width) * width)


def generate_default_suite(
    profiles: Dict[str, ColumnProfile],
    table: str,
    workflows_per_type: int = 10,
    config: Optional[WorkloadConfig] = None,
    seed: int = 42,
) -> List[Workflow]:
    """The paper's default workload (§5.1).

    10 workflows per base type plus 10 mixed ones: 50 workflows total with
    the default ``workflows_per_type=10``.
    """
    generator = WorkflowGenerator(profiles, table, config=config, seed=seed)
    suite: List[Workflow] = []
    for workflow_type in (*_CHAINS, WorkflowType.MIXED):
        suite.extend(generator.generate_suite(workflow_type, workflows_per_type))
    return suite
