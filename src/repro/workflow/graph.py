"""The visualization dependency graph the benchmark driver maintains (§4.4).

*"Dash-boards built by users using an IDE frontend can be seen as
dependency graphs of visualization and filter objects. Changing properties
of either object may require all dependent visualization to update, which
on the database-level leads to multiple concurrent queries per
interaction."* (§2.2)

:class:`VizGraph` tracks visualizations, their own filters and selections,
and the directed links between them. It answers the two questions the
driver asks on every interaction:

* **which visualizations must update?** (:meth:`apply` returns them) —
  this determines how many concurrent queries the engine receives;
* **what is each viz's effective predicate?**
  (:meth:`effective_filter`) — the viz's own filter conjoined with the
  selection+filter state of every upstream viz reachable through links
  (Vizdom semantics, Fig. 1c).

Links must form a DAG; creating a cycle raises
:class:`~repro.common.errors.WorkflowError`.

A scripted workflow's queries depend on its interactions alone — not on
the engine, the TR or the dataset — so :class:`QueryPlan` replays each
:class:`~repro.workflow.spec.Workflow` object through one graph, once,
and every run of it reads the same :class:`PlannedStep` per interaction
(:attr:`Workflow.query_plan <repro.workflow.spec.Workflow.query_plan>`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import WorkflowError
from repro.query.filters import (
    And,
    Comparison,
    Filter,
    Or,
    RangePredicate,
    SetPredicate,
    conjoin,
)
from repro.query.model import AggQuery, BinKey, BinKind
from repro.workflow.spec import (
    CreateViz,
    DiscardViz,
    Interaction,
    Link,
    SelectBins,
    SetFilter,
    VizSpec,
)


@dataclass
class VizNode:
    """Mutable state of one visualization on the dashboard."""

    spec: VizSpec
    own_filter: Optional[Filter] = None
    selection: Tuple[BinKey, ...] = ()

    def selection_filter(self) -> Optional[Filter]:
        """Predicate equivalent of the current selection (None if empty).

        Each selected bin key becomes a conjunction of per-dimension
        predicates (range for quantitative coordinates, equality for
        nominal ones); multiple keys are OR-ed. A pure-nominal 1-D
        selection collapses to a single ``IN`` predicate, matching the SQL
        an IDE frontend would emit.
        """
        if not self.selection:
            return None
        dims = self.spec.bins
        if len(dims) == 1 and dims[0].kind is BinKind.NOMINAL:
            return SetPredicate(
                dims[0].field, frozenset(str(key[0]) for key in self.selection)
            )
        per_key: List[Filter] = []
        for key in self.selection:
            if len(key) != len(dims):
                raise WorkflowError(
                    f"selection key {key!r} does not match binning of "
                    f"{self.spec.name!r}"
                )
            parts: List[Filter] = []
            for dim, coord in zip(dims, key):
                if dim.kind is BinKind.QUANTITATIVE:
                    low, high = dim.bin_interval(int(coord))
                    parts.append(RangePredicate(dim.field, low, high))
                else:
                    parts.append(Comparison(dim.field, "=", str(coord)))
            per_key.append(parts[0] if len(parts) == 1 else And(*parts))
        return per_key[0] if len(per_key) == 1 else Or(*per_key)


@dataclass
class AppliedInteraction:
    """Outcome of :meth:`VizGraph.apply`.

    ``affected`` lists the visualizations that must re-query, in
    deterministic (insertion) order — the driver submits one concurrent
    query per entry.
    """

    affected: Tuple[str, ...]
    removed: Tuple[str, ...] = ()


class VizGraph:
    """Dashboard state: viz nodes plus directed links (a DAG)."""

    def __init__(self):
        self._nodes: Dict[str, VizNode] = {}
        self._links: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def viz_names(self) -> List[str]:
        return list(self._nodes)

    @property
    def links(self) -> List[Tuple[str, str]]:
        return list(self._links)

    def node(self, name: str) -> VizNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise WorkflowError(f"unknown visualization {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def parents(self, name: str) -> List[str]:
        """Sources of incoming links, in link-creation order."""
        return [src for src, dst in self._links if dst == name]

    def children(self, name: str) -> List[str]:
        """Targets of outgoing links, in link-creation order."""
        return [dst for src, dst in self._links if src == name]

    def descendants(self, name: str) -> List[str]:
        """All vizs reachable through outgoing links (BFS order, no dups)."""
        seen: List[str] = []
        frontier = self.children(name)
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.append(current)
            frontier.extend(self.children(current))
        return seen

    # ------------------------------------------------------------------
    # Effective predicate
    # ------------------------------------------------------------------
    def effective_filter(self, name: str) -> Optional[Filter]:
        """The full predicate viz ``name`` queries under.

        Own filter ∧ for every parent: (parent's selection ∧ parent's
        effective filter). Recursion is safe because links form a DAG.
        """
        node = self.node(name)
        parts: List[Optional[Filter]] = [node.own_filter]
        for parent_name in self.parents(name):
            parent = self.node(parent_name)
            parts.append(
                conjoin([parent.selection_filter(), self.effective_filter(parent_name)])
            )
        return conjoin(parts)

    def query_for(self, name: str) -> AggQuery:
        """The query viz ``name`` currently needs answered."""
        node = self.node(name)
        return node.spec.base_query(self.effective_filter(name))

    # ------------------------------------------------------------------
    # Interaction application
    # ------------------------------------------------------------------
    def apply(self, interaction: Interaction) -> AppliedInteraction:
        """Mutate the graph and report which vizs must update.

        Update semantics (§2.2): *"When data of a source visualization is
        either filtered or selected, either the source and the target, or
        just the target visualization are forced to update."* We use:
        filters update the source and its descendants; selections update
        descendants only (the source just highlights).
        """
        if isinstance(interaction, CreateViz):
            return self._apply_create(interaction.viz)
        if isinstance(interaction, SetFilter):
            return self._apply_set_filter(interaction.viz_name, interaction.filter)
        if isinstance(interaction, Link):
            return self._apply_link(interaction.source, interaction.target)
        if isinstance(interaction, SelectBins):
            return self._apply_select(interaction.viz_name, interaction.keys)
        if isinstance(interaction, DiscardViz):
            return self._apply_discard(interaction.viz_name)
        raise WorkflowError(
            f"unknown interaction type {type(interaction).__name__}"
        )

    def _apply_create(self, spec: VizSpec) -> AppliedInteraction:
        if spec.name in self._nodes:
            raise WorkflowError(f"visualization {spec.name!r} already exists")
        self._nodes[spec.name] = VizNode(spec=spec)
        return AppliedInteraction(affected=(spec.name,))

    def _apply_set_filter(
        self, name: str, filter_expr: Optional[Filter]
    ) -> AppliedInteraction:
        node = self.node(name)
        node.own_filter = filter_expr
        return AppliedInteraction(affected=self._dedupe([name] + self.descendants(name)))

    def _apply_link(self, source: str, target: str) -> AppliedInteraction:
        if source == target:
            raise WorkflowError(f"cannot link {source!r} to itself")
        self.node(source)
        self.node(target)
        if (source, target) in self._links:
            raise WorkflowError(f"link {source!r} → {target!r} already exists")
        if source == target or source in self.descendants(target):
            raise WorkflowError(
                f"link {source!r} → {target!r} would create a cycle"
            )
        self._links.append((source, target))
        # The target now draws from the source's data: it and everything
        # downstream of it must refresh.
        return AppliedInteraction(affected=self._dedupe([target] + self.descendants(target)))

    def _apply_select(self, name: str, keys: Tuple[BinKey, ...]) -> AppliedInteraction:
        node = self.node(name)
        node.selection = tuple(tuple(k) for k in keys)
        return AppliedInteraction(affected=tuple(self.descendants(name)))

    def _apply_discard(self, name: str) -> AppliedInteraction:
        self.node(name)
        downstream = self.descendants(name)
        del self._nodes[name]
        self._links = [
            (src, dst) for src, dst in self._links if src != name and dst != name
        ]
        still_present = [viz for viz in downstream if viz in self._nodes]
        return AppliedInteraction(
            affected=tuple(still_present), removed=(name,)
        )

    @staticmethod
    def _dedupe(names: List[str]) -> Tuple[str, ...]:
        seen: List[str] = []
        for name in names:
            if name not in seen:
                seen.append(name)
        return tuple(seen)


class PlannedStep(NamedTuple):
    """What firing one interaction submits and hands the engine (§4.4).

    ``submitted`` holds one ``(viz_name, query)`` pair per affected viz,
    in submission order. ``discarded`` is the query of the viz a
    :class:`DiscardViz` removes, as it stood just before. On a
    :class:`Link`, ``link_source`` is the source's query and
    ``speculation`` the driver's speculative-hint inputs: the source's
    spec, the target's spec, the target's own filter and the upstream
    filter (the source's effective filter).
    """

    interaction: Interaction
    submitted: Tuple[Tuple[str, AggQuery], ...]
    discarded: Optional[AggQuery] = None
    link_source: Optional[AggQuery] = None
    speculation: Optional[
        Tuple[VizSpec, VizSpec, Optional[Filter], Optional[Filter]]
    ] = None


def derive_step(graph: VizGraph, interaction: Interaction) -> PlannedStep:
    """Apply ``interaction`` to ``graph``; the queries it derives."""
    discarded = None
    if isinstance(interaction, DiscardViz) and interaction.viz_name in graph:
        discarded = graph.query_for(interaction.viz_name)
    applied = graph.apply(interaction)
    link_source = speculation = None
    if isinstance(interaction, Link):
        link_source = graph.query_for(interaction.source)
        target = graph.node(interaction.target)
        speculation = (
            graph.node(interaction.source).spec,
            target.spec,
            target.own_filter,
            link_source.filter,
        )
    submitted = tuple((name, graph.query_for(name)) for name in applied.affected)
    return PlannedStep(interaction, submitted, discarded, link_source, speculation)


class QueryPlan:
    """A scripted workflow's :class:`PlannedStep` per interaction.

    Built lazily: ``plan[i]`` replays the interactions only up to *i*
    and reads ``interactions[i]`` no earlier (generated workflows
    materialize on read, and a departing session fires only a prefix).
    A step whose interaction is invalid raises its
    :class:`~repro.common.errors.WorkflowError` and leaves the plan as it
    was, so every run of the workflow fails at the same step. Once every
    step is derived the graph is dropped.
    """

    __slots__ = ("_interactions", "_graph", "_steps")

    def __init__(self, interactions: Sequence[Interaction]):
        self._interactions = interactions
        self._graph: Optional[VizGraph] = VizGraph()
        self._steps: List[PlannedStep] = []

    def __len__(self) -> int:
        return len(self._interactions)

    def __getitem__(self, index: int) -> PlannedStep:
        steps = self._steps
        while len(steps) <= index:
            interaction = self._interactions[len(steps)]
            try:
                steps.append(derive_step(self._graph, interaction))
            except Exception:
                # The graph may have changed before a later read failed.
                self._graph = VizGraph()
                for step in steps:
                    self._graph.apply(step.interaction)
                raise
            if len(steps) == len(self._interactions):
                self._graph = None
        return steps[index]
