"""JSON-serializable workflow and interaction specifications (paper Fig. 4).

A *workflow* is a named sequence of interactions. The interaction
vocabulary mirrors §4.3: *"Creating a visualization i.e., formulating and
executing query, filtering/selecting, linking visualizations, and
discarding a visualization."*

Every class round-trips through plain dictionaries (and thus JSON files),
which is the benchmark's on-disk workload format — generated workflow
suites are written once and can be re-run, inspected with the viewer, or
shared for reproducibility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.common.errors import WorkflowError
from repro.query.filters import Filter, filter_from_dict
from repro.query.model import Aggregate, AggQuery, BinDimension, BinKey


class WorkflowType(Enum):
    """The four generated workflow types of Fig. 3, plus mixed and custom."""

    INDEPENDENT = "independent"
    SEQUENTIAL = "sequential"
    ONE_TO_N = "one_to_n"
    N_TO_ONE = "n_to_1"
    MIXED = "mixed"
    CUSTOM = "custom"


@dataclass(frozen=True)
class VizSpec:
    """A visualization: its data source, binning, and aggregates.

    The workload generator emits fully *resolved* bin dimensions (concrete
    width/reference) — it performs the min/max resolution a frontend would
    do before first render — so engines never see unresolved binnings.
    """

    name: str
    source: str
    bins: Tuple[BinDimension, ...]
    aggregates: Tuple[Aggregate, ...]

    def __post_init__(self):
        if not self.name:
            raise WorkflowError("visualization needs a name")
        if not self.bins:
            raise WorkflowError(f"viz {self.name!r} needs at least one bin dimension")
        if not self.aggregates:
            raise WorkflowError(f"viz {self.name!r} needs at least one aggregate")

    def base_query(self, filter_expr: Optional[Filter] = None) -> AggQuery:
        """The query this viz runs when its effective filter is ``filter_expr``."""
        return AggQuery(
            table=self.source,
            bins=self.bins,
            aggregates=self.aggregates,
            filter=filter_expr,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "source": self.source,
            "binning": [dim.to_dict() for dim in self.bins],
            "aggregates": [agg.to_dict() for agg in self.aggregates],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VizSpec":
        return cls(
            name=data["name"],
            source=data["source"],
            bins=tuple(BinDimension.from_dict(d) for d in data["binning"]),
            aggregates=tuple(Aggregate.from_dict(a) for a in data["aggregates"]),
        )


class Interaction:
    """Base class of all user interactions."""

    kind: str = ""

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: dict) -> "Interaction":
        kind = data.get("type")
        parser = _INTERACTION_PARSERS.get(kind)
        if parser is None:
            raise WorkflowError(f"unknown interaction type {kind!r}")
        return parser(data)


@dataclass(frozen=True)
class CreateViz(Interaction):
    """Create a visualization → one new query (interactions 1, 3, 4 in Fig. 3)."""

    viz: VizSpec
    kind = "create_viz"

    def to_dict(self) -> dict:
        return {"type": self.kind, "viz": self.viz.to_dict()}


@dataclass(frozen=True)
class SetFilter(Interaction):
    """Set (or clear, with ``filter=None``) a viz's own filter widget."""

    viz_name: str
    filter: Optional[Filter]
    kind = "set_filter"

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "viz": self.viz_name,
            "filter": self.filter.to_dict() if self.filter else None,
        }


@dataclass(frozen=True)
class Link(Interaction):
    """Link ``source`` → ``target`` (interaction 5 in Fig. 3)."""

    source: str
    target: str
    kind = "link"

    def to_dict(self) -> dict:
        return {"type": self.kind, "source": self.source, "target": self.target}


@dataclass(frozen=True)
class SelectBins(Interaction):
    """Select bins in a viz, cross-filtering its linked descendants.

    ``keys`` are bin keys of the viz's binning; an empty tuple clears the
    selection.
    """

    viz_name: str
    keys: Tuple[BinKey, ...]
    kind = "select_bins"

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "viz": self.viz_name,
            "keys": [list(key) for key in self.keys],
        }


@dataclass(frozen=True)
class DiscardViz(Interaction):
    """Remove a visualization (and its links) from the dashboard."""

    viz_name: str
    kind = "discard_viz"

    def to_dict(self) -> dict:
        return {"type": self.kind, "viz": self.viz_name}


def _parse_create(data: dict) -> CreateViz:
    return CreateViz(VizSpec.from_dict(data["viz"]))


def _parse_set_filter(data: dict) -> SetFilter:
    return SetFilter(data["viz"], filter_from_dict(data.get("filter")))


def _parse_link(data: dict) -> Link:
    return Link(data["source"], data["target"])


def _parse_select(data: dict) -> SelectBins:
    keys = tuple(
        tuple(int(c) if isinstance(c, (int, float)) and not isinstance(c, bool) else str(c) for c in key)
        for key in data["keys"]
    )
    return SelectBins(data["viz"], keys)


def _parse_discard(data: dict) -> DiscardViz:
    return DiscardViz(data["viz"])


_INTERACTION_PARSERS = {
    "create_viz": _parse_create,
    "set_filter": _parse_set_filter,
    "link": _parse_link,
    "select_bins": _parse_select,
    "discard_viz": _parse_discard,
}


@dataclass(frozen=True)
class Workflow:
    """A named, typed sequence of interactions (one benchmark unit).

    ``interactions`` is a tuple for loaded and hand-built workflows and
    a lazily materialized read-only sequence, equal to that tuple, for
    generated ones (:mod:`repro.workflow.generator`).
    """

    name: str
    workflow_type: WorkflowType
    interactions: Sequence[Interaction]

    def __post_init__(self):
        if not self.name:
            raise WorkflowError("workflow needs a name")
        if not self.interactions:
            raise WorkflowError(f"workflow {self.name!r} has no interactions")

    @property
    def num_interactions(self) -> int:
        return len(self.interactions)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.workflow_type.value,
            "interactions": [interaction.to_dict() for interaction in self.interactions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Workflow":
        return cls(
            name=data["name"],
            workflow_type=WorkflowType(data["type"]),
            interactions=tuple(
                Interaction.from_dict(item) for item in data["interactions"]
            ),
        )

    def to_json(self, path: Union[str, Path]) -> None:
        """Write this workflow to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "Workflow":
        """Load a workflow previously written with :meth:`to_json`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def save_suite(workflows: Sequence[Workflow], directory: Union[str, Path]) -> List[Path]:
    """Write each workflow to ``directory/<name>.json``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for workflow in workflows:
        path = directory / f"{workflow.name}.json"
        workflow.to_json(path)
        paths.append(path)
    return paths


def load_suite(directory: Union[str, Path]) -> List[Workflow]:
    """Load every ``*.json`` workflow in ``directory`` (sorted by name)."""
    directory = Path(directory)
    return [Workflow.from_json(path) for path in sorted(directory.glob("*.json"))]
