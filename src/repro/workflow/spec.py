"""JSON-serializable workflow and interaction specifications (paper Fig. 4).

A *workflow* is a named sequence of interactions. The interaction
vocabulary mirrors §4.3: *"Creating a visualization i.e., formulating and
executing query, filtering/selecting, linking visualizations, and
discarding a visualization."*

Every class round-trips through plain dictionaries (and thus JSON files)
via :mod:`repro.common.codec`, which is the benchmark's on-disk workload
format — generated workflow suites are written once and can be re-run,
inspected with the viewer, or shared for reproducibility.
"""

from __future__ import annotations

import errno
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.common import codec
from repro.common.errors import ConfigurationError, WorkflowError
from repro.query.filters import Filter
from repro.query.model import Aggregate, AggQuery, BinDimension, BinKey


class WorkflowType(Enum):
    """The four generated workflow types of Fig. 3, plus mixed and custom."""

    INDEPENDENT = "independent"
    SEQUENTIAL = "sequential"
    ONE_TO_N = "one_to_n"
    N_TO_ONE = "n_to_1"
    MIXED = "mixed"
    CUSTOM = "custom"

    @classmethod
    def parse(cls, name: Union[str, "WorkflowType"]) -> "WorkflowType":
        """The member named ``name``; a typed error for any other name."""
        try:
            return cls(name)
        except ValueError:
            valid = tuple(member.value for member in cls)
            raise ConfigurationError(
                f"unknown workflow type {name!r}; expected one of {valid}"
            ) from None


@dataclass(frozen=True)
class VizSpec(codec.Codable, error=WorkflowError):
    """A visualization: its data source, binning, and aggregates.

    The workload generator emits fully *resolved* bin dimensions (concrete
    width/reference) — it performs the min/max resolution a frontend would
    do before first render — so engines never see unresolved binnings.
    """

    name: str
    source: str
    bins: Tuple[BinDimension, ...] = field(metadata=codec.key("binning"))
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


class Interaction(codec.Codable, error=WorkflowError):
    """Base class of all user interactions; ``Interaction.from_dict``
    reads any of them by its ``"type"`` tag (the subclass's ``kind``)."""

    kind: str = ""


@dataclass(frozen=True)
class CreateViz(Interaction):
    """Create a visualization → one new query (interactions 1, 3, 4 in Fig. 3)."""

    viz: VizSpec
    kind = "create_viz"


@dataclass(frozen=True)
class SetFilter(Interaction):
    """Set (or clear, with ``filter=None``) a viz's own filter widget."""

    viz_name: str = field(metadata=codec.key("viz"))
    filter: Optional[Filter] = None
    kind = "set_filter"


@dataclass(frozen=True)
class Link(Interaction):
    """Link ``source`` → ``target`` (interaction 5 in Fig. 3)."""

    source: str
    target: str
    kind = "link"


@dataclass(frozen=True)
class SelectBins(Interaction):
    """Select bins in a viz, cross-filtering its linked descendants.

    ``keys`` are bin keys of the viz's binning; an empty tuple clears the
    selection.
    """

    viz_name: str = field(metadata=codec.key("viz"))
    keys: Tuple[BinKey, ...]
    kind = "select_bins"

    @classmethod
    def from_dict(cls, data: dict) -> "SelectBins":
        # Coordinates are coerced as they always were: finite numbers to
        # int bin indexes, anything else to category strings.
        keys = data.get("keys") if isinstance(data, dict) else None
        if isinstance(keys, list) and all(isinstance(key, list) for key in keys):
            data = {**data, "keys": [[_coordinate(c) for c in key] for key in keys]}
        return super().from_dict(data)


def _coordinate(value) -> Union[int, str]:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return int(value)
    return str(value)


@dataclass(frozen=True)
class DiscardViz(Interaction):
    """Remove a visualization (and its links) from the dashboard."""

    viz_name: str = field(metadata=codec.key("viz"))
    kind = "discard_viz"


codec.union(
    Interaction, "type",
    {cls.kind: cls for cls in (CreateViz, SetFilter, Link, SelectBins, DiscardViz)},
    noun="interaction", label="{} interaction",
)


@dataclass(frozen=True)
class Workflow(codec.Codable, error=WorkflowError):
    """A named, typed sequence of interactions (one benchmark unit).

    ``interactions`` is a tuple for loaded and hand-built workflows and
    a lazily materialized read-only sequence, equal to that tuple, for
    generated ones (:mod:`repro.workflow.generator`).
    """

    name: str
    workflow_type: WorkflowType = field(metadata=codec.key("type"))
    interactions: Sequence[Interaction]

    def __post_init__(self):
        if not self.name:
            raise WorkflowError("workflow needs a name")
        if not self.interactions:
            raise WorkflowError(f"workflow {self.name!r} has no interactions")

    @property
    def num_interactions(self) -> int:
        return len(self.interactions)

    @cached_property
    def query_plan(self):
        """The workflow's :class:`~repro.workflow.graph.QueryPlan`, one
        per instance: every run of this object reads the same queries.

        Like :attr:`AggQuery.digest <repro.query.model.AggQuery.digest>`
        it lives in the instance ``__dict__``, so ``==``, the codec and
        pickles never see it.
        """
        from repro.workflow.graph import QueryPlan  # graph imports this module

        return QueryPlan(self.interactions)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("query_plan", None)
        return state


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
    """Load every ``*.json`` workflow in ``directory`` (sorted by name).

    A missing directory raises :class:`FileNotFoundError`, and one holding
    no ``*.json`` file raises :class:`WorkflowError`: a run needs workflows.
    """
    directory = Path(directory)
    if not directory.exists():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(directory))
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise WorkflowError(f"no workflow (*.json) in {directory}")
    return [Workflow.from_json(path) for path in paths]
