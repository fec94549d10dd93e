"""Run-matrix planning: enumerate experiment cells as :class:`RunSpec`\\ s.

Planners produce cells *declaratively*, in a deterministic order, without
executing anything. :func:`plan_matrix` is the §5 cross-product (engines
× sizes × schemas × workflow types × TRs): ``repro run-matrix`` and the
``exp_*`` harness functions of Fig. 5 and 6a–6e and §5.6 all plan
through it. The other planners build the cells it cannot:
:func:`plan_think_time` the speculation probe of Fig. 6f,
:func:`plan_detailed_table` Table 1's one-workflow slice,
:func:`plan_prep_times` the §5.2 ``prepare`` cells, and
:func:`plan_sessions` and :func:`plan_adaptive` the ``serve`` cells of
``repro bench-sessions`` and ``repro bench-adaptive``. Every planner
validates its whole product while building it, so a bad value fails
before any cell runs.

Plan order is part of the contract: executors return results aligned with
the planned order (never completion order), which is what makes parallel
aggregation byte-identical to serial.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.config import (
    BenchmarkSettings,
    DataSize,
    DEFAULT_TIME_REQUIREMENTS,
)
from repro.common.errors import ConfigurationError
from repro.runtime.spec import (
    CHURN_MODES,
    RunSpec,
    ServingSelector,
    WorkflowSelector,
)

#: Schema layout labels accepted by :func:`plan_matrix`.
SCHEMA_LAYOUTS = ("denormalized", "normalized")

#: Serving modes accepted by :func:`plan_sessions`.
SERVING_MODES = ("isolated", "shared")


def plan_matrix(
    settings: BenchmarkSettings,
    engines: Sequence[str],
    time_requirements: Sequence[float] = DEFAULT_TIME_REQUIREMENTS,
    sizes: Optional[Sequence[DataSize]] = None,
    workflow_types: Sequence[str] = ("mixed",),
    per_type: Optional[int] = None,
    schemas: Sequence[str] = ("denormalized",),
    speculation: bool = False,
) -> List[RunSpec]:
    """The general cross-product: engines × sizes × schemas × types × TRs."""
    sizes = tuple(sizes) if sizes is not None else (settings.data_size,)
    count = per_type if per_type is not None else settings.workflows_per_type
    for schema in schemas:
        if schema not in SCHEMA_LAYOUTS:
            raise ConfigurationError(
                f"unknown schema layout {schema!r}; expected one of {SCHEMA_LAYOUTS}"
            )
    specs: List[RunSpec] = []
    for engine in engines:
        for size in sizes:
            for schema in schemas:
                normalized = schema == "normalized"
                for workflow_type in workflow_types:
                    for tr in time_requirements:
                        specs.append(
                            RunSpec(
                                engine=engine,
                                settings=settings.with_(
                                    time_requirement=float(tr),
                                    data_size=size,
                                    use_joins=normalized,
                                ),
                                workflows=WorkflowSelector(
                                    workflow_type=workflow_type, count=count
                                ),
                                normalized=normalized,
                                speculation=speculation,
                            )
                        )
    return specs


def plan_think_time(
    settings: BenchmarkSettings,
    think_times: Sequence[float],
    time_requirement: float,
    size: DataSize,
    speculation: bool,
) -> List[RunSpec]:
    """Fig. 6f cells: IDEA with speculation over a think-time sweep."""
    return [
        RunSpec(
            engine="idea-sim",
            settings=settings.with_(
                think_time=float(think),
                time_requirement=time_requirement,
                data_size=size,
            ),
            workflows=WorkflowSelector(kind="speculation", count=1),
            speculation=speculation,
        )
        for think in think_times
    ]


def plan_detailed_table(
    settings: BenchmarkSettings,
    engine: str,
    time_requirement: float,
    think_time: float,
    size: DataSize,
) -> List[RunSpec]:
    """Table 1 cell: the third mixed workflow on one engine."""
    return [
        RunSpec(
            engine=engine,
            settings=settings.with_(
                time_requirement=time_requirement,
                think_time=think_time,
                data_size=size,
            ),
            workflows=WorkflowSelector(
                workflow_type="mixed", count=3, start=2, stop=3
            ),
        )
    ]


def plan_prep_times(
    settings: BenchmarkSettings,
    engines: Sequence[str],
    size: DataSize,
) -> List[RunSpec]:
    """§5.2 cells: per-engine data-preparation measurement."""
    cell_settings = settings.with_(data_size=size)
    return [
        RunSpec(
            engine=engine,
            settings=cell_settings,
            mode="prepare",
        )
        for engine in engines
    ]


def plan_sessions(
    settings: BenchmarkSettings,
    engines: Sequence[str],
    session_counts: Sequence[int],
    per_session: int = 2,
    workflow_type: str = "mixed",
    modes: Sequence[str] = SERVING_MODES,
) -> List[RunSpec]:
    """``repro bench-sessions`` cells: engines × session counts × modes."""
    unknown = [mode for mode in modes if mode not in SERVING_MODES]
    if unknown:
        raise ConfigurationError(
            f"unknown serving mode(s) {unknown!r} "
            f"(choose from: isolated, shared)"
        )
    workflows = WorkflowSelector(workflow_type=workflow_type, count=per_session)
    return [
        RunSpec(
            engine=engine,
            settings=settings,
            workflows=workflows,
            mode="serve",
            serving=ServingSelector(sessions, share_engine=mode == "shared"),
        )
        for engine in engines
        for sessions in session_counts
        for mode in modes
    ]


def plan_adaptive(
    settings: BenchmarkSettings,
    engine: str,
    policies: Sequence[str],
    session_counts: Sequence[int],
    per_session: int = 1,
    workflow_type: str = "mixed",
    churn_modes: Sequence[str] = CHURN_MODES,
    arrival_rate: float = 0.1,
    horizon: float = 60.0,
    residence: Optional[float] = 30.0,
    share_engine: bool = False,
) -> List[RunSpec]:
    """``repro bench-adaptive`` cells: policies × session counts × churn.

    Closed cells carry no arrival parameters (see
    :class:`~repro.runtime.spec.ServingSelector`).
    """
    workflows = WorkflowSelector(workflow_type=workflow_type, count=per_session)
    return [
        RunSpec(
            engine=engine,
            settings=settings,
            workflows=workflows,
            mode="serve",
            serving=ServingSelector(
                sessions, share_engine, policy, churn,
                *((arrival_rate, horizon, residence) if churn == "open" else ()),
            ),
        )
        for policy in policies
        for sessions in session_counts
        for churn in churn_modes
    ]
