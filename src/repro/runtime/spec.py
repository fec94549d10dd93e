"""Declarative run-matrix cells: :class:`WorkflowSelector`,
:class:`ServingSelector` and :class:`RunSpec`.

The paper's evaluation is a cross-product — engines × workflow types ×
time requirements × data sizes × schema layouts (§5, Figs. 5–6) — and the
serving sweeps add session counts × serving modes × user policies × churn
(§2.2). The runtime represents every cell of either product as a
:class:`RunSpec`: a frozen, hashable, JSON-round-trippable value that says
*what* to run and nothing about *how* or *where*. That separation is what
lets the executor shard cells across worker processes, key per-cell
artifacts on disk, and resume a crashed matrix without re-planning.

A spec's :meth:`~RunSpec.fingerprint` is the stable digest of its
canonical dictionary (plus the cache schema version), so two equal specs
fingerprint identically in every process — it doubles as the cell's
artifact-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common import codec
from repro.common.config import BenchmarkSettings
from repro.common.errors import ConfigurationError
from repro.common.fingerprint import CACHE_SCHEMA_VERSION, stable_digest
from repro.workflow.policy import POLICY_NAMES
from repro.workflow.spec import WorkflowType

#: Workflow sources a selector can name.
SELECTOR_KINDS = ("generated", "speculation")

#: Execution modes of a cell.
RUN_MODES = ("suite", "prepare", "serve")

#: Churn modes of a serving cell: a fixed population, or Poisson arrivals.
CHURN_MODES = ("closed", "open")


@dataclass(frozen=True)
class WorkflowSelector(codec.Codable, error=ConfigurationError):
    """Which workflows a cell runs, described declaratively.

    ``generated`` selects ``count`` workflows of ``workflow_type`` from the
    deterministic generator (optionally sliced with ``start``/``stop``,
    e.g. Table 1 runs exactly the third mixed workflow); ``speculation``
    selects the custom 4-interaction probe workflow of §5.4.
    """

    kind: str = "generated"
    workflow_type: str = "mixed"
    count: int = 10
    start: int = 0
    stop: Optional[int] = None

    def __post_init__(self):
        if self.kind not in SELECTOR_KINDS:
            raise ConfigurationError(
                f"unknown workflow selector kind {self.kind!r}; "
                f"expected one of {SELECTOR_KINDS}"
            )
        if self.kind == "generated":
            WorkflowType.parse(self.workflow_type)
        if self.count < 1:
            raise ConfigurationError(
                f"selector count must be >= 1 (per_session in a serve "
                f"cell), got {self.count!r}"
            )
        if self.start < 0:
            raise ConfigurationError(f"selector start must be >= 0, got {self.start!r}")


@dataclass(frozen=True)
class ServingSelector(codec.Codable, error=ConfigurationError, strict=True):
    """How a ``mode="serve"`` cell serves its sessions.

    ``closed`` cells serve exactly ``sessions`` users from time zero;
    ``open`` cells draw Poisson arrivals (``arrival_rate`` per virtual
    second until ``horizon``, mean stay ``residence``, optionally shaped
    by an ``arrival_schedule`` such as ``"diurnal"``) capped at
    ``sessions``. ``policy`` is ``"scripted"`` or an adaptive user model.
    Closed cells take no arrival fields, so tuning arrivals never re-keys
    a closed cell. Construction is the one place an invalid serving
    configuration is rejected, for planned sweeps and ``repro serve``
    alike.
    """

    sessions: int
    share_engine: bool = False
    policy: str = "scripted"
    churn: str = "closed"
    arrival_rate: Optional[float] = None
    horizon: Optional[float] = None
    residence: Optional[float] = None
    #: Only written when set: every serve cell planned before schedules
    #: were a field keeps its fingerprint (and its cached result).
    arrival_schedule: Optional[str] = field(default=None, metadata=codec.OMIT_UNSET)

    def __post_init__(self):
        if self.sessions < 1:
            raise ConfigurationError(
                f"serving cells need >= 1 session, got {self.sessions!r}"
            )
        known = ("scripted",) + POLICY_NAMES
        if self.policy not in known:
            raise ConfigurationError(
                f"unknown policies: {self.policy} "
                f"(choose from {', '.join(known)})"
            )
        if self.churn not in CHURN_MODES:
            raise ConfigurationError(
                f"unknown churn mode {self.churn!r} (choose from: closed, open)"
            )
        if self.churn == "closed" and any(value is not None for value in (
            self.arrival_rate, self.horizon, self.residence,
            self.arrival_schedule,
        )):
            raise ConfigurationError(
                "--horizon/--residence/--arrival-schedule configure the "
                "open-system arrival process and need --arrivals RATE; "
                "without it the run is a closed system and they would be "
                "silently ignored"
            )
        if self.churn == "open":
            if self.arrival_rate is None or self.horizon is None:
                raise ConfigurationError(
                    "open serving cells need an arrival rate and a horizon"
                )
            self.population(seed=0)  # a bad rate must not surface mid-sweep

    def population(self, seed: int):
        """What the cell's manager serves: ``sessions`` for a closed cell,
        an open one's :class:`~repro.server.manager.ArrivalProcess`."""
        from repro.server.manager import ArrivalProcess, RateSchedule

        if self.churn == "closed":
            return self.sessions
        return ArrivalProcess(
            self.arrival_rate, self.horizon, seed=seed,
            mean_residence=self.residence, max_sessions=self.sessions,
            rate_schedule=None if self.arrival_schedule is None else (
                RateSchedule.parse(
                    self.arrival_schedule, self.arrival_rate, self.horizon
                )
            ),
        )


@dataclass(frozen=True)
class RunSpec(codec.Codable, error=ConfigurationError):
    """One cell of the run matrix — a hashable unit of benchmark work.

    ``mode="suite"`` runs the selected workflows on ``engine`` and yields
    detailed query records; ``mode="prepare"`` only measures the engine's
    modeled data-preparation time (§5.2); ``mode="serve"`` serves
    ``serving.sessions`` sessions of ``workflows.count`` workflows each
    through the session server and yields the run's aggregate report
    fields. ``label`` is a caller's free-form tag that nothing here reads;
    it is excluded from the fingerprint, so relabeling a cell never
    invalidates its cached artifacts.
    """

    engine: str
    settings: BenchmarkSettings
    workflows: WorkflowSelector = field(default_factory=WorkflowSelector)
    normalized: bool = False
    speculation: bool = False
    mode: str = "suite"
    label: str = ""
    #: Only written when set: suite and prepare fingerprints (every cached
    #: cell) stay exactly what they were before serve cells existed.
    serving: Optional[ServingSelector] = field(default=None, metadata=codec.OMIT_UNSET)

    def __post_init__(self):
        if not self.engine:
            raise ConfigurationError("run spec needs an engine name")
        if self.mode not in RUN_MODES:
            raise ConfigurationError(
                f"unknown run mode {self.mode!r}; expected one of {RUN_MODES}"
            )
        if (self.mode == "serve") != (self.serving is not None):
            raise ConfigurationError(
                "a serving selector goes with mode='serve', and only there"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable digest identifying this cell's work across processes."""
        payload = self.to_dict()
        payload.pop("label", None)
        return stable_digest([CACHE_SCHEMA_VERSION, "run-spec", payload], length=None)

    @property
    def cell_id(self) -> str:
        """Short human-facing identifier (prefix of the fingerprint)."""
        return self.fingerprint()[:12]

    def describe(self) -> str:
        """One-line human description for progress output."""
        schema = "norm" if self.normalized else "denorm"
        if self.mode == "prepare":
            return f"{self.engine} prepare {self.settings.data_size.name}/{schema}"
        if self.mode == "serve":
            serving = self.serving
            topology = "shared" if serving.share_engine else "isolated"
            return (
                f"{self.engine} {serving.policy} ×{serving.sessions} "
                f"{topology} {serving.churn} "
                f"TR={self.settings.time_requirement}s"
            )
        return (
            f"{self.engine} {self.workflows.workflow_type}×{self.workflows.count} "
            f"TR={self.settings.time_requirement}s "
            f"{self.settings.data_size.name}/{schema}"
        )
