"""Experiment harness: one entry point per table/figure of the paper (§5).

Each ``exp_*`` function reproduces one evaluation artifact:

==============  ============================================================
``exp_overall``        Fig. 5 + Fig. 6a/6b/6c — four engines × five TRs on
                       the mixed workload (500M, de-normalized)
``exp_workflow_types`` Fig. 6d — missing bins by system × workflow type
``exp_schema``         Fig. 6e — normalized vs de-normalized, 100M & 500M,
                       MonetDB vs XDB
``exp_think_time``     Fig. 6f — missing bins vs think time under IDEA's
                       speculative extension
``exp_detailed_table`` Table 1 — detailed report of one mixed workflow on
                       IDEA
``exp_prep_times``     §5.2 — data preparation time per system
``exp_effects``        §5.5 (Exp. 4) — metric sensitivity to bin count,
                       dimensionality, binning type, concurrency,
                       selectivity
``exp_system_y``       §5.6 (Exp. 5) — frontend layer over MonetDB
==============  ============================================================

:class:`ExperimentContext` caches datasets, oracles, profiles and workflow
suites so parameter sweeps do not regenerate shared state; with an
:class:`~repro.runtime.store.ArtifactStore` those artifacts additionally
persist on disk and are shared across worker processes and runs. All
functions are deterministic given the context's seed.

Every ``exp_*`` function *plans* its cells through
:mod:`repro.runtime.planner` and executes them via the context's
:class:`~repro.runtime.executor.MatrixExecutor` — serial and in-process by
default (``jobs=1``), sharded across worker processes when the context is
built with ``jobs=N``. Cell results are identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.driver import BenchmarkDriver, QueryRecord
from repro.bench.report import DetailedReport, summarize_records
from repro.common.clock import VirtualClock
from repro.common.config import (
    BenchmarkSettings,
    DataSize,
    DEFAULT_TIME_REQUIREMENTS,
)
from repro.common.errors import BenchmarkError
from repro.data.generator import CopulaScaler
from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.data.schema import ColumnProfile, profile_table
from repro.data.seed import generate_flights_seed
from repro.data.storage import Dataset, Table
from repro.engines import (
    ColumnStoreEngine,
    FrontendEngine,
    OnlineAggEngine,
    ProgressiveEngine,
    StratifiedSamplingEngine,
)
from repro.query.groundtruth import GroundTruthOracle
from repro.query.model import AggFunc, Aggregate, BinDimension, BinKind
from repro.runtime.executor import CellResult, MatrixExecutor
from repro.runtime.planner import (
    plan_detailed_table,
    plan_overall,
    plan_prep_times,
    plan_schema,
    plan_system_y,
    plan_think_time,
    plan_workflow_types,
)
from repro.runtime.spec import RunSpec
from repro.runtime.store import ArtifactStore
from repro.workflow.generator import WorkflowGenerator, WorkloadConfig
from repro.workflow.spec import (
    CreateViz,
    Link,
    SelectBins,
    VizSpec,
    Workflow,
    WorkflowType,
)

#: Engines of the paper's main experiment, in presentation order.
MAIN_ENGINES = ("monetdb-sim", "xdb-sim", "idea-sim", "system-x-sim")

#: Seed-table size used to fit the copula scaler.
SEED_ROWS = 60_000


@lru_cache(maxsize=8)
def _shared_scaler(seed: int, rows: int) -> CopulaScaler:
    """Process-wide memo of the fitted copula scaler (pure in its key).

    Only this one *fixed-cost* artifact is memoized process-wide: the
    seed table it is fitted on is read by nothing else, so it lives for
    the fit and no longer, and scaled tables stay cached per context (and
    per artifact store), so a long-lived process sweeping large sizes
    does not pin multi-GB tables for its lifetime.
    """
    seed_table = generate_flights_seed(rows, seed=seed)
    return CopulaScaler.fit(seed_table, seed_value=seed)


def make_engine(
    name: str,
    dataset: Dataset,
    settings: BenchmarkSettings,
    clock: VirtualClock,
    speculation: bool = False,
):
    """Instantiate an engine simulator by its registry name."""
    if name == "monetdb-sim":
        return ColumnStoreEngine(dataset, settings, clock)
    if name == "xdb-sim":
        return OnlineAggEngine(dataset, settings, clock)
    if name == "idea-sim":
        return ProgressiveEngine(dataset, settings, clock, speculation=speculation)
    if name == "system-x-sim":
        return StratifiedSamplingEngine(dataset, settings, clock)
    if name == "system-y-sim":
        return FrontendEngine(ColumnStoreEngine(dataset, settings, clock))
    raise BenchmarkError(f"unknown engine {name!r}")


class ExperimentContext:
    """Caches data, oracles and workload suites across experiment calls.

    With ``store`` the expensive artifacts (scaled tables, normalized
    datasets, workflow suites, exact ground-truth answers) additionally
    persist on disk, keyed by their build inputs — so worker processes and
    later runs rebuild nothing. ``jobs`` selects how many worker processes
    the context's :class:`MatrixExecutor` shards planned cells across.
    """

    def __init__(
        self,
        settings: Optional[BenchmarkSettings] = None,
        store: Optional[ArtifactStore] = None,
        jobs: int = 1,
        reuse_results: bool = True,
    ):
        self.settings = settings if settings is not None else BenchmarkSettings()
        self.store = store
        self.runtime = MatrixExecutor(
            jobs=jobs, store=store, reuse_results=reuse_results, local_context=self
        )
        self._scaler: Optional[CopulaScaler] = None
        self._tables: Dict[DataSize, Table] = {}
        self._datasets: Dict[Tuple[DataSize, bool], Dataset] = {}
        self._oracles: Dict[Tuple[DataSize, bool], GroundTruthOracle] = {}
        self._profiles: Dict[DataSize, Dict[str, ColumnProfile]] = {}
        self._suites: Dict[Tuple[DataSize, WorkflowType, int], List[Workflow]] = {}

    # -- artifact keys ---------------------------------------------------
    def _table_key(self, size: DataSize) -> tuple:
        rows = self.settings.with_(data_size=size).actual_rows
        return (
            "scaled-table",
            self.settings.dataset,
            self.settings.seed,
            SEED_ROWS,
            size.name,
            rows,
        )

    def _artifact(self, key: tuple, build):
        if self.store is None:
            return build()
        return self.store.get_or_create(key, build)

    # -- data ----------------------------------------------------------
    @property
    def scaler(self) -> CopulaScaler:
        if self._scaler is None:
            self._scaler = _shared_scaler(self.settings.seed, SEED_ROWS)
        return self._scaler

    def table(self, size: DataSize) -> Table:
        """The scaled flat table for ``size`` (copula-generated, cached)."""
        if size not in self._tables:
            rows = self.settings.with_(data_size=size).actual_rows
            self._tables[size] = self._artifact(
                self._table_key(size),
                lambda: self.scaler.generate(rows, stream=size.name),
            )
        return self._tables[size]

    def dataset(self, size: DataSize, normalized: bool = False) -> Dataset:
        key = (size, normalized)
        if key not in self._datasets:
            if normalized:
                self._datasets[key] = self._artifact(
                    ("normalized-dataset",) + self._table_key(size),
                    lambda: normalize(self.table(size), FLIGHTS_STAR_SPEC),
                )
            else:
                self._datasets[key] = Dataset.from_table(self.table(size))
        return self._datasets[key]

    def oracle(self, size: DataSize, normalized: bool = False) -> GroundTruthOracle:
        key = (size, normalized)
        if key not in self._oracles:
            dataset_key = None
            if self.store is not None:
                dataset_key = self.store.digest_for(
                    ("oracle-dataset", normalized) + self._table_key(size)
                )
            self._oracles[key] = GroundTruthOracle(
                self.dataset(size, normalized),
                store=self.store,
                dataset_key=dataset_key,
            )
        return self._oracles[key]

    def profiles(self, size: DataSize) -> Dict[str, ColumnProfile]:
        if size not in self._profiles:
            self._profiles[size] = profile_table(self.table(size))
        return self._profiles[size]

    # -- workloads -------------------------------------------------------
    def workflows(
        self,
        workflow_type: WorkflowType,
        count: int,
        size: Optional[DataSize] = None,
        config: Optional[WorkloadConfig] = None,
    ) -> List[Workflow]:
        size = size if size is not None else self.settings.data_size

        def build() -> List[Workflow]:
            generator = WorkflowGenerator(
                self.profiles(size),
                table="flights",
                config=config,
                seed=self.settings.seed,
            )
            return generator.generate_suite(workflow_type, count)

        if config is not None:
            return build()
        key = (size, workflow_type, count)
        if key not in self._suites:
            self._suites[key] = self._artifact(
                ("workflow-suite", workflow_type.value, count)
                + self._table_key(size),
                build,
            )
        return self._suites[key]

    # -- running -----------------------------------------------------------
    def run(
        self,
        engine_name: str,
        workflows: Sequence[Workflow],
        settings: Optional[BenchmarkSettings] = None,
        normalized: bool = False,
        speculation: bool = False,
    ) -> List[QueryRecord]:
        """Run ``workflows`` on a fresh engine; returns detailed records."""
        settings = settings if settings is not None else self.settings
        dataset = self.dataset(settings.data_size, normalized)
        oracle = self.oracle(settings.data_size, normalized)
        clock = VirtualClock()
        engine = make_engine(engine_name, dataset, settings, clock, speculation)
        engine.prepare()
        driver = BenchmarkDriver(engine, oracle, settings)
        return driver.run_suite(workflows)

    def execute(self, specs: Sequence[RunSpec]) -> List[CellResult]:
        """Execute planned run-matrix cells through the context's runtime."""
        return self.runtime.run(specs)


# ----------------------------------------------------------------------
# Exp. 1: overall results (Fig. 5, 6a, 6b, 6c)
# ----------------------------------------------------------------------

@dataclass
class OverallResults:
    """Per (engine, TR): summary row over the mixed workload."""

    settings: BenchmarkSettings
    summaries: Dict[Tuple[str, float], "object"] = field(default_factory=dict)
    records: Dict[Tuple[str, float], List[QueryRecord]] = field(default_factory=dict)

    def series(self, metric: str) -> Dict[str, List[Tuple[float, float]]]:
        """Per-engine [(TR, value)] series for plotting/printing."""
        result: Dict[str, List[Tuple[float, float]]] = {}
        for (engine, tr), row in sorted(self.summaries.items()):
            result.setdefault(engine, []).append((tr, getattr(row, metric)))
        return result


def exp_overall(
    ctx: ExperimentContext,
    engines: Sequence[str] = MAIN_ENGINES,
    time_requirements: Sequence[float] = DEFAULT_TIME_REQUIREMENTS,
    workflows_per_type: Optional[int] = None,
    size: Optional[DataSize] = None,
) -> OverallResults:
    """Fig. 5 / 6a–6c: mixed workload, five TRs, four engines, 500M."""
    size = size if size is not None else ctx.settings.data_size
    count = (
        workflows_per_type
        if workflows_per_type is not None
        else ctx.settings.workflows_per_type
    )
    specs = plan_overall(ctx.settings, engines, time_requirements, count, size)
    results = OverallResults(settings=ctx.settings)
    for spec, cell in zip(specs, ctx.execute(specs)):
        tr = spec.settings.time_requirement
        rows = summarize_records(cell.records, group_key=lambda r: "all")
        results.summaries[(spec.engine, tr)] = rows[-1]
        results.records[(spec.engine, tr)] = cell.records
    return results


# ----------------------------------------------------------------------
# Fig. 6d: missing bins by system and workflow type
# ----------------------------------------------------------------------

def exp_workflow_types(
    ctx: ExperimentContext,
    engines: Sequence[str] = MAIN_ENGINES,
    time_requirement: float = 3.0,
    workflows_per_type: Optional[int] = None,
    size: Optional[DataSize] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 6d: engine → workflow type → mean missing bins."""
    size = size if size is not None else ctx.settings.data_size
    count = (
        workflows_per_type
        if workflows_per_type is not None
        else ctx.settings.workflows_per_type
    )
    workflow_types = (
        WorkflowType.INDEPENDENT.value,
        WorkflowType.SEQUENTIAL.value,
        WorkflowType.ONE_TO_N.value,
        WorkflowType.N_TO_ONE.value,
    )
    specs = plan_workflow_types(
        ctx.settings, engines, workflow_types, count, size, time_requirement
    )
    outcome: Dict[str, Dict[str, float]] = {}
    for spec, cell in zip(specs, ctx.execute(specs)):
        outcome.setdefault(spec.engine, {})[spec.workflows.workflow_type] = float(
            np.mean([r.metrics.missing_bins for r in cell.records])
        )
    return outcome


# ----------------------------------------------------------------------
# Fig. 6e: normalized vs de-normalized
# ----------------------------------------------------------------------

def exp_schema(
    ctx: ExperimentContext,
    engines: Sequence[str] = ("monetdb-sim", "xdb-sim"),
    sizes: Sequence[DataSize] = (DataSize.S, DataSize.M),
    time_requirement: float = 3.0,
    workflows_per_type: Optional[int] = None,
) -> Dict[Tuple[str, str, str], float]:
    """Fig. 6e: (engine, size, schema) → % TR violations.

    IDEA is excluded (no join support) and System X only works
    de-normalized, exactly as in §5.3.
    """
    count = (
        workflows_per_type
        if workflows_per_type is not None
        else ctx.settings.workflows_per_type
    )
    specs = plan_schema(ctx.settings, engines, sizes, count, time_requirement)
    outcome: Dict[Tuple[str, str, str], float] = {}
    for spec, cell in zip(specs, ctx.execute(specs)):
        violated = float(
            np.mean([r.metrics.tr_violated for r in cell.records]) * 100.0
        )
        schema = "normalized" if spec.normalized else "denormalized"
        outcome[(spec.engine, spec.settings.data_size.name, schema)] = violated
    return outcome


# ----------------------------------------------------------------------
# Fig. 6f: think-time sweep with speculation
# ----------------------------------------------------------------------

def speculation_workflow(
    profiles: Dict[str, ColumnProfile], carrier: Optional[str] = None
) -> Workflow:
    """The custom 4-interaction workflow of §5.4.

    1. 2-D count histogram (100 bins) of arrival vs departure delays;
    2. 1-D count histogram (25 bins) of carriers;
    3. link 1-D histogram (source) → 2-D histogram (target);
    4. select a single carrier in the 1-D histogram, forcing the 2-D
       histogram to update.
    """
    dep = profiles["DEP_DELAY"]
    arr = profiles["ARR_DELAY"]
    viz_2d = VizSpec(
        name="delays_2d",
        source="flights",
        bins=(
            BinDimension(
                "ARR_DELAY", BinKind.QUANTITATIVE, bin_count=10
            ).resolved(arr.minimum, arr.maximum),
            BinDimension(
                "DEP_DELAY", BinKind.QUANTITATIVE, bin_count=10
            ).resolved(dep.minimum, dep.maximum),
        ),
        aggregates=(Aggregate(AggFunc.COUNT),),
    )
    viz_1d = VizSpec(
        name="carriers_1d",
        source="flights",
        bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
        aggregates=(Aggregate(AggFunc.COUNT),),
    )
    chosen = carrier if carrier is not None else profiles["UNIQUE_CARRIER"].categories[2]
    return Workflow(
        name="speculation_probe",
        workflow_type=WorkflowType.CUSTOM,
        interactions=(
            CreateViz(viz_2d),
            CreateViz(viz_1d),
            Link("carriers_1d", "delays_2d"),
            SelectBins("carriers_1d", ((chosen,),)),
        ),
    )


def exp_think_time(
    ctx: ExperimentContext,
    think_times: Sequence[float] = tuple(float(t) for t in range(1, 11)),
    time_requirement: float = 3.0,
    size: Optional[DataSize] = None,
    speculation: bool = True,
) -> List[Tuple[float, float]]:
    """Fig. 6f: [(think time, missing bins of the selection query)]."""
    size = size if size is not None else ctx.settings.data_size
    specs = plan_think_time(
        ctx.settings, think_times, time_requirement, size, speculation
    )
    outcome: List[Tuple[float, float]] = []
    for spec, cell in zip(specs, ctx.execute(specs)):
        # The probe is the query triggered by the final selection.
        final = [r for r in cell.records if r.interaction_id == 3]
        if len(final) != 1:
            raise BenchmarkError(
                f"expected exactly one selection query, got {len(final)}"
            )
        outcome.append((spec.settings.think_time, final[0].metrics.missing_bins))
    return outcome


# ----------------------------------------------------------------------
# Table 1: detailed report
# ----------------------------------------------------------------------

def exp_detailed_table(
    ctx: ExperimentContext,
    engine: str = "idea-sim",
    time_requirement: float = 0.5,
    think_time: float = 3.0,
    size: Optional[DataSize] = None,
) -> DetailedReport:
    """Table 1: one mixed workflow on IDEA, TR=500 ms, think 3 s."""
    size = size if size is not None else ctx.settings.data_size
    specs = plan_detailed_table(
        ctx.settings, engine, time_requirement, think_time, size
    )
    (cell,) = ctx.execute(specs)
    return DetailedReport(cell.records)


# ----------------------------------------------------------------------
# §5.2: data preparation times
# ----------------------------------------------------------------------

def exp_prep_times(
    ctx: ExperimentContext,
    engines: Sequence[str] = MAIN_ENGINES,
    size: Optional[DataSize] = None,
) -> Dict[str, "object"]:
    """§5.2: engine → PreparationReport (modeled minutes at ``size``)."""
    size = size if size is not None else ctx.settings.data_size
    specs = plan_prep_times(ctx.settings, engines, size)
    return {
        spec.engine: cell.prep
        for spec, cell in zip(specs, ctx.execute(specs))
    }


# ----------------------------------------------------------------------
# Exp. 4 (§5.5): factor analysis over detailed records
# ----------------------------------------------------------------------

def exp_effects(records: Sequence[QueryRecord]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """§5.5: group mean metrics by candidate performance factors.

    Returns factor → level → {violated%, missing, mre}. The paper found no
    significant effect of bin dimensionality, binning type or concurrency,
    but a dominant effect of predicate selectivity — the same conclusion
    these groupings support (see EXPERIMENTS.md).
    """
    def bucket_selectivity(fraction: float) -> str:
        if fraction >= 0.5:
            return "broad (>=50%)"
        if fraction >= 0.05:
            return "medium (5-50%)"
        return "narrow (<5%)"

    def bucket_concurrency(n: int) -> str:
        return "1" if n == 1 else ("2-3" if n <= 3 else ">=4")

    factors: Dict[str, Callable[[QueryRecord], str]] = {
        "bin_dims": lambda r: str(r.bin_dims),
        "binning_type": lambda r: r.binning_type,
        "agg_type": lambda r: r.agg_type,
        "concurrency": lambda r: bucket_concurrency(r.num_concurrent),
        "selectivity": lambda r: bucket_selectivity(r.qualifying_fraction),
    }
    outcome: Dict[str, Dict[str, Dict[str, float]]] = {}
    for factor, key_fn in factors.items():
        groups: Dict[str, List[QueryRecord]] = {}
        for record in records:
            groups.setdefault(key_fn(record), []).append(record)
        levels: Dict[str, Dict[str, float]] = {}
        for level, group in sorted(groups.items()):
            answered = [r for r in group if not r.metrics.tr_violated]
            mres = np.array(
                [
                    r.metrics.rel_error_avg
                    for r in answered
                    if np.isfinite(r.metrics.rel_error_avg)
                ]
            )
            levels[level] = {
                "queries": float(len(group)),
                "pct_violated": 100.0 * float(np.mean([r.tr_violated for r in group])),
                "mean_missing": float(np.mean([r.metrics.missing_bins for r in group])),
                "mre_median": float(np.median(mres)) if len(mres) else float("nan"),
            }
        outcome[factor] = levels
    return outcome


# ----------------------------------------------------------------------
# Exp. 5 (§5.6): System Y
# ----------------------------------------------------------------------

def exp_system_y(
    ctx: ExperimentContext,
    time_requirement: float = 10.0,
    num_variants: int = 3,
    size: Optional[DataSize] = None,
) -> Dict[str, Dict[str, float]]:
    """§5.6: System Y (frontend over MonetDB) vs MonetDB directly.

    Runs ``num_variants`` 1:N workflows on both engines. The headline
    comparison is the mean end-to-end latency of *answered* queries: the
    paper observed System Y to track MonetDB "with an added delay of about
    1-2s per query" and found no prefetching layer. A long TR is used so
    most queries complete and the latency difference is observable.
    """
    size = size if size is not None else ctx.settings.data_size
    specs = plan_system_y(ctx.settings, num_variants, time_requirement, size)
    per_engine_records: Dict[str, List[QueryRecord]] = {}
    outcome: Dict[str, Dict[str, float]] = {}
    for spec, cell in zip(specs, ctx.execute(specs)):
        engine_name = spec.engine
        records = cell.records
        per_engine_records[engine_name] = records
        answered = [r for r in records if not r.tr_violated]
        latencies = [r.end_time - r.start_time for r in answered]
        outcome[engine_name] = {
            "pct_violated": 100.0 * float(np.mean([r.tr_violated for r in records])),
            "mean_latency_answered": float(np.mean(latencies)) if latencies else float("nan"),
            "num_queries": float(len(records)),
            "num_answered": float(len(answered)),
        }
    # Paired rendering-overhead estimate: compare the same query (by id)
    # across the two runs, over queries both engines answered. This avoids
    # the survivor bias of comparing unpaired means (the frontend's slowest
    # queries drop out of its own answered set).
    monet_by_id = {
        r.query_id: r
        for r in per_engine_records["monetdb-sim"]
        if not r.tr_violated
    }
    deltas = [
        (y.end_time - y.start_time) - (
            monet_by_id[y.query_id].end_time - monet_by_id[y.query_id].start_time
        )
        for y in per_engine_records["system-y-sim"]
        if not y.tr_violated and y.query_id in monet_by_id
    ]
    outcome["system-y-sim"]["paired_overhead"] = (
        float(np.mean(deltas)) if deltas else float("nan")
    )
    return outcome
