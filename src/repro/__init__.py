"""IDEBench reproduction — a benchmark for interactive data exploration.

A from-scratch Python reproduction of *IDEBench: A Benchmark for
Interactive Data Exploration* (Eichmann, Binnig, Kraska, Zgraggen), with
simulated stand-ins for the five database systems of the paper's
evaluation so every table and figure can be regenerated on a laptop.

Public API tour (see README.md for the quickstart)::

    from repro import (
        BenchmarkSettings,        # §4.6 settings
        generate_flights_seed,    # §4.2 seed data
        scale_dataset,            # §4.2 copula scaler
        normalize,                # §4.2 star-schema normalization
        WorkflowGenerator,        # §4.3 workload generator
        BenchmarkDriver,          # §4.4 driver
        SummaryReport,            # §4.8 reporting
    )
    from repro.engines import ColumnStoreEngine, ProgressiveEngine  # §5 systems
    from repro.bench.experiments import ExperimentContext, exp_overall

Subpackages: :mod:`repro.common` (settings, clocks, RNG),
:mod:`repro.data` (storage, seed, scaler, star schemas),
:mod:`repro.query` (query model, ground truth, SQL), :mod:`repro.workflow`
(interaction specs, viz graph, generator), :mod:`repro.engines` (the five
systems under test), :mod:`repro.bench` (driver, metrics, reports,
experiments), :mod:`repro.runtime` (parallel run-matrix planner/executor
with persistent artifact caching and resumption), :mod:`repro.server`
(async session server multiplexing concurrent simulated IDE sessions —
see docs/server.md).
"""

from repro.bench import (
    BenchmarkDriver,
    DetailedReport,
    QueryRecord,
    SessionDriver,
    SummaryReport,
    SystemAdapter,
    compute_metrics,
)
from repro.common import BenchmarkSettings, DataSize, VirtualClock, WallClock
from repro.data import (
    Dataset,
    Table,
    denormalize,
    generate_flights_seed,
    normalize,
    profile_table,
    scale_dataset,
)
from repro.query import (
    AggFunc,
    Aggregate,
    AggQuery,
    BinDimension,
    BinKind,
    GroundTruthOracle,
    QueryResult,
    evaluate_exact,
    query_to_sql,
)
from repro.runtime import (
    ArtifactStore,
    MatrixExecutor,
    RunSpec,
    WorkflowSelector,
    plan_matrix,
)
from repro.server import SessionManager, SessionResult, SessionSpec
from repro.workflow import (
    Workflow,
    WorkflowGenerator,
    WorkflowType,
    generate_default_suite,
    render_workflow,
)

__version__ = "1.0.0"

__all__ = [
    "AggFunc",
    "Aggregate",
    "AggQuery",
    "ArtifactStore",
    "BenchmarkDriver",
    "BenchmarkSettings",
    "BinDimension",
    "BinKind",
    "DataSize",
    "Dataset",
    "DetailedReport",
    "GroundTruthOracle",
    "MatrixExecutor",
    "QueryRecord",
    "QueryResult",
    "RunSpec",
    "SessionDriver",
    "SessionManager",
    "SessionResult",
    "SessionSpec",
    "SummaryReport",
    "SystemAdapter",
    "Table",
    "VirtualClock",
    "WallClock",
    "Workflow",
    "WorkflowGenerator",
    "WorkflowSelector",
    "WorkflowType",
    "__version__",
    "compute_metrics",
    "denormalize",
    "evaluate_exact",
    "generate_default_suite",
    "generate_flights_seed",
    "normalize",
    "plan_matrix",
    "profile_table",
    "query_to_sql",
    "render_workflow",
    "scale_dataset",
]
