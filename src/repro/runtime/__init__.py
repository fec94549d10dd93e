"""Parallel execution runtime: run-matrix planning, sharded execution,
persistent artifact caching and resumable experiments.

The paper's evaluation is a large cross-product of engines, workflow
types, time requirements, data sizes and schema layouts (§5); the
serving sweeps add session counts, serving modes, user policies and
churn (§2.2). This subpackage turns both products into one explicit,
parallelizable run matrix:

* :mod:`repro.runtime.spec` — :class:`RunSpec`, the declarative, hashable
  description of one experiment cell (``suite``, ``prepare``, or
  ``serve`` with a :class:`ServingSelector`);
* :mod:`repro.runtime.planner` — ``plan_*`` functions enumerating the
  cells of each paper experiment, the ``bench-sessions`` /
  ``bench-adaptive`` sweeps (``plan_sessions`` / ``plan_adaptive``) and
  arbitrary matrices for the CLI;
* :mod:`repro.runtime.store` — :class:`ArtifactStore`, a content-addressed
  on-disk cache for datasets, workflow suites, ground-truth answers and
  per-cell reports;
* :mod:`repro.runtime.executor` — :class:`MatrixExecutor`, which shards
  cells across worker processes (``--jobs N``) with deterministic
  per-cell seeding, making parallel output bit-identical to serial and
  crashed runs resumable;
* :mod:`repro.runtime.report` — deterministic matrix summaries (plan
  order, fixed float formatting: stable bytes at any job count) and
  :func:`current_revision`, the git revision a report was produced at.
"""

from repro.runtime.executor import (
    CellResult,
    MatrixExecutor,
    context_key,
    execute_cell,
    result_key,
    select_workflows,
)
from repro.runtime.planner import (
    plan_adaptive,
    plan_detailed_table,
    plan_matrix,
    plan_overall,
    plan_prep_times,
    plan_schema,
    plan_sessions,
    plan_system_y,
    plan_think_time,
    plan_workflow_types,
)
from repro.runtime.report import (
    current_revision,
    matrix_csv_text,
    matrix_summary_rows,
    render_matrix,
    write_matrix_csv,
)
from repro.runtime.spec import RunSpec, ServingSelector, WorkflowSelector
from repro.runtime.store import DEFAULT_CACHE_BUDGET_BYTES, ArtifactStore

__all__ = [
    "ArtifactStore",
    "DEFAULT_CACHE_BUDGET_BYTES",
    "CellResult",
    "MatrixExecutor",
    "RunSpec",
    "ServingSelector",
    "WorkflowSelector",
    "context_key",
    "current_revision",
    "execute_cell",
    "matrix_csv_text",
    "matrix_summary_rows",
    "plan_adaptive",
    "plan_detailed_table",
    "plan_matrix",
    "plan_overall",
    "plan_prep_times",
    "plan_schema",
    "plan_sessions",
    "plan_system_y",
    "plan_think_time",
    "plan_workflow_types",
    "render_matrix",
    "result_key",
    "select_workflows",
    "write_matrix_csv",
]
