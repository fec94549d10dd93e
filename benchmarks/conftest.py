"""Shared fixtures for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure of the paper's
evaluation (docs/paper-mapping.md is the index). The shared
:class:`ExperimentContext` uses the paper's default configuration mapped
onto laptop scale (docs/architecture.md, "Simulated engines"):

* sizes S/M/L = 100M/500M/1B virtual rows over ``scale`` = 1000, i.e.
  100k/500k/1M actual rows;
* 10 workflows per type (paper default) unless ``IDEBENCH_BENCH_WORKFLOWS``
  overrides it;
* the virtual clock, so results are deterministic.

Each benchmark writes its rendered artifact to ``benchmarks/results/`` so
the regenerated tables can be compared with the paper's artifacts
(docs/paper-mapping.md maps each one).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.experiments import ExperimentContext
from repro.common.config import BenchmarkSettings, DataSize

#: Environment overrides for slower/faster machines.
BENCH_SCALE = int(os.environ.get("IDEBENCH_BENCH_SCALE", "1000"))
BENCH_WORKFLOWS = int(os.environ.get("IDEBENCH_BENCH_WORKFLOWS", "10"))
BENCH_SEED = int(os.environ.get("IDEBENCH_BENCH_SEED", "42"))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_settings() -> BenchmarkSettings:
    return BenchmarkSettings(
        data_size=DataSize.M,
        scale=BENCH_SCALE,
        workflows_per_type=BENCH_WORKFLOWS,
        seed=BENCH_SEED,
    )


@pytest.fixture(scope="session")
def ctx(bench_settings) -> ExperimentContext:
    return ExperimentContext(bench_settings)


@pytest.fixture(scope="session")
def overall_cache():
    """Holds the Exp.-1 sweep so Fig. 5/6a/6b/6c share one computation."""
    return {}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_artifact(results_dir: Path, name: str, text: str) -> None:
    """Persist a rendered table and echo it to stdout."""
    (results_dir / name).write_text(text + "\n", encoding="utf-8")
    print(f"\n[{name}]\n{text}")


def get_overall(ctx, overall_cache):
    """Compute (once) the Exp.-1 sweep: 4 engines × 5 TRs, mixed workload."""
    if "overall" not in overall_cache:
        from repro.bench.experiments import exp_overall

        overall_cache["overall"] = exp_overall(ctx)
    return overall_cache["overall"]
