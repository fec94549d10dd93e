"""Benchmark core: driver, metrics, reports, adapters, experiment harness.

This subpackage is the paper's "benchmark driver" component (§4.4) plus
reporting (§4.8):

* :mod:`repro.bench.metrics` — the §4.7 metric suite (TR violated,
  missing bins, mean relative error, SMAPE, cosine distance, mean margin
  of error, out-of-margin, bias);
* :mod:`repro.bench.driver` — the discrete-event workflow runner: think
  times, TR deadlines with cancellation, concurrent queries per
  interaction, speculation hints on linking;
* :mod:`repro.bench.report` — the detailed per-query report (Table 1) and
  the aggregated summary report (Fig. 5), including the MRE CDF and its
  area-above-curve statistic;
* :mod:`repro.bench.codec` — the lossless ``QueryRecord`` ↔ dict
  mapping the wire protocol and the record spool serialize through;
* :mod:`repro.bench.adapters` — the paper's Listing-1 system-adapter
  facade;
* :mod:`repro.bench.experiments` — one harness function per experiment of
  §5, shared by the pytest benchmarks and the CLI.
"""

from repro.bench.adapters import SystemAdapter
from repro.bench.codec import record_from_dict, record_to_dict
from repro.bench.driver import BenchmarkDriver, QueryRecord, SessionDriver
from repro.bench.metrics import QueryMetrics, compute_metrics
from repro.bench.report import (
    DetailedReport,
    SummaryReport,
    mre_cdf,
    summarize_records,
)

__all__ = [
    "BenchmarkDriver",
    "DetailedReport",
    "QueryMetrics",
    "QueryRecord",
    "SessionDriver",
    "SummaryReport",
    "SystemAdapter",
    "compute_metrics",
    "mre_cdf",
    "record_from_dict",
    "record_to_dict",
    "summarize_records",
]
