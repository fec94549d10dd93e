"""Observability: deterministic tracing, metrics and wall-time profiling.

The instrument panel over the §4.4 event loop and §4.7 metric pipeline
(docs/observability.md).
Three cooperating singletons, all *disabled/empty by default* so the
simulation's golden-pinned output is untouched unless observability is
explicitly switched on:

* :mod:`repro.obs.tracer` — structured spans/events on two segregated
  time axes (deterministic virtual time, nondeterministic wall time);
* :mod:`repro.obs.metrics` — counters/gauges/fixed-bucket histograms
  with Prometheus text exposition and canonical-JSON snapshots (served
  live over the wire via the STATS message);
* :mod:`repro.obs.profile` — per-stage wall-time attribution (engine
  step, predicate eval, binning, scheduler arbitration, turn grants,
  PENDING stalls);
* :mod:`repro.obs.sink` — JSONL trace files, bounded ring buffers, and
  the deterministic ``repro trace summary`` aggregation.

:func:`observed` is the one-stop switch the CLI flags (``--trace``,
``--metrics-out``) use: fresh instruments for the run, files written on
the way out, previous singletons restored.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Union

from repro.common.fingerprint import canonical_json
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    DEFAULT_VT_BUCKETS,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.profile import (
    KNOWN_STAGES,
    STAGE_ENGINE_STEP,
    STAGE_FRAME_IO,
    STAGE_PENDING_STALL,
    STAGE_SCHEDULER,
    STAGE_TURN_GRANT,
    StageProfiler,
    get_profiler,
    set_profiler,
)
from repro.obs.sink import (
    RingBuffer,
    csv_summary,
    entry_line,
    filter_entries,
    iter_jsonl,
    merge_traces,
    render_summary_table,
    summarize,
    virtual_view,
    write_jsonl,
)
from repro.obs.slo import SloRule, SloWatchdog, parse_rule
from repro.obs.timeseries import (
    DEFAULT_WINDOW,
    TimeSeries,
    get_timeseries,
    recompute,
    replay,
    series_lines,
    set_timeseries,
)
from repro.obs.tracer import TRACE_SCHEMA_VERSION, Tracer, get_tracer, set_tracer

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_VT_BUCKETS",
    "DEFAULT_WINDOW",
    "KNOWN_STAGES",
    "MetricsRegistry",
    "RingBuffer",
    "STAGE_ENGINE_STEP",
    "STAGE_FRAME_IO",
    "STAGE_PENDING_STALL",
    "STAGE_SCHEDULER",
    "STAGE_TURN_GRANT",
    "SloRule",
    "SloWatchdog",
    "StageProfiler",
    "TRACE_SCHEMA_VERSION",
    "TimeSeries",
    "Tracer",
    "csv_summary",
    "entry_line",
    "export_metrics_text",
    "filter_entries",
    "get_metrics",
    "get_profiler",
    "get_timeseries",
    "get_tracer",
    "iter_jsonl",
    "merge_traces",
    "observed",
    "parse_rule",
    "recompute",
    "render_summary_table",
    "replay",
    "series_lines",
    "set_metrics",
    "set_profiler",
    "set_timeseries",
    "set_tracer",
    "stats_payload",
    "summarize",
    "virtual_view",
    "write_jsonl",
]


def _fold_profile_into(registry: MetricsRegistry, profiler: StageProfiler) -> None:
    """Publish the profiler's stage table as ordinary metrics, so one
    exposition (text or snapshot) carries both."""
    for name, count, seconds in profiler.rows():
        registry.counter(
            "repro_stage_wall_seconds_total",
            labels={"stage": name},
            help="Wall seconds attributed to each profiled stage.",
        ).value = seconds
        registry.counter(
            "repro_stage_entries_total",
            labels={"stage": name},
            help="Entries into each profiled stage.",
        ).value = float(count)


def export_metrics_text(
    registry: Optional[MetricsRegistry] = None,
    profiler: Optional[StageProfiler] = None,
) -> str:
    """Prometheus text for a registry, stage profile folded in."""
    registry = registry if registry is not None else get_metrics()
    profiler = profiler if profiler is not None else get_profiler()
    _fold_profile_into(registry, profiler)
    return registry.render_prometheus()


def stats_payload(
    registry: Optional[MetricsRegistry] = None,
    profiler: Optional[StageProfiler] = None,
) -> dict:
    """The STATS wire message's ``data``: snapshot + stage attribution."""
    registry = registry if registry is not None else get_metrics()
    profiler = profiler if profiler is not None else get_profiler()
    _fold_profile_into(registry, profiler)
    return {
        "metrics": registry.snapshot(),
        "profile": profiler.snapshot(),
        "trace_schema": TRACE_SCHEMA_VERSION,
    }


@contextmanager
def observed(
    trace_path: Optional[Union[str, Path]] = None,
    metrics_path: Optional[Union[str, Path]] = None,
    capacity: Optional[int] = None,
    enabled: Optional[bool] = None,
):
    """Run a block with fresh, enabled instruments; write files on exit.

    This is what ``--trace PATH`` / ``--metrics-out PATH`` expand to:

    * a fresh :class:`Tracer` (bounded by ``capacity`` if given), a fresh
      :class:`MetricsRegistry` and a fresh enabled :class:`StageProfiler`
      become the process singletons for the duration;
    * on exit, the trace is written to ``trace_path`` as JSONL (both
      axes; strip with ``repro trace export --virtual-only``) and the
      metrics + folded stage profile go to ``metrics_path`` (Prometheus
      text, or a canonical-JSON stats payload for ``*.json`` paths);
    * the previous singletons are restored no matter what.

    With ``enabled=None`` the instruments activate only if at least one
    output path was requested — so plain runs keep zero-cost defaults.
    Yields the tracer.
    """
    active = enabled if enabled is not None else bool(trace_path or metrics_path)
    tracer = Tracer(enabled=active, capacity=capacity)
    registry = MetricsRegistry()
    profiler = StageProfiler(enabled=active)
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(registry)
    prev_profiler = set_profiler(profiler)
    try:
        yield tracer
        if trace_path:
            write_jsonl(trace_path, tracer.entries())
        if metrics_path:
            path = Path(metrics_path)
            if path.suffix == ".json":
                text = canonical_json(stats_payload(registry, profiler)) + "\n"
            else:
                text = export_metrics_text(registry, profiler)
            path.write_bytes(text.encode("utf-8"))
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)
        set_profiler(prev_profiler)
