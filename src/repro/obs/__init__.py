"""Observability: deterministic tracing, metrics and wall-time stages.

The instrument panel over the §4.4 event loop and §4.7 metric pipeline
(docs/observability.md).
Two cooperating singletons, both *disabled/empty by default* so the
simulation's golden-pinned output is untouched unless observability is
explicitly switched on:

* :mod:`repro.obs.tracer` — structured spans/events on two segregated
  time axes (deterministic virtual time, nondeterministic wall time);
  its ``enabled`` flag is the one switch every instrument checks;
* :mod:`repro.obs.metrics` — counters/gauges/fixed-bucket histograms
  with Prometheus text exposition and canonical-JSON snapshots (served
  live over the wire via the STATS message).

:func:`timed_stage` attributes a block's wall time to a named stage
(engine step, compile, scheduler arbitration, frame I/O, turn grants,
PENDING stalls) as two ordinary registry counters.
:mod:`repro.obs.sink` writes JSONL trace files and ring buffers and
computes the deterministic ``repro trace summary`` aggregation.

:func:`observed` is the one-stop switch the CLI flags (``--trace``,
``--metrics-out``) use: fresh instruments for the run, files written on
the way out, previous singletons restored.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.common.clock import perf_seconds
from repro.common.fingerprint import canonical_json
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    DEFAULT_VT_BUCKETS,
    MetricsRegistry,
    get_metrics,
    set_metrics,
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
    "MetricsRegistry",
    "RingBuffer",
    "SloRule",
    "SloWatchdog",
    "TRACE_SCHEMA_VERSION",
    "TimeSeries",
    "Tracer",
    "csv_summary",
    "entry_line",
    "export_metrics_text",
    "filter_entries",
    "get_metrics",
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
    "set_timeseries",
    "set_tracer",
    "stats_payload",
    "summarize",
    "timed_stage",
    "virtual_view",
    "write_jsonl",
]


@contextmanager
def timed_stage(name: str) -> Iterator[None]:
    """Attribute the block's wall time to stage ``name``: its seconds and
    one entry go onto ``repro_stage_{wall_seconds,entries}_total{stage}``
    of the current registry. Does nothing unless tracing is on."""
    if not get_tracer().enabled:
        yield
        return
    started = perf_seconds()
    try:
        yield
    finally:
        registry = get_metrics()
        labels = {"stage": name}
        registry.counter(
            "repro_stage_wall_seconds_total",
            labels=labels,
            help="Wall seconds attributed to each profiled stage.",
        ).inc(perf_seconds() - started)
        registry.counter(
            "repro_stage_entries_total",
            labels=labels,
            help="Entries into each profiled stage.",
        ).inc()


def export_metrics_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Prometheus text for a registry (the current one by default)."""
    registry = registry if registry is not None else get_metrics()
    return registry.render_prometheus()


def stats_payload(registry: Optional[MetricsRegistry] = None) -> dict:
    """The STATS wire message's ``data``: the registry's snapshot."""
    registry = registry if registry is not None else get_metrics()
    return {"metrics": registry.snapshot(), "trace_schema": TRACE_SCHEMA_VERSION}


@contextmanager
def observed(
    trace_path: Optional[Union[str, Path]] = None,
    metrics_path: Optional[Union[str, Path]] = None,
    capacity: Optional[int] = None,
    enabled: Optional[bool] = None,
):
    """Run a block with fresh, enabled instruments; write files on exit.

    This is what ``--trace PATH`` / ``--metrics-out PATH`` expand to:

    * a fresh :class:`Tracer` (bounded by ``capacity`` if given) and a
      fresh :class:`MetricsRegistry` become the process singletons for
      the duration;
    * on exit, the trace is written to ``trace_path`` as JSONL (both
      axes; strip with ``repro trace export --virtual-only``) and the
      metrics, stage counters included, go to ``metrics_path``
      (Prometheus text, or a canonical-JSON stats payload for ``*.json``
      paths);
    * the previous singletons are restored no matter what.

    With ``enabled=None`` the instruments activate only if at least one
    output path was requested — so plain runs keep zero-cost defaults.
    Yields the tracer.
    """
    active = enabled if enabled is not None else bool(trace_path or metrics_path)
    tracer = Tracer(enabled=active, capacity=capacity)
    registry = MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(registry)
    try:
        yield tracer
        if trace_path:
            write_jsonl(trace_path, tracer.entries())
        if metrics_path:
            path = Path(metrics_path)
            if path.suffix == ".json":
                text = canonical_json(stats_payload(registry)) + "\n"
            else:
                text = export_metrics_text(registry)
            path.write_bytes(text.encode("utf-8"))
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)
