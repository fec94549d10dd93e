"""Observability layer: two-axis contract, metrics fixpoint, helpers.

The load-bearing guarantees (docs/observability.md):

* switching tracing ON changes **no** report or wire-transcript bytes —
  the golden corpus must rebuild byte-identically under ``observed()``;
* the virtual-time projection of a trace is deterministic for a fixed
  seed, so ``repro trace summary`` output never varies across runs;
* a metrics snapshot is a fixpoint under encode→decode→encode (the
  STATS message round trip loses nothing), fuzzed over seeded random
  registries;
* the clock/log satellites behave: ``perf_seconds`` is swappable, the
  structured logger renders stable ``key=value`` fields.
"""

import importlib.util
import io
import json
import logging
import random
import sys
from pathlib import Path

import pytest

from repro.common import log as replog
from repro.common.clock import perf_seconds, set_perf_source
from repro.common.errors import BenchmarkError, ConfigurationError
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    RingBuffer,
    Tracer,
    export_metrics_text,
    get_metrics,
    get_tracer,
    observed,
    stats_payload,
    timed_stage,
)
from repro.obs.sink import (
    csv_summary,
    entry_line,
    iter_jsonl,
    summarize,
    virtual_view,
    write_jsonl,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "regen_golden_obs", REPO_ROOT / "tools" / "regen_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("regen_golden_obs", module)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()


# ----------------------------------------------------------------------
# The acceptance property: tracing changes no pinned bytes
# ----------------------------------------------------------------------

class TestTracingChangesNoBytes:
    @pytest.mark.parametrize(
        "name",
        [
            "serial_run.csv",
            "server_shared.txt",
            "adaptive_markov.txt",
            "open_churn.txt",
            "tcp_session.txt",
            "tcp_shared.txt",
        ],
    )
    def test_golden_files_identical_with_tracing_enabled(self, server_ctx, name):
        golden = (GOLDEN_DIR / name).read_bytes()
        with observed(enabled=True):
            rebuilt = regen.GOLDEN_CASES[name](server_ctx).encode("utf-8")
        assert rebuilt == golden, (
            f"{name} changed with tracing enabled — observability must "
            f"never perturb pinned output"
        )

    def test_disabled_instruments_record_nothing(self):
        tracer = get_tracer()
        metrics = get_metrics()
        assert not tracer.enabled
        with timed_stage("engine_step"):
            pass
        assert list(tracer.entries()) == []
        assert metrics.snapshot()["metrics"] == []


# ----------------------------------------------------------------------
# Virtual-time determinism of summaries
# ----------------------------------------------------------------------

class TestTraceSummaryDeterminism:
    def test_summary_of_rebuilt_trace_matches_golden(self, server_ctx):
        golden_entries = list(iter_jsonl(GOLDEN_DIR / "trace_serial.jsonl"))
        rebuilt = regen.case_trace_serial(server_ctx)
        rebuilt_entries = [
            json.loads(line) for line in rebuilt.splitlines() if line
        ]
        assert csv_summary(rebuilt_entries) == csv_summary(golden_entries)

    def test_wall_fields_are_segregated_and_stripped(self):
        tracer = Tracer(enabled=True)
        span = tracer.span("s", 1.5, session="x")
        span.end(2.0)
        span.close()
        [entry] = list(tracer.entries())
        assert "wall" in entry and "dur" in entry["wall"]
        clean = virtual_view(entry)
        assert "wall" not in clean
        assert clean["vt"] == 1.5 and clean["vt_end"] == 2.0
        # The pinned line is the canonical JSON of the clean projection.
        assert '"wall"' not in entry_line(entry, virtual_only=True)
        assert '"wall"' in entry_line(entry)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.event("a", 0.0, session="s", n=1)
        tracer.event("b", 1.0)
        path = tmp_path / "t.jsonl"
        assert write_jsonl(path, tracer.entries()) == 2
        back = list(iter_jsonl(path))
        assert [e["name"] for e in back] == ["a", "b"]

    def test_summarize_aggregates_span_durations(self):
        entries = [
            {"name": "q", "kind": "span", "vt": 1.0, "vt_end": 3.0},
            {"name": "q", "kind": "span", "vt": 5.0, "vt_end": 6.0},
        ]
        [row] = summarize(entries)
        assert row["count"] == 2
        assert row["vt_total"] == pytest.approx(3.0)
        assert row["vt_first"] == 1.0 and row["vt_last"] == 5.0


# ----------------------------------------------------------------------
# Metrics snapshot fixpoint (seeded fuzz)
# ----------------------------------------------------------------------

class TestMetricsSnapshotFixpoint:
    @pytest.mark.parametrize("seed", range(8))
    def test_encode_decode_encode_is_fixpoint(self, seed):
        rng = random.Random(seed)
        registry = MetricsRegistry()
        for i in range(rng.randint(1, 12)):
            kind = rng.choice(["counter", "gauge", "histogram"])
            labels = (
                {"k": f"v{rng.randint(0, 3)}"} if rng.random() < 0.5 else None
            )
            name = f"m_{kind}_{i % 4}"
            if kind == "counter":
                registry.counter(name, labels=labels).inc(rng.random() * 10)
            elif kind == "gauge":
                registry.gauge(name, labels=labels).set(rng.uniform(-5, 5))
            else:
                h = registry.histogram(
                    name, labels=labels, bounds=DEFAULT_TIME_BUCKETS
                )
                for _ in range(rng.randint(0, 20)):
                    h.observe(rng.random() * 20)
        once = registry.snapshot_json()
        decoded = MetricsRegistry.from_snapshot(json.loads(once))
        assert decoded.snapshot_json() == once

    def test_prometheus_rendering_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"b": "2"}).inc()
        registry.counter("c", labels={"a": "1"}).inc(3)
        registry.histogram("h", bounds=[0.1, 1.0]).observe(0.5)
        assert registry.render_prometheus() == registry.render_prometheus()
        text = registry.render_prometheus()
        assert 'le="+Inf"' in text and "h_count 1" in text

    def test_prometheus_histogram_exposition_format_pinned(self):
        # Format pin: cumulative buckets, the +Inf bucket, and the
        # _sum/_count lines — exactly what scrapers parse. Any drift
        # here silently breaks downstream dashboards.
        registry = MetricsRegistry()
        h = registry.histogram(
            "h", bounds=[0.1, 1.0], help="Answered-query latency."
        )
        h.observe(0.05)
        h.observe(0.5)
        h.observe(99.0)
        assert registry.render_prometheus() == (
            "# HELP h Answered-query latency.\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            'h_bucket{le="1"} 2\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 99.55\n"
            "h_count 3\n"
        )

    def test_stats_payload_shape(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        payload = stats_payload(registry)
        assert set(payload) == {"metrics", "trace_schema"}
        assert payload["trace_schema"] == 1
        assert payload["metrics"] == registry.snapshot()

    def test_timed_stage_counts_seconds_and_entries(self):
        ticks = iter([10.0, 10.25, 20.0, 20.5])
        with observed(enabled=True):
            previous = set_perf_source(lambda: next(ticks))
            try:
                for _ in range(2):
                    with timed_stage("stage_a"):
                        pass
            finally:
                set_perf_source(previous)
            text = export_metrics_text()
        assert 'repro_stage_wall_seconds_total{stage="stage_a"} 0.75' in text
        assert 'repro_stage_entries_total{stage="stage_a"} 2' in text


# ----------------------------------------------------------------------
# Ring buffer and observed()
# ----------------------------------------------------------------------

class TestSinks:
    def test_ring_buffer_keeps_newest_and_counts_drops(self):
        ring = RingBuffer(3)
        for i in range(10):
            ring.append({"i": i})
        assert len(ring) == 3
        assert [e["i"] for e in ring] == [7, 8, 9]
        assert ring.dropped == 7

    def test_ring_buffer_rejects_nonpositive_capacity(self):
        with pytest.raises(BenchmarkError):
            RingBuffer(0)

    def test_bounded_tracer_drops_oldest(self):
        tracer = Tracer(enabled=True, capacity=2)
        for i in range(5):
            tracer.event(f"e{i}", float(i))
        assert [e["name"] for e in tracer.entries()] == ["e3", "e4"]
        assert tracer.dropped == 3

    def test_observed_writes_files_and_restores_singletons(self, tmp_path):
        before = get_tracer()
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        with observed(trace_path=trace_path, metrics_path=metrics_path):
            assert get_tracer() is not before
            get_tracer().event("e", 1.0)
            get_metrics().counter("c").inc()
        assert get_tracer() is before
        assert len(list(iter_jsonl(trace_path))) == 1
        data = json.loads(metrics_path.read_text())
        assert data["trace_schema"] == 1

    def test_observed_inactive_without_paths(self):
        with observed() as tracer:
            assert not tracer.enabled


# ----------------------------------------------------------------------
# Satellites: clock + logger
# ----------------------------------------------------------------------

class TestClock:
    def test_perf_seconds_is_monotonic(self):
        a = perf_seconds()
        b = perf_seconds()
        assert b >= a

    def test_perf_source_is_swappable(self):
        ticks = iter([1.0, 3.5])
        previous = set_perf_source(lambda: next(ticks))
        try:
            assert perf_seconds() == 1.0
            assert perf_seconds() == 3.5
        finally:
            set_perf_source(previous)


class TestLog:
    def test_parse_level_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            replog.parse_level("chatty")

    def test_fields_render_sorted_and_stable(self):
        stream = io.StringIO()
        replog.configure(level="debug", stream=stream)
        try:
            logger = replog.get_logger("net.test")
            logger.warning("something odd", b=2, a="x")
        finally:
            replog.configure(stream=sys.stderr)
        line = stream.getvalue()
        assert "repro[net.test] WARNING: something odd a='x' b=2" in line

    def test_silent_suppresses_everything(self):
        stream = io.StringIO()
        replog.configure(level="silent", stream=stream)
        try:
            replog.get_logger("quiet").error("nope")
        finally:
            replog.configure(stream=sys.stderr)
        assert stream.getvalue() == ""

    def test_logger_names_are_namespaced(self):
        logger = replog.get_logger("runtime.executor")
        assert logger._logger.name == "repro.runtime.executor"
        assert logger.isEnabledFor(logging.CRITICAL)
