"""The one table from span targets and counters to per-layer metrics.

``TARGETS`` says which public callables are wrapped and which layer each
span belongs to; ``METRICS`` says how every per-layer metric of
``BENCHMARK.json`` is computed from span self times, span counts, span
tallies and the counters the workloads read off the program's own
objects (``kernel_cache().stats()``, ``ArtifactStore.stats()``, the spool
file, ``ServingAggregate``).

Naming: ``<package>.<module>.<quantity>``; ``_s`` is self time in
seconds (span duration minus its child spans on the same thread, summed
over the traced units and scaled to the reference machine speed like
every other time the benchmark reports), ``_n`` an exact count, ``_ratio``
a ratio whose base is given in ``base``. A metric of a layer the
workload never enters reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    #: Span name; spans of one layer share it.
    name: str
    tally: Optional[Callable[[tuple, object], float]] = None
    #: Count the different tally values instead of summing them.
    distinct: bool = False


def _interactions_generated(args, result) -> float:
    return float(sum(workflow.num_interactions for workflow in result))


def _one_if_some(args, result) -> float:
    return 0.0 if result is None else 1.0


def _length(args, result) -> float:
    return float(len(result))


def _query_identity(args, result) -> float:
    # (oracle, query): AggQuery is a frozen dataclass, equal queries hash equal.
    return hash(args[1])


def _file_size(args, result) -> float:
    try:
        return float(result.stat().st_size)
    except OSError:
        return 0.0


TARGETS: List[Target] = [
    # workflow: scripted suites built up front vs interactions chosen online
    Target("repro.workflow.generator", "WorkflowGenerator.generate_suite",
           "workflow.generator.generate", _interactions_generated),
    Target("repro.workflow.policy", "MarkovPolicy.begin_workflow",
           "workflow.policy.next"),
    Target("repro.workflow.policy", "MarkovPolicy.next_interaction",
           "workflow.policy.next", _one_if_some),
    Target("repro.workflow.policy", "MarkovPolicy.observe",
           "workflow.policy.next"),
    # server: per-session set-up, the calendar loop, the record sinks
    Target("repro.server.manager", "make_session", "server.manager.make_session"),
    Target("repro.server.manager", "SessionManager.run", "server.manager.loop"),
    Target("repro.server.manager", "OpenSystemManager.run", "server.manager.loop"),
    Target("repro.server.spool", "RecordSpool.append", "server.spool.append"),
    Target("repro.server.spool", "ServingAggregate.observe_record",
           "server.spool.observe"),
    # bench: the session driver and the paper's metrics
    Target("repro.bench.driver", "SessionDriver.__init__", "bench.driver.init"),
    Target("repro.bench.driver", "SessionDriver.step", "bench.driver.step"),
    Target("repro.bench.metrics", "compute_metrics", "bench.metrics.compute"),
    # query: digests, the exact oracle, compiled kernels
    Target("repro.query.groundtruth", "query_cache_key",
           "query.groundtruth.digest"),
    Target("repro.query.groundtruth", "GroundTruthOracle.answer",
           "query.groundtruth.answer", _query_identity, distinct=True),
    Target("repro.query.kernels", "CompiledQueryKernel.__init__",
           "query.kernels.compile"),
    Target("repro.query.kernels", "PrefixKernelRun.poll", "query.kernels.poll"),
    # engines: the simulated systems, their cache, estimators, scheduler
    Target("repro.engines.base", "Engine.prepare", "engines.base.prepare"),
    Target("repro.engines.base", "Engine.submit", "engines.base.submit"),
    Target("repro.engines.base", "Engine.result_at", "engines.base.result_at"),
    Target("repro.engines.base", "Engine.advance_to", "engines.base.advance"),
    Target("repro.engines.kernel_cache", "KernelCache.get",
           "engines.kernel_cache.get"),
    Target("repro.engines.estimators", "z_value", "engines.estimators.z_value"),
    Target("repro.engines.estimators", "srs_estimate",
           "engines.estimators.estimate"),
    Target("repro.engines.estimators", "stratified_estimate",
           "engines.estimators.estimate"),
    Target("repro.engines.scheduler", "ProcessorSharingScheduler.advance_to",
           "engines.scheduler.advance"),
    Target("repro.engines.scheduler", "FairSessionPolicy.rates",
           "engines.scheduler.rates"),
    Target("repro.engines.scheduler", "WeightedSharingPolicy.rates",
           "engines.scheduler.rates"),
    # net: the frame codec and the blocking client's wait
    Target("repro.net.protocol", "encode_message", "net.protocol.encode", _length),
    Target("repro.net.protocol", "decode_body", "net.protocol.decode"),
    Target("repro.net.client", "NetClient.collect", "net.client.wait"),
    # runtime: matrix cells and the artifact store
    Target("repro.runtime.executor", "execute_cell", "runtime.executor.cell"),
    Target("repro.runtime.executor", "warm_ground_truth", "runtime.executor.warm"),
    Target("repro.runtime.store", "ArtifactStore.put", "runtime.store.put",
           _file_size),
    Target("repro.runtime.store", "ArtifactStore.get", "runtime.store.get"),
    # common / data
    Target("repro.common.fingerprint", "stable_digest", "common.fingerprint.digest"),
    Target("repro.common.fingerprint", "canonical_json", "common.fingerprint.digest"),
    Target("repro.data.generator", "CopulaScaler.generate", "data.generator.generate"),
    Target("repro.data.schema", "profile_table", "data.schema.profile"),
]

#: The data layer works during set-up, which is traced for these alone.
SETUP_TARGETS = [t for t in TARGETS if t.name.startswith("data.")]

#: The benchmark's own span around one traced unit.
ROOT_SPAN = "unit"


class Ledger:
    """Sums of the traced units: span totals, counters, walls."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.traced_wall = 0.0
        self.untraced_wall = 0.0
        self.unresolved = 0
        self.samples_ms: List[float] = []

    def add_spans(self, totals: Dict[str, List[float]], speed: float) -> None:
        for name, (self_s, calls, tally) in totals.items():
            entry = self.spans.setdefault(name, [0.0, 0, 0.0])
            entry[0] += self_s * speed
            entry[1] += calls
            entry[2] += tally

    def add_counters(self, counters: Dict[str, float]) -> None:
        for key, value in counters.items():
            if key == "peak_active":
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0, 0.0))[0]

    def calls(self, name: str) -> float:
        return float(self.spans.get(name, (0.0, 0, 0.0))[1])

    def tally(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0, 0.0))[2]

    def counter(self, key: str) -> float:
        return float(self.counters.get(key, 0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(samples: List[float], share: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    compute: Callable[[Ledger], float]
    #: For ratios: what is divided by what.
    base: str = ""


def _self(span: str) -> Callable[[Ledger], float]:
    return lambda ledger: ledger.self_s(span)


def _calls(span: str) -> Callable[[Ledger], float]:
    return lambda ledger: ledger.calls(span)


def _tally(span: str) -> Callable[[Ledger], float]:
    return lambda ledger: ledger.tally(span)


def _counter(key: str) -> Callable[[Ledger], float]:
    return lambda ledger: ledger.counter(key)


def _fired_ratio(ledger: Ledger) -> float:
    generated = ledger.tally("workflow.generator.generate")
    # Paths without an interaction counter run every workflow to its end.
    fired = ledger.counter("interactions_fired") or generated
    return _ratio(fired, generated)


METRICS: List[Metric] = [
    Metric("workflow.generator.generate_s", "s", "lower",
           _self("workflow.generator.generate")),
    Metric("workflow.generator.interactions_n", "count", "lower",
           _tally("workflow.generator.generate")),
    Metric("workflow.fired_ratio", "ratio", "higher", _fired_ratio,
           "interactions fired / interactions generate_suite built"),
    Metric("workflow.policy.next_s", "s", "lower", _self("workflow.policy.next")),
    Metric("workflow.policy.interactions_n", "count", "lower",
           _tally("workflow.policy.next")),
    Metric("server.manager.make_session_s", "s", "lower",
           _self("server.manager.make_session")),
    Metric("server.manager.loop_s", "s", "lower", _self("server.manager.loop")),
    Metric("server.manager.sessions_n", "count", "higher", _counter("sessions")),
    Metric("server.manager.peak_active_n", "count", "higher",
           _counter("peak_active")),
    Metric("server.spool.append_s", "s", "lower", _self("server.spool.append")),
    Metric("server.spool.observe_s", "s", "lower", _self("server.spool.observe")),
    Metric("server.spool.records_n", "count", "higher", _counter("spool_records")),
    Metric("server.spool.bytes_n", "count", "lower", _counter("spool_bytes")),
    Metric("bench.driver.init_s", "s", "lower", _self("bench.driver.init")),
    Metric("bench.driver.step_s", "s", "lower", _self("bench.driver.step")),
    Metric("bench.driver.steps_n", "count", "lower", _calls("bench.driver.step")),
    Metric("bench.driver.records_n", "count", "higher", _counter("records")),
    Metric("bench.driver.tr_violations_n", "count", "lower",
           _counter("tr_violations")),
    Metric("bench.metrics.compute_s", "s", "lower", _self("bench.metrics.compute")),
    Metric("bench.metrics.calls_n", "count", "lower",
           _calls("bench.metrics.compute")),
    Metric("query.groundtruth.digest_s", "s", "lower",
           _self("query.groundtruth.digest")),
    Metric("query.groundtruth.digest_calls_n", "count", "lower",
           _calls("query.groundtruth.digest")),
    Metric("query.groundtruth.digests_per_record_ratio", "ratio", "lower",
           lambda l: _ratio(l.calls("query.groundtruth.digest"),
                            l.counter("records")),
           "query_cache_key calls / records produced"),
    Metric("query.groundtruth.answer_s", "s", "lower",
           _self("query.groundtruth.answer")),
    Metric("query.groundtruth.answer_calls_n", "count", "lower",
           _calls("query.groundtruth.answer")),
    Metric("query.groundtruth.answer_distinct_ratio", "ratio", "higher",
           lambda l: _ratio(l.tally("query.groundtruth.answer"),
                            l.calls("query.groundtruth.answer")),
           "distinct queries answered / GroundTruthOracle.answer calls"),
    Metric("query.kernels.compile_s", "s", "lower", _self("query.kernels.compile")),
    Metric("query.kernels.compiles_n", "count", "lower",
           _calls("query.kernels.compile")),
    Metric("query.kernels.poll_s", "s", "lower", _self("query.kernels.poll")),
    Metric("query.kernels.polls_n", "count", "lower", _calls("query.kernels.poll")),
    Metric("engines.base.prepare_s", "s", "lower", _self("engines.base.prepare")),
    Metric("engines.base.submit_s", "s", "lower", _self("engines.base.submit")),
    Metric("engines.base.result_at_s", "s", "lower",
           _self("engines.base.result_at")),
    Metric("engines.base.advance_s", "s", "lower", _self("engines.base.advance")),
    Metric("engines.base.submits_n", "count", "lower",
           _calls("engines.base.submit")),
    Metric("engines.kernel_cache.get_s", "s", "lower",
           _self("engines.kernel_cache.get")),
    Metric("engines.kernel_cache.hits_n", "count", "higher",
           _counter("kernel_hits")),
    Metric("engines.kernel_cache.misses_n", "count", "lower",
           _counter("kernel_misses")),
    Metric("engines.kernel_cache.evictions_n", "count", "lower",
           _counter("kernel_evictions")),
    Metric("engines.kernel_cache.hit_ratio", "ratio", "higher",
           lambda l: _ratio(l.counter("kernel_hits"),
                            l.counter("kernel_hits") + l.counter("kernel_misses")),
           "kernel-cache hits / (hits + misses), from kernel_cache().stats()"),
    Metric("engines.estimators.z_value_s", "s", "lower",
           _self("engines.estimators.z_value")),
    Metric("engines.estimators.z_value_calls_n", "count", "lower",
           _calls("engines.estimators.z_value")),
    Metric("engines.estimators.estimate_s", "s", "lower",
           _self("engines.estimators.estimate")),
    Metric("engines.scheduler.advance_s", "s", "lower",
           _self("engines.scheduler.advance")),
    Metric("engines.scheduler.rates_s", "s", "lower",
           _self("engines.scheduler.rates")),
    Metric("net.protocol.encode_s", "s", "lower", _self("net.protocol.encode")),
    Metric("net.protocol.encode_calls_n", "count", "lower",
           _calls("net.protocol.encode")),
    Metric("net.protocol.encode_bytes_n", "count", "lower",
           _tally("net.protocol.encode")),
    Metric("net.protocol.decode_s", "s", "lower", _self("net.protocol.decode")),
    Metric("net.protocol.decode_calls_n", "count", "lower",
           _calls("net.protocol.decode")),
    Metric("net.client.wait_s", "s", "lower", _self("net.client.wait")),
    Metric("net.client.session_ms_p50", "ms", "lower",
           lambda l: _percentile(l.samples_ms, 0.5)),
    Metric("net.client.session_ms_p90", "ms", "lower",
           lambda l: _percentile(l.samples_ms, 0.9)),
    Metric("net.server.sessions_n", "count", "higher",
           _counter("net_server_sessions")),
    Metric("runtime.executor.cell_s", "s", "lower", _self("runtime.executor.cell")),
    Metric("runtime.executor.cells_n", "count", "higher", _counter("cells")),
    Metric("runtime.executor.warm_s", "s", "lower", _self("runtime.executor.warm")),
    Metric("runtime.executor.cached_rerun_s", "s", "lower",
           _counter("cached_rerun_s")),
    Metric("runtime.executor.jobs_speedup_ratio", "ratio", "higher",
           lambda l: _ratio(l.counter("jobs_serial_s"),
                            l.counter("jobs_parallel_s")),
           "jobs=1 wall / jobs=nproc wall, one unit, one pass each: noisy"),
    Metric("runtime.store.put_s", "s", "lower", _self("runtime.store.put")),
    Metric("runtime.store.get_s", "s", "lower", _self("runtime.store.get")),
    Metric("runtime.store.bytes_written_n", "count", "lower",
           _tally("runtime.store.put")),
    Metric("runtime.store.hits_n", "count", "higher", _counter("store_hits")),
    Metric("runtime.store.misses_n", "count", "lower", _counter("store_misses")),
    Metric("common.fingerprint.digest_s", "s", "lower",
           _self("common.fingerprint.digest")),
    Metric("common.fingerprint.digest_calls_n", "count", "lower",
           _calls("common.fingerprint.digest")),
    Metric("data.generator.generate_s", "s", "lower",
           _self("data.generator.generate")),
    Metric("data.schema.profile_s", "s", "lower", _self("data.schema.profile")),
    Metric("trace.wall_s", "s", "lower", lambda l: l.traced_wall),
    Metric("trace.queries_n", "count", "higher", _counter("records")),
    Metric("trace.unattributed_ratio", "ratio", "lower",
           lambda l: _ratio(l.self_s(ROOT_SPAN), l.traced_wall),
           "self time of the benchmark's root span / traced wall"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           lambda l: _ratio(l.traced_wall, l.untraced_wall),
           "traced wall / wall of the same units run untraced beside them"),
    Metric("trace.unresolved_targets_n", "count", "lower",
           lambda l: float(l.unresolved)),
]


def layer_values(ledger: Ledger) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric as ``{"value": ..., "unit": ...}``."""
    return {
        metric.name: {"value": metric.compute(ledger), "unit": metric.unit}
        for metric in METRICS
    }


def top_layers(ledger: Ledger, count: int = 5) -> List[tuple]:
    """The ``count`` layers with the most self time, as (name, share of wall).

    The data layer's spans are from set-up, which is outside the wall.
    """
    ranked = sorted(
        ((name, entry[0]) for name, entry in ledger.spans.items()
         if name != ROOT_SPAN and not name.startswith("data.")),
        key=lambda item: -item[1],
    )
    return [
        (name + "_s", _ratio(seconds, ledger.traced_wall))
        for name, seconds in ranked[:count]
    ]
