"""Counters, gauges and histograms with deterministic exposition.

Operational counterpart to the §4.7 result-quality metrics. A
:class:`MetricsRegistry` holds named metrics, optionally labelled, and
renders them two ways:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` + samples), served live to
  ``repro connect --stats`` clients via the STATS wire message;
* :meth:`MetricsRegistry.snapshot` / :meth:`snapshot_json` — a canonical
  JSON snapshot (sorted keys, sorted metric order) whose
  encode→decode→encode cycle is a fixpoint (pinned by a seeded fuzz test
  in ``tests/test_obs.py``), so snapshots can be diffed byte-for-byte.

Histograms use **fixed bucket boundaries** chosen at construction time
(defaults below) — never adaptive ones — so the exposition of two runs
with the same observations is byte-identical and bucket counts from
different runs are directly comparable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import BenchmarkError
from repro.common.fingerprint import canonical_json

#: Fixed wall-latency buckets (seconds): micro- to tens-of-seconds range,
#: covering engine-step kernels up to whole-session walls.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fixed virtual-time buckets (seconds): the think-time / TR scale of the
#: simulation (§4.6 defaults put TRs at 0.5–3 s and think time at 1 s).
DEFAULT_VT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 60.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise BenchmarkError(f"counter {self.name} cannot decrease (inc {amount!r})")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, active sessions)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-boundary histogram: cumulative buckets, sum, and count."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: _LabelKey = (),
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise BenchmarkError(f"histogram {name} needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise BenchmarkError(
                f"histogram {name} bounds must be strictly increasing: {bounds!r}"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with deterministic renderings."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, _LabelKey], object] = {}
        self._help: Dict[str, str] = {}
        self._kinds: Dict[str, str] = {}

    # -- registration -------------------------------------------------

    def _get(self, kind: str, name: str, labels, help, **kwargs):
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise BenchmarkError(
                f"metric {name!r} already registered as {known}, not {kind}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            cls = _METRIC_KINDS[kind]
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
            self._kinds[name] = kind
            if help:
                self._help[name] = help
        return metric

    def counter(self, name: str, labels: Optional[Mapping[str, str]] = None,
                help: str = "") -> Counter:
        return self._get("counter", name, labels, help)

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None,
              help: str = "") -> Gauge:
        return self._get("gauge", name, labels, help)

    def histogram(self, name: str, labels: Optional[Mapping[str, str]] = None,
                  help: str = "",
                  bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._get("histogram", name, labels, help, bounds=bounds)

    # -- introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def _ordered(self) -> List[object]:
        return [self._metrics[key] for key in sorted(self._metrics)]

    # -- renderings ---------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition, deterministically ordered."""
        lines: List[str] = []
        seen_header = set()
        for metric in self._ordered():
            name = metric.name
            if name not in seen_header:
                seen_header.add(name)
                help_text = self._help.get(name)
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {metric.kind}")
            labels = metric.labels
            if metric.kind == "histogram":
                cumulative = 0
                for bound, bucket in zip(metric.bounds, metric.counts):
                    cumulative += bucket
                    key = labels + (("le", _format_bound(bound)),)
                    lines.append(f"{name}_bucket{_render_labels(key)} {cumulative}")
                cumulative += metric.counts[-1]
                key = labels + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_render_labels(key)} {cumulative}")
                lines.append(f"{name}_sum{_render_labels(labels)} {_format_value(metric.sum)}")
                lines.append(f"{name}_count{_render_labels(labels)} {metric.count}")
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} {_format_value(metric.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """A canonical, JSON-ready snapshot of every metric."""
        metrics = []
        for metric in self._ordered():
            entry: Dict[str, object] = {
                "name": metric.name,
                "type": metric.kind,
                "labels": {k: v for k, v in metric.labels},
            }
            help_text = self._help.get(metric.name)
            if help_text:
                entry["help"] = help_text
            if metric.kind == "histogram":
                entry["bounds"] = list(metric.bounds)
                entry["counts"] = list(metric.counts)
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            else:
                entry["value"] = metric.value
            metrics.append(entry)
        return {"version": 1, "metrics": metrics}

    def snapshot_json(self) -> str:
        return canonical_json(self.snapshot())

    @classmethod
    def from_snapshot(cls, data: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output.

        ``registry.snapshot_json()`` of the rebuilt registry equals the
        original encoding — the fixpoint the fuzz test pins.
        """
        if not isinstance(data, Mapping) or data.get("version") != 1:
            raise BenchmarkError(f"not a metrics snapshot: {data!r}")
        registry = cls()
        for entry in data.get("metrics", ()):
            kind = entry.get("type")
            if kind not in _METRIC_KINDS:
                raise BenchmarkError(f"unknown metric type {kind!r} in snapshot")
            name = entry["name"]
            labels = entry.get("labels") or None
            help_text = entry.get("help", "")
            if kind == "histogram":
                metric = registry.histogram(
                    name, labels=labels, help=help_text, bounds=entry["bounds"]
                )
                counts = list(entry["counts"])
                if len(counts) != len(metric.bounds) + 1:
                    raise BenchmarkError(
                        f"histogram {name!r} snapshot has {len(counts)} counts "
                        f"for {len(metric.bounds)} bounds"
                    )
                metric.counts = [int(c) for c in counts]
                metric.sum = float(entry["sum"])
                metric.count = int(entry["count"])
            elif kind == "counter":
                registry.counter(name, labels=labels, help=help_text).value = float(
                    entry["value"]
                )
            else:
                registry.gauge(name, labels=labels, help=help_text).value = float(
                    entry["value"]
                )
        return registry

    def clear(self) -> None:
        self._metrics.clear()
        self._help.clear()
        self._kinds.clear()


def _format_bound(bound: float) -> str:
    """Bucket bounds render without trailing float noise (0.1, 1, 10)."""
    return repr(bound) if bound != int(bound) else str(int(bound))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: The process-wide registry the instrumented call sites write to.
_GLOBAL = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    return _GLOBAL


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests, per-run isolation); returns the old."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous
