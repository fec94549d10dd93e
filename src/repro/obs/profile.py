"""Per-stage wall-time attribution across the serving stack.

Answers "where does *wall* time go inside a §5-style run?" — the
question the end-of-run CSVs cannot: how much real time the process spent in engine
step kernels vs. query-kernel compilation vs. scheduler
arbitration vs. turn-grant round-trips vs. PENDING stalls. This is the
before/after lens for every subsequent performance PR (ROADMAP:
vectorized engine core, timing-wheel scheduler).

Stage totals are **wall-clock only** (via
:func:`repro.common.clock.perf_seconds`) and therefore live entirely on
the nondeterministic axis: they are never written into golden-pinned
output, only into ``--metrics-out`` files and the STATS wire message
(docs/observability.md's two-axis contract).

The profiler is a process-wide singleton that defaults to *disabled*;
``stage()`` then returns a shared no-op context manager so instrumented
hot loops pay one attribute check and nothing else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.clock import perf_seconds

#: The canonical stage taxonomy (docs/observability.md). Call sites may
#: introduce new stages freely; these are the ones wired in today.
STAGE_ENGINE_STEP = "engine_step"            # progressive-engine estimate kernels
STAGE_COMPILE = "compile"                    # query-kernel compilation (docs/kernels.md)
STAGE_SCHEDULER = "scheduler_arbitration"    # processor-sharing settle loops
STAGE_TURN_GRANT = "turn_grant"              # shared-TCP grant→TURN_DONE round-trips
STAGE_PENDING_STALL = "pending_stall"        # waiting on external client input
STAGE_FRAME_IO = "frame_io"                  # wire frame encode/send/receive

KNOWN_STAGES = (
    STAGE_ENGINE_STEP,
    STAGE_COMPILE,
    STAGE_SCHEDULER,
    STAGE_TURN_GRANT,
    STAGE_PENDING_STALL,
    STAGE_FRAME_IO,
)


class _NullStage:
    """Shared do-nothing context manager for the disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_STAGE = _NullStage()


class _Stage:
    __slots__ = ("_profiler", "_name", "_started")

    def __init__(self, profiler: "StageProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Stage":
        self._started = perf_seconds()
        return self

    def __exit__(self, *exc) -> None:
        self._profiler.add(self._name, perf_seconds() - self._started)


class StageProfiler:
    """Accumulates wall seconds and entry counts per named stage."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def stage(self, name: str):
        """Context manager timing one entry of ``name`` (no-op if disabled)."""
        if not self.enabled:
            return _NULL_STAGE
        return _Stage(self, name)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Attribute ``seconds`` of wall time to ``name`` directly."""
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + count

    def rows(self) -> List[Tuple[str, int, float]]:
        """(stage, entries, wall seconds), sorted by descending seconds."""
        return sorted(
            ((name, self._counts.get(name, 0), secs)
             for name, secs in self._seconds.items()),
            key=lambda row: (-row[2], row[0]),
        )

    def snapshot(self) -> dict:
        """JSON-ready stage table (sorted by name for stable diffs)."""
        return {
            "stages": [
                {
                    "name": name,
                    "count": self._counts.get(name, 0),
                    "wall_seconds": self._seconds[name],
                }
                for name in sorted(self._seconds)
            ]
        }

    def report(self) -> str:
        """Human-readable attribution table, widest stages first."""
        rows = self.rows()
        if not rows:
            return "(no stages profiled)\n"
        total = sum(secs for _, _, secs in rows)
        width = max(len("stage"), max(len(name) for name, _, _ in rows))
        lines = [f"{'stage':<{width}}  {'entries':>8}  {'wall s':>10}  {'share':>6}"]
        for name, count, secs in rows:
            share = (secs / total * 100.0) if total > 0 else 0.0
            lines.append(
                f"{name:<{width}}  {count:>8}  {secs:>10.4f}  {share:>5.1f}%"
            )
        lines.append(f"{'total':<{width}}  {'':>8}  {total:>10.4f}")
        return "\n".join(lines) + "\n"


#: Process-wide profiler; disabled until observability is switched on
#: (``--trace``/``--metrics-out`` or :func:`repro.obs.enable`).
_GLOBAL = StageProfiler(enabled=False)


def get_profiler() -> StageProfiler:
    return _GLOBAL


def set_profiler(profiler: StageProfiler) -> StageProfiler:
    """Swap the global profiler (tests, per-run isolation); returns the old."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = profiler
    return previous
