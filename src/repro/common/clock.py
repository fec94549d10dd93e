"""Clock abstraction: virtual (simulated) and wall-clock time sources.

The paper runs its benchmark against live database systems and measures
wall-clock latencies. This reproduction replaces the live systems with
engine simulators (see docs/architecture.md, "Simulated engines"), and
those simulators account for time through a :class:`Clock`:

* :class:`VirtualClock` — a simulated clock that only moves when the
  benchmark driver advances it. All default benchmark runs use it, which
  makes results deterministic, hardware-independent, and lets the paper's
  100M–1B-row configurations finish in seconds.
* :class:`WallClock` — real (monotonic) time, used by smoke tests that
  exercise the same code paths under genuine timing.

Both expose ``now()`` (seconds, float) and ``advance(dt)``; for the wall
clock ``advance`` sleeps, mirroring the think-time delays a real user
introduces between interactions (§4.6).

This module is also the single place the codebase reads *measurement*
wall time from: :func:`perf_seconds` wraps :func:`time.perf_counter`
behind a swappable source, so every profiling/elapsed-time stamp
(CLI timings, executor cell walls, server ``wall_seconds``, network
bench walls, :func:`repro.obs.timed_stage`) is monotonic and mockable
in tests via :func:`set_perf_source`.
"""

from __future__ import annotations

import time

from repro.common.errors import EngineError

_perf_source = time.perf_counter


def perf_seconds() -> float:
    """Monotonic wall-clock timestamp (seconds) for elapsed-time math.

    Use this instead of calling :func:`time.perf_counter` or
    :func:`time.time` directly: differences are guaranteed monotonic, and
    tests can substitute a deterministic source with
    :func:`set_perf_source`. Absolute values are meaningless; only
    differences are.
    """
    return _perf_source()


def set_perf_source(source) -> "object":
    """Swap the wall-time source behind :func:`perf_seconds`.

    Returns the previous source so tests can restore it. Pass a callable
    returning float seconds (e.g. an incrementing fake for deterministic
    profiling tests).
    """
    global _perf_source
    previous = _perf_source
    _perf_source = source
    return previous


class Clock:
    """Interface for time sources used by the driver and the engines."""

    def now(self) -> float:
        """Return the current time in seconds."""
        raise NotImplementedError

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` seconds (sleep, for a wall clock)."""
        raise NotImplementedError

    @property
    def is_virtual(self) -> bool:
        """Whether this clock is simulated (and thus deterministic)."""
        raise NotImplementedError


class VirtualClock(Clock):
    """A deterministic, manually advanced clock.

    The benchmark driver is a discrete-event simulation on top of this
    clock: interactions, query deadlines and think times are all events
    that advance it. Engines never sleep; they translate elapsed virtual
    time into an amount of work done via their cost model.
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise EngineError(f"virtual clock cannot start at negative time {start!r}")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise EngineError(f"cannot advance clock by negative dt {dt!r}")
        self._now += dt

    def advance_to(self, t: float) -> None:
        """Move the clock to absolute time ``t`` (must not be in the past)."""
        if t < self._now - 1e-9:
            raise EngineError(
                f"cannot move virtual clock backwards from {self._now} to {t}"
            )
        self._now = max(self._now, float(t))

    @property
    def is_virtual(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"


class WallClock(Clock):
    """Real time, based on :func:`time.monotonic`.

    ``advance`` sleeps, so a driver running on a wall clock really does
    wait out think times and time requirements, exactly like the original
    IDEBench command-line driver.
    """

    def __init__(self):
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise EngineError(f"cannot advance clock by negative dt {dt!r}")
        if dt > 0:
            time.sleep(dt)

    @property
    def is_virtual(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"WallClock(now={self.now():.6f})"
