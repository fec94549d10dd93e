"""Measuring one workload: units on the clock, calibration beside them.

The boxes this runs on change speed by 20 % and more for seconds to
minutes at a time (a fixed pure-Python loop timed for two minutes read
115–173 ms per 5-second bucket), which no amount of repetition inside a
run averages away. So every timed interval is bracketed by passes of a
fixed calibration kernel — Python object churn, JSON, SHA-256, small and
mid-size numpy calls; nothing of the program under test — and reported
in *reference seconds*::

    reference seconds = host seconds x (CALIBRATION_REFERENCE_S / seconds
                        one calibration pass took beside the interval)

A change to the program moves its own time and leaves the kernel's
alone, so gains and regressions show in full; a box that is 20 % slower
this minute slows both and cancels. The raw host-second figures are
printed on the ``# info`` line of every run.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from layers import (
    ROOT_SPAN,
    SETUP_TARGETS,
    TARGETS,
    Ledger,
    layer_values,
    top_layers,
)
from spans import SpanRecorder
from workloads import Unit, UnitOutput, Workload, cache_counters

#: The reference speed: a box on which one calibration pass takes 20 ms,
#: the median on the 2-core 2.1 GHz Xeon VM ``results/baseline.json`` was
#: measured on - so there, reference seconds are about host seconds.
CALIBRATION_REFERENCE_S = 0.0200
#: Passes between two timed intervals.
CALIBRATION_PASSES = 3
#: A run that overshoots ``--seconds`` by this factor stops early.
OVERRUN_FACTOR = 1.6

_rng = np.random.default_rng(12345)
_KEYS = _rng.integers(0, 64, 120_000)
_VALUES = _rng.random(120_000)
_SMALL_KEYS = _rng.integers(0, 16, 100)
_SMALL_VALUES = _rng.random(100)


def calibration_pass() -> float:
    """One pass of the fixed kernel; returns its host seconds."""
    started = time.perf_counter()
    counts: Dict[int, int] = {}
    rows = []
    for i in range(12000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + i
        rows.append((key, i * 0.5, str(i)))
    rows.sort()
    heap: list = []
    for row in rows[:4000]:
        heapq.heappush(heap, row)
    while heap:
        heapq.heappop(heap)
    for i in range(120):
        text = json.dumps(
            {"record": {"a": i, "b": [0.5 * i, 1.5, None], "c": "flights",
                        "d": {"x": i, "y": "bin"}}, "session": f"session-{i}"},
            sort_keys=True, separators=(",", ":"),
        )
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        json.loads(text)
    for _ in range(300):
        mask = _SMALL_VALUES > 0.5
        np.bincount(_SMALL_KEYS[mask], weights=_SMALL_VALUES[mask], minlength=16)
        float(_SMALL_VALUES.sum())
    for _ in range(5):
        mask = _VALUES > 0.3
        np.bincount(_KEYS[mask], weights=_VALUES[mask], minlength=64)
    return time.perf_counter() - started


def calibrate() -> float:
    """Mean host seconds per calibration pass, right now."""
    return sum(calibration_pass() for _ in range(CALIBRATION_PASSES)) / (
        CALIBRATION_PASSES
    )


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Execution:
    wall: float
    cpu: float
    output: UnitOutput
    state: object
    raw: object
    spans: Optional[SpanRecorder] = None


def execute(
    workload: Workload, fixture, unit: Unit, traced: bool = False
) -> Execution:
    """Prepare, run on the clock, read the outputs. Caller cleans up."""
    state = workload.prepare(fixture, unit)
    recorder = SpanRecorder() if traced else None
    if recorder is not None:
        recorder.install(TARGETS)
    try:
        cpu_started = _cpu_seconds()
        started = time.perf_counter()
        if recorder is not None:
            with recorder.span(ROOT_SPAN):
                raw = workload.run(fixture, unit, state)
        else:
            raw = workload.run(fixture, unit, state)
        wall = time.perf_counter() - started
        cpu = _cpu_seconds() - cpu_started
    except BaseException:
        if state is not None:
            workload.cleanup(state)
        raise
    finally:
        if recorder is not None:
            recorder.uninstall()
    output = workload.summarize(fixture, unit, state, raw)
    # Every unit empties the kernel cache first, which zeroes its counters.
    output.counters.update(cache_counters())
    return Execution(wall, cpu, output, state, raw, recorder)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, object]]
    info: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def last_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        })


class _Run:
    """The state of one run: live fixtures, calibration, sums."""

    def __init__(self, workload: Workload, trace: bool, trace_out=None):
        self.workload = workload
        self.trace = trace
        self.trace_out = trace_out
        self.ledger = Ledger() if trace else None
        self.live: Dict[int, object] = {}
        self.problems: List[str] = []
        self.attempted = self.failed = 0
        self.setup_samples: List[float] = []
        self.setup_raw: List[float] = []
        self.rows: List[dict] = []
        self.digests: List[str] = []
        self.passes = [calibrate()]

    def speed_since_last_calibration(self) -> float:
        """Reference seconds per host second over the interval just timed:
        the mean of the calibration before it and a fresh one after it."""
        before = self.passes[-1]
        self.passes.append(calibrate())
        return CALIBRATION_REFERENCE_S / ((before + self.passes[-1]) / 2)

    def set_up(self, unit: Unit) -> None:
        # Traced runs time the data layer, which works during set-up.
        recorder = SpanRecorder()
        if self.trace:
            recorder.install(SETUP_TARGETS)
        try:
            started = time.perf_counter()
            self.live[unit.fixture] = self.workload.setup(unit)
            took = time.perf_counter() - started
        finally:
            recorder.uninstall()
        speed = self.speed_since_last_calibration()
        if self.trace:
            self.ledger.add_spans(recorder.self_times(), speed)
        self.setup_raw.append(took)
        self.setup_samples.append(took * speed)

    def run_unit(self, position: int, unit: Unit) -> None:
        workload = self.workload
        if unit.fixture not in self.live:
            self.set_up(unit)
        fixture = self.live[unit.fixture]
        plain = execute(workload, fixture, unit)
        speed = self.speed_since_last_calibration()
        output = plain.output
        try:
            if position == 0:
                self.problems.extend(workload.reference_check(
                    fixture, unit, plain.state, plain.raw
                ))
        finally:
            if plain.state is not None:
                workload.cleanup(plain.state)
        plain.raw = plain.state = None
        if self.trace or position == 0:
            # The same unit again: traced for the per-layer numbers, or
            # plain to show that the same inputs give the same bytes.
            again = execute(workload, fixture, unit, traced=self.trace)
            if again.state is not None:
                workload.cleanup(again.state)
            again_speed = self.speed_since_last_calibration()
            if again.output.digest != output.digest:
                self.problems.append(
                    f"unit {position}: output bytes differ between two "
                    "runs of the same inputs"
                )
            if self.trace:
                self._book_trace(position, unit, plain, again, speed, again_speed)
        self.problems.extend(
            f"unit {position}: {text}" for text in output.problems
        )
        self.attempted += output.attempted
        self.failed += output.failed
        self.digests.append(output.digest)
        self.rows.append({
            "wall": plain.wall, "cpu": plain.cpu, "speed": speed,
            "queries": output.queries, "sessions": output.sessions,
        })

    def _book_trace(self, position, unit, plain, again, speed, again_speed):
        ledger, recorder = self.ledger, again.spans
        leftovers = recorder.leftovers()
        if leftovers:
            self.problems.append(f"span wrappers left installed: {leftovers}")
        ledger.add_spans(recorder.self_times(), again_speed)
        ledger.add_counters(again.output.counters)
        ledger.traced_wall += again.wall * again_speed
        ledger.untraced_wall += plain.wall * speed
        ledger.unresolved = len(recorder.unresolved)
        ledger.samples_ms.extend(ms * speed for ms in plain.output.samples_ms)
        if self.trace_out is not None:
            recorder.write_jsonl(self.trace_out, position)
        if position == 0:
            ledger.add_counters(
                self.workload.trace_extras(self.live[unit.fixture], unit)
            )
            self.passes.append(calibrate())

    def tear_down(self, fixture_key=None) -> None:
        keys = list(self.live) if fixture_key is None else [fixture_key]
        for key in keys:
            if key in self.live:
                self.workload.teardown(self.live.pop(key))


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    trace_out=None,
) -> RunResult:
    """One run of one workload: the contract's ``--workload`` invocation."""
    plan = workload.plan(seed, seconds)
    # A traced run executes every unit twice, so it takes every other one.
    units = plan.units[::2] if trace else plan.units

    # Warm-up, off the clock: lazy imports and first-call costs are paid
    # on a small throw-away fixture, not by the first timed unit.
    fixture = workload.setup(plan.warmup)
    try:
        warm = execute(workload, fixture, plan.warmup)
        if warm.state is not None:
            workload.cleanup(warm.state)
    finally:
        workload.teardown(fixture)

    run = _Run(workload, trace, trace_out)
    truncated = False
    began = time.perf_counter()
    try:
        if workload.keep_fixtures:
            # All fixtures first and in one order, whatever order the seed
            # puts the units in: peak memory then does not depend on it.
            first_use = {}
            for unit in units:
                first_use.setdefault(unit.fixture, unit)
            for key in sorted(first_use):
                run.set_up(first_use[key])
        for position, unit in enumerate(units):
            if time.perf_counter() - began > OVERRUN_FACTOR * seconds:
                truncated = True
                break
            try:
                run.run_unit(position, unit)
            except Exception:
                # Every operation of a unit that raised counts as failed.
                expected = workload.expected_sessions(unit)
                run.attempted += expected
                run.failed += expected
                run.problems.append(
                    f"unit {position} raised:\n{traceback.format_exc()}"
                )
            finally:
                if not workload.keep_fixtures:
                    run.tear_down(unit.fixture)
    finally:
        run.tear_down()

    rows, problems = run.rows, run.problems
    if not rows:
        problems.append("no unit completed")
    wall = sum(row["wall"] * row["speed"] for row in rows)
    cpu = sum(row["cpu"] * row["speed"] for row in rows)
    queries = sum(row["queries"] for row in rows)
    sessions = sum(row["sessions"] for row in rows)
    if queries == 0 and rows:
        problems.append("no query was evaluated")
    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "units": len(rows),
        "units_planned": len(units),
        "truncated": truncated,
        "measured_host_s": time.perf_counter() - began,
        "queries": queries,
        "sessions": sessions,
        "raw_wall_s": [round(row["wall"], 6) for row in rows],
        "raw_queries_per_s": (
            queries / sum(row["wall"] for row in rows) if rows else 0.0
        ),
        "raw_setup_s": [round(value, 6) for value in run.setup_raw],
        "calibration_pass_s": {
            "reference": CALIBRATION_REFERENCE_S,
            "median": statistics.median(run.passes),
            "min": min(run.passes),
            "max": max(run.passes),
        },
        "sim_digest": hashlib.sha256("".join(run.digests).encode()).hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }
    if trace:
        metrics = layer_values(run.ledger)
        info["top_layers"] = [
            [name, round(share, 4)] for name, share in top_layers(run.ledger)
        ]
    else:
        samples = run.setup_samples
        metrics = {
            "setup_s": {
                "value": statistics.median(samples) if samples else 0.0,
                "unit": "s",
            },
            "queries_per_s": {
                "value": queries / wall if wall else 0.0, "unit": "1/s",
            },
            "sessions_per_s": {
                "value": sessions / wall if wall else 0.0, "unit": "1/s",
            },
            "cpu_ms_per_query": {
                "value": 1e3 * cpu / queries if queries else 0.0, "unit": "ms",
            },
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    return RunResult(
        correct=not problems and run.failed == 0,
        attempted=max(1, run.attempted),
        failed=run.failed,
        metrics=metrics,
        info=info,
        problems=problems,
    )
