"""Session-server reporting: per-session tables and the sweep reports.

Two renderings:

* :func:`render_session_table` — one row per served session (the §4.8
  summary metrics, scoped per session), printed by ``repro serve``;
* the serving-sweep reports — ``repro bench-sessions`` (sessions ×
  engine × isolated/shared: how per-session quality and aggregate
  throughput evolve as more simulated users share the process and, in
  shared mode, one engine) and ``repro bench-adaptive`` (sessions ×
  policy × closed/open churn). Their cells are ``RunSpec(mode="serve")``
  cells run by the runtime's
  :class:`~repro.runtime.executor.MatrixExecutor`, so they cache and
  resume exactly like ``repro run-matrix``; this module only writes
  them: :func:`serving_csv_text` with :data:`BENCH_COLUMNS` or
  :data:`ADAPTIVE_COLUMNS`, and one terminal table per report.

Determinism split, mirroring :mod:`repro.runtime.report`: the CSV holds
only virtual-time quantities (stable bytes for a given configuration);
wall-clock measurements are diagnostics, printed but never persisted
into the deterministic columns.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Callable, Optional, Sequence

from repro.common.clock import perf_seconds
from repro.common.fingerprint import fmt_cell as _fmt
from repro.server.session import SessionResult


def _dash(value: float, spec: str) -> str:
    """Format a possibly-NaN float for a terminal table (NaN → em dash).

    The deterministic CSVs route every float through
    :func:`~repro.common.fingerprint.fmt_cell`; this is the matching
    guard for the human-readable renders, so an empty cell (a run with
    zero records, a cell whose every query violated its TR) prints
    ``—`` instead of a platform-spelled ``nan``.
    """
    if math.isnan(value):
        return "—"
    return format(value, spec)


# ----------------------------------------------------------------------
# Per-session table (repro serve)
# ----------------------------------------------------------------------

def session_makespan(result: SessionResult) -> float:
    """Virtual seconds from session start to its last evaluated deadline."""
    if not result.records:
        return 0.0
    return max(r.end_time for r in result.records)


def render_session_table(
    results: Sequence[SessionResult], title: str = "session server report"
) -> str:
    """One row per session: §4.8 summary metrics plus the virtual makespan."""
    header = (
        f"{'session':<12} {'workflows':>9} {'queries':>7} {'%TR viol':>9} "
        f"{'missing':>8} {'MRE med':>8} {'makespan':>9}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for result in results:
        if not result.records:
            # A churned-out session can depart before any deadline was
            # evaluated — nothing to summarize, but it still served.
            lines.append(
                f"{result.session_id:<12} {len(result.spec.workflows):>9} "
                f"{0:>7} {'—':>9} {'—':>8} {'—':>8} {0.0:>8.1f}s"
            )
            continue
        summary = result.summary()
        mre = "—" if math.isnan(summary.mre_median) else f"{summary.mre_median:.3f}"
        lines.append(
            f"{result.session_id:<12} {len(result.spec.workflows):>9} "
            f"{summary.num_queries:>7} {summary.pct_tr_violated:>8.1f}% "
            f"{summary.mean_missing_bins:>8.3f} {mre:>8} "
            f"{session_makespan(result):>8.1f}s"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Live --follow output (repro serve)
# ----------------------------------------------------------------------

#: Session count at or above which ``--follow`` switches from a line per
#: evaluated query to periodic aggregate lines. A population-scale run
#: (10⁵ sessions) evaluates millions of deadlines; per-query output
#: would dominate the run's wall time and scroll the terminal useless.
FOLLOW_AGGREGATE_THRESHOLD = 1000


class FollowPrinter:
    """Rate-limited live output for ``repro serve --follow``.

    Below :data:`FOLLOW_AGGREGATE_THRESHOLD` expected sessions this
    prints the familiar per-query line for every record, unchanged. At
    or above it, the printer switches to *aggregate mode*: at most one
    summary line per ``interval`` wall seconds (records seen, TR
    violations, latest virtual time), plus a final line on
    :meth:`close` so short runs still show their totals.

    ``clock`` and ``out`` are injectable for tests; the default clock is
    :func:`repro.common.clock.perf_seconds` (swappable process-wide via
    ``set_perf_source``) — rate limiting is a wall-clock courtesy to the
    terminal and never touches virtual time or report bytes.
    """

    def __init__(
        self,
        expected_sessions: int,
        *,
        threshold: int = FOLLOW_AGGREGATE_THRESHOLD,
        interval: float = 1.0,
        out=None,
        clock: Callable[[], float] = perf_seconds,
    ):
        self.aggregate_mode = expected_sessions >= threshold
        self.interval = interval
        self.records_seen = 0
        self.tr_violations = 0
        self.lines_emitted = 0
        self._latest_time = 0.0
        self._last_emit: Optional[float] = None
        self._out = out
        self._clock = clock

    def __call__(self, session_id: str, record) -> None:
        """The ``on_record`` subscriber: one call per evaluated deadline."""
        self.records_seen += 1
        if record.tr_violated:
            self.tr_violations += 1
        if record.end_time > self._latest_time:
            self._latest_time = record.end_time
        if not self.aggregate_mode:
            status = "VIOLATED" if record.tr_violated else "ok"
            self._emit(
                f"  [{record.end_time:8.2f}s] {session_id} "
                f"q{record.query_id} {record.viz_name}: {status}"
            )
            return
        now = self._clock()
        if self._last_emit is None or now - self._last_emit >= self.interval:
            self._last_emit = now
            self._emit(self._aggregate_line())

    def close(self) -> None:
        """Emit the final aggregate line (aggregate mode only)."""
        if self.aggregate_mode and self.records_seen:
            self._emit(self._aggregate_line())

    def _aggregate_line(self) -> str:
        return (
            f"  [follow] {self.records_seen} queries "
            f"({self.tr_violations} TR violated) "
            f"through t={self._latest_time:.1f}s virtual"
        )

    def _emit(self, line: str) -> None:
        self.lines_emitted += 1
        print(line, file=self._out)


# ----------------------------------------------------------------------
# Serving-sweep reports (repro bench-sessions / bench-adaptive)
# ----------------------------------------------------------------------

#: Columns of the deterministic load-report CSV.
BENCH_COLUMNS = (
    "engine",
    "sessions",
    "mode",
    "workflows_per_session",
    "num_queries",
    "pct_tr_violated",
    "mean_missing_bins",
    "mean_latency_answered",
    "virtual_makespan",
    "queries_per_virtual_second",
)

#: Interaction kinds reported as mix columns, in CSV order.
MIX_KINDS = ("create_viz", "set_filter", "select_bins", "link", "discard_viz")

#: Columns of the deterministic adaptive-report CSV.
ADAPTIVE_COLUMNS = (
    "engine",
    "policy",
    "sessions",
    "churn",
    "workflows_per_session",
    "sessions_served",
    "sessions_departed",
    "num_queries",
    "pct_tr_violated",
    "mean_latency_answered",
    "virtual_makespan",
) + tuple(f"mix_{kind}" for kind in MIX_KINDS)


def _fields(result) -> dict:
    """Every report column of one served ``mode="serve"`` cell, by name.

    The cell's identity comes from its spec, its numbers from the
    payload :func:`~repro.runtime.executor.execute_cell` stored.
    """
    spec, serving = result.spec, result.spec.serving
    fields = {
        "engine": spec.engine,
        "sessions": serving.sessions,
        "mode": "shared" if serving.share_engine else "isolated",
        "policy": serving.policy,
        "churn": serving.churn,
        "workflows_per_session": spec.workflows.count,
        **result.serving,
    }
    for kind in MIX_KINDS:
        fields[f"mix_{kind}"] = fields["mix"].get(kind, 0.0)
    return fields


def serving_csv_text(results: Sequence, columns: Sequence[str]) -> str:
    """A serving-sweep CSV (:data:`BENCH_COLUMNS` or
    :data:`ADAPTIVE_COLUMNS`), one row per cell in plan order.

    Only virtual-time quantities: stable bytes for a configuration,
    whether a cell ran now or was restored from the store.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for result in results:
        fields = _fields(result)
        writer.writerow([
            value if isinstance(value, (str, int)) else _fmt(value)
            for value in (fields[column] for column in columns)
        ])
    return buffer.getvalue()


def render_adaptive_bench(
    results: Sequence, title: str = "adaptive session report"
) -> str:
    """Plain-text sessions × policy × churn table for terminal output."""
    header = (
        f"{'policy':<12} {'sessions':>8} {'churn':<7} {'served':>6} "
        f"{'left':>5} {'queries':>7} {'%TR viol':>9} {'filter%':>8} "
        f"{'select%':>8} {'wall':>7} {'cached':>6}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for result in results:
        cell = _fields(result)
        lines.append(
            f"{cell['policy']:<12} {cell['sessions']:>8} {cell['churn']:<7} "
            f"{cell['sessions_served']:>6} {cell['sessions_departed']:>5} "
            f"{cell['num_queries']:>7} "
            f"{_dash(cell['pct_tr_violated'], '8.1f'):>8}% "
            f"{100 * cell['mix_set_filter']:>7.1f}% "
            f"{100 * cell['mix_select_bins']:>7.1f}% "
            f"{cell['wall_seconds']:>6.2f}s "
            f"{'yes' if result.from_cache else 'no':>6}"
        )
    return "\n".join(lines)


def render_session_bench(
    results: Sequence, title: str = "session load report"
) -> str:
    """Plain-text sessions × engine table for terminal output."""
    header = (
        f"{'engine':<14} {'sessions':>8} {'mode':<9} {'queries':>7} "
        f"{'%TR viol':>9} {'latency':>8} {'q/vs':>7} {'wall':>7} {'cached':>6}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for result in results:
        cell = _fields(result)
        latency = cell["mean_latency_answered"]
        latency = "—" if math.isnan(latency) else f"{latency:.2f}s"
        lines.append(
            f"{cell['engine']:<14} {cell['sessions']:>8} {cell['mode']:<9} "
            f"{cell['num_queries']:>7} "
            f"{_dash(cell['pct_tr_violated'], '8.1f'):>8}% {latency:>8} "
            f"{_dash(cell['queries_per_virtual_second'], '7.2f'):>7} "
            f"{cell['wall_seconds']:>6.2f}s "
            f"{'yes' if result.from_cache else 'no':>6}"
        )
    return "\n".join(lines)
