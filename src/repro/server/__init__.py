"""Async session server: concurrent simulated IDE sessions (§2.2, §4.4).

The paper benchmarks *one* simulated user at a time; a deployed
interactive-exploration backend faces many at once (the Purich et al.
adaptive-benchmark direction — see PAPERS.md). This subpackage serves N
think-time-paced sessions concurrently from one process:

* :mod:`repro.server.session` — :class:`SessionSpec` (one user's seeded
  workflow suite or adaptive policy), :class:`SessionStream` (live
  per-session metric stream), :class:`SessionResult` (per-session
  Table-1/Fig.-5 reports plus the session's interaction mix);
* :mod:`repro.server.manager` — one event-calendar loop stepping
  sessions in deterministic global virtual-time order, in *isolated*
  (byte-identical to serial) or *shared-engine* (fair-scheduled
  contention) topology: :class:`SessionManager` feeds it a fixed
  population (every arrival at virtual time 0), :class:`ArrivalProcess`
  and :class:`OpenSystemManager` seeded Poisson arrivals that spawn
  sessions mid-run and churn them out again;
* :mod:`repro.server.clock` — :class:`AsyncClock`, wall-clock pacing for
  real-time/accelerated serving without losing determinism;
* :mod:`repro.server.spool` — :class:`RecordSpool` and
  :class:`ServingAggregate`, constant-memory record handling;
* :mod:`repro.server.report` — per-session tables and the writers of
  the ``bench-sessions`` sessions × engine load report and the
  ``bench-adaptive`` sessions × policy × churn report. Their cells are
  ``RunSpec(mode="serve")`` cells (:mod:`repro.runtime`), planned by
  ``plan_sessions`` / ``plan_adaptive`` and run by the
  ``MatrixExecutor``.

Adaptive user models themselves (replay/markov/uncertainty) live in
:mod:`repro.workflow.policy`. Usage, guarantees and clock modes are
documented in docs/server.md; ``examples/session_server_demo.py`` is a
runnable three-session tour.
"""

from repro.server.clock import AsyncClock
from repro.server.manager import (
    ArrivalProcess,
    OpenSystemManager,
    RateSchedule,
    SessionAbandoned,
    SessionArrival,
    SessionManager,
    SessionTurnHook,
    make_session,
    serial_baseline,
    session_specs,
)
from repro.server.spool import (
    RecordSpool,
    ServingAggregate,
    iter_spool,
    render_aggregate_report,
)
from repro.server.report import (
    ADAPTIVE_COLUMNS,
    BENCH_COLUMNS,
    FOLLOW_AGGREGATE_THRESHOLD,
    FollowPrinter,
    render_adaptive_bench,
    render_session_bench,
    render_session_table,
    serving_csv_text,
)
from repro.server.session import (
    SessionResult,
    SessionSpec,
    SessionStream,
    total_records,
)

__all__ = [
    "ADAPTIVE_COLUMNS",
    "ArrivalProcess",
    "AsyncClock",
    "BENCH_COLUMNS",
    "FOLLOW_AGGREGATE_THRESHOLD",
    "FollowPrinter",
    "OpenSystemManager",
    "RateSchedule",
    "RecordSpool",
    "ServingAggregate",
    "SessionAbandoned",
    "SessionArrival",
    "SessionManager",
    "SessionResult",
    "SessionSpec",
    "SessionStream",
    "SessionTurnHook",
    "iter_spool",
    "make_session",
    "render_aggregate_report",
    "render_adaptive_bench",
    "render_session_bench",
    "render_session_table",
    "serial_baseline",
    "serving_csv_text",
    "session_specs",
    "total_records",
]
