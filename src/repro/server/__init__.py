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
* :mod:`repro.server.report` — per-session tables, the
  ``bench-sessions`` sessions × engine load report and the
  ``bench-adaptive`` sessions × policy × churn report, persisted through
  the runtime artifact store.

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
    FOLLOW_AGGREGATE_THRESHOLD,
    AdaptiveBenchCell,
    FollowPrinter,
    SessionBenchCell,
    adaptive_bench_csv_text,
    render_adaptive_bench,
    render_session_bench,
    render_session_table,
    run_adaptive_bench,
    run_session_bench,
    session_bench_csv_text,
    write_adaptive_bench_csv,
    write_session_bench_csv,
)
from repro.server.session import (
    SessionResult,
    SessionSpec,
    SessionStream,
    total_records,
)

__all__ = [
    "AdaptiveBenchCell",
    "ArrivalProcess",
    "AsyncClock",
    "FOLLOW_AGGREGATE_THRESHOLD",
    "FollowPrinter",
    "OpenSystemManager",
    "RateSchedule",
    "RecordSpool",
    "ServingAggregate",
    "SessionAbandoned",
    "SessionArrival",
    "SessionBenchCell",
    "SessionManager",
    "SessionResult",
    "SessionSpec",
    "SessionStream",
    "SessionTurnHook",
    "iter_spool",
    "make_session",
    "render_aggregate_report",
    "adaptive_bench_csv_text",
    "render_adaptive_bench",
    "render_session_bench",
    "render_session_table",
    "run_adaptive_bench",
    "run_session_bench",
    "serial_baseline",
    "session_bench_csv_text",
    "session_specs",
    "total_records",
    "write_adaptive_bench_csv",
    "write_session_bench_csv",
]
