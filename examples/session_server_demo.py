#!/usr/bin/env python3
"""Session-server demo: three concurrent simulated IDE sessions.

IDEBench simulates *interactive* exploration — think-time-paced users
issuing concurrent queries (§2.2). This demo serves three such users at
once from one process with :class:`repro.server.SessionManager`:

1. build the shared dataset and ground-truth oracle once;
2. derive three deterministic per-session workflow suites
   (``derive_session_seed`` purpose strings — session *i* always gets
   the same suite, no matter how many neighbors it has);
3. serve them concurrently over one *shared* progressive engine, with a
   live metric stream printing every query verdict as its deadline is
   evaluated;
4. print the per-session summary table and the interleaving stats.

Run with::

    python examples/session_server_demo.py
"""

from repro import BenchmarkSettings, DataSize
from repro.bench.experiments import ExperimentContext
from repro.obs import observed
from repro.server import SessionManager, render_session_table


def main() -> None:
    # S = 100M virtual rows; scale 5000 → 20k actual rows: fast, honest.
    settings = BenchmarkSettings(
        data_size=DataSize.S,
        scale=5000,
        time_requirement=1.0,
        think_time=1.0,
        seed=7,
    )
    ctx = ExperimentContext(settings)

    print("1. building the shared dataset and oracle …")
    dataset = ctx.dataset(settings.data_size)
    print(f"   {dataset}")

    print("2. serving 3 sessions on one shared idea-sim engine …")
    verdicts = {"ok": 0, "VIOLATED": 0}

    def live(session_id: str, record) -> None:
        status = "VIOLATED" if record.tr_violated else "ok"
        verdicts[status] += 1
        print(
            f"   [{record.end_time:7.2f}s] {session_id} "
            f"q{record.query_id:<3} {record.viz_name:<8} {status}"
        )

    manager = SessionManager.for_engine(
        ctx,
        "idea-sim",
        3,                  # a closed population: sessions 0, 1, 2 at t = 0
        per_session=1,
        share_engine=True,  # all three contend on one engine, fairly
        on_record=live,     # the per-session metric stream
    )
    # The tracer's manager.turn events are the (time, session) step turns.
    with observed(enabled=True) as tracer:
        results = manager.run()
    turns = [
        entry["session"]
        for entry in tracer.entries()
        if entry["name"] == "manager.turn"
    ]

    print("\n3. per-session summaries:")
    print(render_session_table(
        results, title="3 concurrent sessions, shared idea-sim engine"
    ))

    switches = sum(1 for a, b in zip(turns, turns[1:]) if a != b)
    total = sum(result.num_queries for result in results)
    print(
        f"\n{total} queries ({verdicts['ok']} answered, "
        f"{verdicts['VIOLATED']} TR-violated) in "
        f"{manager.wall_seconds:.2f}s wall; "
        f"{switches} session switches across {len(turns)} turns"
    )
    print(
        "\nSessions are seeded per-session: re-running this script (or "
        "serving 30 sessions instead of 3) reproduces each session's "
        "workload bit-for-bit. See docs/server.md."
    )


if __name__ == "__main__":
    main()
