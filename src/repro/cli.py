"""Command-line interface — the paper's §4.4 "benchmark driver" binary.

The original IDEBench is "a simple command line application (written in
Python) configured to load and simulate workflows". This reproduction's
CLI exposes the same lifecycle::

    repro generate-data --rows 500000 --out flights.csv
    repro generate-workflows --out workflows/ --per-type 10
    repro view workflows/mixed_0.json
    repro run --engine idea-sim --tr 3 --out report.csv
    repro run-matrix --jobs 4 --cache-dir .repro-cache --out matrix.csv
    repro serve --engine idea-sim --sessions 4 --verify
    repro serve --engine idea-sim --tcp 127.0.0.1:8642 --sessions 4
    repro connect 127.0.0.1:8642 --session 0 --out session.csv
    repro bench-sessions --engines idea-sim --sessions 1,2,4
    repro bench-net --sessions 2
    repro report report.csv
    repro report snapshot matrix.csv --kind matrix
    repro report diff a1b2c3d e4f5a6b

``run`` executes the default configuration (mixed workflows) against one
engine simulator under the given settings and writes the detailed report;
``run-matrix`` plans an engines × TRs × sizes × workflow-types matrix and
executes it through the parallel runtime (sharded across ``--jobs``
worker processes, cached/resumable via ``--cache-dir``); ``serve`` runs N
concurrent simulated IDE sessions through the asyncio session server
(§2.2 multi-user serving; see docs/server.md); ``bench-sessions`` sweeps
session counts × engines into a load report; ``report`` renders the
Fig.-5-style summary from a detailed CSV.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.experiments import ExperimentContext, MAIN_ENGINES, make_engine
from repro.bench.driver import BenchmarkDriver
from repro.bench.report import DetailedReport, SummaryReport
from repro.common import log
from repro.common.clock import VirtualClock, perf_seconds
from repro.common.errors import BenchmarkError
from repro.common.config import (
    BenchmarkSettings,
    DataSize,
    DEFAULT_TIME_REQUIREMENTS,
)
from repro.data.generator import scale_dataset
from repro.data.seed import generate_flights_seed
from repro.runtime import (
    ArtifactStore,
    DEFAULT_CACHE_BUDGET_BYTES,
    MatrixExecutor,
    plan_matrix,
    render_matrix,
    write_matrix_csv,
)
from repro.workflow.policy import POLICY_NAMES
from repro.workflow.spec import Workflow, WorkflowType, load_suite, save_suite
from repro.workflow.viewer import render_workflow


def _add_settings_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", default="M", help="data size: S, M, or L")
    parser.add_argument("--scale", type=int, default=1000,
                        help="virtual-to-actual row scale factor")
    parser.add_argument("--seed", type=int, default=42, help="root random seed")


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """``--trace``/``--metrics-out``: run the command under observability.

    Both expand to :func:`repro.obs.observed` around the whole command
    (fresh instruments, files written on exit). Tracing never changes
    any report's bytes — the acceptance property bench_obs.py checks.
    """
    parser.add_argument("--trace", default=None, metavar="JSONL",
                        help="record a structured trace of the run to this "
                             "JSONL file (digest it with `repro trace`)")
    parser.add_argument("--metrics-out", default=None, dest="metrics_out",
                        metavar="PATH",
                        help="write end-of-run metrics here (Prometheus "
                             "text; .json = canonical stats snapshot)")


def _settings_from_args(args) -> BenchmarkSettings:
    return BenchmarkSettings(
        data_size=DataSize.parse(args.size),
        scale=args.scale,
        seed=args.seed,
        time_requirement=getattr(args, "tr", 3.0),
        think_time=getattr(args, "think_time", 1.0),
        workflows_per_type=getattr(args, "per_type", 10),
    )


def _cmd_generate_data(args) -> int:
    settings = _settings_from_args(args)
    rows = args.rows if args.rows is not None else settings.actual_rows
    if args.seed_csv:
        from repro.data.storage import Table

        seed_table = Table.from_csv(args.seed_csv, name="flights")
    else:
        seed_table = generate_flights_seed(min(rows, 100_000), seed=settings.seed)
    table = scale_dataset(seed_table, rows, seed_value=settings.seed)
    if args.normalize_spec or args.normalize:
        from repro.data.normalize import (
            FLIGHTS_STAR_SPEC,
            load_star_spec,
            normalize,
        )

        specs = (
            load_star_spec(args.normalize_spec)
            if args.normalize_spec
            else FLIGHTS_STAR_SPEC
        )
        dataset = normalize(table, specs)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, part in dataset.tables.items():
            part.to_csv(out_dir / f"{name}.csv")
        print(
            f"wrote star schema ({', '.join(sorted(dataset.tables))}) "
            f"with {rows} fact rows to {out_dir}/"
        )
    else:
        table.to_csv(args.out)
        print(f"wrote {rows} rows to {args.out}")
    return 0


def _cmd_generate_workflows(args) -> int:
    settings = _settings_from_args(args)
    ctx = ExperimentContext(settings)
    config = None
    if args.config:
        from repro.workflow.generator import WorkloadConfig

        config = WorkloadConfig.from_json(args.config)
    workflows: List[Workflow] = []
    for workflow_type in (
        WorkflowType.INDEPENDENT,
        WorkflowType.SEQUENTIAL,
        WorkflowType.ONE_TO_N,
        WorkflowType.N_TO_ONE,
        WorkflowType.MIXED,
    ):
        workflows.extend(ctx.workflows(workflow_type, args.per_type, config=config))
    paths = save_suite(workflows, args.out)
    print(f"wrote {len(paths)} workflows to {args.out}")
    return 0


def _cmd_view(args) -> int:
    workflow = Workflow.from_json(args.workflow)
    print(render_workflow(workflow, show_sql=args.sql))
    return 0


def _cmd_run(args) -> int:
    settings = _settings_from_args(args)
    ctx = ExperimentContext(settings)
    if args.workflows:
        workflows = load_suite(args.workflows)
    else:
        workflows = ctx.workflows(WorkflowType.MIXED, args.per_type)
    normalized = args.normalized
    dataset = ctx.dataset(settings.data_size, normalized)
    oracle = ctx.oracle(settings.data_size, normalized)
    clock = VirtualClock()
    engine = make_engine(
        args.engine, dataset, settings, clock, speculation=args.speculation
    )
    prep = engine.prepare()
    print(f"{engine.name}: data preparation {prep.minutes:.1f} min (modeled)")
    driver = BenchmarkDriver(engine, oracle, settings)
    records = driver.run_suite(workflows)
    report = DetailedReport(records)
    if args.out:
        report.to_csv(args.out)
        print(f"wrote detailed report ({len(report)} queries) to {args.out}")
    print()
    print(SummaryReport(records).render(
        f"{engine.name} @ TR={settings.time_requirement}s, "
        f"{settings.data_size.name} ({settings.virtual_rows:,} virtual rows)"
    ))
    if args.cdf:
        from repro.bench.plotting import ascii_cdf
        from repro.bench.report import mre_cdf

        print()
        print(ascii_cdf(
            mre_cdf(records, points=41),
            title="CDF of mean relative errors (truncated at 100%)",
        ))
    return 0


def _split(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _make_store(cache_dir: Optional[str], budget: Optional[int]) -> Optional[ArtifactStore]:
    """Build the CLI's artifact store: GC budget applied by default.

    ``budget`` is the ``--cache-budget`` value in bytes; ``0`` disables
    the budget (unbounded store).
    """
    if not cache_dir:
        return None
    max_bytes = None if budget == 0 else budget
    return ArtifactStore(cache_dir, max_bytes=max_bytes)


def _check_engines(engines: List[str]) -> bool:
    """Print a stderr message and return False on unknown engine names."""
    known_engines = list(MAIN_ENGINES) + ["system-y-sim"]
    unknown = [engine for engine in engines if engine not in known_engines]
    if unknown:
        print(
            f"unknown engines: {', '.join(unknown)} "
            f"(choose from {', '.join(known_engines)})",
            file=sys.stderr,
        )
        return False
    return True


def _cmd_run_matrix(args) -> int:
    settings = BenchmarkSettings(
        scale=args.scale,
        seed=args.seed,
        think_time=args.think_time,
        workflows_per_type=args.per_type,
    )
    engines = _split(args.engines)
    if not _check_engines(engines):
        return 1
    specs = plan_matrix(
        settings,
        engines=engines,
        time_requirements=[float(tr) for tr in _split(args.trs)],
        sizes=[DataSize.parse(size) for size in _split(args.sizes)],
        workflow_types=_split(args.workflow_types),
        per_type=args.per_type,
        schemas=_split(args.schemas),
    )
    store = _make_store(args.cache_dir, args.cache_budget)
    if args.resume and store is None:
        print("--resume requires --cache-dir", file=sys.stderr)
        return 1
    if args.resume and args.force:
        print("--resume and --force are mutually exclusive", file=sys.stderr)
        return 1
    executor = MatrixExecutor(
        jobs=args.jobs,
        store=store,
        reuse_results=not args.force,
        progress=None if args.quiet else print,
    )
    print(
        f"run matrix: {len(specs)} cells "
        f"({len(engines)} engines × {len(_split(args.trs))} TRs × "
        f"{len(_split(args.sizes))} sizes × {len(_split(args.workflow_types))} "
        f"workflow types × {len(_split(args.schemas))} schemas), "
        f"jobs={args.jobs}"
        + (f", cache={args.cache_dir}" if args.cache_dir else "")
    )
    started = perf_seconds()
    results = executor.run(specs)
    elapsed = perf_seconds() - started
    print()
    print(render_matrix(results, title="run-matrix summary"))
    cached = sum(result.from_cache for result in results)
    print(
        f"\n{len(results)} cells in {elapsed:.2f}s "
        f"({cached} restored from cache, {len(results) - cached} executed)"
    )
    if store is not None:
        stats = store.stats()
        print(
            f"artifact store: {stats['entries']} artifacts, "
            f"{stats['bytes'] / 1e6:.1f} MB, "
            f"{stats['hits']} hits / {stats['misses']} misses this run"
        )
    if args.out:
        write_matrix_csv(args.out, results)
        print(f"wrote matrix summary ({len(results)} cells) to {args.out}")
    if args.detailed_dir:
        out_dir = Path(args.detailed_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            if result.records:
                DetailedReport(result.records).to_csv(
                    out_dir / f"{result.spec.cell_id}.csv"
                )
        print(f"wrote per-cell detailed reports to {out_dir}/")
    return 0


def _parse_address(text: str) -> Optional[tuple]:
    """Split ``HOST:PORT`` (port may be 0 for ephemeral); None if malformed."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        return None
    try:
        port = int(port_text)
    except ValueError:
        return None
    if not 0 <= port <= 65535:
        return None
    return host, port


def _cmd_serve_tcp(args, settings) -> int:
    """``repro serve --tcp``: expose the session server over a socket."""
    from repro.net.server import TcpSessionServer

    address = _parse_address(args.tcp)
    if address is None:
        print(
            f"--tcp expects HOST:PORT (port 0 picks an ephemeral port), "
            f"got {args.tcp!r}",
            file=sys.stderr,
        )
        return 1
    blocked = [
        (args.verify, "--verify"),
        (args.arrivals is not None, "--arrivals"),
        (args.arrival_schedule is not None, "--arrival-schedule"),
        (args.horizon is not None, "--horizon"),
        (args.residence is not None, "--residence"),
        (args.follow, "--follow"),
        (args.out is not None, "--out"),
        (args.accel is not None, "--accel"),
        (args.spill is not None, "--spill"),
    ]
    if not args.share_engine:
        # Isolated serving: the workload is configured per connection at
        # ATTACH, so server-side workload flags would be silently dead.
        # Streaming telemetry folds the ONE shared run's global timeline,
        # so it is shared-engine-only too.
        blocked += [
            (args.policy is not None, "--policy"),
            (args.per_session != 2, "--per-session"),
            (args.workflow_type != "mixed", "--workflow-type"),
            (args.stats_window is not None, "--stats-window"),
            (bool(args.slo), "--slo"),
        ]
    offending = [flag for used, flag in blocked if used]
    if offending:
        print(
            f"{', '.join(offending)} cannot combine with --tcp: "
            + (
                "a shared-engine run is configured server-side "
                "(--sessions/--per-session/--workflow-type/--policy), "
                "its reports are reassembled client-side, and the whole "
                "population rides one unpaced virtual timeline "
                "(docs/protocol.md)"
                if args.share_engine
                else "sessions are isolated, their workload (suite "
                "size, workflow type, policy, pacing) is configured per "
                "connection at ATTACH (`repro connect` flags), and "
                "reports are reassembled on the client side "
                "(docs/protocol.md)"
            ),
            file=sys.stderr,
        )
        return 1
    if args.share_engine and args.sessions < 1:
        print(
            "--tcp --share-engine needs --sessions N (N >= 1): the "
            "shared run's global virtual timeline must know its whole "
            "population before the first turn grant",
            file=sys.stderr,
        )
        return 1
    host, port = address
    if args.slo:
        from repro.obs.slo import parse_rule

        try:
            for rule_text in args.slo:
                parse_rule(rule_text)
        except BenchmarkError as error:
            print(str(error), file=sys.stderr)
            return 1
    ctx = ExperimentContext(settings)
    max_sessions = args.sessions if args.sessions > 0 else None
    # Correlation: a deterministic run id is stamped into spans and
    # propagated to clients in HELLO — but only when telemetry is
    # actually on, so plain serves keep byte-identical transcripts.
    run_id = ""
    if args.trace or args.stats_window is not None:
        from repro.common.fingerprint import stable_digest

        run_id = stable_digest({
            "kind": "serve-tcp",
            "engine": args.engine,
            "sessions": args.sessions,
            "per_session": args.per_session,
            "workflow_type": args.workflow_type,
            "seed": settings.seed,
        })
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            tracer.set_context(run=run_id, host="server")
    server = TcpSessionServer(
        ctx,
        args.engine,
        host=host,
        port=port,
        max_sessions=max_sessions,
        speculation=args.speculation,
        share_engine=args.share_engine,
        per_session=args.per_session,
        workflow_type=WorkflowType(args.workflow_type),
        policy=args.policy,
        stats_window=args.stats_window,
        slo_rules=tuple(args.slo or ()),
        run_id=run_id,
        on_ready=lambda h, p: print(
            f"listening on {h}:{p} ({args.engine}, "
            + (
                f"ONE shared-engine run of {max_sessions} sessions"
                if args.share_engine
                else (f"up to {max_sessions} sessions" if max_sessions
                      else "serving until interrupted")
            )
            + ") — connect with: repro connect "
            f"{h}:{p}",
            flush=True,
        ),
    )
    try:
        served = server.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        print(f"\ninterrupted after {server.sessions_served} sessions")
        return 0
    print(f"served {served} TCP sessions")
    return 0


def _cmd_serve(args) -> int:
    from repro.server import (
        ArrivalProcess,
        FollowPrinter,
        OpenSystemManager,
        RateSchedule,
        RecordSpool,
        SessionManager,
        render_aggregate_report,
        render_session_table,
        serial_baseline,
        total_records,
    )

    settings = BenchmarkSettings(
        data_size=DataSize.parse(args.size),
        scale=args.scale,
        seed=args.seed,
        time_requirement=args.tr,
        think_time=args.think_time,
    )
    if args.tcp is not None:
        return _cmd_serve_tcp(args, settings)
    adaptive = args.policy in ("markov", "uncertainty", "load-adaptive")
    if args.arrivals is None and (
        args.horizon is not None
        or args.residence is not None
        or args.arrival_schedule is not None
    ):
        print(
            "--horizon/--residence/--arrival-schedule configure the "
            "open-system arrival process and need --arrivals RATE; "
            "without it the run is a closed system and they would be "
            "silently ignored",
            file=sys.stderr,
        )
        return 1
    if args.verify and args.share_engine:
        print(
            "--verify needs isolated sessions (omit --share-engine): "
            "under a shared engine sessions contend, so per-session "
            "reports legitimately differ from serial runs",
            file=sys.stderr,
        )
        return 1
    if args.verify and (adaptive or args.arrivals is not None):
        print(
            "--verify compares against pre-generated serial runs, which "
            "adaptive policies and open-system arrivals do not have; "
            "determinism of those modes is checked by "
            "benchmarks/bench_adaptive.py and the golden corpus",
            file=sys.stderr,
        )
        return 1
    if args.spill is not None:
        blocked = [
            flag
            for used, flag in [
                (args.verify, "--verify"),
                (args.out is not None, "--out"),
            ]
            if used
        ]
        if blocked:
            print(
                f"{', '.join(blocked)} cannot combine with --spill: "
                "spooled serving streams records to disk instead of "
                "retaining them, so per-session reports are not "
                "available after the run (read the spill file back "
                "with repro.server.iter_spool)",
                file=sys.stderr,
            )
            return 1
    ctx = ExperimentContext(settings)
    workflow_type = WorkflowType(args.workflow_type)
    on_record = None
    follow = None
    if args.follow:
        # Per-query lines for small populations; periodic aggregate
        # lines at scale (repro.server.report.FOLLOW_AGGREGATE_THRESHOLD).
        follow = FollowPrinter(args.sessions)
        on_record = follow
    mode = "shared engine" if args.share_engine else "isolated engines"
    pacing = f", paced at {args.accel:g}x" if args.accel else ""
    users = args.policy or "scripted"
    arrivals = None
    if args.arrivals is not None:
        horizon = args.horizon if args.horizon is not None else 120.0
        try:
            rate_schedule = None
            if args.arrival_schedule is not None:
                rate_schedule = RateSchedule.parse(
                    args.arrival_schedule, args.arrivals, horizon
                )
            arrivals = ArrivalProcess(
                args.arrivals,
                horizon,
                seed=settings.seed,
                mean_residence=args.residence,
                max_sessions=args.sessions,
                rate_schedule=rate_schedule,
            )
        except BenchmarkError as error:
            print(str(error), file=sys.stderr)
            return 1
    # Opened last: RecordSpool truncates its file, so every argument is
    # validated before it exists — and it is closed however the run ends.
    spool = RecordSpool(args.spill) if args.spill is not None else None
    try:
        if arrivals is not None:
            manager = OpenSystemManager.for_engine(
                ctx,
                args.engine,
                arrivals,
                policy=args.policy,
                per_session=args.per_session,
                workflow_type=workflow_type,
                share_engine=args.share_engine,
                accel=args.accel,
                speculation=args.speculation,
                on_record=on_record,
                spool=spool,
            )
            shape = (
                f"{args.arrival_schedule} schedule @ base {args.arrivals:g}/s"
                if args.arrival_schedule is not None
                else f"Poisson({args.arrivals:g}/s)"
            )
            print(
                f"open system: {shape} arrivals over "
                f"{horizon:g}s (≤{args.sessions} sessions, "
                f"{users} users) on {args.engine} ({mode}{pacing})"
            )
        else:
            manager = SessionManager.for_engine(
                ctx,
                args.engine,
                args.sessions,
                per_session=args.per_session,
                workflow_type=workflow_type,
                share_engine=args.share_engine,
                accel=args.accel,
                speculation=args.speculation,
                on_record=on_record,
                policy=args.policy,
                spool=spool,
            )
            print(
                f"serving {args.sessions} sessions × {args.per_session} "
                f"{workflow_type.value} workflows ({users} users) on "
                f"{args.engine} ({mode}{pacing})"
            )
        results = manager.run()
    finally:
        if spool is not None:
            spool.close()
    if follow is not None:
        follow.close()
    if spool is not None:
        print()
        print(render_aggregate_report(
            manager.aggregate,
            title=f"{args.engine} @ TR={settings.time_requirement}s "
                  f"({mode}, spooled)",
            spill_path=args.spill,
        ))
        print(
            f"\n{spool.count} records spooled in "
            f"{manager.wall_seconds:.2f}s wall"
        )
        return 0
    print()
    print(render_session_table(
        results,
        title=f"{args.engine} @ TR={settings.time_requirement}s, "
              f"{len(results)} sessions ({mode})",
    ))
    departed = sum(r.departed_at is not None for r in results)
    churn = f" ({departed} departed mid-run)" if departed else ""
    print(f"\n{total_records(results)} queries across {len(results)} "
          f"sessions{churn} in {manager.wall_seconds:.2f}s wall")
    # Activity footer: printed *after* the report body, so the table and
    # the per-session CSVs above stay byte-identical to earlier releases.
    total_steps = sum(r.steps for r in results)
    total_interactions = sum(
        sum(r.interaction_counts.values()) for r in results
    )
    print(
        f"driver activity: {total_steps} steps, "
        f"{total_interactions} interactions, {departed} abandoned"
    )
    if args.follow:
        for result in results:
            fired = sum(result.interaction_counts.values())
            flag = " (abandoned)" if result.abandoned else ""
            print(
                f"  {result.session_id}: steps={result.steps} "
                f"interactions={fired}{flag}"
            )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            result.detailed_report().to_csv(
                out_dir / f"{result.session_id}.csv"
            )
        print(f"wrote per-session detailed reports to {out_dir}/")
    if args.verify:
        baseline = serial_baseline(
            ctx, args.engine, manager.specs, speculation=args.speculation
        )
        mismatched = [
            result.session_id
            for result, reference in zip(results, baseline)
            if result.csv_text() != reference.csv_text()
        ]
        if mismatched:
            print(
                f"VERIFY FAILED: sessions {', '.join(mismatched)} differ "
                f"from their serial runs",
                file=sys.stderr,
            )
            return 1
        print(
            f"verify: all {len(results)} per-session reports byte-identical "
            f"to serial runs"
        )
    return 0


def _cmd_bench_sessions(args) -> int:
    from repro.server import (
        render_session_bench,
        run_session_bench,
        write_session_bench_csv,
    )

    settings = BenchmarkSettings(
        data_size=DataSize.parse(args.size),
        scale=args.scale,
        seed=args.seed,
        time_requirement=args.tr,
        think_time=args.think_time,
    )
    engines = _split(args.engines)
    if not _check_engines(engines):
        return 1
    session_counts = [int(count) for count in _split(args.sessions)]
    modes = _split(args.modes)
    ctx = ExperimentContext(settings)
    store = _make_store(args.cache_dir, args.cache_budget)
    print(
        f"session load sweep: {len(engines)} engines × "
        f"{len(session_counts)} session counts × {len(modes)} modes, "
        f"{args.per_session} {args.workflow_type} workflows/session"
        + (f", cache={args.cache_dir}" if args.cache_dir else "")
    )
    try:
        cells = run_session_bench(
            ctx,
            engines,
            session_counts,
            per_session=args.per_session,
            workflow_type=WorkflowType(args.workflow_type),
            modes=modes,
            incremental=args.incremental,
            store=store,
            progress=None if args.quiet else print,
        )
    except ValueError as error:
        # run_session_bench validates modes before any cell runs.
        print(str(error), file=sys.stderr)
        return 1
    print()
    print(render_session_bench(cells, title="sessions × engine load report"))
    if args.out:
        write_session_bench_csv(args.out, cells)
        print(f"\nwrote load report ({len(cells)} cells) to {args.out}")
    return 0


def _cmd_bench_adaptive(args) -> int:
    from repro.server import (
        render_adaptive_bench,
        run_adaptive_bench,
        write_adaptive_bench_csv,
    )
    from repro.workflow.policy import POLICY_NAMES

    settings = BenchmarkSettings(
        data_size=DataSize.parse(args.size),
        scale=args.scale,
        seed=args.seed,
        time_requirement=args.tr,
        think_time=args.think_time,
    )
    if not _check_engines([args.engine]):
        return 1
    policies = _split(args.policies)
    known = ("scripted",) + POLICY_NAMES
    unknown = [p for p in policies if p not in known]
    if unknown:
        print(
            f"unknown policies: {', '.join(unknown)} "
            f"(choose from {', '.join(known)})",
            file=sys.stderr,
        )
        return 1
    session_counts = [int(count) for count in _split(args.sessions)]
    churn_modes = _split(args.churn)
    ctx = ExperimentContext(settings)
    store = _make_store(args.cache_dir, args.cache_budget)
    print(
        f"adaptive sweep: {len(policies)} policies × "
        f"{len(session_counts)} session counts × {len(churn_modes)} churn "
        f"modes on {args.engine}, {args.per_session} workflows/session"
        + (f", cache={args.cache_dir}" if args.cache_dir else "")
    )
    try:
        cells = run_adaptive_bench(
            ctx,
            args.engine,
            policies,
            session_counts,
            per_session=args.per_session,
            workflow_type=WorkflowType(args.workflow_type),
            churn_modes=churn_modes,
            arrival_rate=args.arrivals,
            horizon=args.horizon,
            residence=args.residence,
            share_engine=args.share_engine,
            incremental=args.incremental,
            store=store,
            progress=None if args.quiet else print,
        )
    except (ValueError, BenchmarkError) as error:
        # run_adaptive_bench validates churn modes and arrival
        # parameters before any cell runs.
        print(str(error), file=sys.stderr)
        return 1
    print()
    print(render_adaptive_bench(cells, title="sessions × policy × churn report"))
    if args.out:
        write_adaptive_bench_csv(args.out, cells)
        print(f"\nwrote adaptive report ({len(cells)} cells) to {args.out}")
    return 0


def _cmd_connect(args) -> int:
    from repro.net.client import (
        fetch_scripted_session,
        records_csv_text,
        replay_workflow,
    )

    address = _parse_address(args.address)
    if address is None or address[1] == 0:
        print(
            f"connect expects HOST:PORT, got {args.address!r}",
            file=sys.stderr,
        )
        return 1
    host, port = address
    # Correlation: stamp this client's spans with its identity; the
    # server's run id joins the context at HELLO (NetClient.hello).
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        tracer.set_context(host=f"client-{args.session}")
    if args.stats:
        from repro.common.fingerprint import canonical_json
        from repro.net.client import fetch_server_stats

        try:
            stats = fetch_server_stats(host, port, timeout=args.timeout)
        except (BenchmarkError, OSError) as error:
            print(f"connect failed: {error}", file=sys.stderr)
            return 1
        print(f"sessions served: {stats.sessions_served}")
        if args.out:
            text = canonical_json(stats.data) + "\n"
            Path(args.out).write_bytes(text.encode("utf-8"))
            print(f"wrote stats snapshot to {args.out}")
        else:
            print(canonical_json(stats.data))
        return 0
    if args.repl:
        from repro.net.repl import Repl

        return Repl(
            host, port, workflow_type=args.workflow_type, timeout=args.timeout
        ).run()
    try:
        if args.replay:
            workflow = Workflow.from_json(args.replay)
            session_id, records, summary = replay_workflow(
                host, port, workflow, accel=args.accel,
                session_index=args.session, timeout=args.timeout,
            )
            print(
                f"replayed {workflow.name!r} ({len(workflow.interactions)} "
                f"interactions) over the wire as session {session_id!r}"
            )
        else:
            session_id, records, summary = fetch_scripted_session(
                host,
                port,
                args.session,
                per_session=args.per_session,
                workflow_type=args.workflow_type,
                policy=args.policy,
                accel=args.accel,
                timeout=args.timeout,
            )
            users = args.policy or "scripted"
            print(
                f"fetched session {session_id!r} ({users}, "
                f"{args.per_session} {args.workflow_type} workflows)"
            )
    except (BenchmarkError, OSError) as error:
        print(f"connect failed: {error}", file=sys.stderr)
        return 1
    violated = sum(record.tr_violated for record in records)
    print(
        f"{summary.queries} queries, {violated} TR-violated, "
        f"virtual makespan {summary.makespan:.2f}s"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(records_csv_text(records))
        print(f"wrote detailed report ({len(records)} queries) to {args.out}")
    return 0


def _cmd_bench_net(args) -> int:
    from repro.net.bench import (
        render_net_bench,
        render_remote_bench,
        render_shared_net_bench,
        run_net_bench,
        run_remote_bench,
        run_shared_net_bench,
    )

    settings = BenchmarkSettings(
        data_size=DataSize.parse(args.size),
        scale=args.scale,
        seed=args.seed,
        time_requirement=args.tr,
        think_time=args.think_time,
    )
    if not _check_engines([args.engine]):
        return 1
    ctx = ExperimentContext(settings)
    workflow_type = WorkflowType(args.workflow_type)
    if args.remote or args.host is not None:
        host = port = None
        if args.host is not None:
            address = _parse_address(args.host)
            if address is None or address[1] == 0:
                print(
                    f"--host expects HOST:PORT of a running "
                    f"`repro serve --tcp --share-engine` server, got "
                    f"{args.host!r}",
                    file=sys.stderr,
                )
                return 1
            host, port = address
        where = (
            f"against {host}:{port}" if host is not None
            else "against a loopback shared-engine server"
        )
        print(
            f"remote load generation: {args.sessions} `repro connect` "
            f"client processes × {args.per_session} "
            f"{workflow_type.value} workflows {where}"
        )
        try:
            result = run_remote_bench(
                ctx,
                args.engine,
                args.sessions,
                per_session=args.per_session,
                workflow_type=workflow_type,
                host=host,
                port=port,
                trace_dir=Path(args.trace_dir) if args.trace_dir else None,
            )
        except BenchmarkError as error:
            print(str(error), file=sys.stderr)
            return 1
        for line in render_remote_bench(result):
            print(line)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(result.report)
            print(f"wrote aggregated contention report to {args.out}")
        print("PASS" if result.ok else "FAIL: remote runs diverged")
        return 0 if result.ok else 1
    print(
        f"net benchmark: {args.sessions} scripted sessions × "
        f"{args.per_session} {workflow_type.value} workflows on "
        f"{args.engine} over loopback TCP"
    )
    result = run_net_bench(
        ctx,
        args.engine,
        args.sessions,
        per_session=args.per_session,
        workflow_type=workflow_type,
    )
    for line in render_net_bench(result):
        print(line)
    shared = run_shared_net_bench(
        ctx,
        args.engine,
        max(2, min(args.sessions, 4)),
        per_session=args.per_session,
        workflow_type=workflow_type,
    )
    for line in render_shared_net_bench(shared):
        print(line)
    ok = result.ok and shared.ok
    print("PASS" if ok else
          "FAIL: TCP reports differ from in-process serve")
    return 0 if ok else 1


def _cmd_trace(args) -> int:
    """``repro trace summary|export|merge``: digest ``--trace`` JSONL files.

    All subcommands read only virtual-time fields, so their output for a
    fixed-seed run is byte-identical across repeats — the two-axis
    contract of docs/observability.md. ``merge`` stitches per-host trace
    files (server + N clients of one correlated run) into one stream
    globally ordered by virtual time, tie-broken by host then seq.
    ``--session``/``--kind`` narrow any action to matching entries.
    """
    from repro.obs.sink import (
        csv_summary,
        entry_line,
        filter_entries,
        iter_jsonl,
        merge_traces,
        render_summary_table,
        write_jsonl,
    )

    if args.action == "merge":
        try:
            merged = merge_traces(args.trace_file)
        except (OSError, BenchmarkError) as error:
            print(f"cannot read trace: {error}", file=sys.stderr)
            return 1
        merged = list(
            filter_entries(merged, session=args.session, kind=args.kind)
        )
        if args.out:
            count = write_jsonl(args.out, merged)
            print(
                f"merged {len(args.trace_file)} trace files "
                f"({count} entries) to {args.out}"
            )
        else:
            for entry in merged:
                sys.stdout.write(entry_line(entry) + "\n")
        return 0
    if len(args.trace_file) != 1:
        print(
            f"trace {args.action} takes exactly one trace file "
            "(use `repro trace merge` to stitch several first)",
            file=sys.stderr,
        )
        return 1
    try:
        entries = list(iter_jsonl(args.trace_file[0]))
    except (OSError, BenchmarkError) as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 1
    entries = list(
        filter_entries(entries, session=args.session, kind=args.kind)
    )
    if args.action == "summary":
        if args.csv:
            sys.stdout.write(csv_summary(entries))
        else:
            sys.stdout.write(render_summary_table(entries))
        return 0
    # export
    if not args.out:
        print("trace export needs --out PATH", file=sys.stderr)
        return 1
    out = Path(args.out)
    if out.suffix == ".jsonl":
        count = write_jsonl(out, entries, virtual_only=True)
        print(f"wrote {count} virtual-time trace lines to {out}")
    else:
        out.write_bytes(csv_summary(entries).encode("utf-8"))
        print(f"wrote trace summary CSV ({len(entries)} entries) to {out}")
    return 0


def _cmd_top(args) -> int:
    """``repro top``: live dashboard over a streaming STATS subscription.

    Connects as a probe (never joins the timeline), subscribes, and
    renders each pushed virtual-time window as one line — rate-limited
    on the wall clock, while the payloads stay byte-deterministic.
    """
    from repro.net.top import run_top

    address = _parse_address(args.address)
    if address is None or address[1] == 0:
        print(f"top expects HOST:PORT, got {args.address!r}", file=sys.stderr)
        return 1
    host, port = address
    try:
        run_top(host, port, interval=args.interval, timeout=args.timeout)
    except (BenchmarkError, OSError) as error:
        print(f"top failed: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args) -> int:
    store = ArtifactStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        print(f"artifact store at {store.root}")
        print(f"  entries: {stats['entries']}")
        print(f"  bytes:   {stats['bytes']} ({stats['bytes'] / 1e6:.1f} MB)")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}")
        return 0
    # evict: shrink to the byte budget (LRU; hits refresh recency).
    budget = (
        args.max_bytes if args.max_bytes is not None else DEFAULT_CACHE_BUDGET_BYTES
    )
    removed = store.evict(budget)
    stats = store.stats()
    print(
        f"evicted {removed} artifacts from {store.root} "
        f"(budget {budget} bytes; {stats['entries']} entries / "
        f"{stats['bytes']} bytes remain)"
    )
    return 0


def _report_snapshot(args) -> int:
    """``repro report snapshot CSV``: store it under the current revision."""
    from repro.runtime.regression import current_revision, snapshot

    if len(args.extra) != 1:
        print(
            "usage: repro report snapshot CSV [--kind K] [--rev R] [--dir D]",
            file=sys.stderr,
        )
        return 1
    revision = args.rev or current_revision()
    try:
        target = snapshot(args.dir, revision, args.kind, args.extra[0])
    except BenchmarkError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(
        f"snapshot: {args.extra[0]} -> {target} "
        f"(revision {revision}, kind {args.kind})"
    )
    return 0


def _report_diff(args) -> int:
    """``repro report diff REV_A REV_B``: compare two revisions' snapshots."""
    from repro.runtime.regression import diff_revisions, snapshots

    if len(args.extra) != 2:
        known = ", ".join(snapshots(args.dir)) or "none"
        print(
            f"usage: repro report diff REV_A REV_B [--dir D] "
            f"(known revisions: {known})",
            file=sys.stderr,
        )
        return 1
    try:
        identical, report = diff_revisions(args.dir, *args.extra)
    except BenchmarkError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(report)
    if identical:
        print(f"revisions {args.extra[0]} and {args.extra[1]} are identical")
        return 0
    print(
        f"revisions {args.extra[0]} and {args.extra[1]} DIFFER — these "
        f"CSVs are deterministic, so this is a real behavior change"
    )
    return 1


def _cmd_report(args) -> int:
    if args.detailed == "snapshot":
        return _report_snapshot(args)
    if args.detailed == "diff":
        return _report_diff(args)
    if args.extra:
        print(
            f"unexpected arguments {args.extra!r} "
            f"(summary mode takes one CSV path)",
            file=sys.stderr,
        )
        return 1
    # Rebuild a summary from a detailed CSV (settings travel in the rows).
    import csv

    with open(args.detailed, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        print("detailed report is empty", file=sys.stderr)
        return 1
    violated = sum(row["tr_violated"] == "True" for row in rows)
    print(f"queries: {len(rows)}")
    print(f"TR violated: {100.0 * violated / len(rows):.1f}%")
    missing = [float(row["missing_bins"]) for row in rows if row["missing_bins"]]
    if missing:
        print(f"mean missing bins: {sum(missing) / len(missing):.3f}")
    errors = [
        float(row["rel_error_avg"])
        for row in rows
        if row["rel_error_avg"] and row["tr_violated"] == "False"
    ]
    if errors:
        errors.sort()
        median = errors[len(errors) // 2]
        area = sum(min(e, 1.0) for e in errors) / len(errors)
        print(f"MRE median: {median:.3f}")
        print(f"MRE area above CDF (<=100%): {area:.3f}")
    return 0


def _cmd_lint(args) -> int:
    """``repro lint``: statically enforce the byte-determinism contract.

    Exit-code contract (documented in docs/determinism.md and relied on
    by CI): 0 = clean, 1 = findings (or, under ``--strict``, stale
    baseline entries), 2 = usage error (bad path, unparseable source or
    baseline). Argparse itself exits 2 on bad flags, completing the
    contract.
    """
    from repro.analysis import (
        BaselineError,
        DEFAULT_BASELINE_PATH,
        load_baseline,
        render_json,
        render_rule_table,
        render_text,
        run_lint,
    )

    if args.list_rules:
        print(render_rule_table(), end="")
        return 0
    baseline = None
    if not args.no_baseline:
        baseline_path = Path(args.baseline) if args.baseline else DEFAULT_BASELINE_PATH
        if baseline_path.exists():
            try:
                baseline = load_baseline(baseline_path)
            except BaselineError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        elif args.baseline:
            print(f"error: baseline file not found: {baseline_path}",
                  file=sys.stderr)
            return 2
    result = run_lint(args.paths, baseline=baseline)
    render = render_json if args.json_out else render_text
    print(render(result, strict=args.strict), end="")
    return result.exit_code(args.strict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idebench-repro",
        description="IDEBench reproduction: benchmark driver CLI",
    )
    parser.add_argument("--log-level", default=None, dest="log_level",
                        choices=["debug", "info", "warning", "error", "silent"],
                        help="structured stderr log threshold (default: "
                             "$REPRO_LOG or warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("generate-data", help="generate a scaled flights CSV")
    _add_settings_arguments(p_data)
    p_data.add_argument("--rows", type=int, default=None,
                        help="actual rows to generate (default: size/scale)")
    p_data.add_argument("--out", required=True,
                        help="output CSV path (directory when normalizing)")
    p_data.add_argument("--seed-csv", default=None, dest="seed_csv",
                        help="scale this CSV instead of the synthetic seed")
    p_data.add_argument("--normalize", action="store_true",
                        help="emit the default flights star schema")
    p_data.add_argument("--normalize-spec", default=None, dest="normalize_spec",
                        help="JSON star-schema specification to apply")
    p_data.set_defaults(func=_cmd_generate_data)

    p_wf = sub.add_parser("generate-workflows", help="generate workflow JSON files")
    _add_settings_arguments(p_wf)
    p_wf.add_argument("--per-type", type=int, default=10, dest="per_type")
    p_wf.add_argument("--config", default=None,
                      help="JSON WorkloadConfig with custom probabilities")
    p_wf.add_argument("--out", required=True, help="output directory")
    p_wf.set_defaults(func=_cmd_generate_workflows)

    p_view = sub.add_parser("view", help="inspect a workflow JSON file")
    p_view.add_argument("workflow", help="path to workflow JSON")
    p_view.add_argument("--sql", action="store_true", help="show triggered SQL")
    p_view.set_defaults(func=_cmd_view)

    p_run = sub.add_parser("run", help="run the benchmark on one engine")
    _add_settings_arguments(p_run)
    p_run.add_argument("--engine", default="idea-sim",
                       choices=list(MAIN_ENGINES) + ["system-y-sim"])
    p_run.add_argument("--tr", type=float, default=3.0,
                       help="time requirement in seconds")
    p_run.add_argument("--think-time", type=float, default=1.0, dest="think_time")
    p_run.add_argument("--per-type", type=int, default=10, dest="per_type",
                       help="number of mixed workflows to run")
    p_run.add_argument("--workflows", default=None,
                       help="directory of workflow JSONs (default: generated)")
    p_run.add_argument("--normalized", action="store_true",
                       help="run on the star schema (joins)")
    p_run.add_argument("--speculation", action="store_true",
                       help="enable speculative execution (idea-sim)")
    p_run.add_argument("--out", default=None, help="detailed report CSV path")
    p_run.add_argument("--cdf", action="store_true",
                       help="render the MRE CDF as ASCII (Fig.-5 style)")
    p_run.set_defaults(func=_cmd_run)

    p_matrix = sub.add_parser(
        "run-matrix",
        help="run an engines × TRs × sizes matrix through the parallel runtime",
    )
    p_matrix.add_argument("--engines", default=",".join(MAIN_ENGINES),
                          help="comma-separated engine names")
    p_matrix.add_argument(
        "--trs",
        default=",".join(str(tr) for tr in DEFAULT_TIME_REQUIREMENTS),
        help="comma-separated time requirements (seconds)",
    )
    p_matrix.add_argument("--sizes", default="M",
                          help="comma-separated data sizes (S, M, L)")
    p_matrix.add_argument("--workflow-types", default="mixed",
                          dest="workflow_types",
                          help="comma-separated workflow types")
    p_matrix.add_argument("--schemas", default="denormalized",
                          help="comma-separated schema layouts "
                               "(denormalized, normalized)")
    p_matrix.add_argument("--per-type", type=int, default=10, dest="per_type",
                          help="workflows per workflow type")
    p_matrix.add_argument("--think-time", type=float, default=1.0,
                          dest="think_time")
    p_matrix.add_argument("--scale", type=int, default=1000,
                          help="virtual-to-actual row scale factor")
    p_matrix.add_argument("--seed", type=int, default=42, help="root random seed")
    p_matrix.add_argument("--jobs", type=int, default=1,
                          help="worker processes to shard cells across")
    p_matrix.add_argument("--cache-dir", default=None, dest="cache_dir",
                          help="artifact store directory (enables caching "
                               "and resumption)")
    p_matrix.add_argument("--cache-budget", type=int, dest="cache_budget",
                          default=DEFAULT_CACHE_BUDGET_BYTES,
                          help="store byte budget (LRU eviction; 0 = "
                               "unlimited; default 2 GiB)")
    p_matrix.add_argument("--resume", action="store_true",
                          help="resume a crashed/partial run from --cache-dir "
                               "(cached cell results are reused by default; "
                               "this flag documents intent and validates "
                               "that a cache dir is given)")
    p_matrix.add_argument("--force", action="store_true",
                          help="re-execute every cell even if cached")
    p_matrix.add_argument("--out", default=None,
                          help="matrix summary CSV path (deterministic bytes)")
    p_matrix.add_argument("--detailed-dir", default=None, dest="detailed_dir",
                          help="directory for per-cell detailed CSVs")
    p_matrix.add_argument("--quiet", action="store_true",
                          help="suppress per-cell progress lines")
    p_matrix.set_defaults(func=_cmd_run_matrix)

    p_serve = sub.add_parser(
        "serve",
        help="serve N concurrent simulated IDE sessions (asyncio server)",
    )
    _add_settings_arguments(p_serve)
    p_serve.add_argument("--engine", default="idea-sim",
                         choices=list(MAIN_ENGINES) + ["system-y-sim"])
    p_serve.add_argument("--sessions", type=int, default=4,
                         help="number of concurrent sessions to serve")
    p_serve.add_argument("--per-session", type=int, default=2,
                         dest="per_session",
                         help="workflows per session (seeded per session)")
    p_serve.add_argument("--workflow-type", default="mixed",
                         dest="workflow_type",
                         help="workflow type of the per-session suites")
    p_serve.add_argument("--tr", type=float, default=3.0,
                         help="time requirement in seconds")
    p_serve.add_argument("--think-time", type=float, default=1.0,
                         dest="think_time")
    p_serve.add_argument("--share-engine", action="store_true",
                         dest="share_engine",
                         help="all sessions contend on ONE engine "
                              "(per-session fair scheduling)")
    p_serve.add_argument("--policy", default=None,
                         choices=list(POLICY_NAMES),
                         help="user model: scripted suites (default), "
                              "replayed suites through the policy path, "
                              "or adaptive users that react to what "
                              "they see (load-adaptive also reacts to "
                              "server-side latency/queue signals)")
    p_serve.add_argument("--arrivals", type=float, default=None,
                         help="open-system mode: Poisson arrival rate in "
                              "sessions per virtual second (sessions "
                              "then join mid-run; --sessions caps them)")
    p_serve.add_argument("--arrival-schedule", default=None,
                         dest="arrival_schedule",
                         help="non-stationary arrivals (with --arrivals "
                              "as the base rate): constant, "
                              "diurnal[:amplitude=A,period=P], "
                              "flash[:peak=5x,at=T,width=W], or "
                              "piecewise:T=R,T=R,...")
    p_serve.add_argument("--horizon", type=float, default=None,
                         help="virtual seconds during which arrivals "
                              "occur (with --arrivals; default 120)")
    p_serve.add_argument("--residence", type=float, default=None,
                         help="mean session residence in virtual seconds "
                              "(exponential; sessions then depart "
                              "mid-run, abandoning in-flight queries); "
                              "default: stay to completion")
    p_serve.add_argument("--accel", type=float, default=None,
                         help="pace events to wall time at this "
                              "acceleration (1 = real time; default: "
                              "as fast as possible)")
    p_serve.add_argument("--speculation", action="store_true",
                         help="enable speculative execution (idea-sim)")
    p_serve.add_argument("--follow", action="store_true",
                         help="stream per-query results live as deadlines "
                              "are evaluated")
    p_serve.add_argument("--verify", action="store_true",
                         help="re-run every session serially and check the "
                              "per-session reports are byte-identical")
    p_serve.add_argument("--out", default=None,
                         help="directory for per-session detailed CSVs")
    p_serve.add_argument("--spill", default=None, metavar="PATH",
                         help="constant-memory serving: stream every "
                              "record to a JSONL spill file instead of "
                              "retaining it, and report run-level "
                              "aggregates (how 100k+ sessions fit in "
                              "one process; docs/server.md)")
    p_serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                         help="expose the server over a TCP socket "
                              "instead of serving in-process (port 0 = "
                              "ephemeral; --sessions bounds how many "
                              "connections are served, 0 = forever; "
                              "see docs/protocol.md)")
    p_serve.add_argument("--stats-window", type=float, default=None,
                         dest="stats_window", metavar="SECONDS",
                         help="with --tcp --share-engine: fold live "
                              "telemetry into virtual-time windows of "
                              "this width and push each flushed window "
                              "to STATS_SUBSCRIBE probes (`repro top`)")
    p_serve.add_argument("--slo", action="append", default=None,
                         metavar="RULE",
                         help="with --stats-window: SLO watchdog rule "
                              "METRIC>X or METRIC<X over window fields "
                              "(e.g. pct_tr_violated>25, "
                              "mean_latency>2.5); repeatable; alerts "
                              "ride the pushed windows and the trace")
    _add_obs_arguments(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_connect = sub.add_parser(
        "connect",
        help="connect to a repro TCP session server (client or REPL)",
    )
    p_connect.add_argument("address", metavar="HOST:PORT",
                           help="address of a running `repro serve --tcp`")
    p_connect.add_argument("--session", type=int, default=0,
                           help="scripted mode: server-side session index "
                                "to run (its seeded suite); on a "
                                "shared-engine server this is the "
                                "timeline slot to claim (also with "
                                "--replay)")
    p_connect.add_argument("--per-session", type=int, default=1,
                           dest="per_session",
                           help="scripted mode: workflows per session")
    p_connect.add_argument("--workflow-type", default="mixed",
                           dest="workflow_type",
                           help="workflow type of the scripted suite "
                                "(or REPL session label)")
    p_connect.add_argument("--policy", default=None,
                           choices=list(POLICY_NAMES),
                           help="scripted mode: run this adaptive policy "
                                "server-side instead of the suite")
    p_connect.add_argument("--replay", default=None, metavar="WORKFLOW_JSON",
                           help="drive a client-mode session by sending "
                                "this workflow's interactions over the "
                                "wire")
    p_connect.add_argument("--repl", action="store_true",
                           help="interactive client-driven session "
                                "(load/send/records/detach commands)")
    p_connect.add_argument("--accel", type=float, default=None,
                           help="ask the server to pace this session to "
                                "wall time at this acceleration")
    p_connect.add_argument("--timeout", type=float, default=60.0,
                           help="socket timeout in seconds")
    p_connect.add_argument("--stats", action="store_true",
                           help="pull the server's live metrics/profile "
                                "snapshot (STATS message) instead of "
                                "attaching a session; --out writes the "
                                "canonical-JSON payload")
    p_connect.add_argument("--out", default=None,
                           help="detailed report CSV path (reassembled "
                                "client-side; byte-identical to the "
                                "server's); with --stats: the stats "
                                "snapshot JSON")
    _add_obs_arguments(p_connect)
    p_connect.set_defaults(func=_cmd_connect)

    p_top = sub.add_parser(
        "top",
        help="live dashboard over a server's streaming telemetry "
             "(STATS_SUBSCRIBE probe; shared-engine --stats-window runs)",
    )
    p_top.add_argument("address", metavar="HOST:PORT",
                       help="address of a running `repro serve --tcp "
                            "--share-engine --stats-window W` server")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="minimum wall seconds between rendered "
                            "frames (alert and final frames always "
                            "render; payloads stay deterministic)")
    p_top.add_argument("--timeout", type=float, default=60.0,
                       help="socket timeout in seconds")
    p_top.set_defaults(func=_cmd_top)

    p_bench_net = sub.add_parser(
        "bench-net",
        help="loopback TCP benchmark: byte-equivalence + round-trip "
             "overhead vs in-process serving",
    )
    _add_settings_arguments(p_bench_net)
    p_bench_net.add_argument("--engine", default="idea-sim",
                             choices=list(MAIN_ENGINES) + ["system-y-sim"])
    p_bench_net.add_argument("--sessions", type=int, default=2,
                             help="scripted sessions to compare")
    p_bench_net.add_argument("--per-session", type=int, default=1,
                             dest="per_session",
                             help="workflows per session")
    p_bench_net.add_argument("--workflow-type", default="mixed",
                             dest="workflow_type",
                             help="workflow type of the per-session suites")
    p_bench_net.add_argument("--tr", type=float, default=3.0,
                             help="time requirement in seconds")
    p_bench_net.add_argument("--think-time", type=float, default=1.0,
                             dest="think_time")
    p_bench_net.add_argument("--remote", action="store_true",
                             help="remote load generation: spawn "
                                  "--sessions real `repro connect` "
                                  "client processes against one "
                                  "shared-engine server and aggregate "
                                  "their client-side CSVs into one "
                                  "deterministic contention report")
    p_bench_net.add_argument("--host", default=None, metavar="HOST:PORT",
                             help="with --remote: target an "
                                  "already-running `repro serve --tcp "
                                  "--share-engine` server instead of a "
                                  "loopback one (no reference check)")
    p_bench_net.add_argument("--out", default=None,
                             help="with --remote: write the aggregated "
                                  "contention report to this file")
    p_bench_net.add_argument("--trace-dir", default=None, dest="trace_dir",
                             metavar="DIR",
                             help="with --remote: each client process "
                                  "writes its correlated trace to "
                                  "DIR/client-N.jsonl (stitch with "
                                  "`repro trace merge`)")
    _add_obs_arguments(p_bench_net)
    p_bench_net.set_defaults(func=_cmd_bench_net)

    p_bench = sub.add_parser(
        "bench-sessions",
        help="sessions × engine load report for the session server",
    )
    _add_settings_arguments(p_bench)
    p_bench.add_argument("--engines", default="idea-sim",
                         help="comma-separated engine names")
    p_bench.add_argument("--sessions", default="1,2,4",
                         help="comma-separated session counts")
    p_bench.add_argument("--modes", default="isolated,shared",
                         help="comma-separated serving modes "
                              "(isolated, shared)")
    p_bench.add_argument("--per-session", type=int, default=2,
                         dest="per_session",
                         help="workflows per session")
    p_bench.add_argument("--workflow-type", default="mixed",
                         dest="workflow_type",
                         help="workflow type of the per-session suites")
    p_bench.add_argument("--tr", type=float, default=3.0,
                         help="time requirement in seconds")
    p_bench.add_argument("--think-time", type=float, default=1.0,
                         dest="think_time")
    p_bench.add_argument("--cache-dir", default=None, dest="cache_dir",
                         help="artifact store directory (cells restore on "
                              "re-run)")
    p_bench.add_argument("--cache-budget", type=int, dest="cache_budget",
                         default=DEFAULT_CACHE_BUDGET_BYTES,
                         help="store byte budget (LRU eviction; 0 = "
                              "unlimited; default 2 GiB)")
    p_bench.add_argument("--out", default=None,
                         help="load report CSV path (deterministic bytes)")
    p_bench.add_argument("--incremental", action="store_true",
                         help="fold each cell incrementally instead of "
                              "retaining every record (constant memory "
                              "per cell; skips the cell cache)")
    p_bench.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress lines")
    _add_obs_arguments(p_bench)
    p_bench.set_defaults(func=_cmd_bench_sessions)

    p_adaptive = sub.add_parser(
        "bench-adaptive",
        help="sessions × policy × churn report (adaptive + open system)",
    )
    _add_settings_arguments(p_adaptive)
    p_adaptive.add_argument("--engine", default="idea-sim",
                            choices=list(MAIN_ENGINES) + ["system-y-sim"])
    p_adaptive.add_argument("--policies",
                            default="replay,markov,uncertainty",
                            help="comma-separated user models (scripted, "
                                 "replay, markov, uncertainty)")
    p_adaptive.add_argument("--sessions", default="2,4",
                            help="comma-separated session counts (open "
                                 "cells treat them as arrival caps)")
    p_adaptive.add_argument("--churn", default="closed,open",
                            help="comma-separated churn modes "
                                 "(closed, open)")
    p_adaptive.add_argument("--per-session", type=int, default=1,
                            dest="per_session",
                            help="workflows per session")
    p_adaptive.add_argument("--workflow-type", default="mixed",
                            dest="workflow_type",
                            help="workflow type of scripted/markov "
                                 "sessions")
    p_adaptive.add_argument("--tr", type=float, default=3.0,
                            help="time requirement in seconds")
    p_adaptive.add_argument("--think-time", type=float, default=1.0,
                            dest="think_time")
    p_adaptive.add_argument("--arrivals", type=float, default=0.1,
                            dest="arrivals",
                            help="open cells: Poisson arrival rate "
                                 "(sessions per virtual second)")
    p_adaptive.add_argument("--horizon", type=float, default=60.0,
                            help="open cells: arrival horizon in virtual "
                                 "seconds")
    p_adaptive.add_argument("--residence", type=float, default=30.0,
                            help="open cells: mean session residence in "
                                 "virtual seconds")
    p_adaptive.add_argument("--share-engine", action="store_true",
                            dest="share_engine",
                            help="sessions contend on ONE engine per cell")
    p_adaptive.add_argument("--cache-dir", default=None, dest="cache_dir",
                            help="artifact store directory (cells restore "
                                 "on re-run)")
    p_adaptive.add_argument("--cache-budget", type=int, dest="cache_budget",
                            default=DEFAULT_CACHE_BUDGET_BYTES,
                            help="store byte budget (LRU eviction; 0 = "
                                 "unlimited; default 2 GiB)")
    p_adaptive.add_argument("--incremental", action="store_true",
                            help="fold each cell incrementally instead "
                                 "of retaining every record (constant "
                                 "memory per cell; skips the cell cache)")
    p_adaptive.add_argument("--out", default=None,
                            help="adaptive report CSV path "
                                 "(deterministic bytes)")
    p_adaptive.add_argument("--quiet", action="store_true",
                            help="suppress per-cell progress lines")
    _add_obs_arguments(p_adaptive)
    p_adaptive.set_defaults(func=_cmd_bench_adaptive)

    p_trace = sub.add_parser(
        "trace",
        help="summarize or export a structured trace captured with --trace",
    )
    p_trace.add_argument("action", choices=["summary", "export", "merge"],
                         help="summary: deterministic per-span digest; "
                              "export: virtual-time-only JSONL (--out "
                              "*.jsonl) or summary CSV (--out *.csv); "
                              "merge: stitch per-host trace files into "
                              "one stream globally ordered by virtual "
                              "time (vt, then host, then seq)")
    p_trace.add_argument("trace_file", metavar="TRACE_JSONL", nargs="+",
                         help="trace file(s) written by --trace runs "
                              "(summary/export take one; merge takes "
                              "many)")
    p_trace.add_argument("--csv", action="store_true",
                         help="summary: print the CSV form instead of "
                              "the table")
    p_trace.add_argument("--session", default=None, metavar="NAME",
                         help="keep only entries of this session")
    p_trace.add_argument("--kind", default=None, metavar="KIND",
                         help="keep only entries of this kind (e.g. "
                              "span, event)")
    p_trace.add_argument("--out", default=None,
                         help="export: output path (.jsonl = virtual-only "
                              "trace, anything else = summary CSV); "
                              "merge: merged JSONL path (stdout if "
                              "omitted)")
    p_trace.set_defaults(func=_cmd_trace)

    p_lint = sub.add_parser(
        "lint",
        help="statically enforce the byte-determinism contract "
             "(AST rules DET001-DET006; see docs/determinism.md)",
        description="Determinism sentinel: lints python sources against "
                    "the byte-determinism contract (wall-clock reads, "
                    "salted hash(), unstable iteration, unseeded RNG, "
                    "set-repr seeding, trace wall leaks). Exit codes: "
                    "0 clean, 1 findings, 2 usage error.",
    )
    p_lint.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                        help="files or directories to lint "
                             "(default: src)")
    p_lint.add_argument("--json", action="store_true", dest="json_out",
                        help="emit the machine-readable JSON report "
                             "instead of text")
    p_lint.add_argument("--strict", action="store_true",
                        help="also fail (exit 1) on stale baseline "
                             "entries — the CI gate mode")
    p_lint.add_argument("--baseline", default=None, metavar="JSON",
                        help="baseline file of grandfathered findings "
                             "(default: tools/lint_baseline.json if "
                             "present)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        dest="no_baseline",
                        help="ignore any baseline file: report every "
                             "finding")
    p_lint.add_argument("--list-rules", action="store_true",
                        dest="list_rules",
                        help="print the rule catalog and exit")
    p_lint.set_defaults(func=_cmd_lint)

    p_cache = sub.add_parser(
        "cache",
        help="inspect and garbage-collect an artifact store",
    )
    p_cache.add_argument("action", choices=["stats", "clear", "evict"],
                         help="stats: entry/byte counts; clear: remove "
                              "everything; evict: LRU-shrink to a byte "
                              "budget")
    p_cache.add_argument("--cache-dir", required=True, dest="cache_dir",
                         help="artifact store directory")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         dest="max_bytes",
                         help="evict: byte budget to shrink to "
                              "(default: the 2 GiB default budget)")
    p_cache.set_defaults(func=_cmd_cache)

    p_rep = sub.add_parser(
        "report",
        help="summarize a detailed CSV, or snapshot/diff deterministic "
             "reports across git revisions",
    )
    p_rep.add_argument("detailed",
                       help="path to a detailed report CSV to summarize, "
                            "or the keyword 'snapshot' (store a "
                            "deterministic CSV under a revision) or "
                            "'diff' (compare two revisions' snapshots)")
    p_rep.add_argument("extra", nargs="*",
                       help="snapshot: the CSV to store; diff: REV_A REV_B")
    p_rep.add_argument("--dir", default=".repro-regress",
                       help="snapshot directory (default .repro-regress)")
    p_rep.add_argument("--kind", default="matrix",
                       help="snapshot label, e.g. matrix, sessions, "
                            "adaptive (default matrix)")
    p_rep.add_argument("--rev", default=None,
                       help="snapshot revision (default: git rev-parse "
                            "--short HEAD, else 'worktree')")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``idebench-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    log.configure(args.log_level)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    if trace_path or metrics_path:
        from repro.obs import observed

        with observed(trace_path=trace_path, metrics_path=metrics_path):
            code = args.func(args)
        if trace_path:
            print(f"wrote trace to {trace_path}")
        if metrics_path:
            print(f"wrote metrics to {metrics_path}")
        return code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
