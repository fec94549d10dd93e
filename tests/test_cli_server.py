"""CLI tests for the session-server subcommands (serve, bench-sessions,
bench-adaptive)."""

import pytest

from repro.cli import main

#: Small-but-honest configuration shared by all CLI invocations here.
COMMON = ["--size", "S", "--scale", "50000", "--seed", "5", "--tr", "1"]

#: Every rejected ``repro serve`` combination, with a substring of its
#: one-line error. Ids stay ``counts<i>`` as the list grows.
REJECTED_SERVES = [
    (["--sessions", "0"], "session, got 0"),
    (["--sessions", "2", "--per-session", "0"], "per_session"),
    (["--sessions", "2", "--arrivals", "1", "--per-session", "0"],
     "per_session"),
    (["--verify", "--share-engine"], "--verify needs isolated sessions"),
    (["--verify", "--policy", "markov"], "adaptive policies"),
    (["--verify", "--arrivals", "0.2"], "open-system arrivals"),
    (["--verify"], "--verify cannot combine with --spill"),
    (["--out", "reports"], "--out cannot combine with --spill"),
    (["--horizon", "40"], "need --arrivals"),
    (["--residence", "25"], "need --arrivals"),
    (["--arrival-schedule", "diurnal"], "need --arrivals"),
    (["--arrivals", "1", "--arrival-schedule", "bogus"],
     "unknown arrival schedule kind 'bogus'"),
    (["--arrivals", "0"], "arrival rate must be positive"),
    (["--arrivals", "1", "--residence", "-1"],
     "mean residence must be positive"),
    (["--accel", "-1"], "accel must be positive"),
    (["--workflow-type", "bogus"], "unknown workflow type 'bogus'"),
    (["--sessions", "1", "--per-session", "1", "--stats-window", "5",
      "--slo", "pct_tr_violated>25"],
     "--stats-window, --slo cannot combine with in-process serving"),
    (["--arrivals", "1", "--horizon", "10",
      "--arrival-schedule", "piecewise:0=inf"],
     "schedule times and rates must be finite"),
    (["--arrivals", "nan"], "arrival rate must be positive and finite"),
]


class TestServe:
    def test_serve_verify_and_out(self, tmp_path, capsys):
        out_dir = tmp_path / "sessions"
        code = main(
            ["serve", "--engine", "idea-sim", "--sessions", "2",
             "--per-session", "1", "--verify", "--out", str(out_dir)]
            + COMMON
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "serving 2 sessions" in captured
        assert "byte-identical to serial runs" in captured
        written = sorted(p.name for p in out_dir.glob("*.csv"))
        assert written == ["session-0.csv", "session-1.csv"]

    def test_serve_share_engine(self, capsys):
        code = main(
            ["serve", "--engine", "monetdb-sim", "--sessions", "2",
             "--per-session", "1", "--share-engine"] + COMMON
        )
        assert code == 0
        assert "shared engine" in capsys.readouterr().out

    def test_verify_rejected_with_shared_engine(self, capsys):
        code = main(
            ["serve", "--sessions", "2", "--share-engine", "--verify"]
            + COMMON
        )
        assert code == 1
        assert "isolated sessions" in capsys.readouterr().err

    def test_follow_streams_records(self, capsys):
        code = main(
            ["serve", "--engine", "idea-sim", "--sessions", "2",
             "--per-session", "1", "--follow"] + COMMON
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "session-0 q0" in captured

    def test_accel_pacing_smoke(self, capsys):
        code = main(
            ["serve", "--engine", "idea-sim", "--sessions", "2",
             "--per-session", "1", "--accel", "1000000", "--verify"]
            + COMMON
        )
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out


class TestBenchSessions:
    def test_sweep_writes_deterministic_csv(self, tmp_path, capsys):
        out = tmp_path / "load.csv"
        code = main(
            ["bench-sessions", "--engines", "idea-sim",
             "--sessions", "1,2", "--per-session", "1",
             "--modes", "isolated,shared", "--out", str(out)] + COMMON
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "load report" in captured
        text = out.read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0].startswith("engine,sessions,mode")
        assert len(lines) == 1 + 4  # 1 engine × 2 counts × 2 modes

    def test_cache_restores_cells_byte_identically(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "bench-sessions", "--engines", "idea-sim", "--sessions", "1,2",
            "--per-session", "1", "--modes", "isolated",
            "--cache-dir", str(cache),
        ] + COMMON
        assert main(args + ["--out", str(out_a)]) == 0
        capsys.readouterr()
        assert main(args + ["--out", str(out_b)]) == 0
        captured = capsys.readouterr().out
        assert "[cache]" in captured
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unknown_engine_rejected(self, capsys):
        code = main(
            ["bench-sessions", "--engines", "no-such-engine"] + COMMON
        )
        assert code == 1
        assert "unknown engines" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--sessions", "0"], ">= 1 session"),
        (["--sessions", "2,0"], ">= 1 session"),
        (["--sessions", "1,x"], "comma-separated integers"),
        (["--per-session", "0"], "selector count must be >= 1"),
        (["--modes", "isolated,sideways"], "unknown serving mode"),
        (["--workflow-type", "zigzag"], "unknown workflow type"),
    ])
    def test_bad_sweep_arguments_fail_before_any_cell(
        self, capsys, flags, message
    ):
        code = main(["bench-sessions"] + flags + COMMON)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err


class TestServeAdaptive:
    def test_policy_markov(self, capsys):
        code = main(
            ["serve", "--engine", "idea-sim", "--sessions", "2",
             "--per-session", "1", "--policy", "markov"] + COMMON
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "markov users" in captured

    def test_replay_policy_passes_verify(self, capsys):
        code = main(
            ["serve", "--engine", "idea-sim", "--sessions", "2",
             "--per-session", "1", "--policy", "replay", "--verify"]
            + COMMON
        )
        assert code == 0
        assert "byte-identical to serial runs" in capsys.readouterr().out

    def test_verify_rejected_with_adaptive_policy(self, capsys):
        code = main(
            ["serve", "--sessions", "2", "--policy", "markov", "--verify"]
            + COMMON
        )
        assert code == 1
        assert "adaptive policies" in capsys.readouterr().err

    def test_open_system_arrivals(self, capsys):
        code = main(
            ["serve", "--engine", "idea-sim", "--sessions", "4",
             "--arrivals", "0.2", "--horizon", "40", "--residence", "25",
             "--policy", "uncertainty"] + COMMON
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "open system" in captured
        assert "departed mid-run" in captured

    def test_verify_rejected_with_arrivals(self, capsys):
        code = main(
            ["serve", "--sessions", "2", "--arrivals", "0.2", "--verify"]
            + COMMON
        )
        assert code == 1
        assert "open-system arrivals" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--residence", "25"], ["--horizon", "40"],
        ["--arrival-schedule", "diurnal"],
    ])
    def test_churn_flags_without_arrivals_rejected(self, capsys, flag):
        code = main(["serve", "--sessions", "2"] + flag + COMMON)
        assert code == 1
        assert "need --arrivals" in capsys.readouterr().err


class TestServeSpill:
    def test_spill_writes_records_and_aggregate_report(self, tmp_path, capsys):
        spill = tmp_path / "records.jsonl"
        code = main(
            ["serve", "--sessions", "2", "--per-session", "1",
             "--spill", str(spill)] + COMMON
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "sessions served      : 2" in captured
        lines = spill.read_bytes().splitlines()
        assert f"{len(lines)} records spooled" in captured

    def test_rejected_arguments_leave_spill_file_untouched(
        self, tmp_path, capsys
    ):
        """The spill file is opened (truncated) only after validation."""
        spill = tmp_path / "records.jsonl"
        spill.write_bytes(b"precious earlier run\n")
        code = main(
            ["serve", "--sessions", "2", "--arrivals", "1",
             "--arrival-schedule", "bogus", "--spill", str(spill)] + COMMON
        )
        assert code == 1
        assert "unknown arrival schedule kind" in capsys.readouterr().err
        assert spill.read_bytes() == b"precious earlier run\n"

    @pytest.mark.parametrize("counts, message", [
        pytest.param(*case, id=f"counts{index}")
        for index, case in enumerate(REJECTED_SERVES)
    ])
    def test_invalid_counts_leave_spill_file_untouched(
        self, tmp_path, capsys, counts, message
    ):
        """Every rejected combination is refused before the spool exists,
        and its error is one stderr line, not a traceback."""
        spill = tmp_path / "records.jsonl"
        spill.write_bytes(b"precious earlier run\n")
        code = main(["serve"] + counts + ["--spill", str(spill)] + COMMON)
        err = capsys.readouterr().err
        assert code == 1
        assert spill.read_bytes() == b"precious earlier run\n"
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert message in err

    def test_spill_closed_when_the_run_fails(self, tmp_path, monkeypatch):
        from repro.server import RecordSpool, SessionManager

        opened = []
        original = RecordSpool.__init__

        def recording_init(self, path=None):
            original(self, path)
            opened.append(self)

        def failing_run(self):
            raise RuntimeError("engine fell over")

        monkeypatch.setattr(RecordSpool, "__init__", recording_init)
        monkeypatch.setattr(SessionManager, "run", failing_run)
        with pytest.raises(RuntimeError, match="fell over"):
            main(
                ["serve", "--sessions", "1", "--per-session", "1",
                 "--spill", str(tmp_path / "records.jsonl")] + COMMON
            )
        assert [spool._closed for spool in opened] == [True]


class TestServeIsOneCell:
    """`repro serve` builds a serve cell and serves it through the same
    manager builder as the sweeps' cells, so both give one answer."""

    @pytest.mark.parametrize("flags, serving", [
        ([], dict()),
        (["--arrivals", "0.2"],
         dict(churn="open", arrival_rate=0.2, horizon=120.0)),
    ])
    def test_printed_aggregate_is_the_cells_answer(
        self, tmp_path, capsys, monkeypatch, server_ctx, flags, serving
    ):
        import repro.runtime.executor as executor
        from repro.runtime import RunSpec, ServingSelector, WorkflowSelector

        built = []
        original = executor.serving_manager

        def capture(ctx, spec, **presentation):
            built.append(spec)
            return original(ctx, spec, **presentation)

        monkeypatch.setattr(executor, "serving_manager", capture)
        code = main(
            ["serve", "--sessions", "2", "--per-session", "1",
             "--spill", str(tmp_path / "records.jsonl")] + flags + COMMON
        )
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        spec = RunSpec(
            engine="idea-sim", settings=server_ctx.settings,
            workflows=WorkflowSelector(count=1), mode="serve",
            serving=ServingSelector(2, **serving),
        )
        assert built == [spec]
        cell = executor.execute_cell(server_ctx, spec)["serving"]
        departed = cell["sessions_departed"]
        for line in [
            f"sessions served      : {cell['sessions_served']}"
            + (f" ({departed} departed mid-run)" if departed else ""),
            f"queries evaluated    : {cell['num_queries']}",
            f"%TR violated         : {cell['pct_tr_violated']:.1f}%",
            f"mean latency (ans.)  : {cell['mean_latency_answered']:.3f}s",
            f"virtual makespan     : {cell['virtual_makespan']:.1f}s",
        ]:
            assert line in printed

    def test_speculation_reaches_the_engine(self, server_ctx, monkeypatch):
        import repro.bench.experiments as experiments
        from repro.runtime import RunSpec, ServingSelector, execute_cell

        flags = []
        original = experiments.make_engine

        def recording(name, dataset, settings, clock, speculation=False):
            flags.append(speculation)
            return original(name, dataset, settings, clock, speculation)

        monkeypatch.setattr(experiments, "make_engine", recording)
        spec = RunSpec(
            engine="idea-sim", settings=server_ctx.settings,
            speculation=True, mode="serve", serving=ServingSelector(2),
        )
        execute_cell(server_ctx, spec)
        assert flags == [True, True]


class TestBenchAdaptive:
    def test_sweep_writes_deterministic_csv(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "bench-adaptive", "--engine", "idea-sim",
            "--policies", "replay,markov", "--sessions", "2",
            "--per-session", "1", "--churn", "closed,open",
            "--arrivals", "0.2", "--horizon", "40", "--residence", "25",
        ] + COMMON
        assert main(args + ["--out", str(out_a)]) == 0
        captured = capsys.readouterr().out
        assert "sessions × policy × churn report" in captured
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("engine,policy,sessions,churn")
        assert len(lines) == 1 + 4  # 2 policies × 1 count × 2 churn modes

    def test_cache_restores_cells(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "bench-adaptive", "--engine", "idea-sim",
            "--policies", "markov", "--sessions", "2",
            "--per-session", "1", "--churn", "closed",
            "--cache-dir", str(cache),
        ] + COMMON
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "[cache]" in capsys.readouterr().out

    def test_unknown_policy_rejected(self, capsys):
        code = main(
            ["bench-adaptive", "--policies", "telepathy"] + COMMON
        )
        assert code == 1
        assert "unknown policies" in capsys.readouterr().err

    def test_unknown_churn_rejected(self, capsys):
        code = main(
            ["bench-adaptive", "--policies", "replay",
             "--churn", "sideways"] + COMMON
        )
        assert code == 1
        assert "unknown churn mode" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--sessions", "2,0"], ">= 1 session"),
        (["--sessions", "1,x"], "comma-separated integers"),
        (["--per-session", "0"], "selector count must be >= 1"),
        (["--arrivals", "0"], "arrival rate must be positive"),
    ])
    def test_bad_sweep_arguments_fail_before_any_cell(
        self, capsys, flags, message
    ):
        code = main(["bench-adaptive", "--policies", "markov"] + flags + COMMON)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err


class TestParser:
    @pytest.mark.parametrize(
        "command", ["serve", "bench-sessions", "bench-adaptive"]
    )
    def test_subcommands_registered(self, command):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([command])
        assert callable(args.func)

    def test_cache_subcommand_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["cache", "stats", "--cache-dir", "x"])
        assert callable(args.func)
