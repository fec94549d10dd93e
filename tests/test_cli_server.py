"""CLI tests for the session-server subcommands (serve, bench-sessions)."""

import pytest

from repro.cli import main

#: Small-but-honest configuration shared by all CLI invocations here.
COMMON = ["--size", "S", "--scale", "50000", "--seed", "5", "--tr", "1"]


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

    @pytest.mark.parametrize("flag", [["--residence", "25"], ["--horizon", "40"]])
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
