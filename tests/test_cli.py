"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.data.storage import Table
from repro.workflow.spec import Workflow


_BUDGET = 2 * 1024 ** 3

#: Per subcommand: the required arguments, and the full parsed namespace
#: they produce (``func`` by name; ``command`` and ``log_level`` implied).
PINNED_DEFAULTS = {
    "generate-data": (["--out", "o"], {
        "func": "_cmd_generate_data", "normalize": False,
        "normalize_spec": None, "out": "o", "rows": None, "scale": 1000,
        "seed": 42, "seed_csv": None, "size": "M",
    }),
    "generate-workflows": (["--out", "o"], {
        "func": "_cmd_generate_workflows", "config": None, "out": "o",
        "per_type": 10, "scale": 1000, "seed": 42, "size": "M",
    }),
    "view": (["w.json"], {
        "func": "_cmd_view", "sql": False, "workflow": "w.json",
    }),
    "run": ([], {
        "func": "_cmd_run", "cdf": False, "engine": "idea-sim",
        "normalized": False, "out": None, "per_type": 10, "scale": 1000,
        "seed": 42, "size": "M", "speculation": False, "think_time": 1.0,
        "tr": 3.0, "workflows": None,
    }),
    "run-matrix": ([], {
        "func": "_cmd_run_matrix", "cache_budget": _BUDGET,
        "cache_dir": None, "detailed_dir": None,
        "engines": "monetdb-sim,xdb-sim,idea-sim,system-x-sim",
        "force": False, "jobs": 1, "out": None, "per_type": 10,
        "quiet": False, "resume": False, "scale": 1000,
        "schemas": "denormalized", "seed": 42, "sizes": "M",
        "think_time": 1.0, "trs": "0.5,1.0,3.0,5.0,10.0",
        "workflow_types": "mixed",
    }),
    "serve": ([], {
        "func": "_cmd_serve", "accel": None, "arrival_schedule": None,
        "arrivals": None, "engine": "idea-sim", "follow": False,
        "horizon": None, "metrics_out": None, "out": None,
        "per_session": 2, "policy": None, "residence": None, "scale": 1000,
        "seed": 42, "sessions": 4, "share_engine": False, "size": "M",
        "slo": None, "speculation": False, "spill": None,
        "stats_window": None, "tcp": None, "think_time": 1.0, "tr": 3.0,
        "trace": None, "verify": False, "workflow_type": "mixed",
    }),
    "connect": (["h:1"], {
        "func": "_cmd_connect", "accel": None, "address": "h:1",
        "metrics_out": None, "out": None, "per_session": 1, "policy": None,
        "repl": False, "replay": None, "session": 0, "stats": False,
        "timeout": 60.0, "trace": None, "workflow_type": "mixed",
    }),
    "top": (["h:1"], {
        "func": "_cmd_top", "address": "h:1", "interval": 1.0,
        "timeout": 60.0,
    }),
    "bench-sessions": ([], {
        "func": "_cmd_bench_sessions", "cache_budget": _BUDGET,
        "cache_dir": None, "engines": "idea-sim", "metrics_out": None,
        "modes": "isolated,shared", "out": None, "per_session": 2,
        "quiet": False, "scale": 1000, "seed": 42, "sessions": "1,2,4",
        "size": "M", "think_time": 1.0, "tr": 3.0, "trace": None,
        "workflow_type": "mixed",
    }),
    "bench-adaptive": ([], {
        "func": "_cmd_bench_adaptive", "arrivals": 0.1,
        "cache_budget": _BUDGET, "cache_dir": None, "churn": "closed,open",
        "engine": "idea-sim", "horizon": 60.0, "metrics_out": None,
        "out": None, "per_session": 1,
        "policies": "replay,markov,uncertainty", "quiet": False,
        "residence": 30.0, "scale": 1000, "seed": 42, "sessions": "2,4",
        "share_engine": False, "size": "M", "think_time": 1.0, "tr": 3.0,
        "trace": None, "workflow_type": "mixed",
    }),
    "trace": (["summary", "t.jsonl"], {
        "func": "_cmd_trace", "action": "summary", "csv": False,
        "kind": None, "out": None, "session": None,
        "trace_file": ["t.jsonl"],
    }),
    "lint": ([], {
        "func": "_cmd_lint", "json_out": False, "list_rules": False,
        "paths": ["src"],
    }),
    "cache": (["stats", "--cache-dir", "c"], {
        "func": "_cmd_cache", "action": "stats", "cache_dir": "c",
        "max_bytes": None,
    }),
    "report": (["r.csv"], {
        "func": "_cmd_report", "detailed": "r.csv",
    }),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.engine == "idea-sim"
        assert args.tr == 3.0
        assert args.scale == 1000

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine", "oracle"])

    def test_every_subcommand_is_pinned(self):
        subparsers = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        )
        assert sorted(subparsers.choices) == sorted(PINNED_DEFAULTS)

    @pytest.mark.parametrize("command", sorted(PINNED_DEFAULTS))
    def test_parsed_defaults_are_pinned(self, command):
        argv, pinned = PINNED_DEFAULTS[command]
        parsed = vars(build_parser().parse_args([command] + argv))
        parsed["func"] = parsed["func"].__name__
        expected = {"command": command, "log_level": None, **pinned}
        assert parsed == expected

    @pytest.mark.parametrize("flags", [
        ["--strict"], ["--baseline", "x.json"], ["--no-baseline"],
    ])
    def test_lint_has_no_baseline_flags(self, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint"] + flags)
        assert exit_info.value.code == 2


class TestGenerateData:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "flights.csv"
        code = main([
            "generate-data", "--rows", "500", "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        table = Table.from_csv(out)
        assert table.num_rows == 500
        assert "DEP_DELAY" in table

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate-data", "--rows", "200", "--out", str(a), "--seed", "9"])
        main(["generate-data", "--rows", "200", "--out", str(b), "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestGenerateWorkflows:
    def test_writes_suite(self, tmp_path):
        out = tmp_path / "suite"
        code = main([
            "generate-workflows", "--out", str(out), "--per-type", "1",
            "--scale", "5000", "--size", "S", "--seed", "3",
        ])
        assert code == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 5  # one per type incl. mixed
        workflow = Workflow.from_json(files[0])
        assert workflow.num_interactions > 0


class TestView:
    def test_renders_workflow(self, tmp_path, capsys):
        out = tmp_path / "suite"
        main([
            "generate-workflows", "--out", str(out), "--per-type", "1",
            "--scale", "5000", "--size", "S", "--seed", "3",
        ])
        workflow_path = sorted(out.glob("*.json"))[0]
        code = main(["view", str(workflow_path)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "final dashboard" in captured

    def test_sql_flag(self, tmp_path, capsys):
        out = tmp_path / "suite"
        main([
            "generate-workflows", "--out", str(out), "--per-type", "1",
            "--scale", "5000", "--size", "S", "--seed", "3",
        ])
        workflow_path = sorted(out.glob("*.json"))[0]
        main(["view", str(workflow_path), "--sql"])
        assert "SELECT" in capsys.readouterr().out


class TestRunAndReport:
    def test_run_writes_detailed_report(self, tmp_path, capsys):
        out = tmp_path / "detail.csv"
        code = main([
            "run", "--engine", "idea-sim", "--tr", "1", "--scale", "5000",
            "--size", "S", "--per-type", "1", "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert rows[0]["driver"] == "idea-sim"
        stdout = capsys.readouterr().out
        assert "data preparation" in stdout
        assert "%TR viol" in stdout

    @pytest.mark.parametrize("flags", [
        ["--tr", "nan"], ["--tr", "inf"], ["--tr", "1", "--think-time", "nan"],
    ])
    def test_non_finite_timing_is_one_stderr_line(self, capsys, flags):
        code = main([
            "run", "--engine", "idea-sim", "--scale", "50000", "--size", "S",
            "--per-type", "1", *flags,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "must be" in err and "finite" in err
        assert len(err.splitlines()) == 1

    def test_report_summarizes(self, tmp_path, capsys):
        out = tmp_path / "detail.csv"
        main([
            "run", "--engine", "idea-sim", "--tr", "1", "--scale", "5000",
            "--size", "S", "--per-type", "1", "--out", str(out), "--seed", "3",
        ])
        capsys.readouterr()
        code = main(["report", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "TR violated" in stdout
        assert "mean missing bins" in stdout

    def test_report_empty_file_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("id\n")
        assert main(["report", str(path)]) == 1

    def test_report_missing_file_is_one_stderr_line(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot read report:")
        assert len(err.splitlines()) == 1

    def test_report_rejects_a_csv_that_is_not_a_detailed_report(
        self, tmp_path, capsys
    ):
        path = tmp_path / "matrix.csv"
        path.write_text("cell_id,engine\nc0,idea-sim\n")
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot read report:")
        assert "tr_violated" in err
        assert len(err.splitlines()) == 1

    def test_summary_mode_rejects_surplus_arguments(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("x\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["report", str(csv_path), "surplus"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: surplus" in capsys.readouterr().err

    def test_run_on_external_workflow_dir(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        main([
            "generate-workflows", "--out", str(suite), "--per-type", "1",
            "--scale", "5000", "--size", "S", "--seed", "3",
        ])
        code = main([
            "run", "--engine", "monetdb-sim", "--tr", "1", "--scale", "5000",
            "--size", "S", "--workflows", str(suite), "--seed", "3",
        ])
        assert code == 0


_BAD_WORKFLOWS = {
    "unknown-type": (
        {"name": "w", "type": "bogus", "interactions": [{"type": "link", "source": "a", "target": "b"}]},
        "malformed Workflow: type: expected one of",
    ),
    "unknown-interaction": (
        {"name": "w", "type": "custom", "interactions": [{"type": "bogus"}]},
        "malformed Workflow: interactions[0].type: unknown interaction type 'bogus'",
    ),
    "non-object-interaction": (
        {"name": "w", "type": "custom", "interactions": [["link", "a", "b"]]},
        "malformed Workflow: interactions[0]: expected an object, got list",
    ),
    # json.dumps writes the NaN as the bare token NaN, which json.load reads.
    "non-finite-filter-bound": (
        {"name": "w", "type": "custom", "interactions": [{
            "type": "set_filter", "viz": "viz_0",
            "filter": {"type": "range", "field": "DAY_OF_WEEK", "low": float("nan"), "high": 3.0},
        }]},
        "malformed Workflow: interactions[0].filter: predicate on 'DAY_OF_WEEK' "
        "has non-finite value nan",
    ),
}


class TestMalformedWorkflowFiles:
    """A bad workflow file is one stderr line and exit 1, never a
    traceback, for every command that loads one."""

    @pytest.mark.parametrize("case", sorted(_BAD_WORKFLOWS))
    @pytest.mark.parametrize("command", ["view", "run"])
    def test_one_stderr_line(self, tmp_path, capsys, command, case):
        data, message = _BAD_WORKFLOWS[case]
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "w.json").write_text(json.dumps(data))
        argv = (
            ["view", str(suite / "w.json")] if command == "view" else [
                "run", "--engine", "monetdb-sim", "--tr", "1", "--scale",
                "5000", "--size", "S", "--workflows", str(suite),
            ]
        )
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.splitlines()) == 1


    def test_missing_file_is_one_stderr_line(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such.json"
        assert main(["view", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(missing) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("present", [False, True])
    def test_missing_or_empty_workflow_directory_is_one_stderr_line(
        self, tmp_path, capsys, present
    ):
        suite = tmp_path / "suite"
        if present:
            suite.mkdir()
            (suite / "notes.txt").write_text("not a workflow")
        argv = [
            "run", "--engine", "monetdb-sim", "--tr", "1", "--scale", "5000",
            "--size", "S", "--workflows", str(suite),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        expected = (
            f"no workflow (*.json) in {suite}" if present
            else f"[Errno 2] No such file or directory: '{suite}'"
        )
        assert err == expected + "\n"


class TestCacheSubcommand:
    """repro cache {stats,clear,evict} — the artifact-store GC wiring."""

    def _populate(self, tmp_path, entries=4):
        from repro.runtime import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        for index in range(entries):
            store.put(("cli-cache-test", index), {"payload": "x" * 200, "i": index})
        return store

    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        self._populate(tmp_path)
        code = main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")])
        captured = capsys.readouterr().out
        assert code == 0
        assert "entries: 4" in captured

    def test_clear_removes_everything(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        code = main(["cache", "clear", "--cache-dir", str(tmp_path / "cache")])
        captured = capsys.readouterr().out
        assert code == 0
        assert "removed 4 artifacts" in captured
        assert len(store) == 0

    def test_evict_shrinks_to_budget(self, tmp_path, capsys):
        store = self._populate(tmp_path)
        per_entry = store.total_bytes() // 4
        code = main([
            "cache", "evict", "--cache-dir", str(tmp_path / "cache"),
            "--max-bytes", str(per_entry * 2),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "evicted 2 artifacts" in captured
        assert len(store) == 2
        assert store.total_bytes() <= per_entry * 2

    def test_evict_defaults_to_budget(self, tmp_path, capsys):
        self._populate(tmp_path)
        code = main(["cache", "evict", "--cache-dir", str(tmp_path / "cache")])
        captured = capsys.readouterr().out
        assert code == 0
        # Tiny store, nothing over the default 2 GiB budget.
        assert "evicted 0 artifacts" in captured

    @pytest.mark.parametrize("argv", [
        ["cache", "evict", "--max-bytes", "-1"],
        ["run-matrix", "--cache-budget", "-1"],
        ["bench-sessions", "--cache-budget", "-1"],
        ["bench-adaptive", "--cache-budget", "-1"],
    ])
    def test_negative_byte_budget_is_a_usage_error(self, argv, tmp_path, capsys):
        root = self._populate(tmp_path).root

        def files():
            return sorted((p, p.read_bytes()) for p in root.rglob("*") if p.is_file())

        before = files()
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--cache-dir", str(root)])
        assert exit_info.value.code == 2
        assert "must be >= 0 bytes, got -1" in capsys.readouterr().err
        assert files() == before and len(before) >= 4

    def test_run_matrix_applies_cache_budget(self, tmp_path, capsys):
        cache = tmp_path / "budgeted"
        code = main([
            "run-matrix", "--engines", "monetdb-sim", "--trs", "1",
            "--sizes", "S", "--scale", "50000", "--seed", "5",
            "--per-type", "1", "--cache-dir", str(cache),
            "--cache-budget", "1", "--quiet",
        ])
        assert code == 0
        from repro.runtime import ArtifactStore

        # Budget of one byte: the store evicted everything it wrote.
        assert ArtifactStore(cache).total_bytes() <= 1
