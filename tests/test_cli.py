"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.data.storage import Table
from repro.workflow.spec import Workflow


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
