"""Framework-level tests for the determinism lint: pragmas, policy
tiers, reporters, and the CLI exit-code contract."""

import json

import pytest

from repro.analysis.engine import run_lint
from repro.analysis.policy import DEFAULT_POLICY, Policy
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.reporters import JSON_SCHEMA_VERSION, render_text
from repro.cli import main


WALL_READ = "import time\n\n\ndef now():\n    return time.time()\n"


# ---------------------------------------------------------------- pragmas


class TestPragmas:
    def test_trailing_pragma_covers_its_own_line(self):
        sheet = parse_pragmas(
            "import time\n"
            "t = time.time()  # repro: allow[DET001] -- wall pacing only\n"
        )
        assert not sheet.problems
        (pragma,) = sheet.pragmas
        assert pragma.applies_to == (2,)
        assert pragma.rule_ids == ("DET001",)
        assert pragma.reason == "wall pacing only"

    def test_standalone_pragma_covers_next_line(self):
        sheet = parse_pragmas(
            "# repro: allow[DET001] -- wall pacing only\n"
            "t = 1\n"
        )
        (pragma,) = sheet.pragmas
        assert pragma.applies_to == (1, 2)

    def test_multiple_rule_ids(self):
        sheet = parse_pragmas("# repro: allow[DET001,DET003] -- both fine\n")
        assert sheet.pragmas[0].rule_ids == ("DET001", "DET003")

    def test_missing_reason_is_a_problem_not_a_pragma(self):
        sheet = parse_pragmas("t = 1  # repro: allow[DET001]\n")
        assert not sheet.pragmas
        assert "justification" in sheet.problems[0][1]

    def test_invalid_rule_id_is_a_problem(self):
        sheet = parse_pragmas("# repro: allow[det1] -- nope\n")
        assert not sheet.pragmas
        assert "invalid rule id" in sheet.problems[0][1]

    def test_malformed_attempt_is_a_problem(self):
        sheet = parse_pragmas("# repro: allowDET001 -- missing brackets\n")
        assert not sheet.pragmas
        assert "malformed" in sheet.problems[0][1]

    def test_prose_mentioning_the_syntax_is_not_a_pragma(self):
        # The grammar is anchored at the start of the comment.
        sheet = parse_pragmas("#: docs say ``# repro: allow[ID] -- why``\n")
        assert not sheet.pragmas
        assert not sheet.problems

    def test_pragma_in_string_literal_is_ignored(self):
        sheet = parse_pragmas('s = "# repro: allow[DET001] -- nope"\n')
        assert not sheet.pragmas
        assert not sheet.problems

    def test_suppresses_marks_used(self):
        sheet = parse_pragmas("t = 1  # repro: allow[DET001] -- why\n")
        assert sheet.unused()
        assert sheet.suppresses(1, "DET001") is not None
        assert not sheet.unused()
        assert sheet.suppresses(1, "DET002") is None

    def test_unused_pragma_becomes_det000(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("# repro: allow[DET001] -- stale\nX = 1\n")
        result = run_lint([mod])
        assert [f.rule for f in result.findings] == ["DET000"]
        assert "unused suppression" in result.findings[0].message

    def test_det000_cannot_be_suppressed(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "# repro: allow[DET000] -- trying to silence the meta rule\n"
            "X = 1\n"
        )
        result = run_lint([mod])
        # The pragma suppresses nothing (DET000 is emitted after pragma
        # application), so it is itself reported as unused.
        assert [f.rule for f in result.findings] == ["DET000"]

    def test_pragma_round_trip_suppresses_finding(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import time\n"
            "\n"
            "\n"
            "def now():\n"
            "    return time.time()  # repro: allow[DET001] -- pacing only\n"
        )
        result = run_lint([mod])
        assert not result.findings
        (finding, pragma) = result.pragma_suppressed[0]
        assert finding.rule == "DET001"
        assert pragma.reason == "pacing only"


# ------------------------------------------------------------------ policy


class TestPolicyTiers:
    @pytest.mark.parametrize(
        "tiered", ["obs/mod.py", "common/codec.py", "bench/codec.py"]
    )
    def test_det003_fires_only_in_serialization_tier(self, tmp_path, tiered):
        body = "def f(d):\n    return [k for k in d.keys()]\n"
        obs = tmp_path / "pkg" / tiered
        other = tmp_path / "pkg" / "other" / "mod.py"
        for mod in (obs, other):
            mod.parent.mkdir(parents=True, exist_ok=True)
            mod.write_text(body)
        flagged = run_lint([obs], policy=DEFAULT_POLICY)
        clean = run_lint([other], policy=DEFAULT_POLICY)
        assert [f.rule for f in flagged.findings] == ["DET003"]
        assert not clean.findings

    def test_clock_authority_module_is_exempt_from_det001(self, tmp_path):
        clock = tmp_path / "common" / "clock.py"
        clock.parent.mkdir(parents=True)
        clock.write_text(WALL_READ)
        elsewhere = tmp_path / "common" / "other.py"
        elsewhere.write_text(WALL_READ)
        assert not run_lint([clock], policy=DEFAULT_POLICY).findings
        assert run_lint([elsewhere], policy=DEFAULT_POLICY).findings

    def test_rng_authority_module_is_exempt_from_det004(self, tmp_path):
        rng = tmp_path / "common" / "rng.py"
        rng.parent.mkdir(parents=True)
        body = "import random\nX = random.random()\n"
        rng.write_text(body)
        elsewhere = tmp_path / "common" / "other.py"
        elsewhere.write_text(body)
        assert not run_lint([rng], policy=DEFAULT_POLICY).findings
        assert run_lint([elsewhere], policy=DEFAULT_POLICY).findings

    def test_policy_tiers_for_reports_matching_tiers(self):
        tiers = DEFAULT_POLICY.tiers_for("src/repro/obs/tracer.py")
        assert "serialization" in tiers


# --------------------------------------------------------------- reporters


class TestReporters:
    def test_text_report_shape(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(WALL_READ)
        text = render_text(run_lint([mod]))
        assert "DET001[wall-clock]" in text
        assert "determinism lint: FAILED" in text

    def test_clean_text_report(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("X = 1\n")
        text = render_text(run_lint([mod]))
        assert "0 finding(s)" in text
        assert "determinism lint: CLEAN" in text

    def test_json_schema(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(WALL_READ)
        code = main(["lint", str(mod), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["schema_version"] == JSON_SCHEMA_VERSION == 2
        assert payload["tool"] == "repro-lint"
        assert set(payload) == {
            "schema_version", "tool", "files_scanned", "exit_code",
            "findings", "counts_by_rule", "suppressed", "parse_errors",
        }
        assert payload["exit_code"] == 1
        assert payload["counts_by_rule"] == {"DET001": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "path", "line", "col", "rule", "message", "snippet",
        }
        assert set(payload["suppressed"]) == {"pragma"}

    def test_json_is_byte_deterministic(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(WALL_READ)
        main(["lint", str(mod), "--json"])
        first = capsys.readouterr().out
        main(["lint", str(mod), "--json"])
        assert capsys.readouterr().out == first


# --------------------------------------------------------------------- CLI


class TestCliContract:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text("X = 1\n")
        assert main(["lint", str(mod)]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(WALL_READ)
        assert main(["lint", str(mod)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text("def broken(:\n")
        assert main(["lint", str(mod)]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "DET004", "DET005",
                        "DET006"):
            assert rule_id in out
