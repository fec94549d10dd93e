"""The tree must satisfy its own determinism contract.

This is the in-process equivalent of CI's ``repro lint src`` gate:
zero unsuppressed findings, and every pragma suppression in ``src/``
carries a written reason.
"""

from pathlib import Path

from repro.analysis.engine import run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def _lint_src():
    return run_lint([REPO_ROOT / "src"])


def test_src_lints_clean_under_strict():
    result = _lint_src()
    assert not result.parse_errors, result.parse_errors
    report = "\n".join(
        f"{f.location()}: {f.rule}: {f.message}" for f in result.findings
    )
    assert not result.findings, f"determinism lint found:\n{report}"
    assert result.exit_code() == 0
    assert result.files_scanned > 50


def test_every_suppression_has_a_reason():
    result = _lint_src()
    for finding, pragma in result.pragma_suppressed:
        assert pragma.reason.strip(), f"reasonless pragma at {finding.location()}"
