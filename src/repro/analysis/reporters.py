"""Text and JSON reporters for lint results (the human and machine
faces of the static gate on §1's reproducibility contract).

Both renderings are pure functions of a :class:`LintResult`, emit
findings in the result's deterministic order, and agree on content — the
JSON form is the machine-readable superset the ``--json`` flag exposes
(schema pinned by ``tests/test_lint_framework.py``).
"""

from __future__ import annotations

import json
from typing import List

from repro.analysis.engine import LintResult
from repro.analysis.rules import REGISTRY, all_rules

#: Bump when the --json payload changes incompatibly.
JSON_SCHEMA_VERSION = 2


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines: List[str] = []
    for path, message in result.parse_errors:
        lines.append(f"error: {path}: {message}")
    for finding in result.findings:
        rule = REGISTRY.get(finding.rule)
        label = f"{finding.rule}[{rule.name}]" if rule else finding.rule
        lines.append(f"{finding.location()}: {label}: {finding.message}")
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    counts = result.counts_by_rule()
    by_rule = " ".join(f"{rule}={count}" for rule, count in sorted(counts.items()))
    lines.append(
        f"{result.files_scanned} files scanned, "
        f"{len(result.findings)} finding(s)"
        + (f" ({by_rule})" if by_rule else "")
        + f", {len(result.pragma_suppressed)} pragma-suppressed"
    )
    verdict = "CLEAN" if result.exit_code() == 0 else "FAILED"
    lines.append(f"determinism lint: {verdict}")
    return "\n".join(lines) + "\n"


def render_json(result: LintResult) -> str:
    """Canonical JSON report (sorted keys — byte-deterministic)."""
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": "repro-lint",
        "files_scanned": result.files_scanned,
        "exit_code": result.exit_code(),
        "findings": [finding.to_dict() for finding in result.findings],
        "counts_by_rule": result.counts_by_rule(),
        "suppressed": {
            "pragma": [
                {
                    "finding": finding.to_dict(),
                    "reason": pragma.reason,
                    "pragma_line": pragma.line,
                }
                for finding, pragma in result.pragma_suppressed
            ],
        },
        "parse_errors": [
            {"path": path, "message": message}
            for path, message in result.parse_errors
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_rule_table() -> str:
    """The ``--list-rules`` catalog (also embedded in docs)."""
    lines = ["rule     name                 summary"]
    for rule in all_rules():
        lines.append(f"{rule.rule_id}   {rule.name:<20} {rule.summary}")
    return "\n".join(lines) + "\n"
