"""The lint engine: file discovery, shared AST walk, pragma suppression
(the static gate on §1's reproducibility contract).

One :func:`run_lint` call scans a set of files/directories and returns a
:class:`LintResult`. Per module the engine:

1. parses the source once (a syntax error is a *usage* failure — the
   file cannot be vouched for — surfaced in ``parse_errors``);
2. builds a :class:`~repro.analysis.rules.ModuleContext` and walks the
   tree a single time, dispatching each node to every rule the
   per-module-tier :class:`~repro.analysis.policy.Policy` activates;
3. applies ``# repro: allow[...]`` pragma suppressions
   (:mod:`repro.analysis.pragmas`), reporting malformed and unused
   pragmas as unsuppressible ``DET000`` findings.

Everything is deterministic: files are scanned in sorted order and all
result lists come out sorted, so two runs over the same tree produce
byte-identical reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Type

from repro.analysis.findings import Finding
from repro.analysis.policy import DEFAULT_POLICY, Policy
from repro.analysis.pragmas import Pragma, PragmaSheet, parse_pragmas
from repro.analysis.rules import REGISTRY, ModuleContext, Rule

#: Meta-rule id for suppression hygiene (malformed/unused pragmas).
#: DET000 findings can never themselves be suppressed.
META_RULE_ID = "DET000"

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".pytest_cache", ".repro-cache"}


@dataclass
class LintResult:
    """Outcome of one lint run, fully sorted and deterministic."""

    findings: List[Finding] = field(default_factory=list)
    pragma_suppressed: List[Tuple[Finding, Pragma]] = field(default_factory=list)
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    files_scanned: int = 0

    def exit_code(self) -> int:
        """The documented contract: 0 clean, 1 findings, 2 usage error."""
        if self.parse_errors:
            return 2
        if self.findings:
            return 1
        return 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def discover_files(paths: Sequence) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises ``FileNotFoundError`` for a nonexistent input path — that is
    a usage error (exit 2), not an empty-but-clean scan.
    """
    files = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if not _SKIP_DIR_NAMES.intersection(sub.parts):
                    files.append(sub)
        elif path.suffix == ".py":
            files.append(path)
    unique = {file.as_posix(): file for file in files}
    return [unique[key] for key in sorted(unique)]


def _dispatch_table(active: Sequence[Rule]) -> Dict[Type[ast.AST], List[Rule]]:
    table: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in active:
        for node_type in rule.node_types:
            table.setdefault(node_type, []).append(rule)
    return table


def lint_source(
    source: str,
    path: str,
    policy: Policy = DEFAULT_POLICY,
) -> Tuple[List[Finding], List[Tuple[Finding, Pragma]], PragmaSheet]:
    """Lint one module's source text.

    Returns ``(unsuppressed findings, pragma-suppressed findings, sheet)``
    — the caller decides what to do about unused pragmas (fixture tests
    inspect them; :func:`run_lint` turns them into DET000 findings).
    Raises ``SyntaxError`` if the source does not parse.
    """
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(path, tree, source)
    active_ids = policy.rules_for(path)
    active = [REGISTRY[rule_id] for rule_id in sorted(active_ids)
              if rule_id in REGISTRY]
    table = _dispatch_table(active)
    for node in ast.walk(tree):
        for rule in table.get(type(node), ()):
            rule.visit(node, ctx)

    sheet = parse_pragmas(source)
    kept: List[Finding] = []
    suppressed: List[Tuple[Finding, Pragma]] = []
    for rule_id, line, col, message, snippet in ctx.findings:
        finding = Finding(path=path, line=line, col=col, rule=rule_id,
                          message=message, snippet=snippet)
        pragma = sheet.suppresses(line, rule_id)
        if pragma is not None:
            suppressed.append((finding, pragma))
        else:
            kept.append(finding)
    return sorted(kept), suppressed, sheet


def _meta_findings(path: str, lines: List[str], sheet: PragmaSheet) -> List[Finding]:
    """DET000 hygiene findings: malformed and unused pragmas."""
    findings = []
    for line, message in sheet.problems:
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        findings.append(Finding(path=path, line=line, col=0, rule=META_RULE_ID,
                                message=message, snippet=snippet))
    for pragma in sheet.unused():
        snippet = (lines[pragma.line - 1].strip()
                   if 0 < pragma.line <= len(lines) else "")
        findings.append(Finding(
            path=path, line=pragma.line, col=0, rule=META_RULE_ID,
            message=(f"unused suppression for {','.join(pragma.rule_ids)}: "
                     "nothing on the covered line(s) triggers it — delete "
                     "the pragma (or it will rot into false documentation)"),
            snippet=snippet,
        ))
    return findings


def run_lint(paths: Sequence, policy: Policy = DEFAULT_POLICY) -> LintResult:
    """Scan ``paths`` and return the full, deterministic result."""
    result = LintResult()
    try:
        files = discover_files(paths)
    except FileNotFoundError as exc:
        result.parse_errors.append((str(paths), str(exc)))
        return result

    for file in files:
        display = file.as_posix()
        try:
            source = file.read_text(encoding="utf-8")
            kept, suppressed, sheet = lint_source(source, display, policy)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            result.parse_errors.append((display, str(exc)))
            continue
        result.files_scanned += 1
        result.pragma_suppressed.extend(suppressed)
        result.findings.extend(kept)
        result.findings.extend(_meta_findings(display, source.splitlines(), sheet))

    result.findings.sort()
    result.pragma_suppressed.sort(key=lambda pair: pair[0])
    return result
