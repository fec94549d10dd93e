#!/usr/bin/env python3
"""Documentation checks run by the CI docs job (and tier-1 tests).

Two guarantees, kept machine-checked so the docs cannot silently rot:

1. **links resolve** — every relative markdown link in the repository's
   ``*.md`` files (README, docs/, top-level notes) points at a file or
   directory that exists. External (``http(s)://``, ``mailto:``) and
   pure-anchor (``#...``) links are skipped; ``path#anchor`` links are
   checked for the path part.
2. **architecture coverage** — every package under ``src/repro/`` (and
   the top-level ``cli.py``) is mentioned in ``docs/architecture.md``,
   so the package map can never miss a subsystem.
3. **required sections** — load-bearing documentation sections must keep
   existing: docs/server.md must document the adaptive-policy and
   open-system churn modes (and their determinism guarantees),
   docs/paper-mapping.md must map the policy module, and the README must
   list the ``bench-adaptive`` and ``cache`` CLI commands. The required
   markers live in :data:`REQUIRED_SECTIONS`.

Run from the repository root (CI does)::

    python tools/check_docs.py

Exits non-zero with a per-problem report on failure. The same checks run
in tier 1 via ``tests/test_docs.py``, so a broken link fails locally
before it fails in CI.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

#: Inline markdown links: [text](target). Images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Directories never scanned for markdown.
_SKIP_DIRS = {".git", ".repro-cache", "__pycache__", ".pytest_cache", "node_modules"}

#: Generated/retrieved reference material (paper extraction artifacts) —
#: not authored here, so dangling figure refs inside them are expected.
_SKIP_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def markdown_files(root: Path) -> List[Path]:
    files = []
    for path in sorted(root.rglob("*.md")):
        if path.name in _SKIP_FILES:
            continue
        if not _SKIP_DIRS.intersection(part for part in path.parts):
            files.append(path)
    return files


def extract_links(text: str) -> List[str]:
    return _LINK_RE.findall(text)


def check_links(root: Path) -> List[str]:
    """Return one problem string per unresolvable relative link."""
    problems = []
    for md_file in markdown_files(root):
        text = md_file.read_text(encoding="utf-8")
        for target in extract_links(text):
            if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target):
                continue  # http:, https:, mailto:, etc.
            if target.startswith("#"):
                continue  # intra-document anchor
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md_file.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md_file.relative_to(root)}: broken link -> {target}"
                )
    return problems


def check_architecture_coverage(root: Path) -> List[str]:
    """Every src/repro/ package (and cli.py) must appear in architecture.md."""
    architecture = root / "docs" / "architecture.md"
    if not architecture.exists():
        return ["docs/architecture.md is missing"]
    text = architecture.read_text(encoding="utf-8")
    problems = []
    package_root = root / "src" / "repro"
    required: List[Tuple[str, str]] = [
        (f"src/repro/{path.name}/", path.name)
        for path in sorted(package_root.iterdir())
        if path.is_dir() and (path / "__init__.py").exists()
    ]
    required.append(("src/repro/cli.py", "cli"))
    for mention, name in required:
        if mention not in text:
            problems.append(
                f"docs/architecture.md: package {name!r} not mentioned "
                f"(expected the literal path {mention!r})"
            )
    return problems


#: file → literal strings that must appear in it. Keep the markers short
#: and load-bearing: each one names a documented capability whose silent
#: disappearance should fail CI.
REQUIRED_SECTIONS = {
    "docs/server.md": [
        "## Adaptive sessions (interaction policies)",
        "## Open-system churn (arrivals and departures)",
        "### Shared-engine serving over TCP (v2 turn protocol)",
        "### Remote load generation (`bench-net --remote`)",
        "## Population scale (constant memory)",
        "byte-identical across repeated invocations",
        "cancel_group",
        "tools/regen_golden.py",
        "### One calendar loop",
        "every arrival at virtual time 0",
        "tests/golden/scheduler_pins.txt",
        "ServingAggregate.from_results",
        "src/repro/server/spool.py",
        "iter_spool",
        "O(active sessions)",
        "benchmarks/bench_scale.py",
    ],
    "docs/architecture.md": [
        "## Lazy materialization of scripted workflows",
        "tests/golden/workflow_pins.txt",
        "Dataset.encoded_column",
        "### Answers are columns",
        "## Cold start and footprint",
    ],
    "docs/paper-mapping.md": [
        "_LazyInteractions",
        "Dataset.encoded_column",
        "src/repro/workflow/policy.py",
        "ArrivalProcess",
        "src/repro/net/",
        "RateSchedule",
    ],
    "docs/protocol.md": [
        "## Wire format",
        "## Message catalog",
        "## Determinism contract",
        "## Protocol v2: shared-engine turns",
        "length (4 B)",
        "byte-identical",
        "turn_grant",
        "turn_done",
        "barrier",
        "supported_versions",
        "tests/golden/tcp_session.txt",
        "tests/golden/tcp_shared.txt",
        "stats_request",
        "### Stats probes",
        "### Streaming telemetry",
        "stats_subscribe",
        "stats_push",
        "stats_unsubscribe",
        "--stats-window",
    ],
    "docs/kernels.md": [
        "## The compile pipeline",
        "### Shared plans, masks and groupings",
        "### Dictionary gather",
        "### Counting grouping and its span rule",
        "### What still sorts, and why",
        "### Moments on demand",
        "### One pass over strata",
        "unique_inverse",
        "tests/test_kernels_compile.py",
        "## Cache keying",
        "## The incremental contract",
        "## The determinism guarantee",
        "## Escape hatches",
        "dataset.fingerprint()",
        "query_cache_key",
        "repro_kernel_cache_",
        "fallback_kernels",
        "tests/test_kernels_differential.py",
        "REPRO_KERNEL_CACHE_SIZE",
        "BENCH_kernels.json",
        "bitwise equality",
    ],
    "docs/observability.md": [
        "## The two-axis contract",
        "## Span and event taxonomy",
        "## The STATS wire message",
        "## Stage profiling",
        "virtual_view",
        "tests/golden/trace_serial.jsonl",
        "tests/golden/trace_tcp_shared.jsonl",
        "repro trace summary",
        "BENCH_obs.json",
        "--metrics-out",
        "## Windowed virtual-time series",
        "## Streaming STATS subscriptions",
        "## SLO watchdog",
        "## Cross-host trace correlation",
        "tests/golden/timeseries_serial.jsonl",
        "repro trace merge",
        "repro top",
        "BENCH_obs_stream.json",
    ],
    "docs/determinism.md": [
        "## The invariants",
        "## The lint pass",
        "### Rule catalog",
        "### Tier policy",
        "### Suppressions: the `repro: allow` pragma",
        "### The baseline",
        "### Exit codes",
        "repro lint src --strict",
        "tools/lint_baseline.json",
        "tools/regen_lint_baseline.py",
        "tests/lint_fixtures/regress_pr1_setpredicate.py",
        "DET001",
        "DET006",
        "PYTHONHASHSEED",
    ],
    "README.md": [
        "bench-adaptive",
        "repro cache",
        "--policy",
        "--arrivals",
        "--arrival-schedule",
        "bench-net",
        "--remote",
        "--share-engine",
        "connect",
        "repro report snapshot",
        "repro report diff",
        "--trace",
        "--metrics-out",
        "--log-level",
        "repro trace summary",
        "repro trace merge",
        "repro top",
        "--stats-window",
        "docs/observability.md",
        "fallback_kernels",
        "one event-calendar loop",
        "docs/kernels.md",
        "repro lint",
        "docs/determinism.md",
    ],
}


def check_required_sections(root: Path) -> List[str]:
    """Return one problem string per missing required doc marker.

    Matching is whitespace-insensitive (runs of whitespace collapse to a
    single space on both sides), so re-wrapping a paragraph never breaks
    the check — only removing the documented capability does.
    """
    problems = []
    for rel_path, markers in REQUIRED_SECTIONS.items():
        path = root / rel_path
        if not path.exists():
            problems.append(f"{rel_path} is missing")
            continue
        text = " ".join(path.read_text(encoding="utf-8").split())
        for marker in markers:
            if " ".join(marker.split()) not in text:
                problems.append(
                    f"{rel_path}: required section/marker missing: {marker!r}"
                )
    return problems


def main() -> int:
    root = repo_root()
    problems = (
        check_links(root)
        + check_architecture_coverage(root)
        + check_required_sections(root)
    )
    files = markdown_files(root)
    if problems:
        print(f"docs check FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"docs check OK: {len(files)} markdown files, all relative links "
        f"resolve, architecture.md covers every src/repro package, all "
        f"required sections present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
