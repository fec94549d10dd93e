#!/usr/bin/env python3
"""Documentation checks run by the CI docs job (and tier-1 tests).

Five guarantees, kept machine-checked so the docs cannot silently rot:

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
4. **cited paths exist** — every ``benchmarks/``, ``tests/``, ``tools/``,
   ``src/`` or ``docs/`` path cited in a markdown file or in a Python
   source under the first four trees exists, and so does every ``*.md``
   file such a source names; a doc or docstring cannot point readers at
   a file that was deleted or never written. Globs and ``<placeholder>``
   paths are skipped, and so are the history files CHANGES.md and
   ROADMAP.md; a directory ``.gitignore`` names is a run output and
   counts as present.
5. **metrics documented** — every ``repro_…`` metric name written as a
   string literal under ``src/`` appears in docs/observability.md's
   metric table; an f-string template counts as the names
   :data:`METRIC_TEMPLATES` expands it to.

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


#: A markdown file name cited in Python source (``docs/server.md``,
#: ``README.md``); a glob such as ``*.md`` has no name and never matches.
_MD_REFERENCE_RE = re.compile(r"[\w./-]*\w\.md\b")

#: A repository path cited in prose or code (``tests/test_obs.py``,
#: ``src/repro/net/``). ``*``, ``<`` and ``{`` are matched only so that a
#: glob or a placeholder is recognised, and skipped.
_PATH_REFERENCE_RE = re.compile(
    r"(?<![\w./-])(?:benchmarks|tests|tools|src|docs)/[\w./*<>{}-]*"
)
_PLACEHOLDER_CHARS = set("*<>{}")

#: Python trees whose citations must resolve.
_REFERENCE_TREES = ("src", "benchmarks", "tests", "tools")

#: Sources that handle paths as data (the checks here and their tests),
#: not as references for a reader.
_REFERENCE_EXEMPT = {"tools/check_docs.py", "tests/test_docs.py"}

#: History: these record what a change did, paths since deleted included.
_HISTORY_FILES = {"CHANGES.md", "ROADMAP.md"}


def _cited_paths(text: str, python: bool) -> List[str]:
    names = {name.rstrip(".") for name in _PATH_REFERENCE_RE.findall(text)}
    if python:
        names.update(_MD_REFERENCE_RE.findall(text))
    return sorted(name for name in names if not _PLACEHOLDER_CHARS & set(name))


def _output_dirs(root: Path) -> Tuple[str, ...]:
    """Directories ``.gitignore`` names: a run creates them, so a citation
    of one (``benchmarks/results/``) resolves even in a fresh checkout."""
    ignore = root / ".gitignore"
    if not ignore.exists():
        return ()
    lines = ignore.read_text(encoding="utf-8").splitlines()
    return tuple(line.strip() for line in lines if line.strip().endswith("/"))


def check_doc_references(root: Path) -> List[str]:
    """One problem per cited repository path that does not exist.

    Cited are ``benchmarks/``, ``tests/``, ``tools/``, ``src/`` and
    ``docs/`` paths in any markdown file or Python source, and ``*.md``
    names in Python sources. A cited path resolves from the repository
    root, as every citation in the tree is written (``docs/protocol.md``,
    ``README.md``).
    """
    sources = [
        (path, True)
        for tree in _REFERENCE_TREES
        for path in sorted((root / tree).rglob("*.py"))
    ]
    sources += [(path, False) for path in markdown_files(root)]
    outputs = _output_dirs(root)
    problems = []
    for path, python in sources:
        rel = path.relative_to(root).as_posix()
        if (
            rel in _REFERENCE_EXEMPT
            or rel in _HISTORY_FILES
            or _SKIP_DIRS.intersection(path.parts)
        ):
            continue
        text = path.read_text(encoding="utf-8")
        for name in _cited_paths(text, python):
            if not name.startswith(outputs) and not (root / name).exists():
                problems.append(f"{rel}: cites missing {name}")
    return problems


#: A metric name as a string literal in Python source: ``"repro_…"``, or
#: an f-string template such as ``f"repro_kernel_cache_{event}_total"``.
_METRIC_LITERAL_RE = re.compile(r"""f?["'](repro_[a-z0-9_{}]+)["']""")

#: Every f-string metric template under src/ and the names it emits.
METRIC_TEMPLATES = {
    "repro_kernel_cache_{event}_total": (
        "repro_kernel_cache_hits_total",
        "repro_kernel_cache_misses_total",
        "repro_kernel_cache_evictions_total",
    ),
}

#: The document whose metric table must name every emitted metric.
METRICS_DOC = "docs/observability.md"


def check_metrics_documented(root: Path) -> List[str]:
    """One problem per metric name emitted under ``src/`` that
    :data:`METRICS_DOC` does not name in backticks."""
    doc = root / METRICS_DOC
    text = doc.read_text(encoding="utf-8") if doc.exists() else ""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for literal in _METRIC_LITERAL_RE.findall(path.read_text(encoding="utf-8")):
            if "{" in literal and literal not in METRIC_TEMPLATES:
                problems.append(
                    f"{rel}: metric template {literal} has no entry in "
                    f"check_docs.METRIC_TEMPLATES"
                )
                continue
            for name in METRIC_TEMPLATES.get(literal, (literal,)):
                if f"`{name}`" not in text:
                    problems.append(f"{rel}: metric {name} is not in {METRICS_DOC}")
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
        "## Population scale (constant memory)",
        "byte-identical across repeated invocations",
        "cancel_group",
        "tools/regen_golden.py",
        "### One calendar loop",
        "every arrival at virtual time 0",
        "tests/golden/scheduler_pins.txt",
        'RunSpec(mode="serve")',
        "src/repro/server/spool.py",
        "iter_spool",
        "O(active sessions)",
    ],
    "docs/architecture.md": [
        "## Lazy materialization of scripted workflows",
        "tests/golden/workflow_pins.txt",
        "Dataset.encoded_column",
        "### Answers are columns",
        "## Cold start and footprint",
        "test_fast_paths_match_the_reference",
        "test_mean_is_numpys_bit_for_bit",
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
        "test_unpaced_session_writes_once_per_flush_point",
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
        "test_dictionary_encode_matches_numpy",
        "## Cache keying",
        "## The incremental contract",
        "## The determinism guarantee",
        "## Escape hatches",
        "dataset.fingerprint()",
        "query_cache_key",
        "repro_kernel_cache_",
        "fallback_kernels",
        "tests/test_kernels_differential.py",
        "test_filters_removing_whole_groups_match_the_reference",
        "test_nan_codes_in_the_first_dimension_key_as_in_one_dimension",
        "test_nan_codes_in_the_second_dimension_compile_incrementally",
        "tests/reference_kernels.py",
        "test_exact_answers_fold_no_sums_of_squares",
        "REPRO_KERNEL_CACHE_SIZE",
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
        "--metrics-out",
        "## Windowed virtual-time series",
        "## Streaming STATS subscriptions",
        "## SLO watchdog",
        "## Cross-host trace correlation",
        "tests/golden/timeseries_serial.jsonl",
        "repro trace merge",
        "repro top",
    ],
    "docs/determinism.md": [
        "## The invariants",
        "### Draw forms",
        "tests/test_common_rng.py",
        "## The lint pass",
        "### Rule catalog",
        "### Tier policy",
        "### Suppressions: the `repro: allow` pragma",
        "### Exit codes",
        "repro lint src",
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
        "--share-engine",
        "connect",
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
        + check_doc_references(root)
        + check_metrics_documented(root)
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
        f"required sections present, every cited path exists, every "
        f"emitted metric is documented"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
