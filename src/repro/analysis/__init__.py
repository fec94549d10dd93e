"""Static analysis: the determinism sentinel (``repro lint``).

Every artifact this reproduction publishes — golden reports, TCP
transcripts, traces, windowed telemetry — rests on a byte-determinism
contract (§1's "standardized, automated, and re-producible") that the
test suite enforces *dynamically*: golden pins, differential fuzzers,
PYTHONHASHSEED subprocess checks. This package enforces it
*statically*: an AST lint pass over ``src/`` that catches the bug class
— wall-clock reads, salted ``hash()``, unstable set/dict iteration,
unseeded RNG, set-repr-into-seed flows, wall-time leaks into traces —
at review time instead of golden-regen time.

Layout:

* :mod:`repro.analysis.rules` — the DET001–DET006 rule catalog and the
  shared-walk visitor fragments;
* :mod:`repro.analysis.policy` — per-module-tier rule policy (authority
  modules, serialization tier);
* :mod:`repro.analysis.pragmas` — ``# repro: allow[ID] -- reason``
  source suppressions, hygiene-checked;
* :mod:`repro.analysis.engine` — file discovery, the single-pass walk,
  pragma suppression, :class:`LintResult`;
* :mod:`repro.analysis.reporters` — deterministic text/JSON rendering.

The package is self-contained stdlib-only (no numpy), so the lint can
run in environments where the benchmark itself cannot. Entry points:
``repro lint`` (CLI, wired into CI as a hard gate) and :func:`run_lint`
(tests). See docs/determinism.md for the contract and rule catalog.
"""

from repro.analysis.engine import (
    LintResult,
    META_RULE_ID,
    discover_files,
    lint_source,
    run_lint,
)
from repro.analysis.findings import Finding
from repro.analysis.policy import (
    DEFAULT_POLICY,
    Policy,
    STRICT_EVERYWHERE_POLICY,
    TierRule,
)
from repro.analysis.pragmas import Pragma, PragmaSheet, parse_pragmas
from repro.analysis.reporters import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_rule_table,
    render_text,
)
from repro.analysis.rules import REGISTRY, Rule, all_rules

__all__ = [
    "DEFAULT_POLICY",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintResult",
    "META_RULE_ID",
    "Policy",
    "Pragma",
    "PragmaSheet",
    "REGISTRY",
    "Rule",
    "STRICT_EVERYWHERE_POLICY",
    "TierRule",
    "all_rules",
    "discover_files",
    "lint_source",
    "parse_pragmas",
    "render_json",
    "render_rule_table",
    "render_text",
    "run_lint",
]
