"""Deterministic aggregation of run-matrix results (§5's summary metrics).

The matrix summary is one row per cell with the Fig.-5 summary metrics.
Determinism rules (what makes ``--jobs N`` byte-identical to ``--jobs 1``):

* rows follow the *plan* order, never completion order;
* no wall-clock quantity (elapsed time, cache hit/miss) appears in the
  summary — those are printed separately as run diagnostics;
* floats are rendered with a fixed format, so the CSV is stable bytes.

:func:`current_revision` names the code revision that produced a
report; the perf ledger stamps its rows with it.
"""

from __future__ import annotations

import csv
import io
import subprocess
from pathlib import Path
from typing import List, Sequence, Union

from repro.bench.report import summarize_records
from repro.common.fingerprint import fmt_cell as _fmt
from repro.runtime.executor import CellResult

#: Revision used when git metadata is unavailable.
FALLBACK_REVISION = "worktree"

#: Column order of the matrix summary CSV.
MATRIX_COLUMNS = (
    "cell_id",
    "engine",
    "mode",
    "data_size",
    "schema",
    "workflow_type",
    "workflows",
    "time_requirement",
    "think_time",
    "seed",
    "num_queries",
    "pct_tr_violated",
    "mean_missing_bins",
    "mre_median",
    "mre_area_above_cdf",
    "margin_median",
    "cosine_mean",
    "mean_bias",
    "prep_seconds",
)


def current_revision(cwd: Union[str, Path, None] = None) -> str:
    """The short git revision of ``cwd`` (or :data:`FALLBACK_REVISION`)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return FALLBACK_REVISION
    revision = result.stdout.strip()
    return revision if result.returncode == 0 and revision else FALLBACK_REVISION


def matrix_summary_rows(results: Sequence[CellResult]) -> List[List[object]]:
    """One summary row per cell, in the given (plan) order."""
    rows: List[List[object]] = []
    for result in results:
        spec = result.spec
        if result.records:
            summary = summarize_records(result.records, group_key=lambda r: "all")[-1]
        else:
            summary = None
        rows.append(
            [
                spec.cell_id,
                spec.engine,
                spec.mode,
                spec.settings.data_size.name,
                "normalized" if spec.normalized else "denormalized",
                spec.workflows.workflow_type if spec.mode == "suite" else "",
                spec.workflows.count if spec.mode == "suite" else 0,
                _fmt(spec.settings.time_requirement),
                _fmt(spec.settings.think_time),
                spec.settings.seed,
                summary.num_queries if summary else 0,
                _fmt(summary.pct_tr_violated) if summary else "",
                _fmt(summary.mean_missing_bins) if summary else "",
                _fmt(summary.mre_median) if summary else "",
                _fmt(summary.mre_area_above_cdf) if summary else "",
                _fmt(summary.margin_median) if summary else "",
                _fmt(summary.cosine_mean) if summary else "",
                _fmt(summary.mean_bias) if summary else "",
                _fmt(result.prep.seconds) if result.prep is not None else "",
            ]
        )
    return rows


def write_matrix_csv(
    path: Union[str, Path, io.TextIOBase], results: Sequence[CellResult]
) -> None:
    """Write the matrix summary CSV (stable bytes for a given plan)."""
    if isinstance(path, (str, Path)):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write(handle, results)
    else:
        _write(path, results)


def _write(handle, results: Sequence[CellResult]) -> None:
    writer = csv.writer(handle)
    writer.writerow(MATRIX_COLUMNS)
    for row in matrix_summary_rows(results):
        writer.writerow(row)


def matrix_csv_text(results: Sequence[CellResult]) -> str:
    """The summary CSV as a string (for byte-identity comparisons)."""
    buffer = io.StringIO()
    _write(buffer, results)
    return buffer.getvalue()


def render_matrix(results: Sequence[CellResult], title: str = "run matrix") -> str:
    """Plain-text table of the matrix summary for terminal output."""
    header = (
        f"{'cell':<13} {'engine':<14} {'size':>4} {'schema':<12} "
        f"{'type':<11} {'TR':>5} {'queries':>7} {'%TR viol':>9} "
        f"{'missing':>8} {'MRE area':>9} {'cached':>6}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for result, row in zip(results, matrix_summary_rows(results)):
        spec = result.spec
        if spec.mode == "prepare":
            body = (
                f"{spec.cell_id:<13} {spec.engine:<14} "
                f"{spec.settings.data_size.name:>4} prepare: "
                f"{result.prep.minutes:.1f} min (modeled)"
            )
        else:
            body = (
                f"{spec.cell_id:<13} {spec.engine:<14} {row[3]:>4} {row[4]:<12} "
                f"{row[5]:<11} {float(row[7]):>4.1f}s {row[10]:>7} "
                f"{(row[11] or '—'):>9} {(row[12] or '—'):>8} {(row[14] or '—'):>9} "
                f"{'yes' if result.from_cache else 'no':>6}"
            )
        lines.append(body)
    return "\n".join(lines)
