"""Fig. 5 — the aggregated summary report (Exp. 1, §5.2).

Paper artifact: for MonetDB, approXimateDB/XDB, IDEA and System X, at five
time requirements (0.5/1/3/5/10 s) over 10 mixed workflows on the 500M
de-normalized flights data: the percentage of TR violations, the mean
percentage of missing bins, and the CDF of mean relative errors truncated
at 100 % together with the area above the curve.

Expected shape (paper §5.2): MonetDB's violations fall roughly linearly
with the TR; XDB stays pinned near the non-online fraction (~66 %) at every
TR; System X violates >50 % at 0.5 s, ≈5 % at 1 s, none from 3 s; IDEA
violates ≈1 % at 0.5 s only. IDEA has the smallest MRE area; XDB's CDF
ends lowest (most MREs above 100 %).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import get_overall, write_artifact
from repro.bench.experiments import MAIN_ENGINES
from repro.bench.report import mre_cdf
from repro.common.config import DEFAULT_TIME_REQUIREMENTS


def _render(results) -> str:
    lines = ["Fig. 5 — summary report (mixed workload, 500M, de-normalized)", ""]
    header = (
        f"{'engine':<14} {'TR':>5} {'%TR viol':>9} {'%missing':>9} "
        f"{'MRE med':>8} {'MRE area':>9} {'CDF@100%':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for engine in MAIN_ENGINES:
        for tr in DEFAULT_TIME_REQUIREMENTS:
            row = results.summaries[(engine, tr)]
            records = results.records[(engine, tr)]
            cdf = mre_cdf(records, points=2)  # endpoint = CDF at 100 % error
            cdf_end = cdf[-1][1]
            lines.append(
                f"{engine:<14} {tr:>4}s {row.pct_tr_violated:>8.1f}% "
                f"{100 * row.mean_missing_bins:>8.1f}% "
                f"{row.mre_median:>8.3f} {row.mre_area_above_cdf:>9.3f} "
                f"{cdf_end:>9.3f}"
            )
        lines.append("")
    return "\n".join(lines)


def test_fig5_summary(benchmark, ctx, overall_cache, results_dir):
    results = benchmark.pedantic(
        lambda: get_overall(ctx, overall_cache), rounds=1, iterations=1
    )
    write_artifact(results_dir, "fig5_summary.txt", _render(results))

    violations = {
        (engine, tr): results.summaries[(engine, tr)].pct_tr_violated
        for engine in MAIN_ENGINES
        for tr in DEFAULT_TIME_REQUIREMENTS
    }
    # MonetDB: violations decrease (roughly linearly) with the TR.
    monet = [violations[("monetdb-sim", tr)] for tr in DEFAULT_TIME_REQUIREMENTS]
    assert monet == sorted(monet, reverse=True)
    assert monet[0] > 70.0 and monet[-1] < monet[0] / 2

    # XDB: pinned near the non-online fraction at *every* TR.
    xdb = [violations[("xdb-sim", tr)] for tr in DEFAULT_TIME_REQUIREMENTS]
    assert max(xdb) - min(xdb) < 10.0
    assert 40.0 < np.mean(xdb) < 80.0

    # System X: >50 % at 0.5 s, small at 1 s, (near) none from 3 s. A small
    # residual tail at 3–5 s comes from concurrent 1:N bursts sharing
    # capacity — see docs/paper-mapping.md, "Documented deviations", for
    # this departure from the paper's exact zero.
    assert violations[("system-x-sim", 0.5)] > 50.0
    assert violations[("system-x-sim", 1.0)] < 25.0
    assert violations[("system-x-sim", 3.0)] < 10.0
    assert violations[("system-x-sim", 5.0)] < 5.0
    assert violations[("system-x-sim", 10.0)] < 1.0

    # IDEA: only the warm-up query at 0.5 s.
    assert violations[("idea-sim", 0.5)] < 5.0
    for tr in (1.0, 3.0, 5.0, 10.0):
        assert violations[("idea-sim", tr)] == 0.0

    # Quality: IDEA's MRE area is the best of the AQP engines; XDB worst.
    area = {
        engine: results.summaries[(engine, 3.0)].mre_area_above_cdf
        for engine in ("xdb-sim", "idea-sim", "system-x-sim")
    }
    assert area["idea-sim"] <= area["system-x-sim"] + 0.05
    assert area["xdb-sim"] > area["idea-sim"]

    # IDEA misses the fewest bins at the tightest TR (its §5.2 headline).
    missing_05 = {
        engine: results.summaries[(engine, 0.5)].mean_missing_bins
        for engine in MAIN_ENGINES
    }
    assert missing_05["idea-sim"] == min(missing_05.values())
