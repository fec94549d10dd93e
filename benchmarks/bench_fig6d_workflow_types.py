"""Fig. 6d — proportion of missing bins by system and workflow type.

Paper artifact: for each engine and each of the four workflow types
(independent browsing, sequential, 1:N, N:1), the mean proportion of
missing bins at a fixed TR.

Expected shape (§5.2): "as none of the systems … use speculative execution
by default, there are only few significant differences. For instance,
MonetDB has fewer missing bins on average for independent browser and N:1
workflows, which may be attributed to the fact that any interaction of
these workflows only trigger a single query."
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_artifact
from repro.bench.experiments import MAIN_ENGINES, exp_workflow_types

TYPES = ("independent", "sequential", "one_to_n", "n_to_1")


def _render(outcome) -> str:
    lines = ["Fig. 6d — mean missing bins by system × workflow type (TR=3s)", ""]
    header = f"{'engine':<14} " + " ".join(f"{t:>12}" for t in TYPES)
    lines.append(header)
    lines.append("-" * len(header))
    for engine in MAIN_ENGINES:
        cells = " ".join(f"{outcome[engine][t]:>12.3f}" for t in TYPES)
        lines.append(f"{engine:<14} {cells}")
    return "\n".join(lines)


def test_fig6d_workflow_types(benchmark, ctx, results_dir):
    outcome = benchmark.pedantic(
        lambda: exp_workflow_types(ctx), rounds=1, iterations=1
    )
    write_artifact(results_dir, "fig6d_workflow_types.txt", _render(outcome))

    # MonetDB benefits from single-query interactions: independent and N:1
    # must not be worse than the fan-out types.
    monet = outcome["monetdb-sim"]
    single_query_types = (monet["independent"] + monet["n_to_1"]) / 2
    fanout_types = (monet["sequential"] + monet["one_to_n"]) / 2
    assert single_query_types <= fanout_types + 0.02

    # Differences remain bounded for the sampling engines. (Our simulators
    # show a somewhat stronger concurrency effect for progressive engines
    # than the paper's "only few significant differences" — linked fan-outs
    # split the sampling budget across N simultaneous queries; see
    # docs/paper-mapping.md, "Documented deviations".)
    for engine in ("idea-sim", "system-x-sim"):
        values = np.array([outcome[engine][t] for t in TYPES])
        assert values.max() - values.min() < 0.7

    # Everything is a valid proportion.
    for engine in MAIN_ENGINES:
        for workflow_type in TYPES:
            assert 0.0 <= outcome[engine][workflow_type] <= 1.0
