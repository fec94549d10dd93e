"""Ablation — IDEA's result reuse ([16]; see docs/paper-mapping.md).

Not a paper figure: an ablation of a design choice the paper's IDEA
description relies on ("might or might not re-use previously computed
results [12, 16]"). IDE workloads re-issue structurally identical queries
constantly — clearing a filter restores the previous query; toggling a
selection alternates between two queries. Result reuse lets a progressive
engine *resume* those instead of restarting.

Setup: a custom workflow that toggles a selection back and forth between
two carriers, so the linked target's query alternates between two
predicates. Measured: mean missing bins of the target's queries in the
second half of the workflow, with reuse enabled vs disabled.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_artifact
from repro.bench.driver import BenchmarkDriver
from repro.common.clock import VirtualClock
from repro.engines.progressive import ProgressiveEngine
from repro.query.model import AggFunc, Aggregate, BinDimension, BinKind
from repro.workflow.spec import (
    CreateViz,
    Link,
    SelectBins,
    VizSpec,
    Workflow,
    WorkflowType,
)

TR = 0.5  # tight, so a cold restart cannot catch up with a resumed sample


def _toggle_workflow(ctx) -> Workflow:
    profiles = ctx.profiles(ctx.settings.data_size)
    carriers = profiles["UNIQUE_CARRIER"].categories
    first, second = carriers[0], carriers[1]
    dep = profiles["DEP_DELAY"]
    source = VizSpec(
        "carriers", "flights",
        bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
        aggregates=(Aggregate(AggFunc.COUNT),),
    )
    target = VizSpec(
        "delays", "flights",
        bins=(
            BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, bin_count=50)
            .resolved(dep.minimum, dep.maximum),
        ),
        aggregates=(Aggregate(AggFunc.AVG, "ARR_DELAY"),),
    )
    toggles = tuple(
        SelectBins("carriers", ((first if i % 2 == 0 else second,),))
        for i in range(10)
    )
    return Workflow(
        name="toggle",
        workflow_type=WorkflowType.CUSTOM,
        interactions=(CreateViz(source), CreateViz(target),
                      Link("carriers", "delays")) + toggles,
    )


def _run(ctx, workflow, reuse: bool):
    settings = ctx.settings.with_(time_requirement=TR, think_time=2.0)
    dataset = ctx.dataset(settings.data_size)
    engine = ProgressiveEngine(dataset, settings, VirtualClock(), reuse=reuse)
    engine.prepare()
    driver = BenchmarkDriver(engine, ctx.oracle(settings.data_size), settings)
    records = driver.run_workflow(workflow)
    # The target's queries triggered by the second half of the toggles —
    # by then each of the two alternating queries has prior partial work.
    late = [
        r for r in records
        if r.viz_name == "delays" and r.interaction_id >= 8
    ]
    return float(np.mean([r.metrics.missing_bins for r in late])), records


def _render(with_reuse, without_reuse) -> str:
    lines = ["Ablation — result reuse (IDEA, toggled selection, TR=0.5s)", ""]
    lines.append(f"{'variant':<18} {'missing bins (late queries)':>28}")
    lines.append("-" * 48)
    lines.append(f"{'with reuse':<18} {with_reuse:>28.3f}")
    lines.append(f"{'without reuse':<18} {without_reuse:>28.3f}")
    return "\n".join(lines)


def test_ablation_reuse(benchmark, ctx, results_dir):
    workflow = _toggle_workflow(ctx)

    def run_both():
        with_reuse, _ = _run(ctx, workflow, reuse=True)
        without_reuse, _ = _run(ctx, workflow, reuse=False)
        return with_reuse, without_reuse

    with_reuse, without_reuse = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    write_artifact(
        results_dir, "ablation_reuse.txt", _render(with_reuse, without_reuse)
    )

    # Reuse must strictly reduce missing bins on re-issued queries.
    assert with_reuse < without_reuse
