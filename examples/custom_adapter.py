#!/usr/bin/env python3
"""Plugging your own system into the benchmark (paper §4.5, Listing 1).

IDEBench evaluates any system that implements the five-method adapter
interface. This example builds a deliberately simple external "system" —
a uniform-sampling engine that answers every query from one fixed 2 %
random sample — and benchmarks it against the built-in simulators on the
same workflow.

It demonstrates the full integration surface a third party needs:

* receiving the benchmark's queries as the :class:`AggQuery` that
  Listing 1's ``process_request`` gets. A system that speaks SQL would
  send it ``query_to_sql(query, dataset)`` instead — the statements of
  Fig. 4, which ``tests/test_query_sql_exec.py`` runs in SQLite against
  the exact answers;
* computing answers with its own means (here: a compiled query kernel,
  ``get_kernel(dataset, query).evaluate(rows)``, over its private
  sample);
* reporting results and margins back through an adapter.

Run with::

    python examples/custom_adapter.py
"""

import numpy as np

from repro import BenchmarkSettings, DataSize
from repro.bench.metrics import compute_metrics
from repro.common.rng import derive_rng
from repro.bench.experiments import ExperimentContext
from repro.engines.estimators import srs_estimate
from repro.engines.kernel_cache import get_kernel
from repro.query.groundtruth import GroundTruthOracle
from repro.query.model import AggQuery, QueryResult
from repro.workflow.graph import VizGraph
from repro.workflow.spec import WorkflowType


class TinySampleSystem:
    """An 'external' system: a fixed uniform sample, queried by AggQuery."""

    def __init__(self, dataset, sample_rate: float = 0.02, seed: int = 0):
        self._dataset = dataset
        rng = derive_rng(seed, "tiny-sample-system")
        n = max(1, int(dataset.num_fact_rows * sample_rate))
        self._rows = np.sort(
            rng.choice(dataset.num_fact_rows, size=n, replace=False)
        )

    def execute(self, query: AggQuery) -> QueryResult:
        """The system's only entry point: query in, result out."""
        stats = get_kernel(self._dataset, query).evaluate(self._rows)
        values, margins = srs_estimate(
            stats, len(self._rows), self._dataset.num_fact_rows, 0.95
        )
        return QueryResult(
            query=query, values=values, margins=margins,
            rows_processed=len(self._rows),
            fraction=len(self._rows) / self._dataset.num_fact_rows,
        )


class TinySampleAdapter:
    """Listing-1 adapter handing benchmark requests to the system."""

    def __init__(self, system: TinySampleSystem):
        self.system = system

    def process_request(self, query) -> QueryResult:
        return self.system.execute(query)

    def link_vizs(self, viz_from, viz_to):
        pass  # no speculative execution in this toy system

    def delete_vizs(self, vizs):
        pass

    def workflow_start(self):
        pass

    def workflow_end(self):
        pass


def main() -> None:
    settings = BenchmarkSettings(
        data_size=DataSize.S, scale=2500, seed=99, workflows_per_type=2
    )
    ctx = ExperimentContext(settings)
    dataset = ctx.dataset(settings.data_size)
    oracle = GroundTruthOracle(dataset)

    system = TinySampleSystem(dataset, sample_rate=0.02, seed=99)
    adapter = TinySampleAdapter(system)

    workflow = ctx.workflows(WorkflowType.MIXED, 1)[0]
    print(f"replaying workflow {workflow.name!r} through the custom adapter\n")

    adapter.workflow_start()
    graph = VizGraph()
    header = f"{'interaction':>11} {'viz':<8} {'missing':>8} {'MRE':>7} {'OOM':>4}"
    print(header)
    print("-" * len(header))
    for index, interaction in enumerate(workflow.interactions):
        applied = graph.apply(interaction)
        for viz_name in applied.affected:
            query = graph.query_for(viz_name)
            result = adapter.process_request(query)
            metrics = compute_metrics(result, oracle.answer(query))
            mre = f"{metrics.rel_error_avg:.3f}" if (
                metrics.rel_error_avg == metrics.rel_error_avg
            ) else "  —"
            print(f"{index:>11} {viz_name:<8} {metrics.missing_bins:>7.1%} "
                  f"{mre:>7} {metrics.bins_out_of_margin:>4}")
    adapter.workflow_end()

    print(f"\nthe system answered every query from its fixed "
          f"{len(system._rows):,}-row sample — compare the missing-bin "
          "ratios with System X's stratified sample in compare_engines.py.")


if __name__ == "__main__":
    main()
