"""Workflows: JSON interaction specs, the viz graph, and the generator.

IDEBench replaces the static query list of TPC-style benchmarks with
*workflows* — sequences of user interactions against a dashboard of linked
visualizations (§4.3). This subpackage implements:

* :mod:`repro.workflow.spec` — the JSON-serializable interaction
  vocabulary of Fig. 4 (create viz / set filter / link / select bins /
  discard viz) and the :class:`Workflow` container;
* :mod:`repro.workflow.graph` — the visualization dependency DAG the
  driver maintains (§4.4): filter/selection propagation along links and
  the set of visualizations an interaction forces to update, and the
  per-workflow query plan every run of a scripted workflow reads;
* :mod:`repro.workflow.markov` — the Markov-chain machinery behind the
  generator (§4.3: "models workflows as Markov Chains with pre-defined
  (and customizable) probability distributions");
* :mod:`repro.workflow.generator` — samplers for the four workflow types
  of Fig. 3 (independent browsing, sequential linking, 1:N, N:1) plus the
  mixed type of §5.1;
* :mod:`repro.workflow.viewer` — a terminal inspector for workflows.
"""

from repro.workflow.generator import (
    WorkflowGenerator,
    WorkloadConfig,
    generate_default_suite,
)
from repro.workflow.graph import VizGraph, VizNode
from repro.workflow.markov import MarkovChain
from repro.workflow.spec import (
    CreateViz,
    DiscardViz,
    Interaction,
    Link,
    SelectBins,
    SetFilter,
    VizSpec,
    Workflow,
    WorkflowType,
)
from repro.workflow.viewer import render_workflow

__all__ = [
    "CreateViz",
    "DiscardViz",
    "Interaction",
    "Link",
    "MarkovChain",
    "SelectBins",
    "SetFilter",
    "VizGraph",
    "VizNode",
    "VizSpec",
    "Workflow",
    "WorkflowGenerator",
    "WorkflowType",
    "WorkloadConfig",
    "generate_default_suite",
    "render_workflow",
]
