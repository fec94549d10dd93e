"""§4.3 validity: online markov walks have the offline Fig. 3 topologies.

For each base workflow type, 200 markov walks with an empty record
stream (so the policy never reacts) are compared with 200 offline
workflows of the same type on the count of dashboards that fan out (a
viz with two or more outgoing links, Fig. 3c) and that fan in (a viz
with two or more incoming links, Fig. 3d). Each pair of counts must
agree under a two-sided Fisher exact test at α = 0.01, Bonferroni-
corrected over 4 types × 2 counts. docs/validity.md records the observed
values.
"""

import pytest
from scipy.stats import fisher_exact

from repro.workflow.generator import WorkflowGenerator
from repro.workflow.graph import VizGraph
from repro.workflow.policy import MarkovPolicy, PolicyView
from repro.workflow.spec import WorkflowType

WALKS = 200
ALPHA = 0.01
BASE_TYPES = (
    WorkflowType.INDEPENDENT,
    WorkflowType.SEQUENTIAL,
    WorkflowType.ONE_TO_N,
    WorkflowType.N_TO_ONE,
)
#: 4 types × (fan-out, fan-in).
CORRECTED_ALPHA = ALPHA / (len(BASE_TYPES) * 2)


@pytest.fixture(scope="module")
def generator(server_ctx):
    settings = server_ctx.settings
    return WorkflowGenerator(
        server_ctx.profiles(settings.data_size),
        table=settings.dataset,
        seed=settings.seed,
    )


def _shape(graph):
    names = graph.viz_names
    fans_out = any(len(graph.children(name)) >= 2 for name in names)
    fans_in = any(len(graph.parents(name)) >= 2 for name in names)
    return fans_out, fans_in


def _offline(generator, workflow_type, index):
    graph = VizGraph()
    for interaction in generator.generate(workflow_type, index).interactions:
        graph.apply(interaction)
    return _shape(graph)


def _markov(generator, workflow_type, seed):
    policy = MarkovPolicy(
        generator, per_session=1, workflow_type=workflow_type, seed=seed
    )
    policy.begin_workflow(0)
    graph = VizGraph()
    while True:
        view = PolicyView("s", 0, 0, graph, [])
        interaction = policy.next_interaction(view)
        if interaction is None:
            return _shape(graph)
        graph.apply(interaction)


def _counts(shapes):
    return sum(out for out, _ in shapes), sum(fan_in for _, fan_in in shapes)


@pytest.mark.parametrize("workflow_type", BASE_TYPES, ids=lambda t: t.value)
def test_markov_topology_matches_offline(generator, workflow_type):
    offline = _counts(
        [_offline(generator, workflow_type, i) for i in range(WALKS)]
    )
    online = _counts(
        [_markov(generator, workflow_type, seed) for seed in range(WALKS)]
    )
    for label, k_offline, k_online in zip(("fan-out", "fan-in"), offline, online):
        table = [[k_offline, WALKS - k_offline], [k_online, WALKS - k_online]]
        _, p_value = fisher_exact(table)
        assert p_value > CORRECTED_ALPHA, (
            f"{workflow_type.value} {label}: offline {k_offline}/{WALKS}, "
            f"markov {k_online}/{WALKS}, p = {p_value:.3g}"
        )
