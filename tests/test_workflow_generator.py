"""Tests for the workload generator (§4.3).

The central guarantee: every generated workflow is structurally valid (it
replays cleanly on a fresh viz graph), deterministic per seed, and
type-faithful (independent workflows never link, 1:N hubs fan out, N:1
selections trigger exactly one query, …).
"""

import pickle

import numpy as np
import pytest

from repro.common.errors import WorkflowError
from repro.query.model import AggFunc, BinKind
from repro.workflow.generator import (
    WorkflowGenerator,
    WorkloadConfig,
    _nice_floor,
    _nice_width,
    generate_default_suite,
)
from repro.workflow.graph import VizGraph
from repro.workflow.spec import (
    CreateViz,
    Link,
    SelectBins,
    SetFilter,
    Workflow,
    WorkflowType,
)

GENERATED_TYPES = (
    WorkflowType.INDEPENDENT,
    WorkflowType.SEQUENTIAL,
    WorkflowType.ONE_TO_N,
    WorkflowType.N_TO_ONE,
    WorkflowType.MIXED,
)


@pytest.fixture(scope="module")
def generator(flights_profiles):
    return WorkflowGenerator(flights_profiles, "flights", seed=99)


def _replay(workflow: Workflow) -> VizGraph:
    graph = VizGraph()
    for interaction in workflow.interactions:
        graph.apply(interaction)
    return graph


def _queries_per_interaction(workflow: Workflow):
    graph = VizGraph()
    counts = []
    for interaction in workflow.interactions:
        counts.append(len(graph.apply(interaction).affected))
    return counts


class TestStructuralValidity:
    @pytest.mark.parametrize("workflow_type", GENERATED_TYPES)
    def test_replays_cleanly(self, generator, workflow_type):
        for index in range(6):
            workflow = generator.generate(workflow_type, index)
            _replay(workflow)  # raises on structural errors

    @pytest.mark.parametrize("workflow_type", GENERATED_TYPES)
    def test_budget_respected(self, generator, workflow_type):
        config = generator.config
        for index in range(6):
            workflow = generator.generate(workflow_type, index)
            assert (
                config.interactions_min
                <= workflow.num_interactions
                <= config.interactions_max
            )

    @pytest.mark.parametrize("workflow_type", GENERATED_TYPES)
    def test_specs_are_resolved(self, generator, workflow_type):
        workflow = generator.generate(workflow_type, 0)
        for interaction in workflow.interactions:
            if isinstance(interaction, CreateViz):
                assert all(dim.is_resolved for dim in interaction.viz.bins)

    def test_deterministic_per_seed(self, flights_profiles):
        a = WorkflowGenerator(flights_profiles, "flights", seed=1).generate(
            WorkflowType.MIXED, 2
        )
        b = WorkflowGenerator(flights_profiles, "flights", seed=1).generate(
            WorkflowType.MIXED, 2
        )
        assert a == b

    def test_different_index_different_workflow(self, generator):
        a = generator.generate(WorkflowType.MIXED, 0)
        b = generator.generate(WorkflowType.MIXED, 1)
        assert a != b

    def test_custom_type_rejected(self, generator):
        with pytest.raises(WorkflowError):
            generator.generate(WorkflowType.CUSTOM, 0)


def _materialized(workflow: Workflow) -> int:
    """Interactions the fill has emitted (and applied to its shadow graph)."""
    return len(workflow.interactions._builder.interactions)


class TestLazyMaterialization:
    """Workflows are described at ``generate`` and built as they are read,
    over the same RNG stream — byte identity with the eager generator is
    pinned by ``tests/golden/workflow_pins.txt``."""

    @pytest.mark.parametrize("workflow_type", GENERATED_TYPES)
    def test_len_is_the_number_of_interactions(self, generator, workflow_type):
        # ``len()`` answers from the budget without generating anything,
        # which is only right if every fill emits exactly ``budget``.
        for index in range(200):
            workflow = generator.generate(workflow_type, index)
            assert _materialized(workflow) == 0
            assert len(workflow.interactions) == len(tuple(workflow.interactions))

    @pytest.mark.parametrize("workflow_type", GENERATED_TYPES)
    def test_reading_a_prefix_generates_only_the_prefix(
        self, generator, workflow_type
    ):
        for index in range(10):
            budget = generator.generate(workflow_type, index).num_interactions
            for k in (0, 1, budget // 2, budget - 1):
                workflow = generator.generate(workflow_type, index)
                workflow.interactions[k]
                # One sampled action may emit two interactions (create + link).
                assert k + 1 <= _materialized(workflow) <= min(k + 2, budget)

    def test_partial_then_full_read_equals_full_read(self, generator):
        for workflow_type in GENERATED_TYPES:
            full = tuple(generator.generate(workflow_type, 3).interactions)
            workflow = generator.generate(workflow_type, 3)
            head = [workflow.interactions[i] for i in (4, 0, 2)]
            assert head == [full[4], full[0], full[2]]
            assert tuple(workflow.interactions) == full
            assert tuple(workflow.interactions) == full  # re-read: same objects
            assert _materialized(workflow) == len(full)

    def test_indexing_like_a_tuple(self, generator):
        workflow = generator.generate(WorkflowType.MIXED, 0)
        full = tuple(generator.generate(WorkflowType.MIXED, 0).interactions)
        assert workflow.interactions[:3] == full[:3]
        assert _materialized(workflow) <= 4
        assert workflow.interactions[-1] == full[-1]
        assert workflow.interactions[-len(full)] == full[0]
        assert workflow.interactions[1::5] == full[1::5]
        assert full[2] in workflow.interactions
        for outside in (len(full), -len(full) - 1):
            with pytest.raises(IndexError):
                workflow.interactions[outside]
        with pytest.raises(TypeError):
            workflow.interactions[0] = full[0]

    def test_equality_hash_and_round_trips_agree_with_the_tuple_form(
        self, generator
    ):
        workflow = generator.generate(WorkflowType.SEQUENTIAL, 1)
        twin = generator.generate(WorkflowType.SEQUENTIAL, 1)
        as_tuple = Workflow(
            workflow.name, workflow.workflow_type, tuple(twin.interactions)
        )
        assert workflow == as_tuple and as_tuple == workflow
        assert workflow.interactions == as_tuple.interactions
        assert hash(workflow) == hash(as_tuple)
        assert workflow.interactions != list(as_tuple.interactions)
        restored = Workflow.from_dict(workflow.to_dict())
        assert restored == workflow and hash(restored) == hash(workflow)
        unpickled = pickle.loads(pickle.dumps(generator.generate(
            WorkflowType.SEQUENTIAL, 1
        )))
        assert type(unpickled.interactions) is tuple
        assert unpickled == workflow

    def test_reentrant_read_fails_loudly_and_keeps_the_prefix(
        self, flights_profiles, monkeypatch
    ):
        """Single consumer: a read from inside the running fill (what a
        second thread would amount to) raises instead of interleaving
        two advances over one RNG stream."""
        own = WorkflowGenerator(flights_profiles, "flights", seed=99)
        workflow = own.generate(WorkflowType.INDEPENDENT, 0)
        full = tuple(own.generate(WorkflowType.INDEPENDENT, 0).interactions)
        original = own._sample_filter
        reentered = []

        def reading_sampler(rng, viz):
            if not reentered:
                reentered.append(True)
                with pytest.raises(ValueError, match="already executing"):
                    workflow.interactions[len(full) - 1]
            return original(rng, viz)

        monkeypatch.setattr(own, "_sample_filter", reading_sampler)
        assert tuple(workflow.interactions) == full
        assert reentered


class TestTypeCharacteristics:
    def test_independent_has_no_links(self, generator):
        for index in range(6):
            workflow = generator.generate(WorkflowType.INDEPENDENT, index)
            assert not any(isinstance(i, Link) for i in workflow.interactions)

    def test_independent_single_query_per_interaction(self, generator):
        for index in range(6):
            workflow = generator.generate(WorkflowType.INDEPENDENT, index)
            assert all(c <= 1 for c in _queries_per_interaction(workflow))

    def test_sequential_forms_chain(self, generator):
        workflow = generator.generate(WorkflowType.SEQUENTIAL, 0)
        graph = _replay(workflow)
        # Every viz has at most one parent and at most one child.
        for name in graph.viz_names:
            assert len(graph.parents(name)) <= 1
            assert len(graph.children(name)) <= 1

    def test_one_to_n_hub_fans_out(self, generator):
        found_fanout = False
        for index in range(6):
            workflow = generator.generate(WorkflowType.ONE_TO_N, index)
            graph = _replay(workflow)
            fanouts = [len(graph.children(n)) for n in graph.viz_names]
            if fanouts and max(fanouts) >= 2:
                found_fanout = True
        assert found_fanout

    def test_one_to_n_selection_triggers_multiple_queries(self, generator):
        found_multi = False
        for index in range(6):
            workflow = generator.generate(WorkflowType.ONE_TO_N, index)
            if any(c >= 2 for c in _queries_per_interaction(workflow)):
                found_multi = True
        assert found_multi

    def test_n_to_one_selections_trigger_single_query(self, generator):
        for index in range(6):
            workflow = generator.generate(WorkflowType.N_TO_ONE, index)
            graph = VizGraph()
            for interaction in workflow.interactions:
                applied = graph.apply(interaction)
                if isinstance(interaction, SelectBins):
                    assert len(applied.affected) <= 1

    def test_mixed_uses_multiple_patterns(self, generator):
        workflow = generator.generate(WorkflowType.MIXED, 0)
        kinds = {type(i).__name__ for i in workflow.interactions}
        assert "CreateViz" in kinds
        assert len(kinds) >= 3


class TestSampledContent:
    def test_filters_reference_known_columns(self, generator, flights_profiles):
        workflow = generator.generate(WorkflowType.MIXED, 3)
        for interaction in workflow.interactions:
            if isinstance(interaction, SetFilter) and interaction.filter:
                for field in interaction.filter.fields():
                    assert field in flights_profiles

    def test_aggregate_mix_matches_configuration(self, flights_profiles):
        config = WorkloadConfig(
            agg_distribution=(("count", 1.0),), nominal_dim_probability=0.0
        )
        generator = WorkflowGenerator(
            flights_profiles, "flights", config=config, seed=5
        )
        workflow = generator.generate(WorkflowType.INDEPENDENT, 0)
        for interaction in workflow.interactions:
            if isinstance(interaction, CreateViz):
                assert interaction.viz.aggregates[0].func is AggFunc.COUNT

    def test_two_dim_probability_zero_means_1d(self, flights_profiles):
        config = WorkloadConfig(two_dim_probability=0.0)
        generator = WorkflowGenerator(
            flights_profiles, "flights", config=config, seed=5
        )
        for index in range(4):
            workflow = generator.generate(WorkflowType.MIXED, index)
            for interaction in workflow.interactions:
                if isinstance(interaction, CreateViz):
                    assert len(interaction.viz.bins) == 1

    def test_selection_keys_match_binning(self, generator):
        workflow = generator.generate(WorkflowType.ONE_TO_N, 2)
        graph = VizGraph()
        for interaction in workflow.interactions:
            if isinstance(interaction, SelectBins):
                node = graph.node(interaction.viz_name)
                for key in interaction.keys:
                    assert len(key) == len(node.spec.bins)
                    for coord, dim in zip(key, node.spec.bins):
                        if dim.kind is BinKind.NOMINAL:
                            assert isinstance(coord, str)
                        else:
                            assert isinstance(coord, int)
            graph.apply(interaction)


class TestPublicSamplingApi:
    def test_empty_viz_name_is_a_workflow_error(self, generator):
        with pytest.raises(WorkflowError, match="viz needs a name"):
            generator.sample_viz_spec(np.random.default_rng(0), "")


class TestWorkloadConfigValidation:
    def test_rejects_bad_interaction_bounds(self):
        with pytest.raises(WorkflowError):
            WorkloadConfig(interactions_min=1, interactions_max=0)

    def test_rejects_empty_agg_distribution(self):
        with pytest.raises(WorkflowError):
            WorkloadConfig(agg_distribution=())

    def test_rejects_bad_selectivity_range(self):
        with pytest.raises(WorkflowError):
            WorkloadConfig(filter_selectivity_range=(0.0, 0.5))
        with pytest.raises(WorkflowError):
            WorkloadConfig(filter_selectivity_range=(0.6, 0.5))


class TestHelpers:
    @pytest.mark.parametrize("raw,expected", [
        (0.7, 1.0), (1.0, 1.0), (1.4, 2.0), (3.0, 5.0), (7.0, 10.0), (23.0, 50.0),
    ])
    def test_nice_width(self, raw, expected):
        assert _nice_width(raw) == expected

    def test_nice_width_rejects_nonpositive(self):
        with pytest.raises(WorkflowError):
            _nice_width(0.0)

    def test_nice_floor(self):
        assert _nice_floor(17.0, 5.0) == 15.0
        assert _nice_floor(-17.0, 5.0) == -20.0


class TestDefaultSuite:
    def test_fifty_workflows(self, flights_profiles):
        suite = generate_default_suite(flights_profiles, "flights",
                                       workflows_per_type=2)
        assert len(suite) == 10  # 2 per type × 5 types
        names = [w.name for w in suite]
        assert len(set(names)) == len(names)

    def test_generator_requires_quantitative_columns(self):
        from repro.data.schema import ColumnProfile, ColumnKind

        only_nominal = {
            "c": ColumnProfile("c", ColumnKind.NOMINAL, categories=("a", "b"))
        }
        with pytest.raises(WorkflowError):
            WorkflowGenerator(only_nominal, "t")
