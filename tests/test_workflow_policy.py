"""Tests for the interaction policies (the adaptive-user hook)."""

import pytest

from repro.bench.driver import SessionDriver
from repro.bench.experiments import make_engine
from repro.common.clock import VirtualClock
from repro.common.errors import BenchmarkError, WorkflowError
from repro.common.rng import derive_rng
from repro.workflow.graph import VizGraph
from repro.workflow.policy import (
    LOW_CARDINALITY_BINS,
    MarkovPolicy,
    PolicyView,
    ReplayPolicy,
    UncertaintyChaserPolicy,
    interaction_mix,
    make_policy,
    mix_distance,
)
from repro.workflow.generator import WorkflowGenerator
from repro.workflow.spec import CreateViz, SetFilter, WorkflowType


@pytest.fixture(scope="module")
def generator(flights_profiles):
    return WorkflowGenerator(flights_profiles, table="flights", seed=3)


def _view(graph=None, records=(), index=0):
    return PolicyView(
        session_id="session-0",
        workflow_index=0,
        interaction_index=index,
        graph=graph if graph is not None else VizGraph(),
        records=list(records),
    )


class TestReplayPolicy:
    def test_replays_interactions_in_order(self, generator):
        workflows = generator.generate_suite(WorkflowType.MIXED, 2)
        policy = ReplayPolicy(workflows)
        for wf_index, workflow in enumerate(workflows):
            plan = policy.begin_workflow(wf_index)
            assert plan.name == workflow.name
            assert plan.workflow_type is workflow.workflow_type
            view = _view()
            replayed = []
            while True:
                view = PolicyView(
                    "session-0", wf_index, len(replayed), VizGraph(), []
                )
                interaction = policy.next_interaction(view)
                if interaction is None:
                    break
                replayed.append(interaction)
            assert tuple(replayed) == workflow.interactions
        assert policy.begin_workflow(len(workflows)) is None

    def test_requires_workflows(self):
        with pytest.raises(WorkflowError):
            ReplayPolicy([])


class TestMarkovPolicy:
    def test_workflows_are_structurally_valid(self, generator):
        policy = MarkovPolicy(generator, per_session=2, seed=7)
        for wf_index in range(2):
            plan = policy.begin_workflow(wf_index)
            assert plan is not None
            graph = VizGraph()
            emitted = 0
            while True:
                interaction = policy.next_interaction(
                    _view(graph, index=emitted)
                )
                if interaction is None:
                    break
                graph.apply(interaction)  # raises on invalid interactions
                emitted += 1
            config = generator.config
            assert config.interactions_min <= emitted <= config.interactions_max
        assert policy.begin_workflow(2) is None

    def test_deterministic_given_seed(self, generator):
        def trail(seed):
            policy = MarkovPolicy(generator, per_session=1, seed=seed)
            policy.begin_workflow(0)
            graph = VizGraph()
            kinds = []
            while True:
                interaction = policy.next_interaction(
                    _view(graph, index=len(kinds))
                )
                if interaction is None:
                    break
                graph.apply(interaction)
                kinds.append(interaction.kind)
            return kinds

        assert trail(11) == trail(11)
        assert trail(11) != trail(12)

    def test_reacts_to_empty_result_by_clearing_filter(self, generator):
        policy = MarkovPolicy(generator, per_session=1, seed=7)
        policy.begin_workflow(0)
        graph = VizGraph()
        first = policy.next_interaction(_view(graph))
        graph.apply(first)
        viz_name = first.viz.name
        # Give the viz a filter so the reaction has something to clear.
        node = graph.node(viz_name)
        node.own_filter = generator.sample_filter(
            __import__("numpy").random.default_rng(0), node.spec
        )

        class _Metrics:
            tr_violated = False
            bins_delivered = LOW_CARDINALITY_BINS

        class _Record:
            metrics = _Metrics()

        record = _Record()
        record.viz_name = viz_name
        policy.observe(record)
        reaction = policy.next_interaction(_view(graph, index=1))
        assert isinstance(reaction, SetFilter)
        assert reaction.viz_name == viz_name
        assert reaction.filter is None


#: Every type the generator (and so the markov policy) can walk.
WALKED_TYPES = (
    WorkflowType.INDEPENDENT,
    WorkflowType.SEQUENTIAL,
    WorkflowType.ONE_TO_N,
    WorkflowType.N_TO_ONE,
    WorkflowType.MIXED,
)


def _drain(policy):
    """Step one policy workflow to its end with no records observed."""
    graph = VizGraph()
    emitted = []
    while True:
        interaction = policy.next_interaction(
            _view(graph, index=len(emitted))
        )
        if interaction is None:
            return tuple(emitted)
        graph.apply(interaction)
        emitted.append(interaction)


class TestMarkovWalksTheGenerator:
    """Without a reaction, a markov workflow *is* the generator's walk."""

    @pytest.mark.parametrize("workflow_type", WALKED_TYPES)
    def test_unreacted_session_emits_generated_interactions(
        self, generator, workflow_type
    ):
        # Hand the policy the rng generate() derives for workflow 0.
        policy = MarkovPolicy(
            generator, per_session=1, workflow_type=workflow_type
        )
        policy._rng = derive_rng(
            generator.seed, "workflow", workflow_type.value, 0
        )
        plan = policy.begin_workflow(0)
        assert plan.workflow_type is workflow_type
        expected = generator.generate(workflow_type, 0).interactions
        assert _drain(policy) == tuple(expected)

    @pytest.mark.parametrize("workflow_type", WALKED_TYPES)
    def test_later_workflows_continue_the_stream(
        self, generator, workflow_type
    ):
        policy = MarkovPolicy(
            generator, per_session=2, workflow_type=workflow_type, seed=4
        )
        rng = derive_rng(4, "policy", "markov")
        for index in range(2):
            policy.begin_workflow(index)
            walk, fill = generator.walk(rng, workflow_type)
            while walk.remaining > 0:
                start = len(walk.interactions)
                next(fill)
                for interaction in walk.interactions[start:]:
                    walk.graph.apply(interaction)
            assert _drain(policy) == tuple(walk.interactions)


class TestUncertaintyChaserPolicy:
    def test_chases_widest_margins(self, generator):
        policy = UncertaintyChaserPolicy(generator, per_session=1, seed=7)
        policy.begin_workflow(0)
        graph = VizGraph()
        # Build two vizs through the policy itself.
        for index in range(2):
            interaction = policy.next_interaction(_view(graph, index=index))
            graph.apply(interaction)
            if not isinstance(interaction, CreateViz):
                break
        names = graph.viz_names
        assert names

        class _Metrics:
            tr_violated = False
            missing_bins = 0.0

        def record_for(name, margin):
            metrics = _Metrics()
            metrics.margin_avg = margin
            record = type("R", (), {})()
            record.metrics = metrics
            record.viz_name = name
            return record

        for name in names:
            policy.observe(record_for(name, 0.01))
        policy.observe(record_for(names[0], 5.0))
        assert policy._chase_target(graph) == names[0]

    def test_unqueried_vizs_are_most_uncertain(self, generator):
        policy = UncertaintyChaserPolicy(generator, per_session=1, seed=7)
        policy.begin_workflow(0)
        graph = VizGraph()
        interaction = policy.next_interaction(_view(graph))
        graph.apply(interaction)
        assert policy._chase_target(graph) == interaction.viz.name


class TestFactoryAndMix:
    def test_make_policy_names(self, generator):
        workflows = generator.generate_suite(WorkflowType.MIXED, 1)
        assert isinstance(
            make_policy("replay", workflows=workflows), ReplayPolicy
        )
        assert isinstance(
            make_policy("markov", generator=generator), MarkovPolicy
        )
        assert isinstance(
            make_policy("uncertainty", generator=generator),
            UncertaintyChaserPolicy,
        )
        with pytest.raises(WorkflowError):
            make_policy("nope", generator=generator)
        with pytest.raises(WorkflowError):
            make_policy("replay")
        with pytest.raises(WorkflowError):
            make_policy("markov")

    def test_interaction_mix_normalizes(self):
        mix = interaction_mix({"create_viz": 1, "set_filter": 3})
        assert mix == {"create_viz": 0.25, "set_filter": 0.75}
        assert interaction_mix({}) == {}

    def test_mix_distance_bounds(self):
        a = {"create_viz": 1.0}
        b = {"set_filter": 1.0}
        assert mix_distance(a, b) == pytest.approx(1.0)
        assert mix_distance(a, a) == 0.0


class TestDriverIntegration:
    """SessionDriver in policy mode (unit level; server tests go further)."""

    def test_policy_and_workflows_are_exclusive(
        self, flights_dataset, flights_oracle, tiny_settings, generator
    ):
        engine = make_engine(
            "monetdb-sim", flights_dataset, tiny_settings, VirtualClock()
        )
        workflows = generator.generate_suite(WorkflowType.MIXED, 1)
        with pytest.raises(BenchmarkError):
            SessionDriver(
                engine,
                flights_oracle,
                tiny_settings,
                workflows,
                policy=ReplayPolicy(workflows),
            )

    def test_replay_driver_matches_scripted_driver(
        self, flights_dataset, flights_oracle, tiny_settings, generator
    ):
        workflows = generator.generate_suite(WorkflowType.SEQUENTIAL, 2)

        def run(policy):
            engine = make_engine(
                "idea-sim", flights_dataset, tiny_settings, VirtualClock()
            )
            engine.prepare()
            driver = SessionDriver(
                engine,
                flights_oracle,
                tiny_settings,
                [] if policy else workflows,
                policy=policy,
            )
            return driver.run(), driver.interaction_counts

        import io

        from repro.bench.report import DetailedReport

        def csv_text(records):
            buffer = io.StringIO()
            DetailedReport(records).to_csv(buffer)
            return buffer.getvalue()

        scripted, scripted_counts = run(None)
        replayed, replayed_counts = run(ReplayPolicy(workflows))
        assert len(scripted) == len(replayed)
        assert csv_text(scripted) == csv_text(replayed)
        assert scripted_counts == replayed_counts

    def test_abandon_cancels_outstanding_work(
        self, flights_dataset, flights_oracle, tiny_settings, generator
    ):
        engine = make_engine(
            "monetdb-sim", flights_dataset, tiny_settings, VirtualClock()
        )
        engine.prepare()
        workflows = generator.generate_suite(WorkflowType.MIXED, 1)
        driver = SessionDriver(
            engine, flights_oracle, tiny_settings, workflows
        )
        # Step a few events in, then walk away mid-workflow.
        for _ in range(4):
            driver.step()
        assert not driver.finished
        driver.abandon()
        assert driver.finished
        assert driver.next_event_time() is None
        assert engine.scheduler.active_tasks() == []
        assert driver.step() == []
