"""LoadAdaptivePolicy tests: server-side signals drive user backoff."""

import pytest

from repro.common.errors import WorkflowError
from repro.server import SessionManager
from repro.workflow.graph import VizGraph
from repro.workflow.policy import (
    LoadAdaptivePolicy,
    PolicyView,
    interaction_mix,
    make_policy,
    mix_distance,
)
from repro.workflow.spec import CreateViz, DiscardViz, WorkflowType


@pytest.fixture()
def policy(server_ctx):
    from repro.workflow.generator import WorkflowGenerator

    generator = WorkflowGenerator(
        server_ctx.profiles(server_ctx.settings.data_size),
        table=server_ctx.settings.dataset,
        seed=server_ctx.settings.seed,
    )
    return LoadAdaptivePolicy(generator, per_session=1, seed=9,
                              backoff_depth=3)


def _view(graph, records=(), queue_depth=0, last_latency=0.0):
    return PolicyView(
        session_id="s",
        workflow_index=0,
        interaction_index=len(graph),
        graph=graph,
        records=list(records),
        queue_depth=queue_depth,
        last_latency=last_latency,
    )


def _graph_with(policy, n):
    graph = VizGraph()
    rng = policy._rng
    for _ in range(n):
        graph.apply(CreateViz(policy._generator.sample_viz_spec(
            rng, f"viz_{len(graph.viz_names)}"
        )))
    return graph


class FakeMetrics:
    def __init__(self, violated):
        self.tr_violated = violated
        self.bins_delivered = 5


class FakeRecord:
    def __init__(self, violated=False, latency=0.5, tr=1.0):
        self.metrics = FakeMetrics(violated)
        self.time_requirement = tr
        self.start_time = 0.0
        self.end_time = latency
        self.viz_name = "viz_0"


class TestBackoffSignals:
    def test_deep_queue_sheds_newest_viz(self, policy):
        policy.begin_workflow(0)
        graph = _graph_with(policy, 3)
        chosen = policy.next_interaction(_view(graph, queue_depth=5))
        assert chosen == DiscardViz("viz_2")
        assert policy.backoffs == 1

    def test_tr_violation_triggers_backoff(self, policy):
        policy.begin_workflow(0)
        graph = _graph_with(policy, 2)
        record = FakeRecord(violated=True)
        policy.observe(record)
        chosen = policy.next_interaction(_view(graph, records=[record]))
        assert chosen == DiscardViz("viz_1")

    def test_latency_overrun_triggers_backoff(self, policy):
        policy.begin_workflow(0)
        graph = _graph_with(policy, 2)
        record = FakeRecord(latency=1.4, tr=1.0)
        policy.observe(record)
        view = _view(graph, records=[record], last_latency=1.4)
        assert policy.next_interaction(view) == DiscardViz("viz_1")

    def test_exact_deadline_completion_is_not_overload(self, policy):
        # Progressive engines complete exactly at the deadline; that must
        # not read as strain (latency must be strictly past TR).
        policy.begin_workflow(0)
        graph = _graph_with(policy, 2)
        record = FakeRecord(latency=1.0, tr=1.0)
        policy.observe(record)
        view = _view(graph, records=[record], last_latency=1.0)
        chosen = policy.next_interaction(view)
        assert chosen != DiscardViz("viz_1")
        assert policy.backoffs == 0

    def test_stale_record_from_prior_workflow_ignored(self, server_ctx):
        # A violated record trailing workflow 0 must not make workflow 1
        # collapse after its first chart.
        from repro.workflow.generator import WorkflowGenerator

        generator = WorkflowGenerator(
            server_ctx.profiles(server_ctx.settings.data_size),
            table=server_ctx.settings.dataset,
            seed=server_ctx.settings.seed,
        )
        policy = LoadAdaptivePolicy(generator, per_session=2, seed=9)
        policy.begin_workflow(0)
        record = FakeRecord(violated=True)
        policy.observe(record)
        graph = _graph_with(policy, 2)
        assert policy.next_interaction(
            _view(graph, records=[record])
        ) == DiscardViz("viz_1")
        assert policy.begin_workflow(1) is not None
        fresh = _graph_with(policy, 1)
        chosen = policy.next_interaction(_view(fresh, records=[record]))
        assert chosen is not None  # keeps working: the strain was workflow 0's
        assert policy.backoffs == 1

    def test_single_viz_under_load_ends_workflow(self, policy):
        policy.begin_workflow(0)
        graph = _graph_with(policy, 1)
        assert policy.next_interaction(_view(graph, queue_depth=9)) is None

    def test_empty_dashboard_always_starts_working(self, policy):
        policy.begin_workflow(0)
        record = FakeRecord(violated=True)  # stale stress from workflow 0
        chosen = policy.next_interaction(_view(VizGraph(), records=[record]))
        assert isinstance(chosen, CreateViz)

    def test_plan_names_are_load_adaptive(self, policy):
        plan = policy.begin_workflow(0)
        assert plan.name.startswith("load_adaptive_")
        assert policy.begin_workflow(1) is None


class TestDiscardedAnchor:
    """Backoff may discard the walk's anchor; the walk starts a new one."""

    @pytest.mark.parametrize(
        "workflow_type",
        [WorkflowType.SEQUENTIAL, WorkflowType.ONE_TO_N, WorkflowType.N_TO_ONE],
    )
    def test_session_runs_to_completion(self, policy, workflow_type):
        policy = LoadAdaptivePolicy(
            policy._generator, per_session=1, workflow_type=workflow_type,
            seed=9, backoff_depth=3,
        )
        policy.begin_workflow(0)
        # A chart already on the dashboard (its short name sorts oldest)
        # leaves the walk's first viz — its anchor — the newest to shed.
        graph = VizGraph()
        graph.apply(CreateViz(policy._generator.sample_viz_spec(policy._rng, "a")))
        anchor = policy.next_interaction(_view(graph))
        assert isinstance(anchor, CreateViz)
        graph.apply(anchor)
        shed = policy.next_interaction(_view(graph, queue_depth=3))
        assert shed == DiscardViz(anchor.viz.name)
        graph.apply(shed)
        emitted = 2
        while True:
            interaction = policy.next_interaction(_view(graph))
            if interaction is None:
                break
            graph.apply(interaction)  # raises on a dangling anchor
            emitted += 1
        assert emitted == policy._walk.budget


class TestConstruction:
    def test_registry_and_make_policy(self, policy):
        built = make_policy(
            "load-adaptive",
            generator=policy._generator,
            per_session=2,
            workflow_type=WorkflowType.MIXED,
            seed=3,
        )
        assert isinstance(built, LoadAdaptivePolicy)

    def test_requires_generator(self):
        with pytest.raises(WorkflowError, match="generator"):
            make_policy("load-adaptive")

    def test_validates_parameters(self, policy):
        with pytest.raises(WorkflowError, match="backoff_depth"):
            LoadAdaptivePolicy(policy._generator, 1, backoff_depth=0)
        with pytest.raises(WorkflowError, match="backoff_fraction"):
            LoadAdaptivePolicy(policy._generator, 1, backoff_fraction=0.0)


class TestServedBehavior:
    def test_deterministic_across_runs(self, server_ctx):
        def run():
            return SessionManager.for_engine(
                server_ctx, "monetdb-sim", 2, per_session=1,
                policy="load-adaptive",
            ).run()

        first, second = run(), run()
        assert [r.csv_text() for r in first] == [r.csv_text() for r in second]

    def test_backs_off_relative_to_markov_under_strain(self, server_ctx):
        def serve(policy):
            return SessionManager.for_engine(
                server_ctx, "monetdb-sim", 2, per_session=1, policy=policy
            ).run()

        adaptive = serve("load-adaptive")
        markov = serve("markov")

        def mix(results):
            counts = {}
            for result in results:
                for kind, count in result.interaction_counts.items():
                    counts[kind] = counts.get(kind, 0) + count
            return interaction_mix(counts)

        # The blocking engine leaves queries in flight across think
        # steps, so the load-adaptive user issues measurably less work.
        assert sum(r.num_queries for r in adaptive) < sum(
            r.num_queries for r in markov
        )
        assert mix_distance(mix(adaptive), mix(markov)) > 0.05

    def test_queue_depth_signal_reaches_policy(self, server_ctx):
        # With backoff_depth=1 any in-flight query trips the signal, so
        # PolicyView plumbing is observable end to end.
        from repro.workflow.generator import WorkflowGenerator

        from repro.server import SessionSpec
        from repro.server.manager import shared_policy_generator

        generator = shared_policy_generator(server_ctx)
        policy = LoadAdaptivePolicy(generator, per_session=1, seed=1,
                                    backoff_depth=1)
        spec = SessionSpec(session_id="s0", policy="load-adaptive", seed=1)
        from repro.bench.experiments import make_engine
        from repro.bench.driver import SessionDriver
        from repro.common.clock import VirtualClock

        settings = server_ctx.settings
        engine = make_engine(
            "monetdb-sim",
            server_ctx.dataset(settings.data_size, False),
            settings, VirtualClock(), False,
        )
        engine.prepare()
        driver = SessionDriver(
            engine, server_ctx.oracle(settings.data_size, False), settings,
            [], session_id="s0", policy=policy,
        )
        driver.run()
        assert policy.backoffs >= 1
