"""The per-workflow query plan (:class:`repro.workflow.graph.QueryPlan`).

A scripted workflow's queries depend on its interactions alone, so every
run of one :class:`Workflow` object reads them from one replay. These
tests hold the plan to a fresh live :class:`VizGraph` replay at every
interaction, keep it out of every byte a workflow or query serializes
to, and check that it reads no interaction before the driver fires it.
"""

import io
import pickle
from collections.abc import Sequence

import pytest

from repro.bench.driver import MAX_SPECULATIVE_PER_LINK, SessionDriver
from repro.bench.experiments import make_engine
from repro.bench.report import DetailedReport
from repro.common.clock import VirtualClock
from repro.common.errors import WorkflowError
from repro.query.filters import RangePredicate, conjoin
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind
from repro.server import ArrivalProcess, SessionManager
from repro.workflow.generator import WorkflowGenerator
from repro.workflow.graph import VizGraph, VizNode
from repro.workflow.policy import ReplayPolicy
from repro.workflow.spec import (
    CreateViz,
    DiscardViz,
    Link,
    SelectBins,
    SetFilter,
    VizSpec,
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


def _viz(name, field="DEP_DELAY", nominal=False):
    bins = (
        (BinDimension(field, BinKind.NOMINAL),)
        if nominal
        else (BinDimension(field, BinKind.QUANTITATIVE, width=20.0),)
    )
    return VizSpec(name, "flights", bins, (Aggregate(AggFunc.COUNT),))


def _custom(*interactions, name="custom"):
    return Workflow(name, WorkflowType.CUSTOM, tuple(interactions))


def _live_replay(workflow):
    """Per interaction, what the driver read off its own live graph
    before the plan existed: the discarded viz's query (read before the
    discard), the submissions, the link source's query and the
    speculation inputs."""
    graph = VizGraph()
    steps = []
    for interaction in workflow.interactions:
        discarded = None
        if isinstance(interaction, DiscardViz) and interaction.viz_name in graph:
            discarded = graph.query_for(interaction.viz_name)
        applied = graph.apply(interaction)
        link_source = speculation = None
        if isinstance(interaction, Link):
            link_source = graph.query_for(interaction.source)
            target = graph.node(interaction.target)
            speculation = (
                graph.node(interaction.source).spec,
                target.spec,
                target.own_filter,
                graph.effective_filter(interaction.source),
            )
        submitted = tuple(
            (viz_name, graph.query_for(viz_name)) for viz_name in applied.affected
        )
        steps.append((interaction, submitted, discarded, link_source, speculation))
    return steps


def _planned(workflow):
    plan = workflow.query_plan
    return [tuple(plan[index]) for index in range(len(plan))]


@pytest.fixture(scope="module")
def generators(flights_profiles):
    return {
        seed: WorkflowGenerator(flights_profiles, table="flights", seed=seed)
        for seed in (5, 6, 7)
    }


def _non_leaf_discard():
    """a → b → c with a selection upstream and a target filtered before
    it is linked; discarding b (not a leaf) re-queries c without a's
    selection."""
    return _custom(
        CreateViz(_viz("a", "UNIQUE_CARRIER", nominal=True)),
        CreateViz(_viz("b")),
        CreateViz(_viz("c", "ARR_DELAY")),
        SetFilter("b", RangePredicate("DISTANCE", 0.0, 2000.0)),
        Link("a", "b"),
        Link("b", "c"),
        SelectBins("a", (("AD",),)),
        DiscardViz("b"),
        SetFilter("c", RangePredicate("AIR_TIME", 30.0, 300.0)),
    )


class TestPlanEqualsLiveReplay:
    @pytest.mark.parametrize("seed", [5, 6, 7])
    @pytest.mark.parametrize("workflow_type", GENERATED_TYPES)
    def test_generated(self, generators, workflow_type, seed):
        for index in range(3):
            workflow = generators[seed].generate(workflow_type, index)
            assert _planned(workflow) == _live_replay(workflow)

    def test_json_loaded(self, generators, tmp_path):
        generated = generators[5].generate(WorkflowType.MIXED, 1)
        path = tmp_path / "mixed_1.json"
        generated.to_json(path)
        loaded = Workflow.from_json(path)
        assert isinstance(loaded.interactions, tuple)
        assert _planned(loaded) == _live_replay(loaded) == _live_replay(generated)

    def test_discarding_a_non_leaf(self):
        workflow = _non_leaf_discard()
        steps = _planned(workflow)
        assert steps == _live_replay(workflow)
        _, submitted, discarded, _, _ = steps[7]
        assert discarded == dict(steps[6][1])["b"]  # b as the selection left it
        assert [name for name, _ in submitted] == ["c"]
        assert submitted[0][1].filter is None  # a's selection went with b

    def test_every_run_reads_the_same_objects(self, generators):
        workflow = generators[6].generate(WorkflowType.MIXED, 0)
        plan = workflow.query_plan
        first = [plan[index] for index in range(len(plan))]
        assert workflow.query_plan is plan
        assert all(plan[index] is step for index, step in enumerate(first))

    def test_a_complete_plan_drops_its_graph(self, generators):
        workflow = generators[7].generate(WorkflowType.SEQUENTIAL, 0)
        plan = workflow.query_plan
        plan[len(plan) - 2]
        assert plan._graph is not None
        plan[len(plan) - 1]
        assert plan._graph is None


class _Reads(Sequence):
    """A tuple of interactions that records every index read."""

    def __init__(self, items):
        self._items = tuple(items)
        self.read = []

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        self.read.append(index)
        return self._items[index]


class TestLaziness:
    def test_reads_no_interaction_ahead(self):
        interactions = _Reads(_non_leaf_discard().interactions)
        plan = Workflow("lazy", WorkflowType.CUSTOM, interactions).query_plan
        requested = -1
        for index in (0, 3, 3, 1, 8):
            plan[index]
            requested = max(requested, index)
            assert max(interactions.read) == requested
        assert interactions.read == list(range(9))  # each index read once

    @pytest.mark.parametrize("workflow_type", GENERATED_TYPES)
    def test_generated_prefix(self, generators, workflow_type):
        workflow = generators[5].generate(workflow_type, 2)
        budget = workflow.num_interactions
        for k in (0, budget // 2, budget - 1):
            workflow.query_plan[k]
            built = len(workflow.interactions._walk.interactions)
            # One sampled action may emit two interactions (create + link).
            assert k + 1 <= built <= min(k + 2, budget)
            assert len(workflow.query_plan._steps) == k + 1


def _engine(name, dataset, settings, speculation=False):
    engine = make_engine(name, dataset, settings, VirtualClock(), speculation)
    engine.prepare()
    return engine


def _csv(records):
    buffer = io.StringIO()
    DetailedReport(records).to_csv(buffer)
    return buffer.getvalue()


def _spied(engine):
    """``engine`` recording the queries of every link_vizs call."""
    calls = []
    link = engine.link_vizs
    engine.link_vizs = lambda queries: (calls.append(list(queries)), link(queries))
    return calls


def _session(engine, oracle, settings, workflow, scripted):
    if scripted:
        return SessionDriver(engine, oracle, settings, [workflow])
    return SessionDriver(
        engine, oracle, settings, [], policy=ReplayPolicy([workflow])
    )


class TestInvalidInteraction:
    """A broken workflow fails at the step it failed at with a live graph,
    on every run of the same workflow object."""

    def _failure(self, dataset, oracle, settings, workflow, scripted):
        driver = _session(
            _engine("monetdb-sim", dataset, settings), oracle, settings, workflow,
            scripted,
        )
        with pytest.raises(WorkflowError) as caught:
            driver.run()
        fired = sum(driver.interaction_counts.values())
        return str(caught.value), driver.steps, fired, _csv(driver.records)

    @pytest.mark.parametrize(
        "workflow",
        [
            _custom(
                CreateViz(_viz("a")),
                CreateViz(_viz("b", "ARR_DELAY")),
                Link("a", "b"),
                Link("b", "a"),
                name="cycle",
            ),
            # The bad selection key surfaces only once a link reads it,
            # after the link was added: the plan must roll the link back.
            _custom(
                CreateViz(_viz("a")),
                CreateViz(_viz("b", "ARR_DELAY")),
                SelectBins("a", ((1, 2),)),
                Link("a", "b"),
                name="bad_key",
            ),
        ],
        ids=["cycle", "bad_key"],
    )
    def test_same_error_at_the_same_step(
        self, workflow, flights_dataset, flights_oracle, tiny_settings
    ):
        args = (flights_dataset, flights_oracle, tiny_settings, workflow)
        live = self._failure(*args, scripted=False)
        assert self._failure(*args, scripted=True) == live
        assert self._failure(*args, scripted=True) == live
        assert "cycle" in live[0] or "does not match binning" in live[0]
        assert live[2] == 4


def _expected_hints(workflow, oracle):
    """Per link, the speculative queries the driver built off its live
    graph before the plan existed."""
    graph = VizGraph()
    hints = []
    for interaction in workflow.interactions:
        graph.apply(interaction)
        if not isinstance(interaction, Link):
            continue
        source_result = oracle.answer(graph.query_for(interaction.source))
        source = graph.node(interaction.source).spec
        target = graph.node(interaction.target)
        upstream = graph.effective_filter(interaction.source)
        queries = []
        for key in source_result.columns.keys[:MAX_SPECULATIVE_PER_LINK]:
            selection = VizNode(spec=source, selection=(key,)).selection_filter()
            effective = conjoin([target.own_filter, selection, upstream])
            queries.append(target.spec.base_query(effective))
        hints.append(queries)
    return hints


class TestSpeculatingRun:
    @pytest.mark.parametrize("index", [0, 1, 2, "non_leaf_discard"])
    def test_records_and_hints_equal_a_live_graph(
        self, index, generators, flights_dataset, flights_oracle, tiny_settings
    ):
        if index == "non_leaf_discard":
            workflow = _non_leaf_discard()
        else:
            workflow = generators[5].generate(WorkflowType.MIXED, index)
        runs = []
        for scripted in (False, True, True):
            engine = _engine("idea-sim", flights_dataset, tiny_settings, True)
            calls = _spied(engine)
            records = _session(
                engine, flights_oracle, tiny_settings, workflow, scripted
            ).run()
            runs.append((_csv(records), calls))
        expected = _expected_hints(workflow, flights_oracle)
        assert expected and runs[0][1] == expected
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestPlanStaysOutOfEveryByte:
    def _bytes(self, workflow):
        return pickle.dumps(workflow), workflow.to_dict()

    @pytest.mark.parametrize("kind", ["generated", "loaded"])
    def test_workflow_before_and_after_runs(
        self, kind, generators, flights_dataset, flights_oracle, tiny_settings
    ):
        workflow = generators[6].generate(WorkflowType.MIXED, 2)
        if kind == "loaded":
            workflow = Workflow.from_dict(workflow.to_dict())
        twin = Workflow.from_dict(workflow.to_dict())
        before = self._bytes(workflow)
        for name in ("monetdb-sim", "idea-sim"):
            SessionDriver(
                _engine(name, flights_dataset, tiny_settings),
                flights_oracle,
                tiny_settings,
                [workflow],
            ).run()
        assert "query_plan" in workflow.__dict__
        assert self._bytes(workflow) == before
        assert workflow == twin
        assert "query_plan" not in pickle.loads(before[0]).__dict__

    def test_query_pickle_ignores_the_descriptor_memos(self, delay_avg_query):
        fresh = AggQuery.from_dict(delay_avg_query.to_dict())
        cold = pickle.dumps(fresh)
        memos = (
            fresh.digest, fresh.binning_types, fresh.agg_type,
            fresh.referenced_columns(),
        )
        assert set(AggQuery._MEMOS) <= set(fresh.__dict__)
        assert pickle.dumps(fresh) == cold
        assert pickle.dumps(AggQuery.from_dict(fresh.to_dict())) == cold
        copy = pickle.loads(cold)
        assert copy == fresh and not set(AggQuery._MEMOS) & set(copy.__dict__)
        assert memos == (
            copy.digest, copy.binning_types, copy.agg_type,
            copy.referenced_columns(),
        )

    def test_departed_sessions_derive_only_what_they_fired(self, server_ctx):
        arrivals = ArrivalProcess(
            0.5, 30.0, seed=server_ctx.settings.seed, mean_residence=6.0
        )
        results = SessionManager.for_engine(
            server_ctx, "idea-sim", arrivals, per_session=1
        ).run()
        departed = 0
        for result in results:
            (workflow,) = result.spec.workflows
            fired = sum(result.interaction_counts.values())
            plan = workflow.__dict__.get("query_plan")
            assert len(plan._steps if plan else ()) == fired
            built = len(workflow.interactions._walk.interactions)
            # One sampled action may emit two interactions (create + link).
            assert fired <= built <= min(fired + 2, workflow.num_interactions)
            departed += fired < workflow.num_interactions
        assert departed > 0
