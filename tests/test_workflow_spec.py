"""Tests for workflow/interaction JSON specifications."""

import json

import pytest

from repro.common.errors import WorkflowError
from repro.query.filters import RangePredicate
from repro.query.model import AggFunc, Aggregate, BinDimension, BinKind
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
    load_suite,
    save_suite,
)


@pytest.fixture
def viz():
    return VizSpec(
        name="v0",
        source="flights",
        bins=(BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=10.0),),
        aggregates=(Aggregate(AggFunc.COUNT),),
    )


@pytest.fixture
def workflow(viz):
    return Workflow(
        name="wf",
        workflow_type=WorkflowType.CUSTOM,
        interactions=(
            CreateViz(viz),
            SetFilter("v0", RangePredicate("DISTANCE", 0, 100)),
            SetFilter("v0", None),
            SelectBins("v0", ((3,), (4,))),
            DiscardViz("v0"),
        ),
    )


class TestVizSpec:
    def test_base_query(self, viz):
        query = viz.base_query(RangePredicate("DISTANCE", 0, 10))
        assert query.table == "flights"
        assert query.filter == RangePredicate("DISTANCE", 0, 10)
        assert query.bins == viz.bins

    def test_validation(self):
        with pytest.raises(WorkflowError):
            VizSpec("", "t", (BinDimension("c", BinKind.NOMINAL),),
                    (Aggregate(AggFunc.COUNT),))
        with pytest.raises(WorkflowError):
            VizSpec("v", "t", (), (Aggregate(AggFunc.COUNT),))
        with pytest.raises(WorkflowError):
            VizSpec("v", "t", (BinDimension("c", BinKind.NOMINAL),), ())

    def test_dict_round_trip(self, viz):
        assert VizSpec.from_dict(viz.to_dict()) == viz


class TestInteractionSerialization:
    def test_round_trip_each_kind(self, workflow):
        for interaction in workflow.interactions:
            payload = json.loads(json.dumps(interaction.to_dict()))
            assert Interaction.from_dict(payload) == interaction

    def test_link_round_trip(self):
        link = Link("a", "b")
        assert Interaction.from_dict(link.to_dict()) == link

    def test_selection_keys_preserve_types(self):
        select = SelectBins("v", ((3, "CA"), (-2, "NY")))
        parsed = Interaction.from_dict(json.loads(json.dumps(select.to_dict())))
        assert parsed.keys == ((3, "CA"), (-2, "NY"))
        assert isinstance(parsed.keys[0][0], int)
        assert isinstance(parsed.keys[0][1], str)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkflowError):
            Interaction.from_dict({"type": "teleport"})


class TestWorkflow:
    def test_validation(self):
        with pytest.raises(WorkflowError):
            Workflow("", WorkflowType.MIXED, (DiscardViz("x"),))
        with pytest.raises(WorkflowError):
            Workflow("w", WorkflowType.MIXED, ())

    def test_json_file_round_trip(self, workflow, tmp_path):
        path = tmp_path / "wf.json"
        workflow.to_json(path)
        assert Workflow.from_json(path) == workflow

    def test_suite_save_load(self, workflow, tmp_path):
        other = Workflow("wf2", workflow.workflow_type, workflow.interactions)
        paths = save_suite([workflow, other], tmp_path / "suite")
        assert len(paths) == 2
        loaded = load_suite(tmp_path / "suite")
        assert loaded == [workflow, other]

    def test_load_suite_needs_a_directory_of_workflows(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_suite(tmp_path / "missing")
        with pytest.raises(WorkflowError, match="no workflow"):
            load_suite(tmp_path)
