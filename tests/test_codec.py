"""The shared dict codec (``repro.common.codec``): one fuzz over every
serialized class.

Each class's seed instance must survive encode → decode → encode as a
fixpoint (compared as JSON bytes, so NaN counts as equal to itself).
Every mutation of a valid dict — a dropped key, a value swapped for
another JSON type, a value wrapped in a list, garbage nested in its
place — must either decode to a value that is itself a fixpoint or
raise the owning class's typed error: never ``KeyError``,
``TypeError``, ``AttributeError`` or ``ValueError``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.analysis.findings import Finding
from repro.bench.driver import QueryRecord
from repro.bench.metrics import QueryMetrics
from repro.common import codec
from repro.common.config import BenchmarkSettings, DataSize
from repro.common.errors import ConfigurationError, ProtocolError, WorkflowError
from repro.data.normalize import DimensionSpec
from repro.net import protocol as p
from repro.query.filters import And, Comparison, Filter, Or, RangePredicate, SetPredicate
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind
from repro.runtime.spec import RunSpec, ServingSelector, WorkflowSelector
from repro.workflow.generator import WorkloadConfig
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

NOMINAL = BinDimension("CARRIER", BinKind.NOMINAL)
WIDTH = BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=10.0, reference=-5.0)
COUNTED = BinDimension("DISTANCE", BinKind.QUANTITATIVE, bin_count=25)
COUNT = Aggregate(AggFunc.COUNT)
AVG = Aggregate(AggFunc.AVG, "ARR_DELAY")
RANGE = RangePredicate("DEP_DELAY", None, 30.5)
IN = SetPredicate("CARRIER", frozenset({"UA", "AA"}))
CMP = Comparison("ORIGIN", "!=", "JFK")
NESTED = And(RANGE, Or(IN, CMP), Comparison("DISTANCE", ">=", 250))
VIZ = VizSpec("viz_0", "flights", (WIDTH, NOMINAL), (COUNT, AVG))
RECORD = QueryRecord(
    query_id=3, interaction_id=2, viz_name="viz_0", driver="idea-sim",
    data_size="S", think_time=1.0, time_requirement=0.5, workflow="mixed_0",
    workflow_type="mixed", start_time=1.25, end_time=1.75,
    metrics=QueryMetrics.violated(12), bin_dims=2,
    binning_type="quantitative nominal", agg_type="count avg",
    rows_processed=0, fraction=0.0, num_concurrent=1,
    qualifying_fraction=math.nan,
)
SETTINGS = BenchmarkSettings(data_size=DataSize.S, scale=50_000, seed=5)

#: One instance of every serialized class; messages decode through the
#: frame decoder, everything else through its own ``from_dict``.
SEEDS = {
    "range": RANGE,
    "in": IN,
    "cmp": CMP,
    "and_or": NESTED,
    "or": Or(RANGE, CMP),
    "bin_width": WIDTH,
    "bin_count": COUNTED,
    "aggregate": AVG,
    "query": AggQuery("flights", (WIDTH, NOMINAL), (COUNT, AVG), NESTED),
    "viz": VIZ,
    "create_viz": CreateViz(VIZ),
    "set_filter": SetFilter("viz_0", RANGE),
    "link": Link("viz_0", "viz_1"),
    "select_bins": SelectBins("viz_0", ((3, "UA"), (-1, "AA"))),
    "discard_viz": DiscardViz("viz_1"),
    "workflow": Workflow("w", WorkflowType.CUSTOM, (
        CreateViz(VIZ), SetFilter("viz_0", NESTED), DiscardViz("viz_0"),
    )),
    "workload_config": WorkloadConfig(),
    "settings": SETTINGS,
    "dimension_spec": DimensionSpec("airports", "ORIGIN_KEY", (("ORIGIN", "code"),)),
    "finding": Finding("src/repro/cli.py", 3, 7, "DET003", "unordered", "x = {}"),
    "selector": WorkflowSelector(count=2, stop=1),
    "serving": ServingSelector(40, churn="open", arrival_rate=0.5, horizon=60.0,
                               residence=20.0, arrival_schedule="diurnal"),
    "run_spec": RunSpec("idea-sim", SETTINGS, mode="serve", serving=ServingSelector(3)),
    "hello": p.Hello(role="server", engine="idea-sim", capabilities=("shared-engine",),
                     run="r1", host="h"),
    "attach": p.Attach(session_index=3, per_session=2, policy="markov", accel=2.5),
    "submit_viz": p.SubmitViz(VIZ),
    "interact": p.Interact(SetFilter("viz_0", NESTED)),
    "record": p.Record("session-3", 7, RECORD),
    "progress": p.Progress("session-3", "workflow", {"workflow": 1}),
    "barrier": p.Barrier(4),
    "turn_grant": p.TurnGrant("session-3", 5, 12.5),
    "turn_done": p.TurnDone(5, "session-3"),
    "detach": p.Detach("session-3", 11, 40.25),
    "stats_request": p.StatsRequest(),
    "stats": p.Stats({"metrics": {"a": 1}}, sessions_served=2),
    "stats_subscribe": p.StatsSubscribe(),
    "stats_push": p.StatsPush(3, {"t0": 0.0}, ({"rule": "records>2"},), final=True),
    "stats_unsubscribe": p.StatsUnsubscribe(),
    "error": p.version_error(1),
}


def _decoder(value):
    """The boundary a dict form of ``value`` is read through, and the
    typed error it raises."""
    if isinstance(value, p.Message):
        return p.decode_message, ProtocolError
    for base in (Filter, Interaction):  # unions read any member by tag
        if isinstance(value, base):
            return base.from_dict, base._codec_error
    return type(value).from_dict, type(value)._codec_error


def _bytes(data) -> bytes:
    return json.dumps(data, sort_keys=True, allow_nan=True).encode("utf-8")


def _concrete_codables():
    pending, found = [codec.Codable], set()
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            public = cls.__module__.startswith("repro.") and cls.__name__[0] != "_"
            if public and (dataclasses.is_dataclass(cls) or cls in (And, Or)):
                found.add(cls)
    return found


def test_every_serialized_class_has_a_seed():
    missing = _concrete_codables() - {type(value) for value in SEEDS.values()}
    assert not missing, sorted(cls.__name__ for cls in missing)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_encode_decode_encode_is_a_fixpoint(name):
    value = SEEDS[name]
    decode, _ = _decoder(value)
    data = json.loads(_bytes(value.to_dict()))
    rebuilt = decode(data)
    assert _bytes(rebuilt.to_dict()) == _bytes(value.to_dict())
    if name != "record":  # NaN != NaN inside the record
        assert rebuilt == value


def _paths(value, prefix=()):
    """Every position in a JSON value: dict keys and list indexes."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield prefix + (key,)
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield prefix + (index,)
            yield from _paths(item, prefix + (index,))


#: Replacement values: one of every JSON type, plus edge numbers.
SWAPS = [None, True, 0, -1, 2.5, math.nan, "x", "", [], {}, [1, "a"], {"k": [None]}]


def _mutate(data, path, how, swap):
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if how == "drop":
        del parent[last]
    elif how == "swap":
        parent[last] = swap
    elif how == "wrap":
        parent[last] = [parent[last]]
    else:  # nest garbage where the value was
        parent[last] = {"garbage": [swap, {"deeper": swap}]}


@hyp_settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_every_mutation_decodes_or_raises_the_owner_error(data):
    name = data.draw(st.sampled_from(sorted(SEEDS)))
    value = SEEDS[name]
    decode, error = _decoder(value)
    encoded = json.loads(_bytes(value.to_dict()))
    path = data.draw(st.sampled_from(list(_paths(encoded))))
    how = data.draw(st.sampled_from(["drop", "swap", "wrap", "garbage"]))
    swap = data.draw(st.sampled_from(SWAPS))
    if how == "drop" and isinstance(path[-1], int):
        how = "swap"  # a list item has no key to drop
    _mutate(encoded, path, how, swap)
    try:
        rebuilt = decode(encoded)
    except error:
        return
    again = json.loads(_bytes(rebuilt.to_dict()))
    assert _bytes(decode(again).to_dict()) == _bytes(again)


def test_errors_name_the_field_path():
    data = SEEDS["workflow"].to_dict()
    data["interactions"][1]["filter"]["children"][1]["children"][0]["values"] = [3]
    with pytest.raises(
        WorkflowError,
        match=r"^malformed Workflow: interactions\[1\]\.filter\.children\[1\]"
              r"\.children\[0\]\.values\[0\]: expected str, got int$",
    ):
        Workflow.from_dict(data)


def test_strict_classes_reject_unknown_keys_and_wire_messages_ignore_them():
    with pytest.raises(ConfigurationError, match=r"unknown keys \['bogus'\]"):
        BenchmarkSettings.from_dict({"bogus": 1})
    with pytest.raises(WorkflowError, match=r"unknown keys \['bogus'\]"):
        WorkloadConfig.from_dict({"bogus": 1})
    body = {**p.Barrier(2).to_dict(), "bogus": 1}
    assert p.decode_message(body) == p.Barrier(2)


def test_float_fields_keep_ints_as_written():
    # A fingerprint digests what was written: 1 and 1.0 must not merge.
    settings = BenchmarkSettings.from_dict({"time_requirement": 1})
    assert type(settings.time_requirement) is int
    assert settings.to_dict()["time_requirement"] == 1
