"""Seeded round-trip fuzzer for the workflow file format.

Random :class:`Workflow` objects, built with stdlib :mod:`random` under
fixed seeds, go through ``to_dict`` → ``from_dict`` (and through JSON
text), which must be the identity: the dict form is the benchmark's
on-disk workload format. ~200 cases; the seeds are fixed so failures
reproduce exactly.
"""

import random

from repro.query.filters import (
    And,
    Comparison,
    Filter,
    Or,
    RangePredicate,
    SetPredicate,
)
from repro.query.model import AggFunc, Aggregate, BinDimension, BinKind
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

N_CASES = 200

#: Identifier pool.
COLUMNS = [f"C_{i}" for i in range(12)]
CATEGORIES = ["AA", "B B", "c'c", "Delta_4", "e", "F-6"]


# ----------------------------------------------------------------------
# Random builders (stdlib random only — reproducible under a fixed seed)
# ----------------------------------------------------------------------

def _number(rng: random.Random) -> float:
    if rng.random() < 0.4:
        return float(rng.randint(-1000, 1000))
    return rng.uniform(-1e4, 1e4)


def _positive(rng: random.Random) -> float:
    return abs(_number(rng)) + 0.5


def _predicate(rng: random.Random) -> Filter:
    kind = rng.randrange(3)
    field = rng.choice(COLUMNS)
    if kind == 0:
        low = _number(rng)
        if rng.random() < 0.2:
            return RangePredicate(field, low, None)
        if rng.random() < 0.2:
            return RangePredicate(field, None, low)
        return RangePredicate(field, low, low + _positive(rng))
    if kind == 1:
        values = frozenset(
            rng.sample(CATEGORIES, rng.randint(1, len(CATEGORIES)))
        )
        return SetPredicate(field, values)
    if rng.random() < 0.3:
        # String comparisons are only defined for equality operators.
        return Comparison(field, rng.choice(["=", "!="]), rng.choice(CATEGORIES))
    op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
    return Comparison(field, op, _number(rng))


def _filter(rng: random.Random, depth: int = 0) -> Filter:
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return _predicate(rng)
    children = [_filter(rng, depth + 1) for _ in range(rng.randint(2, 3))]
    return And(*children) if roll < 0.75 else Or(*children)


def _bin_dimension(rng: random.Random, field: str) -> BinDimension:
    if rng.random() < 0.3:
        return BinDimension(field, BinKind.NOMINAL)
    return BinDimension(
        field,
        BinKind.QUANTITATIVE,
        width=_positive(rng),
        reference=_number(rng),
    )


def _aggregates(rng: random.Random):
    pool = []
    for func in AggFunc:
        if func is AggFunc.COUNT:
            pool.append(Aggregate(func))
        else:
            for field in rng.sample(COLUMNS, 2):
                pool.append(Aggregate(func, field))
    count = rng.randint(1, 3)
    chosen = rng.sample(pool, count)
    # Distinct labels are required (SELECT ... AS <label> must be unique).
    labels = [agg.label for agg in chosen]
    assert len(set(labels)) == len(labels)
    return tuple(chosen)


def _workflow(rng: random.Random, index: int) -> Workflow:
    interactions = []
    created = []
    for step in range(rng.randint(1, 10)):
        roll = rng.random()
        if not created or roll < 0.35:
            name = f"viz_{len(created)}"
            spec = VizSpec(
                name=name,
                source="flights",
                bins=tuple(
                    _bin_dimension(rng, field)
                    for field in rng.sample(COLUMNS, rng.randint(1, 2))
                ),
                aggregates=_aggregates(rng),
            )
            interactions.append(CreateViz(spec))
            created.append(name)
        elif roll < 0.55:
            target = rng.choice(created)
            filter_expr = _filter(rng) if rng.random() < 0.8 else None
            interactions.append(SetFilter(target, filter_expr))
        elif roll < 0.75 and len(created) >= 2:
            source, target = rng.sample(created, 2)
            interactions.append(Link(source, target))
        elif roll < 0.9:
            target = rng.choice(created)
            keys = tuple(
                tuple(
                    rng.randint(-5, 20)
                    if rng.random() < 0.6
                    else rng.choice(CATEGORIES)
                    for _ in range(rng.randint(1, 2))
                )
                for _ in range(rng.randint(0, 3))
            )
            interactions.append(SelectBins(target, keys))
        else:
            interactions.append(DiscardViz(rng.choice(created)))
    workflow_type = rng.choice(list(WorkflowType))
    return Workflow(
        name=f"fuzz_{index}",
        workflow_type=workflow_type,
        interactions=tuple(interactions),
    )


# ----------------------------------------------------------------------
# The fuzzer
# ----------------------------------------------------------------------

class TestWorkflowSpecRoundTrip:
    def test_to_dict_from_dict_identity(self):
        rng = random.Random(0xFACADE)
        for case in range(N_CASES):
            workflow = _workflow(rng, case)
            data = workflow.to_dict()
            rebuilt = Workflow.from_dict(data)
            assert rebuilt.to_dict() == data, f"case {case}"
            assert rebuilt == workflow, f"case {case}"

    def test_json_text_round_trip(self, tmp_path):
        rng = random.Random(7)
        for case in range(20):
            workflow = _workflow(rng, case)
            path = tmp_path / f"wf_{case}.json"
            workflow.to_json(path)
            assert Workflow.from_json(path) == workflow, f"case {case}"
