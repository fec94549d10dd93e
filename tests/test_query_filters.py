"""Tests for predicate trees and their vectorized evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.common.errors import QueryError
from repro.query.filters import (
    And,
    Comparison,
    Or,
    RangePredicate,
    SetPredicate,
    conjoin,
    evaluate_filter,
    filter_from_dict,
)


@pytest.fixture
def columns():
    data = {
        "v": np.array([0.0, 5.0, 10.0, 15.0, 20.0]),
        "w": np.array([1, 1, 2, 2, 3], dtype=np.int64),
        "c": np.array(["a", "b", "a", "c", "b"]),
    }
    return data.__getitem__


class TestRangePredicate:
    def test_half_open_semantics(self, columns):
        mask = RangePredicate("v", 5.0, 15.0).evaluate(columns)
        assert list(mask) == [False, True, True, False, False]

    def test_unbounded_low(self, columns):
        mask = RangePredicate("v", None, 10.0).evaluate(columns)
        assert list(mask) == [True, True, False, False, False]

    def test_unbounded_high(self, columns):
        mask = RangePredicate("v", 10.0, None).evaluate(columns)
        assert list(mask) == [False, False, True, True, True]

    def test_rejects_no_bounds(self):
        with pytest.raises(QueryError):
            RangePredicate("v", None, None)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(QueryError):
            RangePredicate("v", 10.0, 5.0)

    @pytest.mark.parametrize("low,high", [
        (float("nan"), 5.0), (0.0, float("nan")), (float("-inf"), 5.0), (0.0, float("inf")),
    ])
    def test_rejects_non_finite_bounds(self, low, high):
        with pytest.raises(QueryError, match="non-finite"):
            RangePredicate("v", low, high)

    def test_rejects_string_column(self, columns):
        with pytest.raises(QueryError):
            RangePredicate("c", 0.0, 1.0).evaluate(columns)

    def test_fields(self):
        assert RangePredicate("v", 0, 1).fields() == ("v",)


class TestSetPredicate:
    def test_membership(self, columns):
        mask = SetPredicate("c", frozenset(["a", "c"])).evaluate(columns)
        assert list(mask) == [True, False, True, True, False]

    def test_rejects_empty_set(self):
        with pytest.raises(QueryError):
            SetPredicate("c", frozenset())

    def test_works_on_numeric_column_as_strings(self, columns):
        mask = SetPredicate("w", frozenset(["1"])).evaluate(columns)
        assert list(mask) == [True, True, False, False, False]


class TestComparison:
    @pytest.mark.parametrize("op,expected", [
        ("<", [True, False, False, False, False]),
        ("<=", [True, True, False, False, False]),
        (">", [False, False, True, True, True]),
        (">=", [False, True, True, True, True]),
        ("=", [False, True, False, False, False]),
        ("!=", [True, False, True, True, True]),
    ])
    def test_numeric_operators(self, columns, op, expected):
        mask = Comparison("v", op, 5.0).evaluate(columns)
        assert list(mask) == expected

    def test_string_equality(self, columns):
        mask = Comparison("c", "=", "a").evaluate(columns)
        assert list(mask) == [True, False, True, False, False]

    def test_rejects_unknown_operator(self):
        with pytest.raises(QueryError):
            Comparison("v", "<>", 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64("-inf")])
    def test_rejects_non_finite_value(self, value):
        with pytest.raises(QueryError, match="non-finite"):
            Comparison("v", "=", value)

    def test_rejects_ordering_on_string_value(self):
        with pytest.raises(QueryError):
            Comparison("v", "<", "abc")

    def test_rejects_numeric_comparison_on_string_column(self, columns):
        with pytest.raises(QueryError):
            Comparison("c", "<", 5.0).evaluate(columns)


class TestCombinators:
    def test_and_intersects(self, columns):
        expr = And(RangePredicate("v", 5.0, None), Comparison("w", "=", 2))
        assert list(expr.evaluate(columns)) == [False, False, True, True, False]

    def test_or_unions(self, columns):
        expr = Or(Comparison("c", "=", "c"), Comparison("w", "=", 1))
        assert list(expr.evaluate(columns)) == [True, True, False, True, False]

    def test_nested_combinators_flatten(self):
        inner = And(Comparison("v", ">", 0), Comparison("v", "<", 10))
        outer = And(inner, Comparison("w", "=", 1))
        assert len(outer.children) == 3

    def test_flattening_preserves_semantics(self, columns):
        nested = And(And(Comparison("v", ">", 0), Comparison("v", "<", 12)),
                     Comparison("w", "!=", 3))
        flat = And(Comparison("v", ">", 0), Comparison("v", "<", 12),
                   Comparison("w", "!=", 3))
        assert np.array_equal(nested.evaluate(columns), flat.evaluate(columns))
        assert nested == flat

    def test_rejects_empty(self):
        with pytest.raises(QueryError):
            And()

    def test_rejects_non_filter_children(self):
        with pytest.raises(QueryError):
            And("not a filter")

    def test_fields_deduplicated_in_order(self):
        expr = And(Comparison("b", "=", 1), Comparison("a", "=", 1),
                   Comparison("b", "!=", 2))
        assert expr.fields() == ("b", "a")

    def test_equality_and_hash(self):
        a = And(Comparison("v", "=", 1), Comparison("w", "=", 2))
        b = And(Comparison("v", "=", 1), Comparison("w", "=", 2))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Or(Comparison("v", "=", 1), Comparison("w", "=", 2))


class TestEvaluateFilter:
    def test_none_selects_all(self, columns):
        mask = evaluate_filter(None, columns, 5)
        assert mask.all() and len(mask) == 5

    def test_checks_mask_shape(self, columns):
        with pytest.raises(QueryError):
            evaluate_filter(Comparison("v", "=", 1.0), columns, 99)


class TestSerialization:
    @pytest.mark.parametrize("expr", [
        RangePredicate("v", 1.0, 2.0),
        RangePredicate("v", None, 2.0),
        SetPredicate("c", frozenset(["x", "y"])),
        Comparison("v", ">=", 5.0),
        Comparison("c", "=", "hello"),
        And(RangePredicate("v", 0, 1), SetPredicate("c", frozenset(["a"]))),
        Or(Comparison("v", "<", 0), And(Comparison("w", "=", 1),
                                        Comparison("c", "!=", "b"))),
    ])
    def test_dict_round_trip(self, expr):
        assert filter_from_dict(expr.to_dict()) == expr

    def test_from_dict_none(self):
        assert filter_from_dict(None) is None

    def test_from_dict_rejects_unknown_type(self):
        with pytest.raises(QueryError):
            filter_from_dict({"type": "xor"})


class TestConjoin:
    def test_empty_gives_none(self):
        assert conjoin([None, None]) is None

    def test_single_passes_through(self):
        expr = Comparison("v", "=", 1)
        assert conjoin([None, expr]) is expr

    def test_multiple_become_and(self):
        a, b = Comparison("v", "=", 1), Comparison("w", "=", 2)
        combined = conjoin([a, None, b])
        assert isinstance(combined, And)
        assert combined.children == (a, b)


@hyp_settings(max_examples=50, deadline=None)
@given(
    low=st.floats(-100, 100),
    width=st.floats(0.1, 50),
    values=st.lists(st.floats(-200, 200), min_size=1, max_size=50),
)
def test_range_mask_matches_pointwise(low, width, values):
    """Property: vectorized evaluation equals the pointwise definition."""
    array = np.array(values)
    predicate = RangePredicate("v", low, low + width)
    mask = predicate.evaluate(lambda _name: array)
    expected = [(low <= v < low + width) for v in values]
    assert list(mask) == expected


@hyp_settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(0, 5), min_size=1, max_size=60))
def test_and_or_de_morgan_bounds(values):
    """Property: |A ∧ B| <= min(|A|, |B|) and |A ∨ B| >= max(|A|, |B|)."""
    array = np.array(values, dtype=np.int64)
    get = lambda _name: array
    a = Comparison("v", "<", 3)
    b = Comparison("v", ">", 1)
    both = And(a, b).evaluate(get).sum()
    either = Or(a, b).evaluate(get).sum()
    assert both <= min(a.evaluate(get).sum(), b.evaluate(get).sum())
    assert either >= max(a.evaluate(get).sum(), b.evaluate(get).sum())
    assert both + either == a.evaluate(get).sum() + b.evaluate(get).sum()
