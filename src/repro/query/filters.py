"""Predicate trees and vectorized filter evaluation.

Filters originate from two user actions (§2.2): explicitly added filter
widgets (range sliders on quantitative columns, category pickers on nominal
ones) and *selections* on linked visualizations, which the driver converts
to predicates over the selected bins (see
:meth:`repro.workflow.graph.VizGraph.effective_filter`).

The tree grammar is small on purpose — conjunctions/disjunctions over
range, set and comparison leaves — because that is exactly what the visual
frontends of Fig. 1 can express. Each node serializes to/from JSON (the
workflow file format) and evaluates to a boolean numpy mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import QueryError

#: A function resolving a logical column name to its value array.
ColumnGetter = Callable[[str], np.ndarray]
#: A function resolving a logical column name to its dictionary encoding
#: ``(sorted string categories, per-row codes)`` — see
#: :meth:`repro.data.storage.Dataset.encoded_column`.
EncodingGetter = Callable[[str], Tuple[np.ndarray, np.ndarray]]


class Filter:
    """Base class for all predicate nodes."""

    def evaluate(
        self,
        get_column: ColumnGetter,
        get_encoding: Optional[EncodingGetter] = None,
    ) -> np.ndarray:
        """Return a boolean mask of the rows satisfying this predicate.

        With ``get_encoding``, predicates over string values are decided
        once per category and gathered through the codes instead of
        stringifying the whole column; the mask is the same either way.
        """
        raise NotImplementedError

    def fields(self) -> Tuple[str, ...]:
        """All column names referenced (used for cost models and joins)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-compatible representation (inverse of :func:`filter_from_dict`)."""
        raise NotImplementedError


@dataclass(frozen=True)
class RangePredicate(Filter):
    """``low <= column < high`` — the predicate a quantitative bin or range
    slider produces. Either bound may be None (unbounded)."""

    field: str
    low: Union[float, None]
    high: Union[float, None]

    def __post_init__(self):
        if self.low is None and self.high is None:
            raise QueryError(f"range predicate on {self.field!r} needs a bound")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise QueryError(
                f"range predicate on {self.field!r} has low {self.low} > high {self.high}"
            )

    def evaluate(
        self,
        get_column: ColumnGetter,
        get_encoding: Optional[EncodingGetter] = None,
    ) -> np.ndarray:
        values = get_column(self.field)
        if values.dtype.kind not in ("i", "f"):
            raise QueryError(
                f"range predicate on non-numeric column {self.field!r}"
            )
        mask = np.ones(len(values), dtype=bool)
        if self.low is not None:
            mask &= values >= self.low
        if self.high is not None:
            mask &= values < self.high
        return mask

    def fields(self) -> Tuple[str, ...]:
        return (self.field,)

    def to_dict(self) -> dict:
        return {"type": "range", "field": self.field, "low": self.low, "high": self.high}


@dataclass(frozen=True)
class SetPredicate(Filter):
    """``column IN {values}`` — what a nominal category picker produces."""

    field: str
    values: FrozenSet[str]

    def __post_init__(self):
        if not self.values:
            raise QueryError(f"set predicate on {self.field!r} needs values")

    def evaluate(
        self,
        get_column: ColumnGetter,
        get_encoding: Optional[EncodingGetter] = None,
    ) -> np.ndarray:
        wanted = sorted(self.values)
        if get_encoding is not None:
            categories, codes = get_encoding(self.field)
            return np.isin(categories, wanted)[codes]
        return np.isin(get_column(self.field).astype(str), wanted)

    def fields(self) -> Tuple[str, ...]:
        return (self.field,)

    def __repr__(self) -> str:
        # The default dataclass repr would print the frozenset in hash
        # order, which varies per process (PYTHONHASHSEED) — and engines
        # derive rotation seeds from str(query), so the repr must be
        # canonical for runs to be reproducible across processes.
        return f"SetPredicate(field={self.field!r}, values={sorted(self.values)!r})"

    def to_dict(self) -> dict:
        return {"type": "in", "field": self.field, "values": sorted(self.values)}


_COMPARISON_OPS: Dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "<": lambda col, v: col < v,
    "<=": lambda col, v: col <= v,
    ">": lambda col, v: col > v,
    ">=": lambda col, v: col >= v,
    "=": lambda col, v: col == v,
    "!=": lambda col, v: col != v,
}


@dataclass(frozen=True)
class Comparison(Filter):
    """A single comparison ``column OP value``.

    ``value`` may be numeric or a string; ``=``/``!=`` work on both kinds,
    the ordering operators require a numeric column.
    """

    field: str
    op: str
    value: Union[float, str]

    def __post_init__(self):
        if self.op not in _COMPARISON_OPS:
            raise QueryError(
                f"unknown comparison operator {self.op!r}; "
                f"expected one of {sorted(_COMPARISON_OPS)}"
            )
        if self.op not in ("=", "!=") and isinstance(self.value, str):
            raise QueryError(
                f"operator {self.op!r} requires a numeric value, got {self.value!r}"
            )

    def evaluate(
        self,
        get_column: ColumnGetter,
        get_encoding: Optional[EncodingGetter] = None,
    ) -> np.ndarray:
        compare = _COMPARISON_OPS[self.op]
        value = self.value
        if isinstance(value, str):
            if get_encoding is not None:
                categories, codes = get_encoding(self.field)
                return compare(categories, value)[codes]
            return compare(get_column(self.field).astype(str), value)
        column = get_column(self.field)
        if column.dtype.kind not in ("i", "f"):
            raise QueryError(
                f"numeric comparison on non-numeric column {self.field!r}"
            )
        return compare(column, value)

    def fields(self) -> Tuple[str, ...]:
        return (self.field,)

    def to_dict(self) -> dict:
        return {"type": "cmp", "field": self.field, "op": self.op, "value": self.value}


class _Combinator(Filter):
    """Shared machinery of :class:`And` / :class:`Or`."""

    _children: Tuple[Filter, ...]

    def __init__(self, *children: Filter):
        flattened: List[Filter] = []
        for child in children:
            if not isinstance(child, Filter):
                raise QueryError(f"expected Filter, got {type(child).__name__}")
            # Flatten nested combinators of the same type for canonical form.
            if type(child) is type(self):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        if not flattened:
            raise QueryError(f"{type(self).__name__} needs at least one child")
        self._children = tuple(flattened)

    @property
    def children(self) -> Tuple[Filter, ...]:
        return self._children

    def fields(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for child in self._children:
            for field in child.fields():
                if field not in seen:
                    seen.append(field)
        return tuple(seen)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._children == other._children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._children))

    def __repr__(self) -> str:
        inner = ", ".join(repr(child) for child in self._children)
        return f"{type(self).__name__}({inner})"


class And(_Combinator):
    """Conjunction of predicates (the dominant form: incremental filtering)."""

    def evaluate(
        self,
        get_column: ColumnGetter,
        get_encoding: Optional[EncodingGetter] = None,
    ) -> np.ndarray:
        mask = self._children[0].evaluate(get_column, get_encoding)
        for child in self._children[1:]:
            mask = mask & child.evaluate(get_column, get_encoding)
        return mask

    def to_dict(self) -> dict:
        return {"type": "and", "children": [c.to_dict() for c in self._children]}


class Or(_Combinator):
    """Disjunction — selections of several bins OR their predicates."""

    def evaluate(
        self,
        get_column: ColumnGetter,
        get_encoding: Optional[EncodingGetter] = None,
    ) -> np.ndarray:
        mask = self._children[0].evaluate(get_column, get_encoding)
        for child in self._children[1:]:
            mask = mask | child.evaluate(get_column, get_encoding)
        return mask

    def to_dict(self) -> dict:
        return {"type": "or", "children": [c.to_dict() for c in self._children]}


def evaluate_filter(
    filter_expr: Union[Filter, None],
    get_column: ColumnGetter,
    num_rows: int,
    get_encoding: Optional[EncodingGetter] = None,
) -> np.ndarray:
    """Evaluate an optional filter; ``None`` selects all rows."""
    if filter_expr is None:
        return np.ones(num_rows, dtype=bool)
    mask = filter_expr.evaluate(get_column, get_encoding)
    if mask.shape != (num_rows,):
        raise QueryError(
            f"filter produced mask of shape {mask.shape}, expected ({num_rows},)"
        )
    return mask


def filter_from_dict(data: Union[dict, None]) -> Union[Filter, None]:
    """Deserialize a predicate tree from its JSON form."""
    if data is None:
        return None
    kind = data.get("type")
    if kind == "range":
        return RangePredicate(data["field"], data.get("low"), data.get("high"))
    if kind == "in":
        return SetPredicate(data["field"], frozenset(data["values"]))
    if kind == "cmp":
        return Comparison(data["field"], data["op"], data["value"])
    if kind == "and":
        return And(*[filter_from_dict(child) for child in data["children"]])
    if kind == "or":
        return Or(*[filter_from_dict(child) for child in data["children"]])
    raise QueryError(f"unknown filter node type {kind!r}")


def conjoin(parts: Sequence[Union[Filter, None]]) -> Union[Filter, None]:
    """AND together the non-None parts (None if none remain).

    The driver uses this to compose a visualization's own filter with the
    selection filters arriving through incoming links.
    """
    present = [part for part in parts if part is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return And(*present)
