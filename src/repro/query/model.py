"""The query model: binned aggregation queries and their results.

§2.2 of the paper: *"most queries group the data by one or many attributes
and apply aggregate functions to each group … visualization systems
commonly bin the data"*. A query in this benchmark is therefore

* a set of **bin dimensions** (1-D histogram, 2-D binned scatter plot;
  nominal = one bin per category, quantitative = fixed-width intervals or
  a fixed bin count over the column's range),
* a list of **aggregates** (COUNT, SUM, AVG, MIN, MAX), and
* an optional **filter** (:mod:`repro.query.filters`).

Results map *bin keys* — tuples with one coordinate per dimension, an
``int`` bin index for quantitative dimensions or a ``str`` category for
nominal ones — to per-aggregate values, optionally with margins of error
at the configured confidence level.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common import codec
from repro.common.errors import EngineError, QueryError
from repro.common.fingerprint import stable_digest
from repro.query.filters import Filter

#: One coordinate of a bin key.
BinCoord = Union[int, str]
#: A bin key: one coordinate per bin dimension.
BinKey = Tuple[BinCoord, ...]


class BinKind(Enum):
    """Binning behaviour of one dimension (§2.2)."""

    QUANTITATIVE = "quantitative"
    NOMINAL = "nominal"


class AggFunc(Enum):
    """Aggregate functions used by IDE frontends (§2.2)."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    @property
    def needs_field(self) -> bool:
        """COUNT aggregates rows; the others aggregate a column."""
        return self is not AggFunc.COUNT

    @property
    def reads_sums(self) -> bool:
        """SUM and AVG are formed from a group's sum and sum of squares
        (MIN and MAX read only their own extremum, COUNT no moment)."""
        return self is AggFunc.SUM or self is AggFunc.AVG


@dataclass(frozen=True)
class BinDimension(codec.Codable, error=QueryError):
    """One bin dimension of a visualization.

    Quantitative dimensions support the two definitions of §2.2:

    * fixed ``width`` plus a ``reference`` boundary — bin index of value
      ``x`` is ``floor((x - reference) / width)``;
    * fixed ``bin_count`` over the column's current min/max — this form is
      *unresolved* (the driver resolves it against the dataset profile via
      :meth:`resolved`, mirroring the min/max query a frontend must run).

    Nominal dimensions bin by category and take no parameters.
    """

    field: str
    kind: BinKind
    width: Optional[float] = dataclasses.field(default=None, metadata=codec.OMIT_UNSET)
    reference: float = 0.0
    bin_count: Optional[int] = dataclasses.field(default=None, metadata=codec.OMIT_UNSET)

    def __post_init__(self):
        if not self.field:
            raise QueryError("bin dimension needs a field name")
        if self.kind is BinKind.QUANTITATIVE:
            if self.width is None and self.bin_count is None:
                raise QueryError(
                    f"quantitative dimension {self.field!r} needs width or bin_count"
                )
            if self.width is not None and self.width <= 0:
                raise QueryError(
                    f"bin width must be positive, got {self.width!r}"
                )
            if self.bin_count is not None and self.bin_count < 1:
                raise QueryError(
                    f"bin count must be >= 1, got {self.bin_count!r}"
                )
        else:
            if self.width is not None or self.bin_count is not None:
                raise QueryError(
                    f"nominal dimension {self.field!r} takes no width/bin_count"
                )

    @property
    def is_resolved(self) -> bool:
        """Whether bin boundaries are fully determined."""
        return self.kind is BinKind.NOMINAL or self.width is not None

    def resolved(self, minimum: float, maximum: float) -> "BinDimension":
        """Resolve a ``bin_count`` dimension against observed min/max."""
        if self.is_resolved:
            return self
        span = max(maximum - minimum, 1e-12)
        width = span / self.bin_count
        return BinDimension(
            field=self.field,
            kind=self.kind,
            width=width,
            reference=float(minimum),
        )

    def bin_interval(self, index: int) -> Tuple[float, float]:
        """Half-open value interval ``[low, high)`` of quantitative bin ``index``."""
        if self.kind is not BinKind.QUANTITATIVE or self.width is None:
            raise QueryError(f"dimension {self.field!r} has no numeric intervals")
        low = self.reference + index * self.width
        return low, low + self.width

    def to_dict(self) -> dict:
        data = super().to_dict()
        if self.width is None:  # a reference boundary means nothing without a width
            del data["reference"]
        return data


@dataclass(frozen=True)
class Aggregate(codec.Codable, error=QueryError):
    """One aggregate function application, e.g. ``AVG(ARR_DELAY)``."""

    func: AggFunc
    field: Optional[str] = dataclasses.field(default=None, metadata=codec.OMIT_UNSET)

    def __post_init__(self):
        if self.func.needs_field and not self.field:
            raise QueryError(f"{self.func.value.upper()} requires a field")
        if not self.func.needs_field and self.field:
            raise QueryError("COUNT takes no field (COUNT(*) semantics)")

    @property
    def label(self) -> str:
        """Result-column label, e.g. ``count`` or ``avg_ARR_DELAY``."""
        if self.field is None:
            return self.func.value
        return f"{self.func.value}_{self.field}"


@dataclass(frozen=True)
class AggQuery(codec.Codable, error=QueryError):
    """A complete binned aggregation query.

    ``table`` names the logical (de-normalized) relation; whether execution
    requires joins is a property of the dataset layout, not of the query —
    exactly as in the paper, where the same workload runs against both
    schema variants (§5.3).
    """

    table: str
    bins: Tuple[BinDimension, ...]
    aggregates: Tuple[Aggregate, ...]
    filter: Optional[Filter] = None

    def __post_init__(self):
        if not self.bins:
            raise QueryError("query needs at least one bin dimension")
        if len(self.bins) > 2:
            raise QueryError(
                f"at most 2 bin dimensions are supported, got {len(self.bins)}"
            )
        if not self.aggregates:
            raise QueryError("query needs at least one aggregate")
        fields = [dim.field for dim in self.bins]
        if len(set(fields)) != len(fields):
            raise QueryError(f"duplicate bin dimension fields: {fields}")

    @property
    def is_resolved(self) -> bool:
        """Whether all bin dimensions have concrete boundaries."""
        return all(dim.is_resolved for dim in self.bins)

    @property
    def num_bin_dims(self) -> int:
        """Dimensionality of the binning (1 or 2)."""
        return len(self.bins)

    # The descriptors below are memos, like ``digest``: every run of a
    # scripted workflow submits the same query objects.
    @cached_property
    def binning_types(self) -> Tuple[str, ...]:
        """Per-dimension kind labels, as reported in Table 1."""
        return tuple(dim.kind.value for dim in self.bins)

    @cached_property
    def agg_type(self) -> str:
        """Aggregate-type label for the detailed report (Table 1)."""
        return " ".join(agg.func.value for agg in self.aggregates)

    def referenced_columns(self) -> Tuple[str, ...]:
        """Every logical column the query touches (bins + aggs + filter)."""
        return self._referenced_columns

    @cached_property
    def _referenced_columns(self) -> Tuple[str, ...]:
        seen = []
        for dim in self.bins:
            if dim.field not in seen:
                seen.append(dim.field)
        for agg in self.aggregates:
            if agg.field and agg.field not in seen:
                seen.append(agg.field)
        if self.filter is not None:
            for field_name in self.filter.fields():
                if field_name not in seen:
                    seen.append(field_name)
        return tuple(seen)

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the canonical JSON form, computed once per instance.

        The query is frozen, so the memo can never go stale; it lives in
        the instance ``__dict__`` (not a field), so ``==``, ``hash`` and
        ``dataclasses.replace`` never see it and :meth:`__getstate__`
        keeps it out of pickles.
        """
        return stable_digest(self.to_dict(), length=None)

    #: The instance-``__dict__`` memos :meth:`__getstate__` leaves out.
    _MEMOS = ("digest", "binning_types", "agg_type", "_referenced_columns")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._MEMOS:
            state.pop(name, None)
        return state


#: The dict form of an answer: bin key → one cell per aggregate.
Values = Dict[BinKey, Tuple[float, ...]]
Margins = Dict[BinKey, Tuple[Optional[float], ...]]


@dataclass(eq=False)
class BinColumns:
    """The stored form of a query answer: bin keys beside one contiguous
    float64 row per aggregate.

    ``values[j][i]`` is aggregate ``j`` (the order of
    ``query.aggregates``) in bin ``keys[i]``. Approximate answers add
    ``margins`` of the same shape and ``bounded``: ``bounded[j][i]`` is
    False where the engine offers no margin (MIN/MAX under sampling) —
    the dict form's ``None``, which a NaN margin is not: NaN is a margin
    that was computed and counts, ``None`` is skipped, and a float row
    cannot tell them apart. Cells of ``margins`` behind a False are
    unspecified. Exact answers have ``margins is None``.
    """

    keys: Sequence[BinKey]
    values: Sequence[np.ndarray]
    margins: Optional[Sequence[np.ndarray]] = None
    bounded: Optional[Sequence[np.ndarray]] = None

    def __post_init__(self) -> None:
        if (self.margins is None) != (self.bounded is None):
            raise EngineError("margins and their bounded mask come together")
        for rows in (self.values, self.margins, self.bounded):
            if rows is not None and any(len(row) != len(self.keys) for row in rows):
                raise EngineError(
                    f"an answer row must hold one cell per bin ({len(self.keys)})"
                )

    @classmethod
    def from_dicts(
        cls, values: Values, margins: Margins, num_aggregates: int
    ) -> "BinColumns":
        """Columns of an answer given as ``{bin key: row}`` dicts (engine
        adapters, tests, stored artifacts); the dicts stay its views."""

        def rows_of(cells, dtype) -> List[np.ndarray]:
            return [
                np.array([cell[j] for cell in cells], dtype=dtype)
                for j in range(num_aggregates)
            ]

        keys = list(values)
        margin_rows = bounded = None
        if margins:
            no_margin = (None,) * num_aggregates
            cells = [margins.get(key, no_margin) for key in keys]
            margin_rows = rows_of(cells, np.float64)  # None reads NaN
            bounded = rows_of(
                [[margin is not None for margin in cell] for cell in cells], bool
            )
        columns = cls(keys, rows_of(values.values(), np.float64), margin_rows, bounded)
        columns.by_key = (values, margins)
        return columns

    @cached_property
    def by_key(self) -> Tuple[Values, Margins]:
        """The ``(values, margins)`` dict views: bin key → one Python
        float per aggregate, ``None`` for an unbounded margin; no margins
        at all is ``{}``. Built on first use — the store and adapter
        boundary; nothing between kernel and metrics reads them."""
        values = dict(zip(self.keys, zip(*[row.tolist() for row in self.values])))
        if self.margins is None:
            return values, {}
        cells = [
            [cell if has else None for cell, has in zip(row.tolist(), mask.tolist())]
            for row, mask in zip(self.margins, self.bounded)
        ]
        return values, dict(zip(self.keys, zip(*cells)))

    def __iter__(self):
        """Unpacks as ``values, margins = estimate``."""
        return iter(self.by_key)

    @cached_property
    def index(self) -> Dict[BinKey, int]:
        """Bin key → position along the rows."""
        return {key: i for i, key in enumerate(self.keys)}

    @cached_property
    def norms(self) -> Tuple[float, ...]:
        """Euclidean norm of each value row."""
        return tuple(math.sqrt(row.dot(row)) for row in self.values)

    @cached_property
    def all_nonzero(self) -> Tuple[bool, ...]:
        """Whether each value row holds no zero cell (what scoring against
        this answer as the ground truth reads of it)."""
        return tuple(bool(row.all()) for row in self.values)

    #: ``compute_metrics``'s last score of this answer: a weak reference
    #: to the truth's columns and the metrics. A blocking engine hands out
    #: the truth itself, and System X one memoized answer at every TR.
    score_memo = None


class QueryResult:
    """The (possibly approximate) answer to an :class:`AggQuery`.

    Engines hand over ``columns``; adapters may pass ``values`` /
    ``margins`` dicts instead, converted on construction. ``==`` compares
    by value and pickles hold the dict form, whichever came in.

    Attributes
    ----------
    columns:
        the answer as :class:`BinColumns`.
    values:
        bin key → tuple of per-aggregate values (order matches
        ``query.aggregates``); a cached view of ``columns``.
    margins:
        bin key → tuple of per-aggregate absolute margins of error at the
        run's confidence level; ``None`` entries mean the engine offers no
        bound for that aggregate (e.g. MIN/MAX under sampling). Exact
        engines return empty margins. A cached view of ``columns``.
    rows_processed:
        number of *actual* rows the engine aggregated (sample size).
    fraction:
        fraction of the full dataset processed; 1.0 for exact answers.
    exact:
        whether the answer is exact (ground truth semantics).
    """

    #: The pickled state: the dataclass's fields in its order, so store
    #: artifacts stay byte-equal and older ones load.
    _STATE = ("query", "values", "margins", "rows_processed", "fraction", "exact")

    def __init__(
        self,
        query: AggQuery,
        values: Optional[Values] = None,
        margins: Optional[Margins] = None,
        rows_processed: int = 0,
        fraction: float = 1.0,
        exact: bool = False,
        *,
        columns: Optional[BinColumns] = None,
    ):
        self.query = query
        self.columns = columns or BinColumns.from_dicts(
            values, margins or {}, len(query.aggregates)
        )
        self.rows_processed = rows_processed
        self.fraction = fraction
        self.exact = exact

    values = property(lambda self: self.columns.by_key[0])
    margins = property(lambda self: self.columns.by_key[1])

    @property
    def num_bins(self) -> int:
        """Number of bins for which a value was delivered."""
        return len(self.columns.keys)

    def value_of(self, key: BinKey, aggregate_index: int = 0) -> float:
        """Value of one aggregate in one bin (KeyError if missing)."""
        return self.values[key][aggregate_index]

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._STATE}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:
        kind = "exact" if self.exact else f"approx({self.fraction:.3%})"
        return (
            f"QueryResult({kind}, bins={self.num_bins}, "
            f"rows={self.rows_processed})"
        )


def make_count_query(
    table: str,
    dimension: BinDimension,
    filter_expr: Optional[Filter] = None,
) -> AggQuery:
    """Convenience constructor for the most common viz: a count histogram."""
    return AggQuery(
        table=table,
        bins=(dimension,),
        aggregates=(Aggregate(AggFunc.COUNT),),
        filter=filter_expr,
    )


def resolve_query(query: AggQuery, profiles: Dict[str, "object"]) -> AggQuery:
    """Resolve all ``bin_count`` dimensions against column profiles.

    ``profiles`` maps column name to an object with ``minimum``/``maximum``
    attributes (:class:`repro.data.schema.ColumnProfile`). Frontends do the
    equivalent min/max pre-query before they can draw a fixed-bin-count
    histogram (§2.2); the benchmark driver performs it once per dataset.
    """
    if query.is_resolved:
        return query
    resolved_bins = []
    for dim in query.bins:
        if dim.is_resolved:
            resolved_bins.append(dim)
            continue
        profile = profiles.get(dim.field)
        if profile is None:
            raise QueryError(f"no profile for column {dim.field!r}")
        resolved_bins.append(dim.resolved(profile.minimum, profile.maximum))
    return AggQuery(
        table=query.table,
        bins=tuple(resolved_bins),
        aggregates=query.aggregates,
        filter=query.filter,
    )
