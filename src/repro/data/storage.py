"""Columnar in-memory storage: :class:`Table` and :class:`Dataset`.

The engine simulators in :mod:`repro.engines` execute real aggregations, so
they need a real storage layer. This module provides a deliberately small
column store:

* a :class:`Table` is an ordered mapping of column name to a read-only
  1-D column, all of equal length: integer columns at the narrowest type
  holding their range (:func:`int_dtype`), float columns as ``float64``,
  nominal columns dictionary-encoded (a :class:`Categorical`), which
  ``table[name]`` decodes on demand, for cold paths;
* a :class:`Dataset` is a set of tables plus foreign-key metadata — either
  a single de-normalized table or a star schema (fact + dimensions), the
  two layouts §4.6's *Using Joins* setting switches between.

CSV import/export mirrors the paper's systems, all of which load CSV files
(§5.2 data-preparation discussion).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from repro.common.errors import DataGenerationError, QueryError


class Categorical(NamedTuple):
    """A nominal column, dictionary-encoded: its distinct strings, sorted
    as ``np.unique`` sorts them, and each row's index among them."""

    categories: np.ndarray
    codes: np.ndarray


#: Rows per block of a pass over a whole column that would otherwise
#: widen it at once (numpy gathers through ``intp`` indexes).
_BLOCK_ROWS = 1 << 16


def _locked(column: np.ndarray, source) -> np.ndarray:
    """``column`` read-only: a view when it is the caller's ``source``,
    so locking it does not lock the caller's array."""
    if column is source:
        column = column.view()
    column.setflags(write=False)
    return column


def _as_categorical(categories, codes) -> Categorical:
    """The stored form of an encoded column: only the categories some code
    names, renumbered, with :func:`index_dtype` codes; adopted uncopied
    when it is already that."""
    array = np.asarray(categories)
    indexes = np.asarray(codes)
    if indexes.ndim != 1 or indexes.dtype.kind not in "iu":
        raise DataGenerationError("category codes must be a 1-D integer array")
    if array.dtype.kind != "U" or (array[1:] <= array[:-1]).any():
        raise DataGenerationError("categories must be distinct sorted strings")
    if len(indexes) and (indexes.min() < 0 or indexes.max() >= len(array)):
        raise DataGenerationError(f"category codes must lie in [0, {len(array)})")
    used = np.zeros(len(array), dtype=bool)
    for start in range(0, len(indexes), _BLOCK_ROWS):
        used[indexes[start : start + _BLOCK_ROWS]] = True
    if not used.all():
        rank = (np.cumsum(used) - 1).astype(index_dtype(int(used.sum())))
        array, indexes = array[used], rank.take(indexes)
    narrow = indexes.astype(index_dtype(len(array)), copy=False)
    return Categorical(_locked(array, categories), _locked(narrow, codes))


def _as_column(values) -> Union[np.ndarray, Categorical]:
    """The stored form of column ``values``, the one rule of how a base
    column is held: integers (booleans too) at :func:`int_dtype` of their
    range, floats as ``float64``, strings dictionary-encoded into a
    :class:`Categorical`; read-only. A column already in its stored form
    (another table's, a pickle's) is adopted, not copied."""
    if isinstance(values, Categorical):
        return _as_categorical(*values)
    array = np.asarray(values)
    if array.ndim != 1:
        raise DataGenerationError(
            f"columns must be 1-D, got array of shape {array.shape}"
        )
    if array.dtype.kind in ("i", "u", "b"):
        low, high = (int(array.min()), int(array.max())) if len(array) else (0, 0)
        if high > np.iinfo(np.int64).max:
            raise DataGenerationError(f"integer column holds {high}, past int64")
        return _locked(array.astype(int_dtype(low, high), copy=False), values)
    if array.dtype.kind == "f":
        return _locked(array.astype(np.float64, copy=False), values)
    if array.dtype.kind in ("U", "S", "O"):
        return _as_categorical(*dictionary_encode(array))
    raise DataGenerationError(f"unsupported column dtype {array.dtype!r}")


def _logical(array: np.ndarray, categories: Optional[np.ndarray]) -> np.ndarray:
    """Stored ``array`` as logical values: integers as ``int64``, codes
    decoded through ``categories``."""
    if categories is not None:
        return categories.take(array)
    return array.astype(np.int64) if array.dtype.kind == "i" else array


class Table:
    """An immutable columnar table.

    Columns are exposed through ``table[name]``; all row-set operations
    return new :class:`Table` objects (``select``, ``take``, ``head``,
    ``with_columns`` …) so engines can share tables safely. Every column
    is stored by :func:`_as_column`'s rule and read-only.
    """

    def __init__(self, name: str, columns: Dict[str, Iterable]):
        if not name:
            raise DataGenerationError("table name must be non-empty")
        if not columns:
            raise DataGenerationError(f"table {name!r} must have columns")
        self.name = name
        #: column -> stored array (a nominal column's codes).
        self._columns: Dict[str, np.ndarray] = {}
        #: nominal column -> its sorted categories.
        self._categories: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for column_name, values in columns.items():
            if not column_name:
                raise DataGenerationError("column names must be non-empty")
            array = _as_column(values)
            if isinstance(array, Categorical):
                self._categories[column_name] = array.categories
                array = array.codes
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise DataGenerationError(
                    f"column {column_name!r} has {len(array)} rows, "
                    f"expected {length}"
                )
            self._columns[column_name] = array
        self._num_rows = int(length or 0)
        self._fingerprint: Optional[str] = None

    def __setstate__(self, state: dict) -> None:
        # A pickle from before tables were narrow holds int64 and unicode
        # arrays: the constructor's rule stores them narrow (and adopts a
        # narrow pickle's). The logical fingerprint carries over.
        parts = dict(state["_columns"])
        for column, categories in state.get("_categories", {}).items():
            parts[column] = Categorical(categories, parts[column])
        self.__init__(state["name"], parts)
        self._fingerprint = state["_fingerprint"]

    def _stored(
        self, rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ) -> Dict[str, Union[np.ndarray, Categorical]]:
        """Every column as the constructor adopts it back (an array, or a
        :class:`Categorical`), ``rows`` picking rows of each stored array."""
        parts = {}
        for name, array in self._columns.items():
            array = array if rows is None else rows(array)
            categories = self._categories.get(name)
            parts[name] = (
                array if categories is None else Categorical(categories, array)
            )
        return parts

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return self._num_rows

    @property
    def column_names(self) -> List[str]:
        """Column names in definition order."""
        return list(self._columns)

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def _array(self, column: str) -> np.ndarray:
        try:
            return self._columns[column]
        except KeyError:
            raise QueryError(
                f"table {self.name!r} has no column {column!r}; "
                f"available: {self.column_names}"
            ) from None

    def __getitem__(self, column: str) -> np.ndarray:
        """Logical ``column``: a numeric column's stored array (integers at
        their narrowest exact type), a nominal column's strings decoded
        afresh — a cold path; hot paths read :meth:`categorical`."""
        array = self._array(column)
        categories = self._categories.get(column)
        return array if categories is None else categories.take(array)

    def categorical(self, column: str) -> Categorical:
        """Nominal ``column`` as stored: sorted categories and codes."""
        codes = self._array(column)
        if column not in self._categories:
            raise QueryError(f"column {column!r} of table {self.name!r} is not nominal")
        return Categorical(self._categories[column], codes)

    def is_numeric(self, column: str) -> bool:
        """Whether ``column`` holds numeric (quantitative-capable) data."""
        self._array(column)
        return column not in self._categories

    def memory_bytes(self) -> int:
        """Memory footprint of all stored arrays, categories included."""
        arrays = list(self._columns.values()) + list(self._categories.values())
        return int(sum(array.nbytes for array in arrays))

    def fingerprint(self) -> str:
        """Stable content digest of the table's logical columns (names,
        kinds and values, integers as ``int64`` and nominal columns as
        strings, hashed block by block), whatever their stored form.

        Two tables with identical columns fingerprint identically in every
        process — the persistent ground-truth cache keys on this so answer
        artifacts computed by one worker are valid for all others.
        Memoized (tables are immutable): the compiled-kernel cache consults
        dataset fingerprints on every query submission.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            for column_name, array in self._columns.items():
                categories = self._categories.get(column_name)
                kind = array.dtype.kind if categories is None else categories.dtype.kind
                hasher.update(column_name.encode("utf-8"))
                hasher.update(kind.encode("utf-8"))
                for start in range(0, len(array), _BLOCK_ROWS):
                    block = array[start : start + _BLOCK_ROWS]
                    hasher.update(_logical(block, categories).tobytes())
            self._fingerprint = hasher.hexdigest()[:32]
        return self._fingerprint

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self._num_rows}, "
            f"columns={self.column_names})"
        )

    # ------------------------------------------------------------------
    # Row-set operations
    # ------------------------------------------------------------------
    def select(self, mask: np.ndarray) -> "Table":
        """Return the rows where boolean ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self._num_rows,):
            raise QueryError(
                f"mask must be a boolean array of length {self._num_rows}"
            )
        return Table(self.name, self._stored(lambda array: array[mask]))

    def take(self, indices: np.ndarray) -> "Table":
        """Return the rows at ``indices`` (any integer fancy index)."""
        indices = np.asarray(indices)
        return Table(self.name, self._stored(lambda array: array[indices]))

    def head(self, n: int) -> "Table":
        """Return the first ``n`` rows."""
        return Table(self.name, self._stored(lambda array: array[:n]))

    def with_columns(self, new_columns: Dict[str, Iterable]) -> "Table":
        """Return a copy with columns added or replaced."""
        merged = self._stored()
        merged.update(new_columns)
        return Table(self.name, merged)

    def without_columns(self, names: Sequence[str]) -> "Table":
        """Return a copy with the given columns removed."""
        kept = self._stored()
        for name in names:
            kept.pop(name, None)
        return Table(self.name, kept)

    def renamed(self, name: str) -> "Table":
        """Return the same columns under a different table name."""
        return Table(name, self._stored())

    def rows(self) -> Iterator[Tuple]:
        """Iterate over rows as tuples (test/debug helper; not fast)."""
        arrays = [self[name] for name in self._columns]
        for i in range(self._num_rows):
            yield tuple(array[i] for array in arrays)

    def equals(self, other: "Table") -> bool:
        """Structural equality: same columns, same values (names may differ)."""
        if self.column_names != other.column_names:
            return False
        for name in self.column_names:
            left, right = self[name], other[name]
            if left.dtype.kind != right.dtype.kind or len(left) != len(right):
                return False
            if left.dtype.kind == "f":
                if not np.allclose(left, right, equal_nan=True):
                    return False
            elif not np.array_equal(left, right):
                return False
        return True

    # ------------------------------------------------------------------
    # CSV round-trips
    # ------------------------------------------------------------------
    def to_csv(self, path: Union[str, Path, io.TextIOBase]) -> None:
        """Write the table as a CSV file with a header row."""
        if isinstance(path, (str, Path)):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                self._write_csv(handle)
        else:
            self._write_csv(path)

    def _write_csv(self, handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(self.column_names)
        arrays = [self[name] for name in self._columns]
        for i in range(self._num_rows):
            writer.writerow([_format_csv_value(array[i]) for array in arrays])

    @classmethod
    def from_csv(
        cls, path: Union[str, Path, io.TextIOBase], name: Optional[str] = None
    ) -> "Table":
        """Read a CSV file, inferring int/float/string column types."""
        if isinstance(path, (str, Path)):
            table_name = name or Path(path).stem
            with open(path, "r", encoding="utf-8", newline="") as handle:
                return cls._read_csv(handle, table_name)
        return cls._read_csv(path, name or "table")

    @classmethod
    def _read_csv(cls, handle, name: str) -> "Table":
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataGenerationError("CSV file is empty") from None
        raw_columns: List[List[str]] = [[] for _ in header]
        for row in reader:
            if len(row) != len(header):
                raise DataGenerationError(
                    f"CSV row has {len(row)} fields, expected {len(header)}"
                )
            for cell, bucket in zip(row, raw_columns):
                bucket.append(cell)
        columns = {
            column: _infer_column(values)
            for column, values in zip(header, raw_columns)
        }
        return cls(name, columns)


def _format_csv_value(value) -> str:
    """Render a cell: integers without decimal point, floats repr-round-trip."""
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(value)


def _infer_column(values: List[str]) -> np.ndarray:
    """Infer the tightest supported dtype for CSV text ``values``."""
    try:
        return np.array([int(v) for v in values], dtype=np.int64)
    except ValueError:
        pass
    try:
        return np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        pass
    return np.array(values, dtype=str)


#: Mixed-radix packing of a string's code points must stay inside int64.
_PACK_LIMIT = 2 ** 62

#: :func:`unique_inverse` counts while the code span is at most this many
#: slots per row (or this many slots outright); measured against the sort
#: it replaces, counting wins up to ~4 slots per row at every size from
#: 10 to 160k rows and loses beyond.
_COUNTING_SLOTS_PER_ROW = 4
_COUNTING_MIN_SLOTS = 1024


#: The narrow signed integer types, narrowest first.
_NARROW_INTS = [(np.dtype(t), np.iinfo(t)) for t in (np.int8, np.int16, np.int32)]


def int_dtype(low: int, high: int) -> np.dtype:
    """The narrowest signed integer type holding every integer in
    ``[low, high]``: ``int8``, then ``int16``, then ``int32``, else
    ``int64``. The one width rule of row-sized integer arrays."""
    for dtype, info in _NARROW_INTS:
        if info.min <= low and high <= info.max:
            return dtype
    return np.dtype(np.int64)


def index_dtype(count: int) -> np.dtype:
    """The narrowest signed integer type whose maximum is at least
    ``count`` (:func:`int_dtype` of ``[-1, count]``): ``int8`` up to
    127, ``int16`` up to 32,767, else ``int32``.

    Every row-sized array indexing ``count`` groups or categories takes
    it: a poll's gather of it moves 1, 2 or 4 bytes a row, and an index
    plus one still fits (the ``-1`` marking of rows a filter fails).
    """
    return int_dtype(-1, count)


def unique_inverse(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-free ``np.unique(codes, return_inverse=True)``.

    ``codes`` is a non-empty integer array. Bin codes are dense small
    integers, so the distinct ones are read off a presence bitmap over
    ``[min, max]`` in O(rows + span) and each row's rank is a table
    lookup. Spans that do not fit the bound above (NaN-poisoned or
    degenerate-width codes reach the int64 extremes) take the sort.
    Ranks take :func:`index_dtype` of the distinct count; the counting
    path builds its rank table in that type, so no pass widens them.
    Narrow input codes are shifted into ``intp``: numpy indexes with
    anything else several times slower.
    """
    lowest = int(codes.min())
    span = int(codes.max()) - lowest + 1
    if span > max(_COUNTING_MIN_SLOTS, _COUNTING_SLOTS_PER_ROW * codes.size):
        unique, inverse = np.unique(codes, return_inverse=True)
        return unique, inverse.astype(index_dtype(len(unique)))
    shifted = np.subtract(codes, lowest, dtype=np.intp)
    present = np.zeros(span, dtype=bool)
    present[shifted] = True
    unique = np.flatnonzero(present)
    rank = np.empty(span, dtype=index_dtype(len(unique)))
    rank[unique] = np.arange(len(unique))
    return unique + lowest, rank[shifted]


def dictionary_encode(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-free ``np.unique(values.astype(str), return_inverse=True)``
    with ``int64`` codes.

    numpy orders ``<U{w}`` strings by their ``w`` code points, shorter
    ones padded with 0, so each row's offsets from each position's
    minimum pack mixed-radix into one order-preserving ``int64``;
    :func:`unique_inverse` counts those, and the distinct ones unpack
    into the categories. Spans past the packing bound, and zero rows,
    take the sort.
    """
    strings = np.ascontiguousarray(values.astype(str, copy=False))
    width = strings.dtype.itemsize // 4
    # (width, rows): reductions down a (rows, width) array's columns crawl.
    positions = np.ascontiguousarray(
        strings.view(strings.dtype.byteorder + "u4").reshape(-1, width).T
    )
    if len(strings):
        lows = positions.min(axis=1)
        spans = (positions.max(axis=1) - lows + 1).tolist()
    if not len(strings) or math.prod(spans) > _PACK_LIMIT:
        categories, codes = np.unique(strings, return_inverse=True)
        return categories, codes.astype(np.int64, copy=False)
    packed = np.zeros(len(strings), dtype=np.int64)
    for position, span in enumerate(spans):
        if span > 1:
            packed = packed * span + (positions[position] - lows[position])
    unique, codes = unique_inverse(packed)
    digits = np.empty((len(unique), width), dtype=positions.dtype)
    for position in reversed(range(width)):
        unique, digits[:, position] = np.divmod(unique, spans[position])
    digits += lows
    return digits.view(strings.dtype).ravel(), codes.astype(np.int64, copy=False)


def categories_by_frequency(
    values: Union[np.ndarray, Categorical]
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``values`` as strings, most common first (equal counts in
    sorted order), with their counts: a stored :class:`Categorical`, or
    :func:`dictionary_encode` of an array, counted."""
    if isinstance(values, Categorical):
        categories, codes = values
    else:
        categories, codes = dictionary_encode(np.asarray(values))
    counts = np.bincount(codes, minlength=len(categories))
    order = np.argsort(-counts, kind="stable")
    return categories[order], counts[order]


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key edge of a star schema.

    ``fact_column`` in the fact table stores integer keys referencing
    ``dim_key`` in ``dim_table``. ``attribute_map`` maps de-normalized
    column names (as used in queries, e.g. ``ORIGIN_STATE``) to the
    dimension-table column that now holds them (e.g. ``state``).
    """

    fact_column: str
    dim_table: str
    dim_key: str
    attribute_map: Tuple[Tuple[str, str], ...]

    def denormalized_columns(self) -> List[str]:
        """The de-normalized names this FK makes reachable."""
        return [denorm for denorm, _ in self.attribute_map]


class Dataset:
    """A set of tables plus star-schema metadata.

    A de-normalized dataset has a single fact table and no foreign keys; a
    normalized one (``normalize``) has a fact table whose FK columns point
    into dimension tables. :meth:`resolve_column` hides the difference from
    query evaluation: it tells callers where a logical column lives and
    whether reaching it requires a join.

    Kernels read columns as the tables store them: a nominal column's
    dictionary encoding (:meth:`encoded_column`) and a numeric column's
    narrow values (:meth:`value_column`), both read-only and, for an
    FK-reachable column, dereferenced through the key with ``take``.
    Only the content :meth:`fingerprint` is memoized.
    """

    def __init__(
        self,
        tables: Dict[str, Table],
        fact_table: str,
        foreign_keys: Sequence[ForeignKey] = (),
    ):
        if fact_table not in tables:
            raise DataGenerationError(
                f"fact table {fact_table!r} not among tables {sorted(tables)}"
            )
        for fk in foreign_keys:
            if fk.dim_table not in tables:
                raise DataGenerationError(
                    f"foreign key references unknown table {fk.dim_table!r}"
                )
            if fk.fact_column not in tables[fact_table]:
                raise DataGenerationError(
                    f"fact table has no FK column {fk.fact_column!r}"
                )
        self.tables = dict(tables)
        self.fact_table = fact_table
        self.foreign_keys = tuple(foreign_keys)
        self._fingerprint: Optional[str] = None

    @property
    def fact(self) -> Table:
        """The fact table."""
        return self.tables[self.fact_table]

    @property
    def is_normalized(self) -> bool:
        """Whether this dataset is a star schema (has dimension tables)."""
        return bool(self.foreign_keys)

    @property
    def num_fact_rows(self) -> int:
        """Number of rows in the fact table."""
        return self.fact.num_rows

    def total_rows(self) -> int:
        """Summed row count over all tables (used for size comparisons)."""
        return sum(table.num_rows for table in self.tables.values())

    def resolve_column(self, name: str) -> Tuple[str, str, Optional[ForeignKey]]:
        """Locate logical column ``name``.

        Returns ``(table_name, physical_column, fk_or_None)`` where ``fk``
        is the foreign key to traverse (None if the column lives directly
        in the fact table).
        """
        if name in self.fact:
            return self.fact_table, name, None
        for fk in self.foreign_keys:
            for denorm, dim_column in fk.attribute_map:
                if denorm == name:
                    return fk.dim_table, dim_column, fk
        raise QueryError(
            f"column {name!r} is not reachable from fact table "
            f"{self.fact_table!r}"
        )

    def gather_column(self, name: str) -> np.ndarray:
        """Logical column ``name`` at fact-table granularity: a numeric
        column's :meth:`value_column`, a nominal one's strings decoded
        afresh (cold paths; kernels read :meth:`encoded_column`).

        For FK-reachable columns this performs the join by integer
        dereference (the simulators charge the *cost* of the join
        separately through their cost models — see
        :mod:`repro.engines.joins`).
        """
        if self.column_is_numeric(name):
            return self.value_column(name)
        categories, codes = self.encoded_column(name)
        return categories.take(codes)

    def _through_fk(self, array: np.ndarray, fk: Optional[ForeignKey]) -> np.ndarray:
        """A dimension-size ``array`` at fact granularity, read-only."""
        if fk is None:
            return array
        gathered = array.take(self.fact[fk.fact_column])
        gathered.setflags(write=False)
        return gathered

    def encoded_column(self, name: str) -> Categorical:
        """Dictionary encoding of logical column ``name`` read as strings.

        Returns ``(categories, codes)``: the sorted distinct values of
        ``gather_column(name).astype(str)`` and, per fact row, the index
        of its value among them, of :func:`index_dtype` of the category
        count (1 byte a row for a flights column); read-only. A nominal
        column's are its table's stored arrays; an FK-reachable one's
        codes are taken through the key, so ``categories`` may hold values
        no fact row references. A numeric column is encoded on demand.
        """
        table_name, physical, fk = self.resolve_column(name)
        table = self.tables[table_name]
        if table.is_numeric(physical):
            categories, codes = _as_column(_logical(table[physical], None).astype(str))
        else:
            categories, codes = table.categorical(physical)
        return Categorical(categories, self._through_fk(codes, fk))

    def value_column(self, name: str) -> np.ndarray:
        """Numeric logical column ``name`` at fact granularity, read-only,
        as its table stores it: a fold widens only the rows it gathers,
        and an integer's ``float64`` is the same before or after."""
        table_name, physical, fk = self.resolve_column(name)
        table = self.tables[table_name]
        if not table.is_numeric(physical):
            raise QueryError(f"column {name!r} is nominal; aggregates need numbers")
        return self._through_fk(table[physical], fk)

    def column_is_numeric(self, name: str) -> bool:
        """Whether logical column ``name`` holds numeric data."""
        table_name, physical, _ = self.resolve_column(name)
        return self.tables[table_name].is_numeric(physical)

    def logical_columns(self) -> List[str]:
        """All queryable column names (fact columns + FK-reachable ones).

        FK columns themselves are excluded: they are an artifact of
        normalization, not part of the logical schema users explore.
        """
        fk_columns = {fk.fact_column for fk in self.foreign_keys}
        names = [c for c in self.fact.column_names if c not in fk_columns]
        for fk in self.foreign_keys:
            names.extend(fk.denormalized_columns())
        return names

    def fingerprint(self) -> str:
        """Stable content digest over all tables plus the FK metadata.

        Memoized: tables are immutable, and the compiled-
        kernel cache keys every lookup on this digest, so hashing the
        column bytes more than once per dataset would dwarf the lookups
        it is meant to make cheap.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            hasher.update(self.fact_table.encode("utf-8"))
            for name in sorted(self.tables):
                hasher.update(name.encode("utf-8"))
                hasher.update(self.tables[name].fingerprint().encode("utf-8"))
            for fk in self.foreign_keys:
                hasher.update(repr(fk).encode("utf-8"))
            self._fingerprint = hasher.hexdigest()[:32]
        return self._fingerprint

    def __repr__(self) -> str:
        kind = "star" if self.is_normalized else "denormalized"
        return (
            f"Dataset({kind}, fact={self.fact_table!r}, "
            f"tables={sorted(self.tables)}, rows={self.num_fact_rows})"
        )

    @classmethod
    def from_table(cls, table: Table) -> "Dataset":
        """Wrap a single de-normalized table as a dataset."""
        return cls({table.name: table}, table.name)
