"""Columnar in-memory storage: :class:`Table` and :class:`Dataset`.

The engine simulators in :mod:`repro.engines` execute real aggregations, so
they need a real storage layer. This module provides a deliberately small
column store:

* a :class:`Table` is an ordered mapping of column name to a 1-D numpy
  array, all of equal length; numeric columns are ``float64``/``int64``,
  nominal columns are numpy unicode arrays;
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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import DataGenerationError, QueryError


def _as_column(values) -> np.ndarray:
    """Coerce ``values`` into a 1-D column array with a supported dtype.

    An ``int64``, ``float64`` or unicode array is adopted, not copied, as
    a read-only view; writing to the original afterwards would leave the
    memoized :meth:`Table.fingerprint` stale.
    """
    array = np.asarray(values)
    if array.ndim != 1:
        raise DataGenerationError(
            f"columns must be 1-D, got array of shape {array.shape}"
        )
    if array.dtype.kind in ("i", "u", "b"):
        column = array.astype(np.int64, copy=False)
    elif array.dtype.kind == "f":
        column = array.astype(np.float64, copy=False)
    elif array.dtype.kind in ("U", "S", "O"):
        column = array.astype(str, copy=False)
    else:
        raise DataGenerationError(f"unsupported column dtype {array.dtype!r}")
    if column is values:
        column = column.view()
        column.setflags(write=False)
    return column


class Table:
    """An immutable-by-convention columnar table.

    Columns are exposed through ``table[name]``; all mutating operations
    return new :class:`Table` objects (``select``, ``take``, ``head``,
    ``with_columns`` …) so engines can share tables safely.
    """

    def __init__(self, name: str, columns: Dict[str, Iterable]):
        if not name:
            raise DataGenerationError("table name must be non-empty")
        if not columns:
            raise DataGenerationError(f"table {name!r} must have columns")
        self.name = name
        self._columns: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for column_name, values in columns.items():
            if not column_name:
                raise DataGenerationError("column names must be non-empty")
            array = _as_column(values)
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

    def __getitem__(self, column: str) -> np.ndarray:
        try:
            return self._columns[column]
        except KeyError:
            raise QueryError(
                f"table {self.name!r} has no column {column!r}; "
                f"available: {self.column_names}"
            ) from None

    def is_numeric(self, column: str) -> bool:
        """Whether ``column`` holds numeric (quantitative-capable) data."""
        return self[column].dtype.kind in ("i", "f")

    def memory_bytes(self) -> int:
        """Approximate memory footprint of all column arrays."""
        return int(sum(array.nbytes for array in self._columns.values()))

    def fingerprint(self) -> str:
        """Stable content digest of the table (names, dtypes and values).

        Two tables with identical columns fingerprint identically in every
        process — the persistent ground-truth cache keys on this so answer
        artifacts computed by one worker are valid for all others.
        Memoized (columns are immutable-by-convention): the compiled-kernel
        cache consults dataset fingerprints on every query submission.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            for column_name, array in self._columns.items():
                hasher.update(column_name.encode("utf-8"))
                hasher.update(str(array.dtype.kind).encode("utf-8"))
                hasher.update(np.ascontiguousarray(array).tobytes())
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
        return Table(
            self.name, {name: array[mask] for name, array in self._columns.items()}
        )

    def take(self, indices: np.ndarray) -> "Table":
        """Return the rows at ``indices`` (any integer fancy index)."""
        indices = np.asarray(indices)
        return Table(
            self.name,
            {name: array[indices] for name, array in self._columns.items()},
        )

    def head(self, n: int) -> "Table":
        """Return the first ``n`` rows."""
        return Table(
            self.name, {name: array[:n] for name, array in self._columns.items()}
        )

    def with_columns(self, new_columns: Dict[str, Iterable]) -> "Table":
        """Return a copy with columns added or replaced."""
        merged: Dict[str, Iterable] = dict(self._columns)
        merged.update(new_columns)
        return Table(self.name, merged)

    def without_columns(self, names: Sequence[str]) -> "Table":
        """Return a copy with the given columns removed."""
        remaining = {
            name: array
            for name, array in self._columns.items()
            if name not in set(names)
        }
        return Table(self.name, remaining)

    def renamed(self, name: str) -> "Table":
        """Return the same columns under a different table name."""
        return Table(name, dict(self._columns))

    def rows(self) -> Iterator[Tuple]:
        """Iterate over rows as tuples (test/debug helper; not fast)."""
        arrays = list(self._columns.values())
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

    @classmethod
    def concat(cls, name: str, parts: Sequence["Table"]) -> "Table":
        """Vertically concatenate tables with identical column sets."""
        if not parts:
            raise DataGenerationError("cannot concatenate zero tables")
        first = parts[0]
        for part in parts[1:]:
            if part.column_names != first.column_names:
                raise DataGenerationError(
                    "cannot concatenate tables with different columns: "
                    f"{first.column_names} vs {part.column_names}"
                )
        return cls(
            name,
            {
                column: np.concatenate([part[column] for part in parts])
                for column in first.column_names
            },
        )

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
        arrays = list(self._columns.values())
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

    Tables are immutable-by-convention, so data derived from them is
    memoized on the dataset and shared by every query compiled against
    it: the content :meth:`fingerprint`, each column's dictionary
    encoding (:meth:`encoded_column`) and its ``float64`` cast
    (:meth:`float64_column`).
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
        #: logical column -> (sorted categories, fact-granularity codes).
        self._encoded: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        #: logical column -> fact-granularity float64 values.
        self._float64: Dict[str, np.ndarray] = {}

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
        """Materialize logical column ``name`` at fact-table granularity.

        For FK-reachable columns this performs the join by integer
        dereference (the simulators charge the *cost* of the join
        separately through their cost models — see
        :mod:`repro.engines.joins`).
        """
        table_name, physical, fk = self.resolve_column(name)
        if fk is None:
            return self.tables[table_name][physical]
        keys = self.fact[fk.fact_column]
        dim = self.tables[fk.dim_table]
        return dim[physical][keys]

    def encoded_column(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Dictionary encoding of logical column ``name`` read as strings.

        Returns ``(categories, codes)``: the sorted distinct values of
        ``gather_column(name).astype(str)`` and, per fact row, the
        ``int64`` index of its value among them — so codes are monotone
        in the categories and ``categories[codes]`` reconstructs the
        string column. FK-reachable columns are encoded at dimension-
        table size and dereferenced through the key, so ``categories``
        may hold values no fact row references.

        Memoized like :meth:`fingerprint` (tables are immutable-by-
        convention) and shared by every compiled kernel and the
        stratified sampler; both arrays are read-only.
        """
        encoded = self._encoded.get(name)
        if encoded is None:
            table_name, physical, fk = self.resolve_column(name)
            categories, codes = np.unique(
                self.tables[table_name][physical].astype(str), return_inverse=True
            )
            codes = codes.astype(np.int64, copy=False)
            if fk is not None:
                codes = codes[self.fact[fk.fact_column]]
            categories.setflags(write=False)
            codes.setflags(write=False)
            encoded = self._encoded[name] = (categories, codes)
        return encoded

    def float64_column(self, name: str) -> np.ndarray:
        """Logical column ``name`` at fact granularity as read-only ``float64``.

        Memoized, so every kernel aggregating the column shares one
        array; a fact column that already is ``float64`` is shared as a
        read-only view, not copied.
        """
        values = self._float64.get(name)
        if values is None:
            values = self.gather_column(name).astype(np.float64, copy=False).view()
            values.setflags(write=False)
            self._float64[name] = values
        return values

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

        Memoized: tables are immutable-by-convention, and the compiled-
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

    def __getstate__(self) -> dict:
        # The memoized encodings and casts are derived data: leaving
        # them out keeps a warmed dataset's pickle (ArtifactStore, matrix
        # workers) byte-equal to a cold one's.
        state = dict(self.__dict__)
        del state["_encoded"], state["_float64"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._encoded = {}
        self._float64 = {}

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
