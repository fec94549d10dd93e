"""Tests for the columnar Table/Dataset storage layer."""

import io
import pickle

import numpy as np
import pytest

from repro.common.errors import DataGenerationError, QueryError
from repro.data.storage import Categorical, Dataset, ForeignKey, Table


@pytest.fixture
def small_table():
    return Table(
        "t",
        {
            "x": np.array([1, 2, 3, 4], dtype=np.int64),
            "y": np.array([1.5, 2.5, 3.5, 4.5]),
            "label": np.array(["a", "b", "a", "c"]),
        },
    )


class TestTableConstruction:
    def test_basic_properties(self, small_table):
        assert small_table.num_rows == 4
        assert len(small_table) == 4
        assert small_table.column_names == ["x", "y", "label"]

    def test_column_access(self, small_table):
        assert list(small_table["x"]) == [1, 2, 3, 4]
        assert "x" in small_table
        assert "zzz" not in small_table

    def test_unknown_column_raises_with_hint(self, small_table):
        with pytest.raises(QueryError, match="available"):
            small_table["missing"]

    def test_dtype_coercion(self):
        table = Table("t", {"b": np.array([True, False]), "s": ["p", "q"]})
        assert table["b"].dtype == np.int8
        assert table["s"].dtype.kind == "U"

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DataGenerationError, match="rows"):
            Table("t", {"a": [1, 2], "b": [1]})

    def test_rejects_empty_name(self):
        with pytest.raises(DataGenerationError):
            Table("", {"a": [1]})

    def test_rejects_no_columns(self):
        with pytest.raises(DataGenerationError):
            Table("t", {})

    def test_rejects_2d_arrays(self):
        with pytest.raises(DataGenerationError, match="1-D"):
            Table("t", {"a": np.zeros((2, 2))})

    def test_is_numeric(self, small_table):
        assert small_table.is_numeric("x")
        assert small_table.is_numeric("y")
        assert not small_table.is_numeric("label")

    def test_memory_bytes_positive(self, small_table):
        assert small_table.memory_bytes() > 0


class TestTableOperations:
    def test_select(self, small_table):
        mask = np.array([True, False, True, False])
        result = small_table.select(mask)
        assert result.num_rows == 2
        assert list(result["x"]) == [1, 3]

    def test_select_validates_mask(self, small_table):
        with pytest.raises(QueryError):
            small_table.select(np.array([True, False]))
        with pytest.raises(QueryError):
            small_table.select(np.array([1, 0, 1, 0]))

    def test_take(self, small_table):
        result = small_table.take(np.array([3, 0]))
        assert list(result["x"]) == [4, 1]

    def test_head(self, small_table):
        assert small_table.head(2).num_rows == 2

    def test_with_columns_adds_and_replaces(self, small_table):
        result = small_table.with_columns({"z": [0, 0, 0, 0], "x": [9, 9, 9, 9]})
        assert list(result["z"]) == [0, 0, 0, 0]
        assert list(result["x"]) == [9, 9, 9, 9]
        assert list(small_table["x"]) == [1, 2, 3, 4]  # original untouched

    def test_without_columns(self, small_table):
        result = small_table.without_columns(["y"])
        assert result.column_names == ["x", "label"]

    def test_renamed(self, small_table):
        assert small_table.renamed("other").name == "other"

    def test_rows_iteration(self, small_table):
        rows = list(small_table.rows())
        assert len(rows) == 4
        assert rows[0][0] == 1

    def test_equals(self, small_table):
        clone = Table("other", {c: small_table[c] for c in small_table.column_names})
        assert small_table.equals(clone)

    def test_not_equals_on_value_change(self, small_table):
        other = small_table.with_columns({"x": [1, 2, 3, 99]})
        assert not small_table.equals(other)

    def test_take_keeps_only_the_categories_rows_hold(self, small_table):
        categories, codes = small_table.take(np.array([2, 3, 2])).categorical("label")
        assert categories.tolist() == ["a", "c"]
        assert codes.tolist() == [0, 1, 0] and codes.dtype == np.int8


class TestNarrowStorage:
    def test_columns_are_stored_narrow_and_read_only(self):
        table = Table(
            "t",
            {
                "small": np.array([-128, 127], dtype=np.int64),
                "wide": np.array([-129, 40_000]),
                "huge": np.array([0, 2**40]),
                "f": np.array([0.5, 1.5], dtype=np.float32),
                "s": np.array(["zz", "a"], dtype=object),
            },
        )
        dtypes = {name: table[name].dtype for name in ("small", "wide", "huge", "f")}
        assert dtypes == {
            "small": np.int8, "wide": np.int32, "huge": np.int64, "f": np.float64,
        }
        categories, codes = table.categorical("s")
        assert categories.tolist() == ["a", "zz"] and codes.tolist() == [1, 0]
        for array in (table["small"], table["f"], categories, codes):
            assert not array.flags.writeable
        assert table["s"].tolist() == ["zz", "a"]

    def test_adopts_a_stored_column_without_copying(self):
        source = np.array([1, 2, 3], dtype=np.int8)
        table = Table("t", {"x": source})
        assert np.shares_memory(table["x"], source)
        assert source.flags.writeable  # only the table's view is locked
        again = Table("t2", {"x": table["x"], "s": table.with_columns(
            {"s": ["a", "b", "a"]}).categorical("s")})
        assert np.shares_memory(again["x"], source)

    def test_categorical_input_is_validated(self):
        with pytest.raises(DataGenerationError, match="sorted"):
            Table("t", {"s": Categorical(np.array(["b", "a"]), np.array([0, 1]))})
        with pytest.raises(DataGenerationError, match="lie in"):
            Table("t", {"s": Categorical(np.array(["a", "b"]), np.array([0, 2]))})

    def test_categorical_of_a_numeric_column_raises(self, small_table):
        with pytest.raises(QueryError, match="not nominal"):
            small_table.categorical("x")

    def test_fingerprint_digests_logical_content(self, small_table):
        wide = Table("t", {"x": np.array([1, 2, 3, 4]).astype(np.int32),
                           "y": small_table["y"], "label": small_table["label"]})
        assert wide.fingerprint() == small_table.fingerprint()
        assert small_table.with_columns({"x": [1, 2, 3, 5]}).fingerprint() != (
            small_table.fingerprint()
        )

    def test_wide_pickle_loads_narrow(self, small_table):
        """A table pickled before columns were stored narrow (int64 and
        unicode arrays, no categories) loads in the stored form."""
        old = Table.__new__(Table)
        old.__dict__.update(
            name="t",
            _columns={
                "x": np.array([1, 2, 3, 4], dtype=np.int64),
                "y": np.array([1.5, 2.5, 3.5, 4.5]),
                "label": np.array(["a", "b", "a", "c"]),
            },
            _num_rows=4,
            _fingerprint=small_table.fingerprint(),
        )
        loaded = pickle.loads(pickle.dumps(old))
        assert loaded["x"].dtype == np.int8
        assert loaded.categorical("label").categories.tolist() == ["a", "b", "c"]
        assert loaded.equals(small_table)
        assert loaded.fingerprint() == small_table.fingerprint()
        loaded._fingerprint = None
        assert loaded.fingerprint() == small_table.fingerprint()

    def test_narrow_pickle_round_trips(self, small_table):
        small_table.fingerprint()
        loaded = pickle.loads(pickle.dumps(small_table))
        assert loaded.equals(small_table)
        assert loaded.memory_bytes() == small_table.memory_bytes()
        assert loaded.fingerprint() == small_table.fingerprint()


class TestCsvRoundTrip:
    def test_file_round_trip(self, small_table, tmp_path):
        path = tmp_path / "t.csv"
        small_table.to_csv(path)
        loaded = Table.from_csv(path)
        assert loaded.equals(small_table)
        assert loaded.name == "t"

    def test_stream_round_trip(self, small_table):
        buffer = io.StringIO()
        small_table.to_csv(buffer)
        buffer.seek(0)
        loaded = Table.from_csv(buffer, name="t")
        assert loaded.equals(small_table)

    def test_dtype_inference(self):
        buffer = io.StringIO("i,f,s\n1,1.5,x\n2,2.5,y\n")
        table = Table.from_csv(buffer, name="t")
        assert table["i"].dtype == np.int8
        assert table["f"].dtype == np.float64
        assert table["s"].dtype.kind == "U"

    def test_empty_csv_rejected(self):
        with pytest.raises(DataGenerationError):
            Table.from_csv(io.StringIO(""), name="t")

    def test_ragged_csv_rejected(self):
        with pytest.raises(DataGenerationError):
            Table.from_csv(io.StringIO("a,b\n1\n"), name="t")

    def test_float_round_trip_is_exact(self, tmp_path):
        table = Table("t", {"v": np.array([0.1, 1e-17, 3.14159265358979])})
        path = tmp_path / "v.csv"
        table.to_csv(path)
        assert np.array_equal(Table.from_csv(path)["v"], table["v"])


class TestDataset:
    def test_from_table(self, small_table):
        dataset = Dataset.from_table(small_table)
        assert dataset.fact_table == "t"
        assert not dataset.is_normalized
        assert dataset.num_fact_rows == 4
        assert dataset.logical_columns() == ["x", "y", "label"]

    def test_gather_column_denormalized(self, small_table):
        dataset = Dataset.from_table(small_table)
        assert np.array_equal(dataset.gather_column("x"), small_table["x"])

    def test_resolve_unknown_column(self, small_table):
        dataset = Dataset.from_table(small_table)
        with pytest.raises(QueryError, match="not reachable"):
            dataset.resolve_column("ghost")

    def test_star_schema_resolution(self):
        dim = Table("d", {"d_key": np.array([0, 1]), "name": np.array(["u", "v"])})
        fact = Table("f", {"fk": np.array([0, 1, 1, 0]), "m": np.array([1, 2, 3, 4])})
        fk = ForeignKey("fk", "d", "d_key", (("NAME", "name"),))
        dataset = Dataset({"f": fact, "d": dim}, "f", [fk])
        assert dataset.is_normalized
        assert list(dataset.gather_column("NAME")) == ["u", "v", "v", "u"]
        table, column, resolved_fk = dataset.resolve_column("NAME")
        assert (table, column) == ("d", "name")
        assert resolved_fk is fk
        # FK columns are not part of the logical schema.
        assert dataset.logical_columns() == ["m", "NAME"]

    def test_rejects_unknown_fact_table(self, small_table):
        with pytest.raises(DataGenerationError):
            Dataset({"t": small_table}, "nope")

    def test_rejects_fk_to_unknown_table(self, small_table):
        fk = ForeignKey("x", "ghost", "k", (("A", "a"),))
        with pytest.raises(DataGenerationError):
            Dataset({"t": small_table}, "t", [fk])

    def test_rejects_fk_with_missing_fact_column(self, small_table):
        fk = ForeignKey("ghost_col", "t", "x", (("A", "a"),))
        with pytest.raises(DataGenerationError):
            Dataset({"t": small_table}, "t", [fk])

    def test_total_rows(self, small_table):
        dataset = Dataset.from_table(small_table)
        assert dataset.total_rows() == 4
