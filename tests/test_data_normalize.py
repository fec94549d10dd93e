"""Tests for star-schema normalization (§4.2/§5.3)."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.common.errors import DataGenerationError
from repro.data.normalize import (
    DimensionSpec,
    FLIGHTS_STAR_SPEC,
    denormalize,
    normalize,
)
from repro.data.storage import Table


class TestFlightsStarSchema:
    @pytest.fixture(scope="class")
    def star(self, flights_table):
        return normalize(flights_table, FLIGHTS_STAR_SPEC)

    def test_creates_fact_and_dimensions(self, star):
        assert set(star.tables) == {"flights_fact", "airports", "carriers"}
        assert star.fact_table == "flights_fact"
        assert star.is_normalized

    def test_fact_has_fk_columns_not_strings(self, star):
        fact = star.fact
        for fk_column in ("ORIGIN_KEY", "DEST_KEY", "CARRIER_KEY"):
            assert fk_column in fact
            assert fact[fk_column].dtype == np.int8  # < 128 dimension rows
        for moved in ("ORIGIN", "DEST", "UNIQUE_CARRIER", "ORIGIN_STATE", "DEST_STATE"):
            assert moved not in fact

    def test_dimension_keys_equal_row_positions(self, star):
        airports = star.tables["airports"]
        assert np.array_equal(
            airports["airports_key"], np.arange(airports.num_rows)
        )

    def test_role_playing_dimension_unions_roles(self, star, flights_table):
        airports = star.tables["airports"]
        seen = set(np.unique(flights_table["ORIGIN"])) | set(
            np.unique(flights_table["DEST"])
        )
        assert set(airports["code"]) == seen

    def test_dimension_rows_are_unique(self, star):
        airports = star.tables["airports"]
        pairs = list(zip(airports["code"], airports["state"]))
        assert len(pairs) == len(set(pairs))

    def test_gather_column_reconstructs_values(self, star, flights_table):
        for logical in ("ORIGIN", "DEST_STATE", "UNIQUE_CARRIER"):
            assert np.array_equal(
                star.gather_column(logical), flights_table[logical]
            ), logical

    def test_normalization_reduces_total_cells(self, star, flights_table):
        # The §5.3 observation: splitting into fact + dims reduces size.
        flat_string_cells = flights_table.num_rows * 5  # five string columns
        dim_cells = sum(
            star.tables[t].num_rows * len(star.tables[t].column_names)
            for t in ("airports", "carriers")
        )
        assert dim_cells < flat_string_cells

    def test_denormalize_round_trip(self, star, flights_table):
        flat = denormalize(star)
        assert sorted(flat.column_names) == sorted(flights_table.column_names)
        for column in flights_table.column_names:
            assert np.array_equal(flat[column], flights_table[column]), column

    def test_denormalize_of_flat_dataset_is_identity(self, flights_dataset):
        assert denormalize(flights_dataset) is flights_dataset.fact


class TestSpecValidation:
    def test_rejects_empty_specs(self, flights_table):
        with pytest.raises(DataGenerationError):
            normalize(flights_table, [])

    def test_rejects_unknown_column(self, flights_table):
        spec = DimensionSpec("d", "D_KEY", (("GHOST", "g"),))
        with pytest.raises(DataGenerationError):
            normalize(flights_table, [spec])

    def test_rejects_duplicate_fact_column(self, flights_table):
        specs = [
            DimensionSpec("d", "K", (("ORIGIN", "code"),)),
            DimensionSpec("e", "K", (("DEST", "code"),)),
        ]
        with pytest.raises(DataGenerationError):
            normalize(flights_table, specs)

    def test_rejects_column_claimed_twice(self, flights_table):
        specs = [
            DimensionSpec("d", "K1", (("ORIGIN", "code"),)),
            DimensionSpec("e", "K2", (("ORIGIN", "code2"),)),
        ]
        with pytest.raises(DataGenerationError):
            normalize(flights_table, specs)

    def test_rejects_fk_name_collision_with_existing_column(self, flights_table):
        spec = DimensionSpec("d", "MONTH", (("ORIGIN", "code"),))
        with pytest.raises(DataGenerationError):
            normalize(flights_table, [spec])

    def test_rejects_role_disagreeing_on_dim_columns(self, flights_table):
        specs = [
            DimensionSpec("d", "K1", (("ORIGIN", "code"),)),
            DimensionSpec("d", "K2", (("DEST", "other"),)),
        ]
        with pytest.raises(DataGenerationError):
            normalize(flights_table, specs)


@hyp_settings(max_examples=25, deadline=None)
@given(
    labels=st.lists(
        st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=2, max_size=60
    ),
)
def test_normalize_denormalize_property(labels):
    """Round-trip holds for arbitrary label/measure tables."""
    table = Table(
        "t",
        {
            "label": np.array(labels),
            "measure": np.arange(len(labels), dtype=np.int64),
        },
    )
    star = normalize(table, [DimensionSpec("dim", "L_KEY", (("label", "name"),))])
    flat = denormalize(star)
    assert np.array_equal(flat["label"], table["label"])
    assert np.array_equal(flat["measure"], table["measure"])
    assert star.tables["dim"].num_rows == len(set(labels))
