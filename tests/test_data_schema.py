"""Tests for column profiling."""

import numpy as np
import pytest

from repro.common.errors import QueryError
from repro.data.normalize import FLIGHTS_STAR_SPEC, normalize
from repro.data.schema import (
    ColumnKind,
    profile_column,
    profile_dataset,
    profile_table,
)
from repro.data.storage import Table


class TestProfileColumn:
    def test_quantitative_profile(self):
        profile = profile_column("v", np.array([1.0, 5.0, 3.0]))
        assert profile.kind is ColumnKind.QUANTITATIVE
        assert profile.minimum == 1.0
        assert profile.maximum == 5.0
        assert profile.std > 0
        assert len(profile.quantiles) == 101
        assert profile.span == 4.0

    def test_quantile_lookup(self):
        profile = profile_column("v", np.arange(1001, dtype=np.float64))
        assert profile.quantile(0.0) == pytest.approx(0.0)
        assert profile.quantile(0.5) == pytest.approx(500.0)
        assert profile.quantile(1.0) == pytest.approx(1000.0)
        # Clipped outside [0, 1].
        assert profile.quantile(2.0) == pytest.approx(1000.0)

    def test_nominal_profile_orders_by_frequency(self):
        profile = profile_column("c", np.array(["b", "a", "b", "b", "a", "c"]))
        assert profile.kind is ColumnKind.NOMINAL
        assert profile.categories == ("b", "a", "c")
        assert profile.cardinality == 3

    @pytest.mark.parametrize(
        "values, expected",
        [
            (["d", "b", "a", "b", "d", "c", "a"], ("a", "b", "d", "c")),
            (["z", "y", "x"], ("x", "y", "z")),
            (["bb", "b", "", "b", "", "bb"], ("", "b", "bb")),
        ],
    )
    def test_equal_counts_keep_the_sorted_category_order(self, values, expected):
        """Ties break by category order: ``np.unique`` then a stable argsort."""
        values = np.array(values)
        categories, counts = np.unique(values, return_counts=True)
        reference = tuple(categories[np.argsort(-counts, kind="stable")].tolist())
        assert profile_column("c", values).categories == reference == expected

    def test_nominal_has_no_span(self):
        profile = profile_column("c", np.array(["x", "y"]))
        with pytest.raises(QueryError):
            _ = profile.span

    def test_quantitative_has_no_categories(self):
        profile = profile_column("v", np.array([1, 2]))
        assert profile.categories == ()


class TestProfileTable:
    def test_profiles_every_column(self, flights_table):
        profiles = profile_table(flights_table)
        assert set(profiles) == set(flights_table.column_names)

    def test_nominal_order_matches_the_sorting_reference(self, flights_table):
        for name in flights_table.column_names:
            if flights_table.is_numeric(name):
                continue
            values = flights_table[name]
            categories, counts = np.unique(values, return_counts=True)
            order = np.argsort(-counts, kind="stable")
            assert profile_column(name, values).categories == tuple(
                categories[order].tolist()
            )

    def test_kinds_match_dtypes(self, flights_table):
        profiles = profile_table(flights_table)
        assert profiles["DEP_DELAY"].kind is ColumnKind.QUANTITATIVE
        assert profiles["ORIGIN"].kind is ColumnKind.NOMINAL


class TestProfileDataset:
    def test_profiles_logical_columns_through_joins(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        profiles = profile_dataset(star)
        # FK columns must not be profiled; logical strings must be.
        assert "ORIGIN_KEY" not in profiles
        assert profiles["ORIGIN"].kind is ColumnKind.NOMINAL
        assert profiles["DEP_DELAY"].kind is ColumnKind.QUANTITATIVE

    def test_subset_selection(self, flights_dataset):
        profiles = profile_dataset(flights_dataset, columns=["DISTANCE"])
        assert list(profiles) == ["DISTANCE"]

    def test_dataset_profile_matches_table_profile(self, flights_table):
        star = normalize(flights_table, FLIGHTS_STAR_SPEC)
        from_star = profile_dataset(star)["UNIQUE_CARRIER"]
        from_flat = profile_table(flights_table)["UNIQUE_CARRIER"]
        assert from_star.categories == from_flat.categories
