"""Tests for the Gaussian-copula data scaler (§4.2).

The scaler's contract: output of any size whose marginal distributions and
pairwise rank correlations match the seed sample. These are statistical
assertions, so tolerances are generous but the sample sizes make failures
indicate real regressions, not noise.
"""

import numpy as np
import pytest

from repro.common.errors import DataGenerationError
from repro.data.generator import _APPLY_ROWS, CopulaScaler, scale_dataset
from repro.data.seed import generate_flights_seed
from repro.data.stats import spearman_correlation
from repro.data.storage import Table


def stored_bytes(table):
    """Every stored array of ``table``: its dtype and its bytes."""
    arrays = []
    for name in table.column_names:
        numeric = table.is_numeric(name)
        parts = (table[name],) if numeric else table.categorical(name)
        arrays.extend((part.dtype.str, part.tobytes()) for part in parts)
    return arrays


@pytest.fixture(scope="module")
def scaler(flights_table):
    return CopulaScaler.fit(flights_table, seed_value=11)


@pytest.fixture(scope="module")
def scaled(scaler):
    return scaler.generate(12_000)


class TestFit:
    def test_fit_captures_all_columns(self, scaler, flights_table):
        assert scaler.column_names == flights_table.column_names
        total = len(scaler.numeric_cdfs) + len(scaler.nominal_cdfs)
        assert total == len(flights_table.column_names)

    def test_correlation_matrix_is_valid(self, scaler):
        sigma = scaler.correlation
        assert np.allclose(np.diag(sigma), 1.0)
        assert np.allclose(sigma, sigma.T)
        eigenvalues = np.linalg.eigvalsh(sigma)
        assert eigenvalues.min() > -1e-8

    def test_rejects_tiny_seed(self):
        with pytest.raises(DataGenerationError):
            CopulaScaler.fit(Table("t", {"a": [1]}))


class TestGenerate:
    def test_row_count_and_schema(self, scaled, flights_table):
        assert scaled.num_rows == 12_000
        assert scaled.column_names == flights_table.column_names

    def test_dtypes_preserved(self, scaled, flights_table):
        for name in flights_table.column_names:
            assert scaled[name].dtype.kind == flights_table[name].dtype.kind, name

    def test_batching_invisible(self, scaler):
        one_batch = scaler.generate(1_000, batch_rows=2_000, stream="x")
        many_batches = scaler.generate(1_000, batch_rows=100, stream="x")
        assert one_batch.equals(many_batches)

    @pytest.mark.parametrize("batch_rows", [4_096, 40_000, 200_000])
    @pytest.mark.parametrize("num_rows", [1, 4_095, 4_097, _APPLY_ROWS + 1, 70_000])
    def test_split_never_shows_in_the_bytes(self, scaler, num_rows, batch_rows):
        """Batches, the correlating product's row blocks and the inverse
        CDFs' chunks all split the rows; none may move a stored byte."""
        whole = stored_bytes(scaler.generate(num_rows, batch_rows=num_rows))
        split = stored_bytes(scaler.generate(num_rows, batch_rows=batch_rows))
        assert split == whole

    @pytest.mark.parametrize("batch_rows", [0, -5])
    def test_rejects_batches_without_rows(self, scaler, batch_rows):
        message = f"batch_rows must be >= 1, got {batch_rows}"
        with pytest.raises(DataGenerationError, match=message):
            scaler.generate(10, batch_rows=batch_rows)

    def test_streams_are_independent(self, scaler):
        a = scaler.generate(500, stream="a")
        b = scaler.generate(500, stream="b")
        assert not a.equals(b)

    def test_deterministic(self, scaler):
        a = scaler.generate(500, stream=1)
        b = scaler.generate(500, stream=1)
        assert a.equals(b)

    def test_rejects_zero_rows(self, scaler):
        with pytest.raises(DataGenerationError):
            scaler.generate(0)


class TestStatisticalFidelity:
    """The §4.2 promise: distributions and relationships are maintained."""

    def test_numeric_marginals_preserved(self, scaled, flights_table):
        for column in ("DEP_DELAY", "DISTANCE", "DEP_TIME"):
            seed_q = np.percentile(flights_table[column], [10, 25, 50, 75, 90])
            out_q = np.percentile(scaled[column], [10, 25, 50, 75, 90])
            span = flights_table[column].max() - flights_table[column].min()
            assert np.all(np.abs(seed_q - out_q) < 0.05 * span), column

    def test_nominal_marginals_preserved(self, scaled, flights_table):
        seed_values, seed_counts = np.unique(
            flights_table["UNIQUE_CARRIER"], return_counts=True
        )
        seed_freq = dict(zip(seed_values, seed_counts / flights_table.num_rows))
        out_values, out_counts = np.unique(
            scaled["UNIQUE_CARRIER"], return_counts=True
        )
        out_freq = dict(zip(out_values, out_counts / scaled.num_rows))
        for category, frequency in seed_freq.items():
            if frequency > 0.02:
                assert out_freq.get(category, 0.0) == pytest.approx(
                    frequency, abs=0.02
                ), category

    def test_rank_correlations_preserved(self, scaled, flights_table):
        pairs = [("DEP_DELAY", "ARR_DELAY"), ("DISTANCE", "AIR_TIME")]
        for a, b in pairs:
            seed_rho = spearman_correlation(flights_table[a], flights_table[b])
            out_rho = spearman_correlation(scaled[a], scaled[b])
            assert out_rho == pytest.approx(seed_rho, abs=0.1), (a, b)

    def test_uncorrelated_stays_uncorrelated(self, scaled):
        rho = spearman_correlation(scaled["MONTH"], scaled["DISTANCE"])
        assert abs(rho) < 0.1

    def test_nominal_numeric_association_preserved(self, scaled, flights_table):
        # Carrier rank correlates with delay in the seed (carrier quality
        # effect); the copula must keep that monotone association.
        def carrier_delay_gap(table):
            carriers = table["UNIQUE_CARRIER"]
            values, counts = np.unique(carriers, return_counts=True)
            common = values[np.argmax(counts)]
            rare = values[np.argmin(counts)]
            common_delay = table["DEP_DELAY"][carriers == common].mean()
            rare_delay = table["DEP_DELAY"][carriers == rare].mean()
            return rare_delay - common_delay

        assert carrier_delay_gap(flights_table) > 0
        assert carrier_delay_gap(scaled) > 0


class TestScaleDatasetHelper:
    def test_one_shot_equivalent_to_fit_generate(self, flights_table):
        direct = scale_dataset(flights_table, 400, seed_value=5, stream="s")
        scaler = CopulaScaler.fit(flights_table, seed_value=5)
        indirect = scaler.generate(400, stream="s")
        assert direct.equals(indirect)
