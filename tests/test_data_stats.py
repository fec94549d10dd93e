"""Tests for the copula statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.common.errors import DataGenerationError
from repro.data.stats import (
    NominalInverseCdf,
    NumericInverseCdf,
    correlation_of_scores,
    empirical_correlation,
    gaussian_to_uniform,
    normal_scores,
    safe_cholesky,
    spearman_correlation,
)


class TestNormalScores:
    def test_scores_are_standard_normal_ish(self, rng):
        values = rng.exponential(5.0, size=5_000)
        scores = normal_scores(values, rng)
        assert abs(scores.mean()) < 0.05
        assert abs(scores.std() - 1.0) < 0.05

    def test_monotone_in_rank_without_ties(self, rng):
        values = np.array([5.0, 1.0, 3.0])
        scores = normal_scores(values, rng)
        assert scores[1] < scores[2] < scores[0]

    def test_finite_for_all_inputs(self, rng):
        values = np.array([1.0] * 100)  # all tied
        scores = normal_scores(values, rng)
        assert np.isfinite(scores).all()

    def test_empty_rejected(self, rng):
        with pytest.raises(DataGenerationError):
            normal_scores(np.array([]), rng)

    def test_heavily_tied_column_equals_lexsort_reference(self):
        """The two-key ``lexsort`` spelling, verbatim, on the same draws."""
        from scipy import stats as scipy_stats

        def reference(values, rng):
            n = len(values)
            jitter = rng.permutation(n)
            order = np.lexsort((jitter, values))
            ranks = np.empty(n, dtype=np.float64)
            ranks[order] = np.arange(n, dtype=np.float64)
            uniforms = (ranks + 0.5) / n
            return scipy_stats.norm.ppf(uniforms)

        values = np.random.default_rng(3).integers(0, 4, size=5_000).astype(float)
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        assert np.array_equal(normal_scores(values, ours), reference(values, theirs))
        assert ours.random() == theirs.random()  # same number of draws


class TestSafeCholesky:
    def test_identity(self):
        lower = safe_cholesky(np.eye(3))
        assert np.allclose(lower, np.eye(3))

    def test_reconstructs_matrix(self, rng):
        a = rng.normal(size=(4, 4))
        sigma = a @ a.T + 4 * np.eye(4)
        lower = safe_cholesky(sigma)
        assert np.allclose(lower @ lower.T, sigma, atol=1e-8)

    def test_jitters_singular_matrix(self):
        singular = np.ones((3, 3))  # rank 1, PSD
        lower = safe_cholesky(singular)
        assert np.allclose(lower @ lower.T, singular, atol=1e-4)

    def test_rejects_indefinite_matrix(self):
        indefinite = np.array([[1.0, 0.0], [0.0, -5.0]])
        with pytest.raises(DataGenerationError):
            safe_cholesky(indefinite)

    def test_rejects_non_square(self):
        with pytest.raises(DataGenerationError):
            safe_cholesky(np.zeros((2, 3)))


class TestNumericInverseCdf:
    def test_recovers_quantiles(self):
        cdf = NumericInverseCdf.fit(np.arange(101, dtype=np.float64))
        assert cdf.apply(np.array([0.0]))[0] == pytest.approx(0.0)
        assert cdf.apply(np.array([1.0]))[0] == pytest.approx(100.0)
        assert cdf.apply(np.array([0.5]))[0] == pytest.approx(50.0)

    def test_integer_columns_stay_integer(self):
        cdf = NumericInverseCdf.fit(np.array([1, 2, 3], dtype=np.int64))
        out = cdf.apply(np.array([0.3, 0.9]))
        assert out.dtype == np.int64

    def test_clips_out_of_range_uniforms(self):
        cdf = NumericInverseCdf.fit(np.array([10.0, 20.0]))
        assert cdf.apply(np.array([-0.5]))[0] == pytest.approx(10.0)
        assert cdf.apply(np.array([1.5]))[0] == pytest.approx(20.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_output_within_sample_range(self, values):
        cdf = NumericInverseCdf.fit(np.array(values))
        out = cdf.apply(np.linspace(0, 1, 17))
        assert out.min() >= min(values) - 1e-9
        assert out.max() <= max(values) + 1e-9


class TestNominalInverseCdf:
    def test_preserves_marginals(self, rng):
        values = np.array(["a"] * 700 + ["b"] * 200 + ["c"] * 100)
        cdf = NominalInverseCdf.fit(values)
        out = cdf.apply(rng.random(20_000))
        frequencies = {c: (out == c).mean() for c in "abc"}
        assert frequencies["a"] == pytest.approx(0.7, abs=0.02)
        assert frequencies["b"] == pytest.approx(0.2, abs=0.02)
        assert frequencies["c"] == pytest.approx(0.1, abs=0.02)

    def test_categories_ordered_by_frequency(self):
        values = np.array(["rare"] + ["common"] * 9)
        cdf = NominalInverseCdf.fit(values)
        assert list(cdf.categories) == ["common", "rare"]

    def test_code_of_round_trips(self):
        values = np.array(["x", "y", "x", "z"])
        cdf = NominalInverseCdf.fit(values)
        codes = cdf.code_of(values)
        assert list(cdf.categories[codes]) == list(values)

    def test_code_of_unknown_value_rejected(self):
        cdf = NominalInverseCdf.fit(np.array(["a", "b"]))
        with pytest.raises(DataGenerationError):
            cdf.code_of(np.array(["zzz"]))

    def test_code_of_round_trips_when_one_category_prefixes_another(self):
        values = np.array(["AA", "A", "AA", "B", "AA", "A"])
        cdf = NominalInverseCdf.fit(values)
        assert list(cdf.categories) == ["AA", "A", "B"]
        assert list(cdf.code_of(values)) == [0, 1, 0, 2, 0, 1]

    def test_code_of_accepts_object_dtype(self):
        cdf = NominalInverseCdf.fit(np.array(["x", "y", "y"]))
        codes = cdf.code_of(np.array(["y", "x"], dtype=object))
        assert codes.dtype == np.int64 and list(codes) == [0, 1]

    @pytest.mark.parametrize("unknown", ["zz", "ab", "0"])
    def test_code_of_names_the_first_unknown_value(self, unknown):
        """Past the last sorted category, between two, before the first."""
        cdf = NominalInverseCdf.fit(np.array(["a", "b", "b", "c"]))
        with pytest.raises(DataGenerationError, match=repr(unknown)):
            cdf.code_of(np.array(["b", unknown, "nope", "a"]))


class TestCorrelationHelpers:
    def test_correlation_of_scores_diagonal_is_one(self, rng):
        scores = rng.normal(size=(500, 3))
        sigma = correlation_of_scores(scores)
        assert np.allclose(np.diag(sigma), 1.0)
        assert np.allclose(sigma, sigma.T)

    def test_correlation_detects_dependence(self, rng):
        x = rng.normal(size=2_000)
        scores = np.column_stack([x, x + rng.normal(0, 0.2, size=2_000)])
        sigma = correlation_of_scores(scores)
        assert sigma[0, 1] > 0.9

    def test_gaussian_to_uniform_bounds(self, rng):
        uniforms = gaussian_to_uniform(rng.normal(size=1_000))
        assert (uniforms >= 0).all() and (uniforms <= 1).all()
        assert abs(uniforms.mean() - 0.5) < 0.05

    def test_empirical_correlation_perfect(self):
        x = np.arange(10, dtype=np.float64)
        assert empirical_correlation(x, 2 * x + 1) == pytest.approx(1.0)

    def test_empirical_correlation_constant_column(self):
        x = np.ones(10)
        assert empirical_correlation(x, np.arange(10.0)) == 0.0

    def test_empirical_correlation_validates(self):
        with pytest.raises(DataGenerationError):
            empirical_correlation(np.array([1.0]), np.array([1.0]))

    def test_spearman_invariant_to_monotone_transform(self, rng):
        x = rng.exponential(size=1_000)
        y = x ** 3  # monotone
        assert spearman_correlation(x, y) == pytest.approx(1.0)
