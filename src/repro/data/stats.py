"""Statistical helpers for the Gaussian-copula data scaler (§4.2).

The paper's scaling procedure is, verbatim: *"From the seed dataset we
first create a random sample. We then compute the covariance matrix Σ and
perform the Cholesky decomposition on Σ = AᵀA. To create a new tuple, we
first generate a vector X ∼ N(0,1) of random normal variables and induce
correlation by computing X̃ = AX. We then transform X̃ to uniform
distribution and finally use the CDF from our sample to transform the
uniform variables to a correlated tuple."*

This module provides the building blocks: rank-based normal scores (so the
covariance is computed on a common Gaussian scale — the standard NORTA /
Gaussian-copula construction), a numerically safe Cholesky, and empirical
inverse CDFs for both quantitative and nominal columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from repro.common.errors import DataGenerationError


def normal_scores(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Map ``values`` to standard-normal scores via randomized ranks.

    Ties are broken randomly (with ``rng``) rather than averaged: averaging
    collapses heavily tied columns (e.g. integer delays, category codes) to
    a few atoms, which deflates the estimated correlations. The uniform
    rank ``(r + 0.5) / n`` keeps scores strictly inside (0, 1) so the probit
    transform stays finite.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        raise DataGenerationError("cannot compute normal scores of empty column")
    jitter = rng.permutation(n)
    # Rows laid out in jitter order, then sorted stably by value: the order
    # of ``np.lexsort((jitter, values))`` from one single-key sort.
    by_jitter = np.empty(n, dtype=np.intp)
    by_jitter[jitter] = np.arange(n)
    order = by_jitter[np.argsort(values[by_jitter], kind="stable")]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(n, dtype=np.float64)
    return ndtri((ranks + 0.5) / n)


def safe_cholesky(matrix: np.ndarray, max_jitter: float = 1e-3) -> np.ndarray:
    """Lower-triangular Cholesky factor with escalating diagonal jitter.

    Covariance matrices of normal scores are positive semi-definite in
    exact arithmetic but can fail numerically (constant columns, strong
    collinearity). We add ``eps * I`` with ``eps`` escalating by 10× until
    factorization succeeds, failing loudly past ``max_jitter``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataGenerationError(f"expected square matrix, got {matrix.shape}")
    eps = 0.0
    while True:
        try:
            return np.linalg.cholesky(matrix + eps * np.eye(len(matrix)))
        except np.linalg.LinAlgError:
            eps = 1e-10 if eps == 0.0 else eps * 10.0
            if eps > max_jitter:
                raise DataGenerationError(
                    "covariance matrix is too far from positive definite "
                    f"(jitter {eps:.1e} exceeded limit {max_jitter:.1e})"
                ) from None


@dataclass(frozen=True)
class NumericInverseCdf:
    """Empirical inverse CDF of a numeric sample (linear interpolation).

    ``apply`` maps uniforms in [0, 1] to sample quantiles — the last step
    of the §4.2 pipeline for quantitative columns. Integer columns are
    rounded back to integers so the scaled data keeps the seed's dtype.
    """

    sorted_values: np.ndarray
    integral: bool

    @classmethod
    def fit(cls, values: np.ndarray) -> "NumericInverseCdf":
        array = np.asarray(values, dtype=np.float64)
        return cls(np.sort(array), bool(np.asarray(values).dtype.kind == "i"))

    def apply(self, uniforms: np.ndarray) -> np.ndarray:
        positions = np.clip(uniforms, 0.0, 1.0) * (len(self.sorted_values) - 1)
        lower = np.floor(positions).astype(np.int64)
        upper = np.minimum(lower + 1, len(self.sorted_values) - 1)
        frac = positions - lower
        result = (
            self.sorted_values[lower] * (1.0 - frac)
            + self.sorted_values[upper] * frac
        )
        if self.integral:
            return np.rint(result).astype(np.int64)
        return result


@dataclass(frozen=True)
class NominalInverseCdf:
    """Empirical inverse CDF of a categorical sample.

    Categories are ordered by descending frequency; a uniform ``u`` maps to
    the first category whose cumulative probability exceeds ``u``. Ordering
    by frequency makes the probit scale meaningful for correlations: common
    categories sit near the center of the Gaussian, rare ones in the tail,
    which preserves monotone association between, e.g., carrier and delay.
    """

    categories: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "NominalInverseCdf":
        categories, counts = np.unique(np.asarray(values, dtype=str), return_counts=True)
        order = np.argsort(-counts, kind="stable")
        categories, counts = categories[order], counts[order]
        cumulative = np.cumsum(counts) / counts.sum()
        return cls(categories, cumulative)

    def apply(self, uniforms: np.ndarray) -> np.ndarray:
        indices = np.searchsorted(self.cumulative, np.clip(uniforms, 0.0, 1.0))
        indices = np.minimum(indices, len(self.categories) - 1)
        return self.categories[indices]

    def code_of(self, values: np.ndarray) -> np.ndarray:
        """Frequency-rank codes of ``values`` (0 = most common)."""
        values = np.asarray(values, dtype=str)
        by_name = np.argsort(self.categories)
        names = self.categories[by_name]
        slots = np.minimum(np.searchsorted(names, values), len(names) - 1)
        known = names[slots] == values
        if not known.all():
            raise DataGenerationError(
                f"value {str(values[np.argmin(known)])!r} not present in "
                "fitted categories"
            )
        return by_name[slots].astype(np.int64, copy=False)


def correlation_of_scores(scores: np.ndarray) -> np.ndarray:
    """Covariance matrix of column-stacked normal scores.

    With standardized scores this is (up to sampling noise) the copula
    correlation matrix Σ of §4.2; the diagonal is re-normalized to exactly
    1 so the generated marginals stay N(0, 1).
    """
    if scores.ndim != 2:
        raise DataGenerationError(f"expected 2-D score matrix, got {scores.ndim}-D")
    sigma = np.cov(scores, rowvar=False)
    sigma = np.atleast_2d(sigma)
    diag = np.sqrt(np.clip(np.diag(sigma), 1e-12, None))
    sigma = sigma / np.outer(diag, diag)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def gaussian_to_uniform(samples: np.ndarray) -> np.ndarray:
    """Probit inverse: map correlated N(0,1) samples to uniforms (Φ)."""
    return ndtr(samples)


def empirical_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two numeric arrays (test/validation helper)."""
    if len(x) != len(y) or len(x) < 2:
        raise DataGenerationError("need two equal-length arrays of size >= 2")
    if float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def spearman_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (what the copula actually preserves)."""
    # Local: this import costs more than the rest of ``repro`` together.
    from scipy.stats import spearmanr

    return float(spearmanr(x, y)[0])
