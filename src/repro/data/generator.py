"""The IDEBench data scaler: Gaussian-copula (NORTA) scaling of a seed.

Implements §4.2 of the paper, step for step:

1. draw a random sample from the seed dataset;
2. map every column to standard-normal scores (rank-based probit — the
   Gaussian-copula construction; nominal columns are ordered by category
   frequency first) and compute the covariance matrix Σ of the scores;
3. Cholesky-factor Σ = L Lᵀ;
4. per output tuple, draw X ~ N(0, I), correlate X̃ = L X, map to uniforms
   U = Φ(X̃), and push U through each column's empirical inverse CDF.

The result is a dataset of arbitrary size whose marginal distributions
match the seed sample and whose pairwise (rank) correlations match the
seed's — which is exactly the property the paper needs so that AQP result
quality remains comparable across scale factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.common.errors import DataGenerationError
from repro.common.rng import derive_rng
from repro.data.stats import (
    NominalInverseCdf,
    NumericInverseCdf,
    correlation_of_scores,
    gaussian_to_uniform,
    normal_scores,
    safe_cholesky,
)
from repro.data.storage import Table

#: Default number of seed rows used for the copula fit.
DEFAULT_FIT_SAMPLE = 20_000

#: Generation proceeds in batches to bound peak memory for large outputs.
DEFAULT_BATCH_ROWS = 200_000

#: Rows per block of Φ's transposing write: the strided reads stay in L2.
_PROBIT_BLOCK_ROWS = 4096


@dataclass
class CopulaScaler:
    """Fit once on a seed table, then generate any number of rows.

    Example
    -------
    >>> seed = generate_flights_seed(50_000, seed=1)   # doctest: +SKIP
    >>> scaler = CopulaScaler.fit(seed, seed_value=1)  # doctest: +SKIP
    >>> big = scaler.generate(1_000_000)               # doctest: +SKIP
    """

    column_names: List[str]
    cholesky: np.ndarray
    numeric_cdfs: Dict[str, NumericInverseCdf]
    nominal_cdfs: Dict[str, NominalInverseCdf]
    table_name: str
    seed_value: int
    correlation: np.ndarray = field(repr=False, default=None)

    @classmethod
    def fit(
        cls,
        seed_table: Table,
        fit_sample: int = DEFAULT_FIT_SAMPLE,
        seed_value: int = 42,
    ) -> "CopulaScaler":
        """Fit the copula model on a random sample of ``seed_table``."""
        if seed_table.num_rows < 2:
            raise DataGenerationError("seed table needs at least 2 rows to fit")
        rng = derive_rng(seed_value, "copula-fit", seed_table.name)
        n = min(fit_sample, seed_table.num_rows)
        sample_idx = rng.choice(seed_table.num_rows, size=n, replace=False)
        sample = seed_table.take(sample_idx)

        numeric_cdfs: Dict[str, NumericInverseCdf] = {}
        nominal_cdfs: Dict[str, NominalInverseCdf] = {}
        score_columns: List[np.ndarray] = []
        for name in sample.column_names:
            values = sample[name]
            if sample.is_numeric(name):
                numeric_cdfs[name] = NumericInverseCdf.fit(values)
                score_basis = values.astype(np.float64)
            else:
                cdf = NominalInverseCdf.fit(values)
                nominal_cdfs[name] = cdf
                # Frequency-rank codes put common categories at the center
                # of the Gaussian, preserving monotone association.
                score_basis = cdf.code_of(values).astype(np.float64)
            score_columns.append(normal_scores(score_basis, rng))

        scores = np.column_stack(score_columns)
        sigma = correlation_of_scores(scores)
        return cls(
            column_names=list(sample.column_names),
            cholesky=safe_cholesky(sigma),
            numeric_cdfs=numeric_cdfs,
            nominal_cdfs=nominal_cdfs,
            table_name=seed_table.name,
            seed_value=seed_value,
            correlation=sigma,
        )

    def generate(
        self,
        num_rows: int,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        stream: Optional[Union[int, str]] = None,
    ) -> Table:
        """Generate ``num_rows`` correlated tuples.

        ``stream`` differentiates independent outputs from the same fitted
        model (e.g. the S/M/L datasets each get their own stream so the
        smaller datasets are not prefixes of the larger ones).
        """
        if num_rows < 1:
            raise DataGenerationError(f"num_rows must be >= 1, got {num_rows}")
        rng = derive_rng(self.seed_value, "copula-generate", self.table_name, stream)
        batches: List[Table] = []
        remaining = num_rows
        while remaining > 0:
            batch = min(remaining, batch_rows)
            batches.append(self._generate_batch(batch, rng))
            remaining -= batch
        return batches[0] if len(batches) == 1 else Table.concat(self.table_name, batches)

    def _generate_batch(self, num_rows: int, rng: np.random.Generator) -> Table:
        k = len(self.column_names)
        # At most two (num_rows × k) buffers live at once. Φ writes one
        # (k × num_rows), block by block, so each inverse CDF reads a row.
        correlated = rng.standard_normal(size=(num_rows, k)) @ self.cholesky.T
        uniforms = np.empty((k, num_rows))
        for start in range(0, num_rows, _PROBIT_BLOCK_ROWS):
            block = slice(start, start + _PROBIT_BLOCK_ROWS)
            gaussian_to_uniform(correlated[block].T, out=uniforms[:, block])
        del correlated
        columns: Dict[str, np.ndarray] = {}
        for j, name in enumerate(self.column_names):
            u = uniforms[j]
            if name in self.numeric_cdfs:
                columns[name] = self.numeric_cdfs[name].apply(u)
            else:
                columns[name] = self.nominal_cdfs[name].apply(u)
        return Table(self.table_name, columns)


def scale_dataset(
    seed_table: Table,
    num_rows: int,
    seed_value: int = 42,
    fit_sample: int = DEFAULT_FIT_SAMPLE,
    stream: Optional[Union[int, str]] = None,
) -> Table:
    """One-shot convenience: fit a :class:`CopulaScaler` and generate.

    This is the call sites' entry point for §4.2's "scale any seed dataset
    to an arbitrary size". For repeated generation from one seed, fit the
    scaler once and call :meth:`CopulaScaler.generate` directly.
    """
    scaler = CopulaScaler.fit(seed_table, fit_sample=fit_sample, seed_value=seed_value)
    return scaler.generate(num_rows, stream=stream)
