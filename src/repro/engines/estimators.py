"""Sampling estimators with margins of error.

AQP engines return approximate answers plus confidence intervals at the
configured confidence level (§4.6, default 95 %). This module converts the
sufficient statistics a compiled kernel accumulates (a
:class:`~repro.query.groundtruth.GroupedStats`, or a ``StrataGrid`` of
them) into estimates and *absolute* margins of error, handed back as
:class:`repro.query.model.BinColumns` — one float64 row per aggregate,
which is what :func:`repro.bench.metrics.compute_metrics` reads; the
estimate still unpacks as its ``(values, margins)`` dict pair:

* :func:`srs_estimate` — simple random sampling (the progressive and
  online-aggregation engines sample uniformly from a shuffled permutation,
  so a prefix of size *n* is an SRS of the table);
* :func:`stratified_estimate` — stratified sampling with per-stratum
  weights (the offline-sample engine, System X), from one input form:
  :class:`StrataMoments`.

Margins derive from the usual CLT intervals: counts are binomial
proportions scaled by the population, sums are scaled sample means over
the *whole* sample (rows outside the bin contribute zero), and averages
use the within-bin standard error. MIN/MAX estimates carry no margin
(``bounded`` False; ``None`` in the dict form) — order statistics of a
sample bound nothing without distributional assumptions; the Bias metric
(§4.7) is what catches their systematic under/over-estimation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy.special import ndtri

from repro.common.errors import EngineError
from repro.query.groundtruth import GroupedStats, StrataGrid
from repro.query.model import AggFunc, AggQuery, BinColumns, BinKey


@functools.lru_cache(maxsize=32)
def z_value(confidence_level: float) -> float:
    """Two-sided normal critical value for ``confidence_level``.

    Memoized per level (a run uses one); a rejected level is never
    cached, so every bad call raises.
    """
    if not 0.0 < confidence_level < 1.0:
        raise EngineError(
            f"confidence level must be in (0, 1), got {confidence_level!r}"
        )
    return float(ndtri(0.5 + confidence_level / 2.0))


def _columns(keys: List[BinKey], rows: list) -> BinColumns:
    """An estimate from one ``(values, margins, bounded)`` triple per
    aggregate. ``margins=None``: no bin of that aggregate is bounded;
    ``bounded=None`` beside margins: every bin is."""
    values, margins, bounded = [], [], []
    for value, margin, has in rows:
        values.append(value)
        margins.append(np.zeros(len(keys)) if margin is None else margin)
        bounded.append(np.full(len(keys), margin is not None) if has is None else has)
    return BinColumns(keys, values, margins, bounded)


def srs_estimate(
    stats: GroupedStats,
    sample_size: int,
    population: int,
    confidence_level: float,
) -> BinColumns:
    """Estimates from a simple random sample of ``sample_size`` rows.

    ``stats`` must have been computed over exactly those rows.
    ``population`` is the total number of rows being estimated (the actual
    dataset size — estimates are in actual-data units so they are directly
    comparable to the ground truth; see docs/architecture.md,
    "Simulated engines").

    One array expression per aggregate, in the operation order of the
    scalar per-bin loop it replaced (``tests/test_engines_estimators.py``
    keeps that loop as the reference).
    """
    if sample_size <= 0:
        raise EngineError("cannot estimate from an empty sample")
    if sample_size > population:
        raise EngineError(
            f"sample of {sample_size} exceeds population {population}"
        )
    z = z_value(confidence_level)
    # Finite-population correction: as the sample approaches the full
    # table, margins collapse to zero (progressive engines converge).
    fpc = math.sqrt(max(0.0, 1.0 - sample_size / population))

    n = float(sample_size)
    k = stats.counts.astype(np.float64)
    rows = []
    with np.errstate(invalid="ignore"):  # NaN/inf cells propagate by design
        for j, agg in enumerate(stats.query.aggregates):
            if agg.func is AggFunc.COUNT:
                p = k / n
                var_p = np.maximum(p * (1.0 - p), 0.0)
                margin = z * population * np.sqrt(var_p / n) * fpc
                rows.append((p * population, margin, None))
            elif agg.func is AggFunc.SUM:
                mean_z = stats.sums[j] / n
                var_z = np.maximum(stats.sumsqs[j] / n - mean_z * mean_z, 0.0)
                margin = z * population * np.sqrt(var_z / n) * fpc
                rows.append((mean_z * population, margin, None))
            elif agg.func is AggFunc.AVG:
                mean_b = stats.sums[j] / k
                var_b = np.maximum(stats.sumsqs[j] / k - mean_b * mean_b, 0.0)
                # no interval from < 2 rows
                rows.append((mean_b, z * np.sqrt(var_b / k) * fpc, k >= 2))
            elif agg.func is AggFunc.MIN:
                rows.append((stats.mins[j], None, None))
            else:
                rows.append((stats.maxs[j], None, None))
    return _columns(stats.keys, rows)


@dataclass(frozen=True)
class StrataMoments:
    """Every stratum's contribution to a stratified estimate: row ``h`` of
    ``grid`` is stratum ``h``, ``weights[h]`` its expansion factor
    N_h / n_h and ``sample_sizes[h]`` its number of sampled rows n_h."""

    grid: StrataGrid
    weights: Sequence[float]
    sample_sizes: Sequence[int]


def stratified_estimate(
    query: AggQuery,
    strata: StrataMoments,
    confidence_level: float,
) -> BinColumns:
    """Combine per-stratum statistics into stratified estimates.

    COUNT/SUM use the standard stratified expansion with per-stratum
    binomial/mean variances; AVG is the ratio of the stratified SUM and
    COUNT estimates, its margin approximated by the pooled within-bin
    variance (delta method, documented approximation); MIN/MAX take the
    extremum over strata, without margins.

    One vectorized pass over the ``(strata, bins)`` grid, written to
    reproduce — bit for bit — a scalar loop that visits, per bin, the
    strata holding it in order: a cell of a stratum without the bin
    contributes an exact ``+0.0``, and sums over strata are cumulative,
    i.e. strictly sequential (docs/kernels.md, "One pass over strata").
    """
    if not strata.sample_sizes:
        raise EngineError("stratified estimate needs at least one stratum")
    for h, size in enumerate(strata.sample_sizes):
        if size <= 0:  # every variance below divides by n_h
            raise EngineError(f"stratum {h} holds no sampled row (sample_size {size})")
    z = z_value(confidence_level)
    grid = strata.grid

    # Only the columns some stratum observed take part: a kernel's grid
    # spans every group of its plan. ``bins`` puts them in first-seen
    # order: by first stratum holding them, then along the key axis.
    observed = (grid.counts > 0).any(axis=0).nonzero()[0]
    present = grid.counts[:, observed] > 0
    bins = np.argsort(present.argmax(axis=0), kind="stable")

    def over_strata(cells: np.ndarray) -> np.ndarray:
        # cumsum adds stratum after stratum (np.sum may pair them up);
        # `+ 0.0` is the scalar loop's start value, which turns an
        # all-``-0.0`` column into ``+0.0``.
        return (np.cumsum(cells, axis=0)[-1] + 0.0)[bins]

    def extremum(cells: np.ndarray, beats, start: float) -> np.ndarray:
        # Python's min(best, cell) takes the cell only when cell < best:
        # a NaN cell never wins and of two zeros the earlier stratum's
        # stays. np.fmin agrees on NaN but not on which zero.
        best = np.full(len(bins), start)
        for row in cells[:, observed[bins]]:
            best = np.where(beats(row, best), row, best)
        return best

    def per_stratum(factors: List[float]) -> np.ndarray:
        return np.array(factors, dtype=np.float64)[:, np.newaxis]

    # The squared factors are taken on Python floats: Python's ``**`` is
    # libm ``pow``, numpy's squares by ``x * x`` — different last bits.
    sizes = [float(size) for size in strata.sample_sizes]
    w = per_stratum(list(strata.weights))
    n_h = per_stratum(sizes)
    wn_squared = per_stratum(
        [(weight * size) ** 2 for weight, size in zip(strata.weights, sizes)]
    )
    w_squared = per_stratum([weight ** 2 for weight in strata.weights])

    k = grid.counts[:, observed].astype(np.float64)
    count_est = over_strata(w * k)

    rows = []
    with np.errstate(invalid="ignore"):  # NaN/inf cells propagate by design
        for j, agg in enumerate(query.aggregates):
            if agg.func is AggFunc.COUNT:
                p = k / n_h
                margin = z * np.sqrt(over_strata(wn_squared * p * (1.0 - p) / n_h))
                rows.append((count_est, margin, None))
            elif agg.func.reads_sums:
                sums, sumsqs = grid.sums[j][:, observed], grid.sumsqs[j][:, observed]
                sum_est = over_strata(w * sums)
                if agg.func is AggFunc.SUM:
                    mean_z = sums / n_h
                    var_z = np.maximum(sumsqs / n_h - mean_z * mean_z, 0.0)
                    margin = z * np.sqrt(over_strata(wn_squared * var_z / n_h))
                    rows.append((sum_est, margin, None))
                else:
                    # Bins only enter through a stratum that observed
                    # them, so count_est > 0 holds; guard anyway.
                    if (count_est <= 0).any():
                        raise EngineError("stratified AVG over an empty bin")
                    # Cells with k = 0 hold zero sums: any non-zero
                    # denominator yields the exact zeros they must add.
                    k_or_one = np.where(present, k, 1.0)
                    mean_b = sums / k_or_one
                    var_b = np.maximum(sumsqs / k_or_one - mean_b * mean_b, 0.0)
                    margin = (
                        z * np.sqrt(over_strata(w_squared * k * var_b)) / count_est
                    )
                    # no interval from < 2 rows
                    rows.append((sum_est / count_est, margin, ~(count_est < 2)))
            elif agg.func is AggFunc.MIN:
                rows.append((extremum(grid.mins[j], np.less, np.inf), None, None))
            else:
                rows.append((extremum(grid.maxs[j], np.greater, -np.inf), None, None))

    return _columns([grid.keys[g] for g in observed[bins].tolist()], rows)
