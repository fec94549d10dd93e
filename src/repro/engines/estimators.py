"""Sampling estimators with margins of error.

AQP engines return approximate answers plus confidence intervals at the
configured confidence level (§4.6, default 95 %). This module converts the
sufficient statistics of :func:`repro.query.groundtruth.compute_grouped_stats`
into estimates and *absolute* margins of error:

* :func:`srs_estimate` — simple random sampling (the progressive and
  online-aggregation engines sample uniformly from a shuffled permutation,
  so a prefix of size *n* is an SRS of the table);
* :func:`stratified_estimate` — stratified sampling with per-stratum
  weights (the offline-sample engine, System X).

Margins derive from the usual CLT intervals: counts are binomial
proportions scaled by the population, sums are scaled sample means over
the *whole* sample (rows outside the bin contribute zero), and averages
use the within-bin standard error. MIN/MAX estimates carry no margin
(``None``) — order statistics of a sample bound nothing without
distributional assumptions; the Bias metric (§4.7) is what catches their
systematic under/over-estimation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats as scipy_stats

from repro.common.errors import EngineError
from repro.query.groundtruth import GroupedStats
from repro.query.model import AggFunc, AggQuery, BinKey

#: values / margins mapping types returned by the estimators.
Values = Dict[BinKey, Tuple[float, ...]]
Margins = Dict[BinKey, Tuple[Optional[float], ...]]


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
    return float(scipy_stats.norm.ppf(0.5 + confidence_level / 2.0))


def srs_estimate(
    stats: GroupedStats,
    sample_size: int,
    population: int,
    confidence_level: float,
) -> Tuple[Values, Margins]:
    """Estimates from a simple random sample of ``sample_size`` rows.

    ``stats`` must have been computed over exactly those rows.
    ``population`` is the total number of rows being estimated (the actual
    dataset size — estimates are in actual-data units so they are directly
    comparable to the ground truth; see DESIGN.md §1.3).
    """
    if sample_size <= 0:
        raise EngineError("cannot estimate from an empty sample")
    if sample_size > population:
        raise EngineError(
            f"sample of {sample_size} exceeds population {population}"
        )
    z = z_value(confidence_level)
    expansion = population / sample_size
    # Finite-population correction: as the sample approaches the full
    # table, margins collapse to zero (progressive engines converge).
    fpc = math.sqrt(max(0.0, 1.0 - sample_size / population))

    values: Values = {}
    margins: Margins = {}
    n = float(sample_size)
    with np.errstate(invalid="ignore"):  # NaN/inf cells propagate by design
        for g, key in enumerate(stats.keys):
            row_values: List[float] = []
            row_margins: List[Optional[float]] = []
            k = float(stats.counts[g])
            for j, agg in enumerate(stats.query.aggregates):
                if agg.func is AggFunc.COUNT:
                    p = k / n
                    row_values.append(p * population)
                    row_margins.append(
                        z * population * math.sqrt(max(p * (1.0 - p), 0.0) / n) * fpc
                    )
                elif agg.func is AggFunc.SUM:
                    mean_z = stats.sums[j][g] / n
                    var_z = max(stats.sumsqs[j][g] / n - mean_z * mean_z, 0.0)
                    row_values.append(mean_z * population)
                    row_margins.append(z * population * math.sqrt(var_z / n) * fpc)
                elif agg.func is AggFunc.AVG:
                    mean_b = stats.sums[j][g] / k
                    row_values.append(mean_b)
                    if k >= 2:
                        var_b = max(stats.sumsqs[j][g] / k - mean_b * mean_b, 0.0)
                        row_margins.append(z * math.sqrt(var_b / k) * fpc)
                    else:
                        row_margins.append(None)
                elif agg.func is AggFunc.MIN:
                    row_values.append(float(stats.mins[j][g]))
                    row_margins.append(None)
                elif agg.func is AggFunc.MAX:
                    row_values.append(float(stats.maxs[j][g]))
                    row_margins.append(None)
            values[key] = tuple(row_values)
            margins[key] = tuple(row_margins)
    return values, margins


@dataclass(frozen=True)
class StratumStats:
    """One stratum's contribution to a stratified estimate.

    ``weight`` is the expansion factor N_h / n_h of the stratum;
    ``sample_size`` its number of sampled rows n_h.
    """

    stats: GroupedStats
    weight: float
    sample_size: int


def stratified_estimate(
    query: AggQuery,
    strata: Sequence[StratumStats],
    confidence_level: float,
) -> Tuple[Values, Margins]:
    """Combine per-stratum statistics into stratified estimates.

    COUNT/SUM use the standard stratified expansion with per-stratum
    binomial/mean variances; AVG is the ratio of the stratified SUM and
    COUNT estimates, its margin approximated by the pooled within-bin
    variance (delta method, documented approximation); MIN/MAX take the
    extremum over strata, without margins.
    """
    if not strata:
        raise EngineError("stratified estimate needs at least one stratum")
    z = z_value(confidence_level)

    # Union of keys over strata, preserving first-seen order.
    all_keys: List[BinKey] = []
    seen = set()
    for stratum in strata:
        for key in stratum.stats.keys:
            if key not in seen:
                seen.add(key)
                all_keys.append(key)
    index_per_stratum = [
        {key: g for g, key in enumerate(s.stats.keys)} for s in strata
    ]

    values: Values = {}
    margins: Margins = {}
    for key in all_keys:
        row_values: List[float] = []
        row_margins: List[Optional[float]] = []
        for j, agg in enumerate(query.aggregates):
            count_est = 0.0
            count_var = 0.0
            sum_est = 0.0
            sum_var = 0.0
            within_var = 0.0
            minimum = math.inf
            maximum = -math.inf
            for stratum, key_index in zip(strata, index_per_stratum):
                g = key_index.get(key)
                if g is None:
                    continue
                stats = stratum.stats
                w = stratum.weight
                n_h = float(stratum.sample_size)
                k = float(stats.counts[g])
                p = k / n_h
                count_est += w * k
                count_var += (w * n_h) ** 2 * p * (1.0 - p) / n_h
                if agg.func in (AggFunc.SUM, AggFunc.AVG):
                    mean_z = stats.sums[j][g] / n_h
                    var_z = max(
                        stats.sumsqs[j][g] / n_h - mean_z * mean_z, 0.0
                    )
                    sum_est += w * stats.sums[j][g]
                    sum_var += (w * n_h) ** 2 * var_z / n_h
                    if k >= 1:
                        mean_b = stats.sums[j][g] / k
                        var_b = max(
                            stats.sumsqs[j][g] / k - mean_b * mean_b, 0.0
                        )
                        within_var += (w ** 2) * k * var_b
                if agg.func is AggFunc.MIN:
                    minimum = min(minimum, float(stats.mins[j][g]))
                if agg.func is AggFunc.MAX:
                    maximum = max(maximum, float(stats.maxs[j][g]))

            if agg.func is AggFunc.COUNT:
                row_values.append(count_est)
                row_margins.append(z * math.sqrt(count_var))
            elif agg.func is AggFunc.SUM:
                row_values.append(sum_est)
                row_margins.append(z * math.sqrt(sum_var))
            elif agg.func is AggFunc.AVG:
                # Keys only enter all_keys through a stratum that observed
                # them, so count_est > 0 holds; guard anyway for safety.
                if count_est <= 0:
                    raise EngineError(f"stratified AVG over empty bin {key!r}")
                avg_est = sum_est / count_est
                row_values.append(avg_est)
                row_margins.append(
                    z * math.sqrt(within_var) / count_est if count_est >= 2 else None
                )
            elif agg.func is AggFunc.MIN:
                row_values.append(minimum)
                row_margins.append(None)
            elif agg.func is AggFunc.MAX:
                row_values.append(maximum)
                row_margins.append(None)
        if row_values:
            values[key] = tuple(row_values)
            margins[key] = tuple(row_margins)
    return values, margins
