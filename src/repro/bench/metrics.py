"""The IDEBench metric suite (§4.7).

For every executed query the benchmark evaluates, against the exact ground
truth:

=====================  ======================================================
Time Requirement       boolean — no result was available at the deadline
Violated
Missing Bins           |bins missing| / |bins in ground truth|
Mean Relative Error    mean over delivered bins of |Fᵢ−Aᵢ| / |Aᵢ|
SMAPE                  mean of |Fᵢ−Aᵢ| / (|Fᵢ|+|Aᵢ|) — defined at Aᵢ = 0
Cosine Distance        1 − cos(F, A) with missing bins zero-filled
Mean Margin of Error   mean and stdev of the *relative* margins of error
Out of Margin          number of per-bin results outside their margin
Bias                   Σ returned values / Σ true values of returned bins
=====================  ======================================================

Queries may carry several aggregates (e.g. COUNT + AVG); value-based
metrics are computed per aggregate and averaged (out-of-margin counts are
summed), while bin-based metrics (missing bins) are aggregate-independent.
A violated query has no result: missing bins is 1 and the value metrics
are NaN — the summary report only folds value metrics over non-violating
queries, exactly like Fig. 5.

Answers are scored as columns (:class:`repro.query.model.BinColumns`):
one float64 row per aggregate, delivered bins sorted into ground-truth
order, a handful of 1-D numpy calls per aggregate and no per-bin Python.
"""

from __future__ import annotations

import copy
import math
import weakref
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import BenchmarkError
from repro.query.model import BinColumns, QueryResult


@dataclass(frozen=True)
class QueryMetrics:
    """All §4.7 metrics of one executed query."""

    tr_violated: bool
    bins_delivered: int
    bins_in_gt: int
    missing_bins: float
    rel_error_avg: float
    rel_error_stdev: float
    smape: float
    cosine_distance: float
    margin_avg: float
    margin_stdev: float
    bins_out_of_margin: int
    bias: float

    @classmethod
    def violated(cls, bins_in_gt: int) -> "QueryMetrics":
        """Metrics of a query that produced no result within its TR."""
        nan = float("nan")
        return cls(
            tr_violated=True,
            bins_delivered=0,
            bins_in_gt=bins_in_gt,
            missing_bins=1.0,
            rel_error_avg=nan,
            rel_error_stdev=nan,
            smape=nan,
            cosine_distance=nan,
            margin_avg=nan,
            margin_stdev=nan,
            bins_out_of_margin=0,
            bias=nan,
        )


def _mean(cells: List[float]) -> float:
    """``float(np.mean(cells))`` of one figure per aggregate; NaN for none.

    Below eight cells numpy's add-reduce is a plain loop that starts from
    ``+0.0`` (so the mean of a lone ``-0.0`` is ``+0.0``); folding here
    gives the same bits without the ~9 µs of ``np.mean``'s dispatch.
    Where two NaNs meet, which one a Python ``+`` returns depends on the
    interpreter's state (a profiler or a cold process differs from a
    warm one), so a NaN total is left to numpy.
    """
    if not cells:
        return float("nan")
    if len(cells) >= 8:  # numpy sums eight cells and more pairwise
        return float(np.mean(cells))
    total = 0.0
    for cell in cells:
        total += cell
    if total != total:
        with np.errstate(invalid="ignore"):  # inf - inf is a cell here
            return float(np.mean(cells))
    return total / len(cells)


def _mean_std(cells: np.ndarray) -> Tuple[float, float]:
    """``(cells.mean(), cells.std())`` in numpy's own operation order,
    without its per-call dispatch (a third of a record's scoring)."""
    mean = np.add.reduce(cells) / len(cells)
    deviations = cells - mean
    return float(mean), math.sqrt(np.add.reduce(deviations * deviations) / len(cells))


def compute_metrics(
    result: Optional[QueryResult], ground_truth: QueryResult
) -> QueryMetrics:
    """Evaluate one query's answer against its exact ground truth.

    ``result=None`` means nothing was available at the deadline — a TR
    violation. Engines hand one answer object out again: a blocking
    engine's answer is the oracle's own object
    (:func:`repro.query.groundtruth.evaluate_exact` memoizes it on the
    kernel), and System X memoizes its sample's answer on the kernel for
    every TR. So an answer's score is memoized on it, and read while it
    is scored against the same truth object.
    """
    if not ground_truth.exact:
        raise BenchmarkError("ground truth must be an exact result")
    truth = ground_truth.columns
    if result is None:
        return QueryMetrics.violated(len(truth.keys))
    answer = result.columns
    memo = answer.score_memo
    if memo is not None and memo[0]() is truth:
        # A copy: records that shared one object would pickle it once,
        # and a stored cell's bytes would depend on the memo.
        return copy.copy(memo[1])
    if len(answer.values) != len(truth.values):
        raise BenchmarkError(
            f"answer holds {len(answer.values)} aggregate rows, its ground "
            f"truth {len(truth.values)}"
        )
    metrics = _score(answer, truth)
    # Weak: an answer that is its own truth would otherwise be a cycle.
    answer.score_memo = (weakref.ref(truth), metrics)
    return metrics


def _score(answer: BinColumns, truth: BinColumns) -> QueryMetrics:
    """The §4.7 metrics of ``answer``'s columns against ``truth``'s.

    Every reduction below is order-sensitive in its last bits, so the
    delivered bins are read in ground-truth order: as they come when the
    answer holds the truth's keys or an ordered subset of them, else
    sorted there through the truth's key index — absent bins drop out.
    The truth's index, norms and all-nonzero flags are memoized on
    it (the oracle hands the same answer out for every record of a query).
    """
    bins_in_gt = len(truth.keys)
    # rows: which answer cells to read, in ground-truth order (None: all,
    # as they are); position: where each sits in the truth (None: 0..n-1).
    rows = position = None
    if answer.keys != truth.keys:
        position = np.fromiter(
            map(truth.index.get, answer.keys, repeat(-1)), np.intp, len(answer.keys)
        )
        if len(position) and not (
            position[0] >= 0 and (position[1:] >= position[:-1]).all()
        ):
            rows = position.argsort(kind="stable")[np.count_nonzero(position < 0):]
            position = position[rows]
    delivered = bins_in_gt if position is None else len(position)
    complete = delivered == bins_in_gt  # then position is 0..n-1

    rel_means: List[float] = []
    rel_stds: List[float] = []
    smapes: List[float] = []
    cosines: List[float] = []
    relative_margins: List[np.ndarray] = []
    biases: List[float] = []
    out_of_margin = 0

    with np.errstate(divide="ignore", invalid="ignore"):
        for j, truth_row in enumerate(truth.values):
            estimates = answer.values[j]
            if rows is not None:
                estimates = estimates[rows]
            if complete:
                truths, zero_filled = truth_row, estimates
            else:
                # "we set the value at each missing bin to zero" (§4.7)
                truths = truth_row[position]
                zero_filled = np.zeros(bins_in_gt)
                zero_filled[position] = estimates

            norm_f = math.sqrt(zero_filled.dot(zero_filled))
            norm_a = truth.norms[j]
            if norm_f == 0.0 and norm_a == 0.0:
                cosines.append(0.0)
            elif norm_f == 0.0 or norm_a == 0.0:
                cosines.append(1.0)
            else:
                cosine = float(zero_filled.dot(truth_row) / (norm_f * norm_a))
                cosines.append(float(min(max(1.0 - cosine, 0.0), 2.0)))

            # Per-delivered-bin statistics (the §4.7 error definitions are
            # over "all bins returned in the result").
            if not delivered:
                continue
            errors = np.abs(estimates - truths)
            magnitudes = np.abs(truths)
            if truth.all_nonzero[j]:
                rel = errors / magnitudes
            else:
                nonzero = truths != 0
                rel = errors[nonzero] / magnitudes[nonzero]
            if len(rel):
                rel_mean, rel_std = _mean_std(rel)
                rel_means.append(rel_mean)
                rel_stds.append(rel_std)
            sizes = np.abs(estimates)
            denom = sizes + magnitudes
            smape_terms = errors / denom
            smape = np.add.reduce(smape_terms)
            if smape != smape:  # a 0/0 or NaN term: those count as 0
                smape = np.add.reduce(np.where(denom > 0, smape_terms, 0.0))
            smapes.append(float(smape / delivered))
            # Guard on the *signed* sum — the actual denominator. A
            # signed mix like (+5, -5) passes an abs-sum check yet
            # divides by zero (bias is undefined when truths cancel).
            truth_sum = float(np.add.reduce(truths))
            if truth_sum != 0.0:
                biases.append(float(np.add.reduce(estimates)) / truth_sum)

            # Relative margins and out-of-margin checks over the
            # delivered bins the engine bounds.
            if answer.margins is None:
                continue
            margins, bounded = answer.margins[j], answer.bounded[j]
            if rows is not None:
                margins, bounded = margins[rows], bounded[rows]
            # (count_nonzero: a third of what ``.all()`` costs on a short row)
            if np.count_nonzero(bounded) < len(bounded):
                margins, errors, sizes = margins[bounded], errors[bounded], sizes[bounded]
            sizable = sizes > 1e-12
            relative = np.abs(margins) / sizes
            if np.count_nonzero(sizable) < len(sizable):
                # a ~0 estimate counts only under margin 0
                relative = np.where(sizable, relative, 0.0)[
                    sizable | (margins == 0.0)
                ]
            relative_margins.append(relative)
            out_of_margin += np.count_nonzero(errors > margins + 1e-12)

    margin_avg = margin_stdev = float("nan")
    if relative_margins:
        margin_values = (
            relative_margins[0] if len(relative_margins) == 1
            else np.concatenate(relative_margins)
        )
        if len(margin_values):
            margin_avg, margin_stdev = _mean_std(margin_values)
    return QueryMetrics(
        tr_violated=False,
        bins_delivered=len(answer.keys),
        bins_in_gt=bins_in_gt,
        missing_bins=(bins_in_gt - delivered) / bins_in_gt if bins_in_gt else 0.0,
        rel_error_avg=_mean(rel_means),
        rel_error_stdev=_mean(rel_stds),
        smape=_mean(smapes),
        cosine_distance=_mean(cosines),
        margin_avg=margin_avg,
        margin_stdev=margin_stdev,
        bins_out_of_margin=int(out_of_margin),
        bias=_mean(biases),
    )
