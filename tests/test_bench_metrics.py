"""Tests for the §4.7 metric suite."""

import json
import math
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.bench.metrics import QueryMetrics, _mean, compute_metrics
from repro.common.errors import BenchmarkError
from repro.engines.kernel_cache import kernel_cache
from repro.query.groundtruth import evaluate_exact
from repro.query.model import (
    AggFunc,
    Aggregate,
    AggQuery,
    BinColumns,
    BinDimension,
    BinKind,
    QueryResult,
)

from test_golden_reports import regen


def _query(num_aggs=1):
    aggs = [Aggregate(AggFunc.COUNT)]
    if num_aggs == 2:
        aggs.append(Aggregate(AggFunc.AVG, "v"))
    return AggQuery(
        "t",
        bins=(BinDimension("g", BinKind.NOMINAL),),
        aggregates=tuple(aggs),
    )


def _ground_truth(values, num_aggs=1):
    return QueryResult(
        query=_query(num_aggs), values=values, exact=True, fraction=1.0
    )


def _approx(values, margins=None, num_aggs=1):
    return QueryResult(
        query=_query(num_aggs),
        values=values,
        margins=margins or {},
        exact=False,
        fraction=0.1,
        rows_processed=100,
    )


class TestViolatedQueries:
    def test_violation_metrics(self):
        truth = _ground_truth({("a",): (10.0,), ("b",): (20.0,)})
        metrics = compute_metrics(None, truth)
        assert metrics.tr_violated
        assert metrics.missing_bins == 1.0
        assert metrics.bins_delivered == 0
        assert metrics.bins_in_gt == 2
        assert math.isnan(metrics.rel_error_avg)
        assert math.isnan(metrics.cosine_distance)

    def test_ground_truth_must_be_exact(self):
        fake_truth = _approx({("a",): (1.0,)})
        with pytest.raises(BenchmarkError):
            compute_metrics(None, fake_truth)


class TestPerfectAnswer:
    def test_all_zero_errors(self):
        values = {("a",): (10.0,), ("b",): (20.0,)}
        truth = _ground_truth(dict(values))
        metrics = compute_metrics(_approx(dict(values)), truth)
        assert not metrics.tr_violated
        assert metrics.missing_bins == 0.0
        assert metrics.rel_error_avg == 0.0
        assert metrics.smape == 0.0
        assert metrics.cosine_distance == pytest.approx(0.0, abs=1e-12)
        assert metrics.bias == pytest.approx(1.0)


class TestMissingBins:
    def test_ratio_definition(self):
        truth = _ground_truth({("a",): (1.0,), ("b",): (2.0,), ("c",): (3.0,)})
        result = _approx({("a",): (1.0,)})
        metrics = compute_metrics(result, truth)
        assert metrics.missing_bins == pytest.approx(2 / 3)
        assert metrics.bins_delivered == 1
        assert metrics.bins_in_gt == 3

    def test_empty_ground_truth(self):
        truth = _ground_truth({})
        metrics = compute_metrics(_approx({}), truth)
        assert metrics.missing_bins == 0.0


class TestRelativeError:
    def test_mean_relative_error(self):
        truth = _ground_truth({("a",): (10.0,), ("b",): (20.0,)})
        result = _approx({("a",): (12.0,), ("b",): (15.0,)})
        metrics = compute_metrics(result, truth)
        # |12-10|/10 = 0.2; |15-20|/20 = 0.25 → mean 0.225
        assert metrics.rel_error_avg == pytest.approx(0.225)

    def test_zero_truth_bins_excluded_from_mre(self):
        truth = _ground_truth({("a",): (0.0,), ("b",): (10.0,)})
        result = _approx({("a",): (1.0,), ("b",): (10.0,)})
        metrics = compute_metrics(result, truth)
        assert metrics.rel_error_avg == pytest.approx(0.0)  # only bin b counted

    def test_smape_defined_at_zero_truth(self):
        truth = _ground_truth({("a",): (0.0,)})
        result = _approx({("a",): (1.0,)})
        metrics = compute_metrics(result, truth)
        assert metrics.smape == pytest.approx(1.0)  # |1-0|/(1+0)

    def test_smape_zero_when_both_zero(self):
        truth = _ground_truth({("a",): (0.0,)})
        result = _approx({("a",): (0.0,)})
        metrics = compute_metrics(result, truth)
        assert metrics.smape == 0.0


class TestCosineDistance:
    def test_proportional_vectors_have_zero_distance(self):
        truth = _ground_truth({("a",): (10.0,), ("b",): (20.0,)})
        result = _approx({("a",): (5.0,), ("b",): (10.0,)})  # same shape, half scale
        metrics = compute_metrics(result, truth)
        assert metrics.cosine_distance == pytest.approx(0.0, abs=1e-12)
        assert metrics.bias == pytest.approx(0.5)

    def test_missing_bins_zero_filled(self):
        truth = _ground_truth({("a",): (10.0,), ("b",): (10.0,)})
        result = _approx({("a",): (10.0,)})
        metrics = compute_metrics(result, truth)
        # cos([10,0],[10,10]) = 1/sqrt(2)
        assert metrics.cosine_distance == pytest.approx(1 - 1 / math.sqrt(2))

    def test_empty_result_against_nonzero_truth(self):
        truth = _ground_truth({("a",): (10.0,)})
        metrics = compute_metrics(_approx({}), truth)
        assert metrics.cosine_distance == 1.0


class TestMargins:
    def test_relative_margins_and_out_of_margin(self):
        truth = _ground_truth({("a",): (10.0,), ("b",): (20.0,)})
        result = _approx(
            {("a",): (11.0,), ("b",): (30.0,)},
            margins={("a",): (2.0,), ("b",): (3.0,)},
        )
        metrics = compute_metrics(result, truth)
        # relative margins: 2/11, 3/30
        assert metrics.margin_avg == pytest.approx((2 / 11 + 3 / 30) / 2)
        # bin b is off by 10 > 3 → out of margin
        assert metrics.bins_out_of_margin == 1

    def test_none_margins_skipped(self):
        truth = _ground_truth({("a",): (10.0,)})
        result = _approx({("a",): (11.0,)}, margins={("a",): (None,)})
        metrics = compute_metrics(result, truth)
        assert math.isnan(metrics.margin_avg)
        assert metrics.bins_out_of_margin == 0


class TestMultiAggregate:
    def test_metrics_average_across_aggregates(self):
        truth = _ground_truth(
            {("a",): (10.0, 100.0)}, num_aggs=2
        )
        result = _approx({("a",): (10.0, 50.0)}, num_aggs=2)
        metrics = compute_metrics(result, truth)
        # agg0 perfect (0.0), agg1 rel error 0.5 → mean 0.25
        assert metrics.rel_error_avg == pytest.approx(0.25)


class TestBias:
    def test_overestimation(self):
        truth = _ground_truth({("a",): (10.0,), ("b",): (10.0,)})
        result = _approx({("a",): (15.0,), ("b",): (15.0,)})
        metrics = compute_metrics(result, truth)
        assert metrics.bias == pytest.approx(1.5)

    def test_bias_only_over_returned_bins(self):
        truth = _ground_truth({("a",): (10.0,), ("b",): (1000.0,)})
        result = _approx({("a",): (10.0,)})
        metrics = compute_metrics(result, truth)
        assert metrics.bias == pytest.approx(1.0)

    def test_cancelling_truths_leave_bias_undefined(self):
        """Signed truths summing to zero must not divide by zero.

        AVG aggregates can go negative (arrival delays), so a delivered
        bin set like (+5, -5) has |truth| sum > 0 but signed sum == 0 —
        the bias denominator. Regression for a crash surfaced ~40k
        sessions into a population-scale serving run.
        """
        truth = _ground_truth({("a",): (5.0,), ("b",): (-5.0,)})
        result = _approx({("a",): (4.0,), ("b",): (-3.0,)})
        metrics = compute_metrics(result, truth)
        assert math.isnan(metrics.bias)

    def test_negative_truths_with_nonzero_sum_keep_bias(self):
        truth = _ground_truth({("a",): (5.0,), ("b",): (-3.0,)})
        result = _approx({("a",): (5.0,), ("b",): (-3.0,)})
        metrics = compute_metrics(result, truth)
        assert metrics.bias == pytest.approx(1.0)


@hyp_settings(max_examples=60, deadline=None)
@given(
    truths=st.lists(st.floats(0.5, 1e4), min_size=1, max_size=12),
    noise=st.lists(st.floats(0.0, 2.0), min_size=12, max_size=12),
    keep=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_metric_bounds_property(truths, noise, keep):
    """Property: metric ranges hold for arbitrary results.

    missing ∈ [0,1]; MRE ≥ 0; SMAPE ∈ [0,1]; cosine ∈ [0,2]; bias > 0 for
    positive vectors; out-of-margin ≤ delivered bins.
    """
    keys = [(f"k{i}",) for i in range(len(truths))]
    truth = _ground_truth({k: (t,) for k, t in zip(keys, truths)})
    values = {}
    for i, (key, t) in enumerate(zip(keys, truths)):
        if keep[i % len(keep)]:
            values[key] = (t * noise[i % len(noise)],)
    result = _approx(values)
    metrics = compute_metrics(result, truth)
    assert 0.0 <= metrics.missing_bins <= 1.0
    if values:
        assert metrics.rel_error_avg >= 0.0
        assert 0.0 <= metrics.smape <= 1.0
        assert 0.0 <= metrics.cosine_distance <= 2.0
        if not math.isnan(metrics.bias):
            assert metrics.bias >= 0.0
    assert metrics.bins_out_of_margin <= max(len(values), 1)


class TestColumnsAndDictsScoreAlike:
    """An answer scores the same whether it arrives as columns (engines)
    or through the dict-taking constructor (adapters, stored artifacts)."""

    def test_every_pinned_estimate(self):
        scored = 0
        for _name, dataset, query, result in regen.estimator_pin_results():
            truth = evaluate_exact(dataset, query)
            as_dicts = QueryResult(
                query, dict(result.values), dict(result.margins),
                result.rows_processed, result.fraction, result.exact,
            )
            stored_truth = pickle.loads(pickle.dumps(truth))
            assert "by_key" in vars(as_dicts.columns)  # no conversion back
            expected = regen.metrics_digest(compute_metrics(result, truth))
            assert regen.metrics_digest(compute_metrics(as_dicts, truth)) == expected
            assert regen.metrics_digest(compute_metrics(result, stored_truth)) == expected
            scored += bool(result.num_bins)
        assert scored >= 100

    def test_lone_negative_zero_bias_reads_positive_zero(self):
        # 0.0 / -8.0 is -0.0; np.mean([-0.0]) — what the per-aggregate fold
        # was — starts its reduce from +0.0.
        truth = _ground_truth({("a",): (-5.0,), ("b",): (-3.0,)})
        metrics = compute_metrics(_approx({("a",): (2.0,), ("b",): (-2.0,)}), truth)
        assert metrics.bias == 0.0 and math.copysign(1.0, metrics.bias) == 1.0

    def test_none_margin_is_not_a_nan_margin(self):
        truth = _ground_truth({("a",): (10.0,), ("b",): (20.0,)})
        values = {("a",): (9.0,), ("b",): (22.0,)}
        skipped = compute_metrics(
            _approx(values, {("a",): (None,), ("b",): (2.0,)}), truth
        )
        counted = compute_metrics(
            _approx(values, {("a",): (math.nan,), ("b",): (2.0,)}), truth
        )
        assert skipped.margin_avg == pytest.approx(2.0 / 22.0)
        assert math.isnan(counted.margin_avg)

    def test_ground_truth_memo_is_built_once(self):
        truth = _ground_truth({("a",): (3.0,), ("b",): (-4.0,)})
        compute_metrics(_approx({("b",): (4.0,)}), truth)
        compute_metrics(_approx({("a",): (3.0,), ("b",): (4.0,)}), truth)
        names = ("index", "norms", "all_nonzero")
        memos = [getattr(truth.columns, name) for name in names]
        assert memos[1:] == [(5.0,), (True,)]
        compute_metrics(_approx({("a",): (3.0,), ("b",): (4.0,)}), truth)
        assert all(getattr(truth.columns, n) is m for n, m in zip(names, memos))


class TestAggregateRowsMustMatch:
    """An answer with another number of aggregate rows than its ground
    truth cannot be scored bin for bin: a typed error, never a bare
    ``IndexError`` or a score of the rows that happen to line up."""

    def test_fewer_rows_than_the_truth(self):
        truth = _ground_truth({("a",): (10.0, 1.0)}, num_aggs=2)
        with pytest.raises(BenchmarkError, match="1 aggregate rows.* 2"):
            compute_metrics(_approx({("a",): (10.0,)}), truth)

    def test_more_rows_than_the_truth(self):
        truth = _ground_truth({("a",): (10.0,)})
        with pytest.raises(BenchmarkError, match="2 aggregate rows.* 1"):
            compute_metrics(_approx({("a",): (10.0, 5.0)}, num_aggs=2), truth)


# ----------------------------------------------------------------------
# Differential oracle: the columnar ``compute_metrics`` as it stood
# before its alignment and truth-side fast paths, kept here (not under
# src/) as the reference every fast path must match bit for bit.
# ----------------------------------------------------------------------


def _reference_mean(cells):
    if len(cells) == 1:
        return cells[0] + 0.0
    return float(np.mean(cells)) if cells else float("nan")


def _reference_mean_std(cells):
    mean = np.add.reduce(cells) / len(cells)
    deviations = cells - mean
    return float(mean), math.sqrt(np.add.reduce(deviations * deviations) / len(cells))


def _reference_compute_metrics(result, ground_truth):
    if not ground_truth.exact:
        raise BenchmarkError("ground truth must be an exact result")
    truth = ground_truth.columns
    bins_in_gt = len(truth.keys)
    if result is None:
        return QueryMetrics.violated(bins_in_gt)
    answer = result.columns

    index = {key: i for i, key in enumerate(truth.keys)}
    position = np.array([index.get(key, -1) for key in answer.keys], dtype=np.intp)
    rows = position.argsort(kind="stable")[np.count_nonzero(position < 0):]
    position = position[rows]
    delivered = len(rows)
    complete = delivered == bins_in_gt
    norms = [math.sqrt(row.dot(row)) for row in truth.values]

    rel_means, rel_stds, smapes, cosines, relative_margins, biases = (
        [], [], [], [], [], []
    )
    out_of_margin = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(len(ground_truth.query.aggregates)):
            estimates = answer.values[j][rows]
            if complete:
                truths, zero_filled = truth.values[j], estimates
            else:
                truths = truth.values[j][position]
                zero_filled = np.zeros(bins_in_gt)
                zero_filled[position] = estimates
            norm_f = math.sqrt(zero_filled.dot(zero_filled))
            norm_a = norms[j]
            if norm_f == 0.0 and norm_a == 0.0:
                cosines.append(0.0)
            elif norm_f == 0.0 or norm_a == 0.0:
                cosines.append(1.0)
            else:
                cosine = float(zero_filled.dot(truth.values[j]) / (norm_f * norm_a))
                cosines.append(float(min(max(1.0 - cosine, 0.0), 2.0)))
            if not delivered:
                continue
            errors = np.abs(estimates - truths)
            magnitudes = np.abs(truths)
            nonzero = truths != 0
            rel = errors[nonzero] / magnitudes[nonzero]
            if len(rel):
                rel_mean, rel_std = _reference_mean_std(rel)
                rel_means.append(rel_mean)
                rel_stds.append(rel_std)
            denom = np.abs(estimates) + magnitudes
            smape_terms = np.where(denom > 0, errors / denom, 0.0)
            smapes.append(float(np.add.reduce(smape_terms) / delivered))
            truth_sum = float(truths.sum())
            if truth_sum != 0.0:
                biases.append(float(estimates.sum()) / truth_sum)
            if answer.margins is None:
                continue
            margins, bounded = answer.margins[j][rows], answer.bounded[j][rows]
            margins, errors = margins[bounded], errors[bounded]
            estimates = estimates[bounded]
            sizable = np.abs(estimates) > 1e-12
            relative = np.abs(margins) / np.abs(estimates)
            if not sizable.all():
                relative = np.where(sizable, relative, 0.0)[sizable | (margins == 0.0)]
            relative_margins.append(relative)
            out_of_margin += np.count_nonzero(errors > margins + 1e-12)

    margin_avg = margin_stdev = float("nan")
    if relative_margins:
        margin_values = np.concatenate(relative_margins)
        if len(margin_values):
            margin_avg, margin_stdev = _reference_mean_std(margin_values)
    return QueryMetrics(
        tr_violated=False,
        bins_delivered=len(answer.keys),
        bins_in_gt=bins_in_gt,
        missing_bins=(bins_in_gt - delivered) / bins_in_gt if bins_in_gt else 0.0,
        rel_error_avg=_reference_mean(rel_means),
        rel_error_stdev=_reference_mean(rel_stds),
        smape=_reference_mean(smapes),
        cosine_distance=_reference_mean(cosines),
        margin_avg=margin_avg,
        margin_stdev=margin_stdev,
        bins_out_of_margin=int(out_of_margin),
        bias=_reference_mean(biases),
    )


#: Cells every scoring branch turns on: signed zeros, NaN, ±inf, and
#: estimates within 1e-12 of 0 (sized out of the relative margins).
_SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-13, -5e-13, 1e-12)
_cells = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=True, allow_infinity=True),
)
_margins = st.one_of(st.none(), st.just(math.nan), st.floats(0.0, 1e6), _cells)
_AGGREGATES = (
    Aggregate(AggFunc.COUNT), Aggregate(AggFunc.AVG, "v"), Aggregate(AggFunc.SUM, "w"),
)


@st.composite
def _scored_pairs(draw):
    """``(answer, truth)``: 1–3 aggregates, answers missing truth bins,
    holding bins the truth lacks, in the truth's order (sometimes the
    truth's own key list), an ordered subset of it or a permutation —
    or the truth itself."""
    num_aggs = draw(st.integers(1, 3))
    query = AggQuery(
        "t", bins=(BinDimension("g", BinKind.NOMINAL),),
        aggregates=_AGGREGATES[:num_aggs],
    )
    num_bins = draw(st.integers(0, 9))
    truth_keys = [(f"k{i}",) for i in range(num_bins)]

    def rows(n):
        return [
            np.array(draw(st.lists(_cells, min_size=n, max_size=n)))
            for _ in range(num_aggs)
        ]

    truth_rows = rows(num_bins)
    if draw(st.booleans()):  # a truth row of zeros only
        truth_rows[0] = np.zeros(num_bins)
    truth = QueryResult(query, columns=BinColumns(truth_keys, truth_rows), exact=True)
    layout = draw(st.sampled_from(["self", "own_keys", "subset", "shuffled"]))
    if layout == "self":
        return truth, truth
    if layout == "own_keys":
        keys = truth.columns.keys
    else:
        kept = [key for key in truth_keys if draw(st.booleans())]
        if layout == "shuffled":
            kept += [(f"x{i}",) for i in range(draw(st.integers(0, 2)))]
            kept = draw(st.permutations(kept))
        keys = list(kept)
    margins = bounded = None
    if draw(st.booleans()):
        cells = [draw(st.lists(_margins, min_size=len(keys), max_size=len(keys)))
                 for _ in range(num_aggs)]
        margins = [np.array([math.nan if c is None else c for c in row]) for row in cells]
        bounded = [np.array([c is not None for c in row], dtype=bool) for row in cells]
    answer = QueryResult(
        query, columns=BinColumns(keys, rows(len(keys)), margins, bounded),
        rows_processed=10, fraction=0.1,
    )
    return answer, truth


@hyp_settings(max_examples=400, deadline=None)
@given(pair=_scored_pairs(), again=st.booleans())
def test_fast_paths_match_the_reference(pair, again):
    """Every alignment and truth-side fast path scores bit for bit what
    the reference does, on a fresh truth and on one whose memos a first
    scoring built (``again``)."""
    answer, truth = pair
    with np.errstate(all="ignore"):  # overflow and inf - inf are cells here
        if again:
            compute_metrics(answer, truth)
        expected = regen.metrics_digest(_reference_compute_metrics(answer, truth))
        assert regen.metrics_digest(compute_metrics(answer, truth)) == expected


_mean_cells = st.lists(
    st.one_of(
        st.sampled_from(
            (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.7e308, 1e16, 1.0, 0.1)
        ),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    max_size=9,
)


@hyp_settings(max_examples=300, deadline=None)
@given(cells=_mean_cells)
def test_mean_is_numpys_bit_for_bit(cells):
    """``_mean``'s Python fold equals ``float(np.mean(cells))`` in every
    bit — signed zeros, NaN payloads, ±inf and overflow — compared with
    the numpy installed, so a numpy that changes its reduce fails here."""
    with np.errstate(all="ignore"):  # eight cells and up are numpy's
        expected = float(np.mean(cells)) if cells else math.nan
        assert struct.pack("<d", _mean(cells)) == struct.pack("<d", expected)


_MEAN_EDGE_CELLS = [
    [-0.0], [-0.0, -0.0], [1e16, 1.0, 1.0], [1.7e308, 1.7e308], [math.inf, -math.inf],
    [math.nan, -math.nan], [-math.nan, 1.0, math.nan], [0.1] * 7, [0.1] * 8,
]


def _numpy_mean_bits(cells):
    with np.errstate(all="ignore"):
        return struct.pack("<d", float(np.mean(cells))).hex()


@pytest.mark.parametrize("cells", _MEAN_EDGE_CELLS)
def test_mean_edge_cells(cells):
    with np.errstate(all="ignore"):
        expected = float(np.mean(cells))
        assert struct.pack("<d", _mean(cells)) == struct.pack("<d", expected)


def test_mean_edge_cells_under_a_profiler():
    """A profile hook keeps CPython from specializing ``_mean``'s add,
    and the generic add picks the other NaN where two meet."""
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        got = [struct.pack("<d", _mean(cells)).hex() for cells in _MEAN_EDGE_CELLS]
    finally:
        sys.setprofile(previous)
    assert got == [_numpy_mean_bits(cells) for cells in _MEAN_EDGE_CELLS]


def test_mean_edge_cells_cold_in_a_fresh_process():
    """Every edge case on a never-run copy of ``_mean`` (a fresh code
    object starts unspecialized), in a process that scored nothing."""
    script = (
        "import json, math, struct, sys, types\n"
        "from repro.bench.metrics import _mean\n"
        "cells = json.loads(sys.stdin.read())\n"
        "for case in cells:\n"
        "    cold = types.FunctionType(_mean.__code__.replace(), _mean.__globals__)\n"
        "    case = [struct.unpack('<d', bytes.fromhex(c))[0] for c in case]\n"
        "    print(struct.pack('<d', cold(case)).hex())\n"
    )
    cases = json.dumps([  # as bit patterns: a NaN's sign does not survive repr
        [struct.pack("<d", c).hex() for c in cells] for cells in _MEAN_EDGE_CELLS
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], input=cases, capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.split() == [_numpy_mean_bits(cells) for cells in _MEAN_EDGE_CELLS]


class TestExactAnswerIdentity:
    """The exact answer is memoized on its kernel, so a blocking
    engine's answer is the oracle's ground truth object; its score
    against itself is memoized on it, and neither memo changes a byte."""

    def test_equal_queries_share_one_answer_while_cached(
        self, flights_dataset, carrier_count_query
    ):
        equal = AggQuery.from_dict(carrier_count_query.to_dict())
        assert equal is not carrier_count_query
        truth = evaluate_exact(flights_dataset, carrier_count_query)
        assert evaluate_exact(flights_dataset, equal) is truth

    def test_self_score_is_memoized_and_handed_out_as_copies(
        self, flights_dataset, delay_avg_query
    ):
        truth = evaluate_exact(flights_dataset, delay_avg_query)
        first = compute_metrics(truth, truth)
        memo = truth.columns.self_score
        second = compute_metrics(truth, truth)
        assert truth.columns.self_score is memo
        assert first == second == memo
        assert first is not second  # records never share one object
        expected = regen.metrics_digest(_reference_compute_metrics(truth, truth))
        assert regen.metrics_digest(second) == expected

    def test_pickled_truth_scores_alike(self, flights_dataset, delay_avg_query):
        truth = evaluate_exact(flights_dataset, delay_avg_query)
        stored = pickle.loads(pickle.dumps(truth))
        expected = regen.metrics_digest(compute_metrics(truth, truth))
        assert regen.metrics_digest(compute_metrics(stored, stored)) == expected
        assert regen.metrics_digest(compute_metrics(stored, truth)) == expected

    def test_recompiled_kernel_answers_anew_and_scores_alike(
        self, flights_dataset, delay_avg_query
    ):
        truth = evaluate_exact(flights_dataset, delay_avg_query)
        expected = regen.metrics_digest(compute_metrics(truth, truth))
        kernel_cache().clear()
        fresh = evaluate_exact(flights_dataset, delay_avg_query)
        assert fresh is not truth and fresh == truth
        assert regen.metrics_digest(compute_metrics(fresh, fresh)) == expected
        assert regen.metrics_digest(compute_metrics(fresh, truth)) == expected
