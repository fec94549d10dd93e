"""Tests for the §4.7 metric suite."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.bench.metrics import QueryMetrics, compute_metrics
from repro.common.errors import BenchmarkError
from repro.query.groundtruth import evaluate_exact
from repro.query.model import (
    AggFunc,
    Aggregate,
    AggQuery,
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
        truth = _ground_truth({("a",): (3.0,), ("b",): (4.0,)})
        compute_metrics(_approx({("b",): (4.0,)}), truth)
        index, norms = truth.columns.index, truth.columns.norms
        assert norms == (5.0,)
        compute_metrics(_approx({("a",): (3.0,), ("b",): (4.0,)}), truth)
        assert truth.columns.index is index and truth.columns.norms is norms
