"""Tests for sampling estimators and confidence intervals.

Includes a statistical coverage check: across many random samples, the
fraction of true values inside the reported 95 % interval must be near
95 % — the property the Out-of-Margin metric (§4.7) sanity-checks.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.common.errors import EngineError
from repro.data.storage import Dataset, Table
from repro.engines.estimators import srs_estimate, stratified_estimate, z_value
from repro.query.groundtruth import compute_grouped_stats, evaluate_exact
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

import test_estimator_pins as pins


@pytest.fixture(scope="module")
def population(rng):
    n = 20_000
    groups = rng.choice(["a", "b", "c"], size=n, p=[0.6, 0.3, 0.1])
    values = rng.normal(50, 10, size=n) + (groups == "b") * 30
    table = Table("p", {"g": groups, "v": values})
    return Dataset.from_table(table)


@pytest.fixture(scope="module")
def count_sum_avg_query():
    return AggQuery(
        "p",
        bins=(BinDimension("g", BinKind.NOMINAL),),
        aggregates=(
            Aggregate(AggFunc.COUNT),
            Aggregate(AggFunc.SUM, "v"),
            Aggregate(AggFunc.AVG, "v"),
        ),
    )


class TestZValue:
    def test_95_percent(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-4)

    def test_99_percent(self):
        assert z_value(0.99) == pytest.approx(2.575829, abs=1e-4)

    def test_monotone(self):
        assert z_value(0.99) > z_value(0.9) > z_value(0.5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, float("nan")])
    def test_rejects_out_of_range(self, bad):
        for _ in range(2):  # memoized per level, but a rejection never is
            with pytest.raises(EngineError):
                z_value(bad)

    def test_computed_once_per_level(self, monkeypatch):
        from repro.engines import estimators

        calls = []
        real_ndtri = estimators.ndtri
        monkeypatch.setattr(
            estimators, "ndtri", lambda q: calls.append(q) or real_ndtri(q)
        )
        z_value.cache_clear()
        assert z_value(0.9) == z_value(0.9) == float(real_ndtri(0.95))
        assert z_value(0.8) != z_value(0.9)
        assert calls == [0.95, 0.9]

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_equals_scipy_stats_norm_ppf(self, level):
        """``src/`` reaches the probit through ``scipy.special`` alone;
        the ``scipy.stats`` spelling it replaced is the reference."""
        from scipy.stats import norm

        assert z_value(level) == float(norm.ppf(0.5 + level / 2))


class TestSrsEstimate:
    def test_full_sample_is_exact_with_zero_margins(
        self, population, count_sum_avg_query
    ):
        n = population.num_fact_rows
        stats = compute_grouped_stats(
            population, count_sum_avg_query, np.arange(n)
        )
        values, margins = srs_estimate(stats, n, n, 0.95)
        exact = evaluate_exact(population, count_sum_avg_query)
        for key, exact_row in exact.values.items():
            assert values[key] == pytest.approx(exact_row, rel=1e-9)
            count_margin, sum_margin, avg_margin = margins[key]
            assert count_margin == pytest.approx(0.0, abs=1e-9)
            assert sum_margin == pytest.approx(0.0, abs=1e-9)
            assert avg_margin == pytest.approx(0.0, abs=1e-9)

    def test_estimates_are_unbiased_ish(self, population, count_sum_avg_query, rng):
        exact = evaluate_exact(population, count_sum_avg_query)
        n = 2_000
        sums = {key: np.zeros(3) for key in exact.values}
        repeats = 30
        for _ in range(repeats):
            sample = rng.choice(population.num_fact_rows, size=n, replace=False)
            stats = compute_grouped_stats(population, count_sum_avg_query, sample)
            values, _ = srs_estimate(stats, n, population.num_fact_rows, 0.95)
            for key, row in values.items():
                sums[key] += np.array(row)
        for key, exact_row in exact.values.items():
            mean_estimate = sums[key] / repeats
            assert mean_estimate[0] == pytest.approx(exact_row[0], rel=0.05)
            assert mean_estimate[1] == pytest.approx(exact_row[1], rel=0.05)
            assert mean_estimate[2] == pytest.approx(exact_row[2], rel=0.02)

    def test_margins_shrink_with_sample_size(self, population, count_sum_avg_query):
        margins_by_n = {}
        for n in (500, 5_000):
            stats = compute_grouped_stats(
                population, count_sum_avg_query, np.arange(n)
            )
            _, margins = srs_estimate(stats, n, population.num_fact_rows, 0.95)
            margins_by_n[n] = margins[("a",)][0]
        assert margins_by_n[5_000] < margins_by_n[500]

    def test_min_max_have_no_margin(self, population):
        query = AggQuery(
            "p",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.MIN, "v"), Aggregate(AggFunc.MAX, "v")),
        )
        stats = compute_grouped_stats(population, query, np.arange(1_000))
        _, margins = srs_estimate(stats, 1_000, population.num_fact_rows, 0.95)
        for row in margins.values():
            assert row == (None, None)

    def test_singleton_avg_has_no_margin(self):
        table = Table("t", {"g": ["x", "y"], "v": [1.0, 2.0]})
        dataset = Dataset.from_table(table)
        query = AggQuery(
            "t",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.AVG, "v"),),
        )
        stats = compute_grouped_stats(dataset, query, np.array([0]))
        _, margins = srs_estimate(stats, 1, 2, 0.95)
        assert margins[("x",)] == (None,)

    def test_validation(self, population, count_sum_avg_query):
        stats = compute_grouped_stats(
            population, count_sum_avg_query, np.arange(10)
        )
        with pytest.raises(EngineError):
            srs_estimate(stats, 0, 100, 0.95)
        with pytest.raises(EngineError):
            srs_estimate(stats, 200, 100, 0.95)

    def test_coverage_near_confidence_level(self, population, rng):
        """~95 % of intervals must contain the truth (the key CI property)."""
        query = AggQuery(
            "p",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.AVG, "v"),),
        )
        exact = evaluate_exact(population, query)
        inside = total = 0
        for _ in range(150):
            sample = rng.choice(population.num_fact_rows, size=800, replace=False)
            stats = compute_grouped_stats(population, query, sample)
            values, margins = srs_estimate(
                stats, 800, population.num_fact_rows, 0.95
            )
            for key, (estimate,) in values.items():
                margin = margins[key][0]
                if margin is None or key not in exact.values:
                    continue
                total += 1
                if abs(estimate - exact.values[key][0]) <= margin:
                    inside += 1
        assert total > 300
        assert 0.90 <= inside / total <= 0.99


class TestStratifiedEstimate:
    def _strata(self, population, query, quotas, rng):
        groups = population.gather_column("g")
        strata = []
        for label in np.unique(groups):
            members = np.flatnonzero(groups == label)
            quota = min(quotas, len(members))
            chosen = rng.choice(members, size=quota, replace=False)
            stats = compute_grouped_stats(population, query, chosen)
            strata.append(
                pins.Stratum(
                    stats=stats,
                    weight=len(members) / quota,
                    sample_size=quota,
                )
            )
        return pins.strata_moments(query, strata)

    def test_count_estimates_close_to_truth(self, population, rng):
        query = AggQuery(
            "p",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.COUNT),),
        )
        exact = evaluate_exact(population, query)
        strata = self._strata(population, query, 400, rng)
        values, margins = stratified_estimate(query, strata, 0.95)
        for key, (truth,) in exact.values.items():
            estimate = values[key][0]
            # Stratifying on the group column makes group counts near-exact.
            assert estimate == pytest.approx(truth, rel=0.02)
            assert margins[key][0] is not None

    def test_avg_ratio_estimator(self, population, rng):
        query = AggQuery(
            "p",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.AVG, "v"),),
        )
        exact = evaluate_exact(population, query)
        strata = self._strata(population, query, 500, rng)
        values, _ = stratified_estimate(query, strata, 0.95)
        for key, (truth,) in exact.values.items():
            assert values[key][0] == pytest.approx(truth, rel=0.05)

    def test_rare_stratum_guaranteed_presence(self, population, rng):
        query = AggQuery(
            "p",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.COUNT),),
        )
        strata = self._strata(population, query, 10, rng)
        values, _ = stratified_estimate(query, strata, 0.95)
        assert ("c",) in values  # rare group cannot be missing

    def test_min_max_take_extrema_over_strata(self, population, rng):
        query = AggQuery(
            "p",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.MIN, "v"), Aggregate(AggFunc.MAX, "v")),
        )
        strata = self._strata(population, query, 200, rng)
        values, margins = stratified_estimate(query, strata, 0.95)
        for key in values:
            low, high = values[key]
            assert low <= high
            assert margins[key] == (None, None)

    def test_rejects_empty_strata(self):
        query = AggQuery(
            "p",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.COUNT),),
        )
        with pytest.raises(EngineError):
            stratified_estimate(query, pins.strata_moments(query, []), 0.95)

    def test_rejects_a_stratum_without_sampled_rows(self, population, rng):
        query = AggQuery(
            "p",
            bins=(BinDimension("g", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.SUM, "v"),),
        )
        strata = self._strata(population, query, 50, rng)
        sizes = list(strata.sample_sizes)
        sizes[1] = 0
        strata = dataclasses.replace(strata, sample_sizes=sizes)
        # Every variance divides by n_h: the old loop skipped such a
        # stratum, the grid would carry its NaN into every bin.
        with pytest.raises(EngineError, match="stratum 1 holds no sampled row"):
            stratified_estimate(query, strata, 0.95)


# ----------------------------------------------------------------------
# The scalar loop srs_estimate replaced, verbatim
# ----------------------------------------------------------------------
def reference_srs_estimate(stats, sample_size, population, confidence_level):
    if sample_size <= 0:
        raise EngineError("cannot estimate from an empty sample")
    if sample_size > population:
        raise EngineError(
            f"sample of {sample_size} exceeds population {population}"
        )
    z = z_value(confidence_level)
    fpc = math.sqrt(max(0.0, 1.0 - sample_size / population))

    values = {}
    margins = {}
    n = float(sample_size)
    with np.errstate(invalid="ignore"):  # NaN/inf cells propagate by design
        for g, key in enumerate(stats.keys):
            row_values = []
            row_margins = []
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


INF = math.inf
srs_cells = st.lists(
    st.lists(
        st.one_of(
            st.floats(min_value=-1e6, max_value=1e6),
            st.sampled_from([math.nan, INF, -INF, 0.0, -0.0, 1.0, 1e-300]),
        ),
        max_size=4,
    ),
    min_size=len(pins.ALL_KEYS), max_size=len(pins.ALL_KEYS),
)


@hyp_settings(max_examples=300, deadline=None)
@given(
    functions=pins.function_draws,
    cells=srs_cells,
    extra_rows=st.integers(min_value=0, max_value=50),
    unsampled=st.integers(min_value=0, max_value=10_000),
)
# counts of 1: AVG margin None exactly where fewer than two rows fell
@example(
    functions=[AggFunc.AVG, AggFunc.COUNT],
    cells=[[3.0], [], [1.0, 1.0], [], [2.5]], extra_rows=0, unsampled=7,
)
# the sample is the population: fpc == 0 zeroes finite margins, inf * 0 is NaN
@example(
    functions=[AggFunc.COUNT, AggFunc.SUM, AggFunc.AVG],
    cells=[[1.0, 2.0], [INF, 1.0], [], [-0.0], [4.0, 4.0]], extra_rows=3, unsampled=0,
)
# NaN and ±inf cells: poisoned moments, inf - inf variances, extrema
@example(
    functions=[AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX],
    cells=[[math.nan], [1.0, math.nan], [INF, -INF], [-INF, 2.0], [INF]],
    extra_rows=1, unsampled=20,
)
def test_vectorized_srs_equals_the_scalar_loop(functions, cells, extra_rows, unsampled):
    query = pins._query(functions)
    if not any(cells):
        extra_rows = max(extra_rows, 1)  # a sample holds >= 1 row
    stratum = pins._stratum(query, cells, extra_rows, 1.0)
    population = stratum.sample_size + unsampled
    expected = reference_srs_estimate(stratum.stats, stratum.sample_size, population, 0.95)
    pins.assert_same_estimates(
        srs_estimate(stratum.stats, stratum.sample_size, population, 0.95), expected
    )
