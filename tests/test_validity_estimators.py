"""Known-defect pins: SUM/AVG margins on a column with a large offset.

The simple-random-sample estimator forms a variance as ``Σx²/n − mean²``
clamped at zero (``repro.engines.estimators``). On a column whose mean
dwarfs its spread the two terms cancel catastrophically and what is left
is rounding noise: over 1,000 rows of σ = 1 the ROADMAP measured a zero
margin (false certainty) at μ = 10⁸ and one 23× too wide at μ = 1.7·10⁹
(an epoch timestamp); this module's draw gives margins 3.7× and 64× too
wide. Each margin below must equal, within 1e-6 relative, the margin
``np.var`` of the same rows gives. They fail today and are marked strict
xfails, so the change that fixes the variance (ROADMAP item 1) must
remove the marker.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.storage import Dataset, Table
from repro.engines.estimators import srs_estimate, z_value
from repro.query.kernels import CompiledQueryKernel
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind

ROWS = 1_000
POPULATION = 100_000
LEVEL = 0.95


def _margin(mean: float, func: AggFunc) -> tuple:
    """The estimator's margin and ``np.var``'s, over one bin of ``ROWS``
    rows ``mean + N(0, 1)`` sampled from ``POPULATION``."""
    x = mean + np.random.default_rng(7).standard_normal(ROWS)
    table = Table("t", {"g": np.full(ROWS, "all"), "x": x})
    query = AggQuery(
        table="t",
        bins=(BinDimension("g", BinKind.NOMINAL),),
        aggregates=(Aggregate(func, "x"),),
    )
    stats = CompiledQueryKernel(Dataset.from_table(table), query).evaluate()
    estimate = srs_estimate(stats, ROWS, POPULATION, LEVEL)
    fpc = math.sqrt(1.0 - ROWS / POPULATION)
    scale = POPULATION if func is AggFunc.SUM else 1.0
    expected = z_value(LEVEL) * scale * math.sqrt(np.var(x) / ROWS) * fpc
    return float(estimate.margins[0][0]), expected


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("mean", [1e8, 1.7e9], ids=["mu1e8", "mu1.7e9"])
@pytest.mark.parametrize("func", [AggFunc.SUM, AggFunc.AVG], ids=["sum", "avg"])
def test_margin_matches_numpys_variance(mean, func):
    margin, expected = _margin(mean, func)
    assert margin == pytest.approx(expected, rel=1e-6)


def test_a_small_offset_is_within_bound():
    """The same construction at μ = 0 holds, so the pins above fail on
    the cancellation alone."""
    for func in (AggFunc.SUM, AggFunc.AVG):
        margin, expected = _margin(0.0, func)
        assert margin == pytest.approx(expected, rel=1e-6)
