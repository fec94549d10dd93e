"""§4.2 validity: each scaled column follows its fitted marginal.

The copula scaler maps each column's uniform ``U = Φ(X̃)`` through the
column's inverse CDF, so every column of a scaled table is a sample of a
distribution known exactly from the fit:

* an integer column is ``rint(Q(U))``, with ``Q`` the piecewise-linear
  quantile function through ``(i / (n - 1), sample[i])``; so
  ``P(X <= x) = Q⁻¹(x + 1/2)``, a step function with steps at integers.
  The test is a one-sample KS test against it. Its p-value comes from the
  continuous Kolmogorov distribution, which is conservative for a
  discrete null;
* a nominal column takes category ``c`` with the fitted frequency
  ``cumulative[c] - cumulative[c - 1]``. The test is a chi-square
  goodness-of-fit test, with categories expected fewer than 5 times
  pooled into one cell.

Each of the 14 columns must hold at α = 0.01, Bonferroni-corrected over
the 14. docs/validity.md records the observed values.
"""

import numpy as np
import pytest
from scipy.stats import chisquare, kstwo

from repro.data.seed import FLIGHTS_COLUMNS

ROWS = 50_000
ALPHA = 0.01
CORRECTED_ALPHA = ALPHA / len(FLIGHTS_COLUMNS)


@pytest.fixture(scope="module")
def scaled(server_ctx):
    scaler = server_ctx.scaler
    return scaler, scaler.generate(ROWS, stream="validity")


def _ks_pvalue(values, cdf):
    assert cdf.integral  # every flights numeric column is
    sample = cdf.sorted_values.astype(np.float64)
    support = np.arange(sample[0], sample[-1] + 1)
    fitted = np.interp(support + 0.5, sample, np.linspace(0.0, 1.0, len(sample)))
    empirical = np.searchsorted(np.sort(values), support, "right") / len(values)
    # Both CDFs are constant between integers, so the sup is over ``support``.
    return kstwo.sf(np.abs(empirical - fitted).max(), len(values))


def _chisquare_pvalue(table, name, cdf):
    names, codes = table.categorical(name)
    observed = np.zeros(len(cdf.categories))
    by_name = np.argsort(cdf.categories)
    observed[by_name[np.searchsorted(cdf.categories[by_name], names)]] = np.bincount(
        codes, minlength=len(names)
    )
    expected = np.diff(cdf.cumulative, prepend=0.0) * len(codes)
    rare = expected < 5
    if rare.any():
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    return chisquare(observed, expected * observed.sum() / expected.sum()).pvalue


@pytest.mark.parametrize("name", FLIGHTS_COLUMNS)
def test_column_follows_its_fitted_marginal(scaled, name):
    scaler, table = scaled
    if name in scaler.numeric_cdfs:
        pvalue = _ks_pvalue(table[name], scaler.numeric_cdfs[name])
    else:
        pvalue = _chisquare_pvalue(table, name, scaler.nominal_cdfs[name])
    assert pvalue > CORRECTED_ALPHA, (name, pvalue)
