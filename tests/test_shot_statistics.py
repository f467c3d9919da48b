"""The shot path against multinomial statistics, not against itself.

The default noisy outputs of ``heisenberg_fidelity`` and ``field_fidelity``
(64 points, 8,000 shots, p_readout 0.02) are measured in all nine settings
under seeds 0-199. Each (seed, point, setting) draw must then be an
independent multinomial over the readout-folded outcome distribution: the
cell means and variances must be binomial, and counts must be uncorrelated
between the settings of one point, between adjacent points and between
seeds s and s + 1. A re-keyed stream that collides with another, a lost
readout fold or a redraw that biases the counts fails here, where tests
that pin the program's own bytes would be re-recorded along with it.

Seeds are fixed, so every test is deterministic. Each bound is a
chi-square quantile at a Bonferroni share of a total false-alarm rate of
1e-6 over every comparison made below; a correlation r of m independent
standardized products is bounded through (r sqrt(m))^2 ~ chi-square(1).
"""

import math

import numpy as np
import pytest

from xsim import experiments
from xsim.experiments import run_experiment
from xsim.tomography import FULL, measure_block, setting_probabilities

SWEEPS = ("heisenberg_fidelity", "field_fidelity")
SEEDS = 200
POINTS, SETTINGS, OUTCOMES = 64, len(FULL), 4
CELLS = POINTS * SETTINGS * OUTCOMES
# means, variances, setting pairs of one point, setting pairs of adjacent
# points, and adjacent seeds, per sweep
COMPARISONS = len(SWEEPS) * (
    CELLS + CELLS + POINTS * SETTINGS * (SETTINGS - 1) // 2 + (POINTS - 1) * SETTINGS**2 + POINTS * SETTINGS
)
ALPHA = 1e-6 / COMPARISONS


def chi2_tails(x: float, k: int) -> tuple:
    """(P(X <= x), P(X > x)) for X ~ chi-square(k): the regularized
    incomplete gamma at (k/2, x/2), by its series below k/2 + 1 and its
    continued fraction above, each tail computed where it is small."""
    a, x = k / 2.0, x / 2.0
    if x <= 0.0:
        return 0.0, 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > 1e-17 * total:
            n += 1.0
            term *= x / n
            total += term
        return front * total, 1.0 - front * total
    # modified Lentz evaluation of the continued fraction for Q
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i = d, 1
    while True:
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return 1.0 - front * h, front * h
        i += 1


def chi2_quantile(tail: float, k: int, upper: bool = True) -> float:
    """x with P(X > x) = tail (upper) or P(X <= x) = tail (lower), by bisection."""
    lo, hi = 0.0, k + 50.0 * math.sqrt(2.0 * k) + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cdf, sf = chi2_tails(mid, k)
        if (sf > tail) if upper else (cdf < tail):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# |z| bound of one standardized comparison
Z_BOUND = math.sqrt(chi2_quantile(ALPHA, 1))


def test_chi2_tails_match_closed_forms():
    # chi-square(2): P(X > x) = exp(-x/2); chi-square(1): P(X > z^2) = erfc(z / sqrt 2)
    for x in (0.01, 1.0, 7.0, 60.0):
        assert chi2_tails(x, 2)[1] == pytest.approx(math.exp(-x / 2.0), rel=1e-12)
        assert chi2_tails(x, 2)[0] == pytest.approx(-math.expm1(-x / 2.0), rel=1e-12)
        assert chi2_tails(x, 1)[1] == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-12)
    assert chi2_quantile(1e-10, 2) == pytest.approx(-2.0 * math.log(1e-10), rel=1e-12)
    assert chi2_quantile(1e-10, 2, upper=False) == pytest.approx(-2.0 * math.log1p(-1e-10), rel=1e-9)


@pytest.fixture(scope="module")
def draws():
    """sweep -> (counts (seed, point, setting, outcome), folded probabilities
    (point, setting, outcome), unfolded probabilities, shots)."""
    out = {}
    for sweep in SWEEPS:
        seen = []

        def record(rho, settings, **draw):
            seen.append((rho, draw))
            return measure_block(rho, settings, **draw)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "measure_block", record)
            run_experiment(sweep, {})
        (rho, draw), = seen
        shots, p_readout = draw["shots"], draw["p_readout"]
        assert (len(rho), shots, p_readout) == (POINTS, 8000, 0.02)
        counts = np.rint([measure_block(rho, FULL, shots, seed, 0, p_readout) * shots for seed in range(SEEDS)])
        # the readout fold, built here: each outcome bit flips with p_readout
        flip = np.array([[1.0 - p_readout, p_readout], [p_readout, 1.0 - p_readout]])
        unfolded = setting_probabilities(rho, FULL)
        out[sweep] = counts, unfolded @ np.kron(flip, flip).T, unfolded, shots
    return out


def residuals(counts, p, shots):
    """Standardized counts (c - n p) / sqrt(n p (1 - p))."""
    return (counts - shots * p) / np.sqrt(shots * p * (1.0 - p))


@pytest.mark.parametrize("sweep", SWEEPS)
def test_cell_means_match_the_readout_folded_distribution(draws, sweep):
    # bound |z| <= 6.61; observed max 3.32 (heisenberg) and 3.30 (field)
    counts, p, unfolded, shots = draws[sweep]
    z = residuals(counts, p, shots).mean(axis=0) * math.sqrt(SEEDS)
    assert np.abs(z).max() <= Z_BOUND
    # the same means against the unfolded distribution are rejected outright:
    # max |z| 256 and 175
    assert np.abs(residuals(counts, unfolded, shots).mean(axis=0) * math.sqrt(SEEDS)).max() > 10 * Z_BOUND


@pytest.mark.parametrize("sweep", SWEEPS)
def test_cell_variances_are_binomial(draws, sweep):
    # (m - 1) s^2 / (n p (1 - p)) ~ chi-square(m - 1), two-sided: the ratio
    # s^2 / (n p (1 - p)) within [0.473, 1.811]; observed 0.701-1.372 and
    # 0.716-1.423. The binomial's excess kurtosis, about 1 / (n p (1 - p)), is
    # under 0.01 at the smallest n p (1 - p), 109, and widens the ratio's
    # spread by under 1%.
    counts, p, _, shots = draws[sweep]
    assert (shots * p * (1.0 - p)).min() >= 100.0
    ratio = counts.var(axis=0, ddof=1) / (shots * p * (1.0 - p))
    lower = chi2_quantile(ALPHA / 2.0, SEEDS - 1, upper=False) / (SEEDS - 1)
    upper = chi2_quantile(ALPHA / 2.0, SEEDS - 1) / (SEEDS - 1)
    assert lower <= ratio.min() and ratio.max() <= upper, (ratio.min(), ratio.max())


@pytest.mark.parametrize("sweep", SWEEPS)
def test_counts_are_uncorrelated_across_settings_points_and_seeds(draws, sweep):
    # the first outcome of each setting; |r sqrt(m)| <= 6.61 for each of the
    # setting pairs of one point, the setting pairs of adjacent points and
    # seeds s, s + 1 of one cell; observed 3.85, 3.75 and 3.25 (heisenberg),
    # 3.89, 4.03 and 3.19 (field)
    counts, p, _, shots = draws[sweep]
    z = residuals(counts, p, shots)[..., 0]  # (seed, point, setting)
    within = np.einsum("mps,mpt->pst", z, z) / math.sqrt(SEEDS)
    pairs = np.triu_indices(SETTINGS, 1)
    across = np.einsum("mps,mpt->pst", z[:, :-1], z[:, 1:]) / math.sqrt(SEEDS)
    seeds = np.einsum("mps,mps->ps", z[:-1], z[1:]) / math.sqrt(SEEDS - 1)
    for name, r in (("settings", within[:, pairs[0], pairs[1]]), ("points", across), ("seeds", seeds)):
        assert np.abs(r).max() <= Z_BOUND, (name, np.abs(r).max())
