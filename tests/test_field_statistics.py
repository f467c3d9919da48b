"""The X5 and X3 fields before clamping against their sampling statistics.

The five- and three-setting reconstructions read their diagonal off the ZZ
frequencies and their corners off linear combinations of the XX, YY, XY and
YX correlators, so before the block clamp every field is linear in the
frequencies: an unbiased estimate with a variance the delta method gives
exactly. The default noisy outputs of ``heisenberg_fidelity`` and
``field_fidelity`` (64 points, 8,000 shots, p_readout 0.02) are measured in
all nine settings under seeds 0-199. Each field's seed mean must equal the
estimate from the exact-mode frequencies, and its seed variance the
prediction from the readout-folded distribution, built here from the
tomography formulas, not from the reconstruction code.

Seeds are fixed, so every test is deterministic. As in
``test_shot_statistics.py``, each bound is a chi-square quantile at a
Bonferroni share of a total false-alarm rate of 1e-6, here over the
comparisons of this module.
"""

import math

import numpy as np
import pytest

from test_shot_statistics import chi2_quantile
from xsim import experiments, tomography
from xsim.experiments import run_experiment
from xsim.tomography import FULL, PARTIAL3, PARTIAL5, measure_block, reconstruct_x3, reconstruct_x5, setting_probabilities

SWEEPS = ("heisenberg_fidelity", "field_fidelity")
SEEDS, POINTS = 200, 64

# field -> {setting: weights on its outcomes (++, +-, -+, --)}; s gives the
# joint correlator <PQ> = f++ - f+- - f-+ + f--
_S = np.array([1.0, -1.0, -1.0, 1.0]) / 4.0
WEIGHTS = {
    "a": {"ZZ": np.array([1.0, 0.0, 0.0, 0.0])},
    "b": {"ZZ": np.array([0.0, 1.0, 0.0, 0.0])},
    "c": {"ZZ": np.array([0.0, 0.0, 1.0, 0.0])},
    "d": {"ZZ": np.array([0.0, 0.0, 0.0, 1.0])},
    "re_w": {"XX": _S, "YY": -_S},  # (<XX> - <YY>) / 4
    "re_z": {"XX": _S, "YY": _S},  # (<XX> + <YY>) / 4
    "im_w": {"XY": -_S, "YX": -_S},  # -(<XY> + <YX>) / 4
    "im_z": {"XY": _S, "YX": -_S},  # (<XY> - <YX>) / 4
}
# protocol -> (reconstruction, settings, fields it estimates)
PROTOCOLS = {
    "x5": (reconstruct_x5, PARTIAL5, tuple(WEIGHTS)),
    "x3": (reconstruct_x3, PARTIAL3, ("a", "b", "c", "d", "re_w", "re_z")),
}
# a mean and a variance per (sweep, protocol, field, point)
COMPARISONS = 2 * len(SWEEPS) * POINTS * sum(len(fields) for _, _, fields in PROTOCOLS.values())
ALPHA = 1e-6 / COMPARISONS
Z_BOUND = math.sqrt(chi2_quantile(ALPHA, 1))


def _fields(x) -> dict:
    """The named fields of an X-state stack."""
    return {"a": x.a, "b": x.b, "c": x.c, "d": x.d, "re_w": np.real(x.w), "re_z": np.real(x.z),
            "im_w": np.imag(x.w), "im_z": np.imag(x.z)}


@pytest.fixture(scope="module")
def estimates():
    """(sweep, protocol) -> (unclamped fields of each seed, of the exact
    frequencies, and their predicted variance), each field name -> array
    over points (seeds first)."""
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        for sweep in SWEEPS:
            seen = []

            def record(rho, settings, **draw):
                seen.append((rho, draw))
                return measure_block(rho, settings, **draw)

            patch.setattr(experiments, "measure_block", record)
            run_experiment(sweep, {})
            (rho, draw), = seen
            shots, p_readout = draw["shots"], draw["p_readout"]
            assert (len(rho), shots, p_readout) == (POINTS, 8000, 0.02)
            sampled = np.array([measure_block(rho, FULL, shots, seed, 0, p_readout) for seed in range(SEEDS)])
            exact = measure_block(rho, FULL, shots, 0, 0, p_readout, exact=True)
            flip = np.array([[1.0 - p_readout, p_readout], [p_readout, 1.0 - p_readout]])
            folded = setting_probabilities(rho, FULL) @ np.kron(flip, flip).T
            # the block clamp off: each corner is its linear estimate
            patch.setattr(tomography, "_clamped_corner", lambda value, bound: value)
            for protocol, (reconstruct, settings, fields) in PROTOCOLS.items():
                rows = [FULL.index(s) for s in settings]
                seeds = _fields(reconstruct(sampled[..., rows, :]))
                at_exact = _fields(reconstruct(exact[:, rows]))
                variance = {}
                for field in fields:
                    total = np.zeros(POINTS)
                    for setting, w in WEIGHTS[field].items():
                        p = folded[:, FULL.index(setting)]
                        total += (p @ w**2 - (p @ w) ** 2) / shots
                    variance[field] = total
                out[sweep, protocol] = ({f: seeds[f] for f in fields}, {f: at_exact[f] for f in fields}, variance)
            patch.undo()
    return out


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("sweep", SWEEPS)
def test_unclamped_field_means_equal_the_exact_mode_estimate(estimates, sweep, protocol):
    # bound |z| <= 6.31; observed max 3.20 (heisenberg) and 3.34 (field) for
    # both protocols, whose largest deviations lie in the fields they share
    seeds, exact, variance = estimates[sweep, protocol]
    z = {f: (seeds[f].mean(axis=0) - exact[f]) / np.sqrt(variance[f] / SEEDS) for f in seeds}
    worst = max(np.abs(v).max() for v in z.values())
    assert worst <= Z_BOUND, (worst, Z_BOUND)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("sweep", SWEEPS)
def test_unclamped_field_variances_match_the_delta_method(estimates, sweep, protocol):
    # (m - 1) s^2 / var ~ chi-square(m - 1), two-sided: the ratio s^2 / var
    # within [0.491, 1.768]; observed 0.723-1.306 (heisenberg) and
    # 0.764-1.292 (field)
    seeds, _, variance = estimates[sweep, protocol]
    ratio = np.array([seeds[f].var(axis=0, ddof=1) / variance[f] for f in seeds])
    lower = chi2_quantile(ALPHA / 2.0, SEEDS - 1, upper=False) / (SEEDS - 1)
    upper = chi2_quantile(ALPHA / 2.0, SEEDS - 1) / (SEEDS - 1)
    assert lower <= ratio.min() and ratio.max() <= upper, (ratio.min(), ratio.max(), lower, upper)
