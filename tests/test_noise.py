import itertools
import json
import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ZERO_NOISE_MODEL,
    extended,
    make_circuit,
    prepare,
    prepare_complex,
    random_density,
    random_spectral,
    random_xstate_raw,
    run_channel,
)
from oracles import block_counts_reference, partial_trace
from xsim import experiments
from xsim.circuits import run_stack
from xsim.errors import ContractError
from xsim.experiments import resolve_params, run_experiment
from xsim.linalg import I2
from xsim.noise import (
    NoiseModel,
    amplitude_damping_kraus,
    channel_superop,
    depolarizing_kraus,
    phase_damping_kraus,
)
from xsim.tomography import FULL, measure_block, setting_probabilities
from xsim.xstate import leakage

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5

# Joint correlator of a setting from its outcome frequencies (++, +-, -+, --).
JOINT = np.array([1.0, -1.0, -1.0, 1.0])


def _frequencies(rho, setting, shots, seed, p_readout=0.0, exact=False):
    """Recorded frequencies of one setting of one state: a stack of one."""
    return measure_block(rho[None], (setting,), shots, seed, 0, p_readout, exact)[0, 0]


def _counts(rho, setting, shots, seed, p_readout=0.0):
    return tuple(int(c) for c in np.rint(_frequencies(rho, setting, shots, seed, p_readout) * shots))


def _kraus_closure(kraus):
    total = sum(k.conj().T @ k for k in kraus)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_kraus_families_are_trace_preserving():
    for p in (0.0, 0.001, 0.3, 1.0):
        _kraus_closure(depolarizing_kraus(p))
        _kraus_closure(amplitude_damping_kraus(p))
        _kraus_closure(phase_damping_kraus(p))
    with pytest.raises(ContractError):
        depolarizing_kraus(-0.1)
    with pytest.raises(ContractError):
        amplitude_damping_kraus(1.5)


def test_full_depolarizing_erases_the_qubit():
    # Noiseless one-qubit gates make a random product input on qubits (0, 1).
    # A CNOT from the fresh ancilla 2 acts as the identity and carries the
    # two-qubit gate noise, full depolarizing, onto qubit 0 and the ancilla,
    # which is traced out.
    rng = np.random.default_rng(3)
    ry, rz = rng.uniform(0.3, 2.8, size=2), rng.uniform(-3, 3, size=2)
    prefix = make_circuit(3, *(g for q in (0, 1) for g in (("ry", (q,), ry[q]), ("rz", (q,), rz[q]))))
    nm = replace(ZERO_NOISE_MODEL, p_depol_2q=1.0)
    rho, out = run_stack((prefix, extended(prefix, ("cnot", (2, 0)))), (0, 1), nm.gate_noise)
    assert abs(partial_trace(rho, keep=(0,))[0, 1]) > 0.1  # qubit 0 was not already mixed
    np.testing.assert_allclose(partial_trace(out, keep=(0,)), I2 / 2.0, atol=1e-12)
    # the other qubit's marginal is untouched
    np.testing.assert_allclose(
        partial_trace(out, keep=(1,)), partial_trace(rho, keep=(1,)), atol=1e-12
    )


def test_amplitude_damping_full_strength_resets():
    # RY(pi) makes |1>, and full damping after the gate resets it
    flip = make_circuit(1, ("ry", (0,), math.pi))
    np.testing.assert_allclose(run_stack((flip,), (0,))[0], np.diag([0.0, 1.0]), atol=1e-14)
    out = run_stack((flip,), (0,), replace(ZERO_NOISE_MODEL, gamma_ad=1.0).gate_noise)[0]
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)


def test_phase_damping_scales_coherence():
    # the input is RY(1.2)|0> after the prefix gate's own phase damping
    rho, out = run_channel(make_circuit(1, ("ry", (0,), 1.2)), (0,), gamma_pd=0.2)
    assert abs(rho[0, 1]) > 0.3
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-14)
    assert out[0, 1] == pytest.approx(0.8 * rho[0, 1], abs=1e-14)


def test_channel_superop_rejects_non_cptp():
    broken = [np.array([[1.0, 0.0], [0.0, 0.5]])]
    with pytest.raises(ContractError):
        channel_superop(broken)


def test_noise_model_validation_and_json():
    nm = NoiseModel()
    assert nm.p_depol_1q == 0.001
    assert nm.p_depol_2q == 0.01
    assert nm.p_readout == 0.02
    with pytest.raises(ContractError):
        NoiseModel(p_depol_1q=-0.2)
    partial = resolve_params("heisenberg_conc", {"noise": {"p_depol_1q": 0.1}})["noise"]
    assert partial.p_depol_1q == 0.1  # omitted rates keep defaults
    assert partial.p_depol_2q == 0.01
    back = resolve_params("heisenberg_conc", {"noise": json.loads(json.dumps(nm.to_json()))})["noise"]
    assert back == nm


def test_zero_noise_model_is_the_ideal_simulator():
    circ = prepare((0.4, 0.3, 0.2, 0.1), 0.5, 0.9)
    noisy = run_stack((circ,), range(4), ZERO_NOISE_MODEL.gate_noise)[0]
    ideal = run_stack((circ,), range(4))[0]
    np.testing.assert_array_equal(noisy, ideal)


def test_run_noisy_keeps_density_matrix_valid():
    # the noisy executor run of the whole register
    circ = prepare((0.4, 0.3, 0.2, 0.1), 0.5, 0.9)
    out = run_stack((circ,), range(4), NoiseModel().gate_noise)[0]
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_damping_and_depolarizing_preserve_x_shape():
    # a random X-state prepared on (2, 3) under the channel's own model
    rng = np.random.default_rng(7)
    prefix, _, _ = prepare_complex(random_xstate_raw(rng))
    for rate in ({"p_depol_1q": 0.05}, {"gamma_ad": 0.1}, {"gamma_pd": 0.1}):
        _, out = run_channel(prefix, (2, 3), keep=(2, 3), **rate)
        assert leakage(out) < 1e-14


def test_noisy_prepared_states_stay_x_shaped_at_any_rate(monkeypatch):
    # Exact by symmetry, not approximately (the noise module docstring says
    # why): random rates in [0, 0.3], through both preparation builders and
    # the block builder of every sweep, recorded at the executor.
    rng = np.random.default_rng(41)
    pairs = []

    def rates():
        return dict(zip(("p_depol_1q", "p_depol_2q", "gamma_ad", "gamma_pd"), rng.uniform(0.0, 0.3, 4).tolist()))

    for _ in range(150):
        s, x = random_spectral(rng), random_xstate_raw(rng)
        circuits = (prepare(s.probs, s.theta, s.phi), prepare_complex(x)[0])
        pairs.extend(run_stack(circuits, (2, 3), NoiseModel(**rates()).gate_noise))

    def recording(circuits, keep, gate_noise=None):
        out = run_stack(circuits, keep, gate_noise)
        pairs.extend(out)
        return out

    monkeypatch.setattr(experiments, "run_stack", recording)
    for experiment in ("tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity", "field_fidelity"):
        for _ in range(3):
            if experiment == "tetra_sweep":
                config = {"resolution": 4, "theta": rng.uniform(0, math.pi / 2), "phi": rng.uniform(0, math.pi / 2)}
            else:
                config = {"time_points": 20, "J": rng.uniform(-2, 2), "kappa": rng.uniform(-1, 1),
                        "Jz": rng.uniform(-1, 1), "gamma": rng.uniform(0, math.pi), "lambda": rng.uniform(-1, 1)}
                if experiment.startswith("field"):
                    config.update(B=rng.uniform(-2, 2), b=rng.uniform(-2, 2))
            run_experiment(experiment, {**config, "exact": True, "noise": rates()})
    assert len(pairs) == 300 + 3 * (35 + 4 * 20)
    assert np.max(leakage(np.array(pairs))) <= 1e-15


def test_readout_flip_identity_at_zero():
    rho = random_density(np.random.default_rng(4))
    probs = setting_probabilities(rho, ("ZZ",))[0]
    assert tuple(_frequencies(rho, "ZZ", 100, 1, p_readout=0.0, exact=True)) == tuple(probs)
    unflipped = block_counts_reference(setting_probabilities(rho, FULL).tolist(), 100, 1, 0)[FULL.index("ZZ")]
    assert _counts(rho, "ZZ", 100, 1, p_readout=0.0) == tuple(unflipped)


def test_readout_flip_preserves_shots_and_setting():
    rho = random_density(np.random.default_rng(5))
    assert measure_block(rho[None], ("XY",), 1000, 5, 0, p_readout=0.1).shape == (1, 1, 4)
    out = _counts(rho, "XY", 1000, 5, p_readout=0.1)
    assert sum(out) == 1000
    assert out != _counts(rho, "XY", 1000, 5)


def test_readout_flip_deterministic_on_exact_frequencies():
    out = _frequencies(BELL, "ZZ", 0, 0, p_readout=0.02, exact=True)
    # exact mixing map: joint expectation shrinks by (1-2p)^2
    joint = out @ JOINT
    assert joint == pytest.approx((1.0 - 0.04) ** 2, abs=1e-12)


def test_readout_flip_shrinks_sampled_correlators():
    shots = 200000
    p = 0.05
    flipped = _frequencies(BELL, "ZZ", shots, 9, p_readout=p)
    joint = flipped @ JOINT
    assert joint == pytest.approx((1.0 - 2 * p) ** 2, abs=0.01)


def test_readout_flip_half_probability_scrambles_exact_frequencies():
    out = _frequencies(BELL, "ZZ", 0, 0, p_readout=0.5, exact=True)
    np.testing.assert_allclose(out, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


@pytest.mark.parametrize("exact", [False, True])
def test_readout_rate_outside_unit_interval_is_rejected(exact):
    for p in (1.5, -0.01, float("nan")):
        with pytest.raises(ContractError):
            _frequencies(BELL, "ZZ", 100, 0, p_readout=p, exact=exact)


def _multinomial_pmf(n, probs):
    """{counts: probability} of n draws over the four outcomes."""
    pmf = {}
    for counts in itertools.product(range(n + 1), repeat=4):
        if sum(counts) == n:
            weight = math.factorial(n) / math.prod(math.factorial(c) for c in counts)
            pmf[counts] = weight * math.prod(float(q) ** c for q, c in zip(probs, counts))
    return pmf


def _flip_pattern(p):
    return [(1 - p) * (1 - p), (1 - p) * p, p * (1 - p), p * p]


def _sample_then_flip_pmf(n, probs, p):
    """The former two-stage route: a multinomial draw of the outcomes, then
    each outcome's shots re-binned over the flip patterns m, k -> k ^ m."""
    out = defaultdict(float)
    for counts, weight in _multinomial_pmf(n, probs).items():
        partial = {(0, 0, 0, 0): weight}
        for k, n_k in enumerate(counts):
            rebinned = defaultdict(float)
            for acc, w in partial.items():
                for moved, w_moved in _multinomial_pmf(n_k, _flip_pattern(p)).items():
                    new = list(acc)
                    for m, c in enumerate(moved):
                        new[k ^ m] += c
                    rebinned[tuple(new)] += w * w_moved
            partial = rebinned
        for final, w in partial.items():
            out[final] += w
    return out


@pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 0.5, 1.0])
def test_folded_readout_matches_sample_then_flip(p):
    # One draw from F @ probs, F[j, k] = pattern[j ^ k], has the same count
    # distribution as sampling first and flipping every shot afterwards.
    pattern = _flip_pattern(p)
    flip = np.array([[pattern[j ^ k] for k in range(4)] for j in range(4)])
    rng = np.random.default_rng(12)
    vectors = [[0.4, 0.3, 0.2, 0.1], [0.5, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0], [0.25] * 4, rng.dirichlet(np.ones(4))]
    for probs in vectors:
        folded = setting_probabilities(np.diag(np.asarray(probs, dtype=complex)), ("ZZ",), p)[0]
        np.testing.assert_allclose(folded, flip @ np.asarray(probs), rtol=0, atol=1e-15)
        for n in range(1, 5):
            old = _sample_then_flip_pmf(n, probs, p)
            new = _multinomial_pmf(n, folded)
            assert set(new) == set(old)
            for counts in new:
                assert new[counts] == pytest.approx(old.get(counts, 0.0), rel=0, abs=1e-15)


def test_two_qubit_gates_use_the_heavier_rate():
    # a circuit with only a CNOT: 1q rate zero, 2q rate nonzero must still mix
    circ = make_circuit(2, ("cnot", (0, 1)))
    nm = NoiseModel(p_depol_1q=0.0, p_depol_2q=0.2, gamma_ad=0.0, gamma_pd=0.0, p_readout=0.0)
    out = run_stack((circ,), (0, 1), nm.gate_noise)[0]
    ideal = run_stack((circ,), (0, 1))[0]
    assert not np.allclose(out, ideal)
    assert np.trace(out @ out).real < 1.0  # purity dropped
