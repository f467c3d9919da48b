"""The production routes against independent references.

Gates, channels and measurement bases are applied by the local-axis kernel in
production; here they are rebuilt as full-register Kronecker products
(``oracles.kron_gate`` and ``oracles.circuit_unitary``). The
LAPACK fidelity, concurrence and PSD repair are checked against the Jacobi
oracle routes.
"""

import numpy as np
import pytest

from conftest import random_density, run_channel
from oracles import circuit_unitary, concurrence_wootters_oracle, embed, herm_eig, kron_gate, sqrtm_psd
from xsim.circuits import Circuit, Gate, build_xstate_circuit, run_density
from xsim.experiments import format_csv, run_experiment
from xsim.linalg import I2, PAULI, fidelity, kron
from xsim.noise import (
    NoiseModel,
    amplitude_damping_kraus,
    depolarizing_kraus,
    phase_damping_kraus,
    run_noisy,
)
from xsim.tomography import FULL, psd_project, setting_probabilities
from xsim.xstate import concurrence_wootters

ZERO_NOISE = {"p_depol_1q": 0, "p_depol_2q": 0, "gamma_ad": 0, "gamma_pd": 0, "p_readout": 0}


def kron_channel(rho, kraus, qubit, width):
    big = [embed(k, qubit, width) for k in kraus]
    return sum(k @ rho @ k.conj().T for k in big)


def kron_run_noisy(c, rho, nm):
    """The seed's run_noisy: embedded gates, then each channel on each
    touched qubit as a sum over embedded Kraus operators."""
    out = np.array(rho, dtype=complex)
    for g in c.gates:
        u = kron_gate(g, c.width)
        out = u @ out @ u.conj().T
        touched = (g.target,) if g.control is None else (g.control, g.target)
        depol = nm.p_depol_2q if len(touched) == 2 else nm.p_depol_1q
        for rate, family in ((depol, depolarizing_kraus), (nm.gamma_ad, amplitude_damping_kraus),
                             (nm.gamma_pd, phase_damping_kraus)):
            if rate > 0.0:
                for q in touched:
                    out = kron_channel(out, family(rate), q, c.width)
    return out


def random_state(rng, dim, rank):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_circuit(rng, width, n_gates=12):
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["ry", "rz", "w", "pauli_z", "cnot"])
        if kind == "cnot" and width > 1:
            control, target = rng.choice(width, size=2, replace=False)
            gates.append(Gate("cnot", (), int(target), control=int(control)))
        elif kind == "pauli_z":
            gates.append(Gate("pauli_z", (), int(rng.integers(width))))
        elif kind != "cnot":
            gates.append(Gate(str(kind), (float(rng.uniform(-3, 3)),), int(rng.integers(width))))
    return Circuit(width, tuple(gates))


def test_gate_and_circuit_unitaries_match_kron_reference():
    # run_density conjugates by each gate through the local-axis kernel; the
    # reference conjugates by the gate's full-register Kronecker matrix
    rng = np.random.default_rng(41)
    for width in (1, 2, 3, 4):
        c = random_circuit(rng, width)
        rho = random_state(rng, 2**width, 1)
        want = rho
        for g in c.gates:
            u = kron_gate(g, width)
            np.testing.assert_allclose(run_density(Circuit(width, (g,)), rho), u @ rho @ u.conj().T, atol=1e-15)
            want = u @ want @ u.conj().T
        np.testing.assert_allclose(run_density(c, rho), want, atol=1e-13)


@pytest.mark.parametrize("rank", [1, 2, 16])
def test_run_density_and_run_noisy_match_kron_reference(rank):
    rng = np.random.default_rng(43 + rank)
    noisy = NoiseModel(p_depol_1q=0.02, p_depol_2q=0.05, gamma_ad=0.03, gamma_pd=0.04, p_readout=0.0)
    partial = NoiseModel(p_depol_1q=0.0, p_depol_2q=0.05, gamma_ad=0.0, gamma_pd=0.04, p_readout=0.0)
    for width in (2, 4):
        rho = random_state(rng, 2**width, min(rank, 2**width))
        c = random_circuit(rng, width)
        u = circuit_unitary(c)
        np.testing.assert_allclose(run_density(c, rho), u @ rho @ u.conj().T, atol=1e-13)
        for nm in (noisy, partial, NoiseModel()):
            np.testing.assert_allclose(run_noisy(c, rho, nm), kron_run_noisy(c, rho, nm), atol=1e-13)
    circ = build_xstate_circuit((0.4, 0.3, 0.2, 0.1), 0.5, 0.9)
    rho0 = np.zeros((16, 16), dtype=complex)
    rho0[0, 0] = 1.0
    np.testing.assert_allclose(run_noisy(circ, rho0, noisy), kron_run_noisy(circ, rho0, noisy), atol=1e-13)


def test_superoperator_channel_matches_kraus_sum():
    rng = np.random.default_rng(47)
    for name, rate, family in (("p_depol_1q", 0.3, depolarizing_kraus), ("gamma_ad", 0.4, amplitude_damping_kraus),
                               ("gamma_pd", 0.25, phase_damping_kraus)):
        for width in (1, 2, 3):
            rho = random_state(rng, 2**width, 1 + int(rng.integers(2**width)))
            qubits = tuple(int(q) for q in rng.permutation(width))
            want = rho
            for q in qubits:
                want = kron_channel(want, family(rate), q, width)
            np.testing.assert_allclose(run_channel(rho, qubits, **{name: rate}), want, atol=1e-14)


def test_setting_probabilities_match_projector_traces():
    rng = np.random.default_rng(53)
    for rank in (1, 2, 4):
        rho = random_state(rng, 4, rank)
        for setting in FULL:
            first, second = ((0.5 * (I2 + PAULI[s]), 0.5 * (I2 - PAULI[s])) for s in setting)
            want = [np.trace(rho @ kron(a, b)).real for a in first for b in second]
            np.testing.assert_allclose(setting_probabilities(rho, (setting,))[0], want, atol=1e-14)


def _fidelity_oracle(rho, sigma):
    root = sqrtm_psd(rho)
    mid = root @ sigma @ root
    w, _ = herm_eig((mid + mid.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def test_fidelity_matches_jacobi_oracle():
    rng = np.random.default_rng(59)
    for ra in (1, 2, 4):
        for rb in (1, 3, 4):
            a, b = random_state(rng, 4, ra), random_state(rng, 4, rb)
            # the oracle takes square roots of ~1e-16 eigenvalues on
            # rank-deficient input, which costs it ~1e-8
            assert fidelity(a, b) == pytest.approx(_fidelity_oracle(a, b), abs=1e-7)
        a = random_state(rng, 4, ra)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_matches_wootters_oracle():
    rng = np.random.default_rng(61)
    for rank in (1, 1, 2, 3, 4, 4):
        rho = random_state(rng, 4, rank)
        assert concurrence_wootters(rho) == pytest.approx(concurrence_wootters_oracle(rho), abs=1e-12)
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert concurrence_wootters(bell) == pytest.approx(1.0, abs=1e-14)


def _psd_project_oracle(rho_hat):
    w, v = herm_eig(rho_hat)
    order = np.argsort(w)
    lam = w[order].copy()
    n = len(lam)
    for i in range(n):
        if lam[i] < 0.0:
            lam[i + 1:] += lam[i] / (n - 1 - i)
            lam[i] = 0.0
    vecs = v[:, order]
    return (vecs * lam) @ vecs.conj().T


def test_psd_project_matches_jacobi_oracle():
    rng = np.random.default_rng(67)
    for _ in range(20):
        h = random_density(rng) + np.diag(rng.uniform(-0.1, 0.02, size=4))
        h = h / np.trace(h).real
        np.testing.assert_allclose(psd_project(h), _psd_project_oracle(h), atol=1e-12)


@pytest.mark.parametrize("experiment", ["heisenberg_fidelity", "field_fidelity"])
def test_exact_zero_noise_fidelity_never_reads_above_one(experiment):
    _, result = run_experiment(experiment, {"time_points": 16, "exact": True, "noise": ZERO_NOISE})
    lines = format_csv(result).splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for name in ("f_full", "f_partial5", "f_partial3"):
            if name in row:
                assert float(row[name]) <= 1.0, f"{name} reads {row[name]}"
                assert float(row[name]) == pytest.approx(1.0, abs=1e-9)
