"""The production routes against independent references.

Gates, channels and measurement bases are applied by the local-axis kernel in
production; here they are rebuilt as full-register Kronecker products
(``oracles.kron_gate`` and ``oracles.circuit_unitary``), and the executor's
reduced states are checked against the whole register traced by
``oracles.partial_trace``. The LAPACK fidelity, concurrence and PSD repair
are checked against the Jacobi oracle routes.
"""

import io
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ZERO_NOISE_MODEL, extended, make_circuit, prepare, random_circuit, random_density, run_channel
from oracles import (
    _cos_sin_decimal,
    _pi_decimal,
    circuit_unitary,
    concurrence_wootters_oracle,
    embed,
    fidelity,
    fidelity_oracle,
    gates,
    herm_eig,
    kron_gate,
    partial_trace,
    rotor_decimal,
)
from xsim.circuits import GATE_KINDS, Circuit, run_stack
from xsim.errors import DimensionError
from xsim import experiments
from xsim.experiments import format_csv, run_experiment
from xsim.linalg import I2, PAULI, dagger, kron
from xsim.noise import (
    NoiseModel,
    amplitude_damping_kraus,
    depolarizing_kraus,
    phase_damping_kraus,
)
from xsim.tomography import FULL, psd_project, setting_probabilities
from xsim.xstate import XSpectral, XState, concurrence_x, from_spectral, leakage, xstate_from_matrix

ZERO_NOISE = {"p_depol_1q": 0, "p_depol_2q": 0, "gamma_ad": 0, "gamma_pd": 0, "p_readout": 0}


def kron_channel(rho, kraus, qubit, width):
    big = [embed(k, qubit, width) for k in kraus]
    return sum(k @ rho @ k.conj().T for k in big)


def kron_run_noisy(c, rho, nm):
    """The seed's run_noisy: embedded gates, then each channel on each
    touched qubit as a sum over embedded Kraus operators."""
    out = np.array(rho, dtype=complex)
    for kind, touched, angle in gates(c):
        u = kron_gate(kind, touched, angle, c.width)
        out = u @ out @ u.conj().T
        depol = nm.p_depol_2q if len(touched) == 2 else nm.p_depol_1q
        for rate, family in ((depol, depolarizing_kraus), (nm.gamma_ad, amplitude_damping_kraus),
                             (nm.gamma_pd, phase_damping_kraus)):
            if rate > 0.0:
                for q in touched:
                    out = kron_channel(out, family(rate), q, c.width)
    return out


def kron_reduced(c, keep, nm):
    """The reference of ``run_stack((c,), keep, nm.gate_noise)[0]``: the
    whole register run from |0...0> by ``kron_run_noisy``, then traced."""
    rho0 = np.zeros((2**c.width, 2**c.width), dtype=complex)
    rho0[0, 0] = 1.0
    return partial_trace(kron_run_noisy(c, rho0, nm), keep)


def random_state(rng, dim, rank):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_gate_and_circuit_unitaries_match_kron_reference():
    # run_stack conjugates by each gate through the local-axis kernel; the
    # reference conjugates by the gate's full-register Kronecker matrix. The
    # input is the pure state that a random prefix circuit makes.
    rng = np.random.default_rng(41)
    for width in (1, 2, 3, 4):
        every = range(width)
        prefix = random_circuit(rng, width)
        c = random_circuit(rng, width)
        rho = run_stack((prefix,), every)[0]
        want = rho
        for g in gates(c):
            u = kron_gate(*g, width)
            np.testing.assert_allclose(run_stack((extended(prefix, g),), every)[0], u @ rho @ u.conj().T,
                                       atol=1e-15)
            want = u @ want @ u.conj().T
        np.testing.assert_allclose(run_stack((extended(prefix, *gates(c)),), every)[0], want, atol=1e-13)


@pytest.mark.parametrize("rank", [1, 2, 16])
def test_run_density_and_run_noisy_match_kron_reference(rank):
    # The input of c is what a random prefix makes of |0...0>. Noiseless, an
    # input of rank up to ``rank`` comes from a prefix over log2(rank) more
    # qubits, traced out after it, as far as the four-qubit limit allows.
    # Under noise the prefix runs noisy too, so the input is mixed anyway.
    rng = np.random.default_rng(43 + rank)
    noisy = NoiseModel(p_depol_1q=0.02, p_depol_2q=0.05, gamma_ad=0.03, gamma_pd=0.04, p_readout=0.0)
    partial = NoiseModel(p_depol_1q=0.0, p_depol_2q=0.05, gamma_ad=0.0, gamma_pd=0.04, p_readout=0.0)
    for width in (2, 4):
        extra = min(rank.bit_length() - 1, 4 - width)
        prefix = random_circuit(rng, width + extra, 6 * (width + extra))
        c = random_circuit(rng, width)
        run, keep = extended(prefix, *gates(c)), range(width)
        u = circuit_unitary(c)
        rho = run_stack((prefix,), keep)[0]
        if extra:
            assert np.trace(rho @ rho).real < 0.99
        np.testing.assert_allclose(run_stack((run,), keep)[0], u @ rho @ u.conj().T, atol=1e-13)
        for nm in (noisy, partial, NoiseModel()):
            rho = run_stack((prefix,), keep, nm.gate_noise)[0]
            np.testing.assert_allclose(run_stack((run,), keep, nm.gate_noise)[0], kron_run_noisy(c, rho, nm),
                                       atol=1e-13)
    circ = prepare((0.4, 0.3, 0.2, 0.1), 0.5, 0.9)
    np.testing.assert_allclose(run_stack((circ,), range(4), noisy.gate_noise)[0], kron_reduced(circ, range(4), noisy),
                               atol=1e-13)


def test_superoperator_channel_matches_kraus_sum():
    # the input is what a random prefix makes under the channel's own model
    rng = np.random.default_rng(47)
    for name, rate, family in (("p_depol_1q", 0.3, depolarizing_kraus), ("gamma_ad", 0.4, amplitude_damping_kraus),
                               ("gamma_pd", 0.25, phase_damping_kraus)):
        for width in (1, 2, 3):
            qubits = tuple(int(q) for q in rng.permutation(width))
            rho, got = run_channel(random_circuit(rng, width), qubits, **{name: rate})
            want = rho
            for q in qubits:
                want = kron_channel(want, family(rate), q, width)
            np.testing.assert_allclose(got, want, atol=1e-14)


@st.composite
def circuits_and_keep(draw):
    """Circuits of one random op list of width 1-4 over every gate kind, with
    one to four angle rows, and a non-empty keep set. Each angle column is
    constant across the rows or drawn per row, and a row may repeat an
    earlier one."""
    width = draw(st.integers(1, 4))
    kinds = [k for k in GATE_KINDS if width > 1 or k != "cnot"]
    ops = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "cnot":
            qubits = tuple(draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True)))
        else:
            qubits = (draw(st.integers(0, width - 1)),)
        ops.append((kind, qubits))
    n_rows = draw(st.integers(1, 4))
    angle = st.floats(-math.pi, math.pi)
    per_row = st.lists(angle, min_size=n_rows, max_size=n_rows)
    columns = [[draw(angle)] * n_rows if draw(st.booleans()) else draw(per_row) for kind, _ in ops if kind != "cnot"]
    rows = [tuple(column[i] for column in columns) for i in range(n_rows)]
    rows = [rows[draw(st.integers(0, i))] if i and draw(st.booleans()) else row for i, row in enumerate(rows)]
    keep = draw(st.sets(st.integers(0, width - 1), min_size=1))
    return [Circuit(width, tuple(ops), row) for row in rows], tuple(sorted(keep))


rates = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
models = st.one_of(st.just(ZERO_NOISE_MODEL), st.builds(NoiseModel, rates, rates, rates, rates, st.just(0.0)))


@settings(max_examples=150, deadline=None)
@given(circuits_and_keep(), models)
def test_run_stack_matches_kron_reference_on_random_circuits(case, nm):
    # circuits of one op list run as one group: a constant angle column as
    # one shared operator, any other column as a per-state operator stack.
    # Each state matches the reference, and bit for bit the same circuit
    # run alone, where every column is constant.
    block, keep = case
    for got, circ in zip(run_stack(block, keep, nm.gate_noise), block):
        np.testing.assert_allclose(got, kron_reduced(circ, keep, nm), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(got, run_stack((circ,), keep, nm.gate_noise)[0])


NOISY = NoiseModel(p_depol_1q=0.05, p_depol_2q=0.1, gamma_ad=0.07, gamma_pd=0.03, p_readout=0.0)


@pytest.mark.parametrize("c, keep", [
    # kept qubit 2 is touched by no gate
    (make_circuit(3, ("ry", (0,), 0.7), ("cnot", (0, 1))), (1, 2)),
    # dropped qubit 2 is touched by no gate
    (make_circuit(3, ("ry", (0,), 0.7), ("cnot", (0, 1))), (0, 1)),
    # dropped qubit 2 and kept qubit 1 are each touched by exactly one gate
    (make_circuit(3, ("ry", (0,), 0.7), ("cnot", (0, 2)), ("cnot", (0, 1)), ("rz", (0,), 0.4)), (0, 1)),
    # the last two gates act on qubit 0 after it last meets kept qubit 1
    (make_circuit(2, ("ry", (0,), 0.7), ("cnot", (0, 1)), ("ry", (0,), 0.3), ("rz", (0,), 0.4)), (1,)),
    # every qubit kept
    (prepare((0.4, 0.3, 0.2, 0.1), 0.5, 0.9), (0, 1, 2, 3)),
    # no gate at all
    (Circuit(2, ()), (1,)),
], ids=["kept-untouched", "dropped-untouched", "touched-once", "outside-light-cone", "keep-all", "no-gates"])
@pytest.mark.parametrize("nm", [ZERO_NOISE_MODEL, NOISY], ids=["zero", "noisy"])
def test_run_stack_matches_kron_reference_on_edge_cases(c, keep, nm):
    np.testing.assert_allclose(run_stack((c,), keep, nm.gate_noise)[0], kron_reduced(c, keep, nm),
                               rtol=0, atol=1e-13)


def test_run_stack_rejects_keep_outside_the_width():
    c = make_circuit(3, ("ry", (0,), 0.7))
    for keep in ((3,), (0, 3), (-1,), ()):
        with pytest.raises(DimensionError):
            run_stack((c,), keep)


def test_setting_probabilities_match_projector_traces():
    rng = np.random.default_rng(53)
    for rank in (1, 2, 4):
        rho = random_state(rng, 4, rank)
        for setting in FULL:
            first, second = ((0.5 * (I2 + PAULI[s]), 0.5 * (I2 - PAULI[s])) for s in setting)
            want = [np.trace(rho @ kron(a, b)).real for a in first for b in second]
            np.testing.assert_allclose(setting_probabilities(rho, (setting,))[0], want, atol=1e-14)


def test_fidelity_matches_jacobi_oracle():
    rng = np.random.default_rng(59)
    for ra in (1, 2, 4):
        for rb in (1, 3, 4):
            a, b = random_state(rng, 4, ra), random_state(rng, 4, rb)
            # the oracle takes square roots of ~1e-16 eigenvalues on
            # rank-deficient input, which costs it ~1e-8
            assert fidelity(a, b) == pytest.approx(fidelity_oracle(a, b), abs=1e-7)
        a = random_state(rng, 4, ra)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_matches_wootters_oracle():
    # the closed form on X-states of each rank, corners of random phase
    rng = np.random.default_rng(61)
    for rank in (1, 1, 2, 3, 4, 4):
        p = np.zeros(4)
        p[rng.permutation(4)[:rank]] = rng.dirichlet(np.ones(rank))
        x = from_spectral(XSpectral(*p, *rng.uniform(0.0, np.pi / 2, size=2)))
        w, z = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=2)) * (x.w, x.z)
        x = XState(x.a, x.b, x.c, x.d, w, z)
        assert concurrence_x(x) == pytest.approx(concurrence_wootters_oracle(x.matrix()), abs=1e-12)
    # the four Bell states, read off their matrices
    for i, j in ((0, 3), (1, 2)):
        for sign in (1.0, -1.0):
            bell = np.zeros((4, 4), dtype=complex)
            bell[i, i] = bell[j, j] = 0.5
            bell[i, j] = bell[j, i] = 0.5 * sign
            assert concurrence_x(xstate_from_matrix(bell)) == pytest.approx(1.0, abs=1e-14)
            assert concurrence_wootters_oracle(bell) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("noise", [None, ZERO_NOISE, {name: 0.3 for name in ("p_depol_1q", "p_depol_2q", "gamma_ad", "gamma_pd")}],
                         ids=["default", "zero", "rates_0.3"])
def test_c_noisy_sim_matches_the_wootters_oracle_on_leak_free_outputs(noise):
    # The closed form scores the outputs because the noise keeps them X-shaped:
    # their leakage is exactly zero, and the Jacobi route on the full matrix agrees.
    params, result = run_experiment("tetra_sweep", {"shots": 50, "noise": noise})
    circuits = tuple(circ for _, circ in result.circuits())
    pairs = run_stack(circuits, (2, 3), params["noise"].gate_noise)
    assert leakage(pairs).tolist() == [0.0] * len(pairs)
    c_noisy_sim = result.rows[:, result.columns.index("c_noisy_sim")]
    oracle = [concurrence_wootters_oracle(pair) for pair in pairs]
    np.testing.assert_allclose(c_noisy_sim, oracle, rtol=0, atol=1e-12)


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
        factor = psd_project(h)
        np.testing.assert_allclose(factor @ dagger(factor), _psd_project_oracle(h), atol=1e-12)


@pytest.mark.parametrize("raw", [{}, {"shots": 50, "noise": ZERO_NOISE}], ids=["default", "zero-noise-50-shots"])
@pytest.mark.parametrize("experiment", ["heisenberg_fidelity", "field_fidelity"])
def test_f_full_matches_both_fidelity_oracles(experiment, raw, monkeypatch):
    # f_full scores the factor of the repaired estimate against the target's
    # closed-form root. Each estimate L L^dagger and target it scored is
    # scored again by the SVD route of two LAPACK factors and by the Jacobi
    # route, which takes roots of ~1e-16 eigenvalues (~1e-8). At 50 shots
    # most estimates need a repair.
    factors, targets = [], []
    reconstruct, root = experiments.reconstruct_full, experiments.sqrt_x

    def recording_reconstruct(data):
        factors.append(reconstruct(data))
        return factors[-1]

    def recording_root(x):
        targets.append(x.matrix())
        return root(x)

    monkeypatch.setattr(experiments, "reconstruct_full", recording_reconstruct)
    monkeypatch.setattr(experiments, "sqrt_x", recording_root)
    _, result = run_experiment(experiment, raw)
    estimates = np.concatenate([factor @ dagger(factor) for factor in factors])
    f_full = result.rows[:, result.columns.index("f_full")]
    assert len(f_full) == len(estimates) == sum(map(len, targets)) == 64
    for got, rho, sigma in zip(f_full, estimates, np.concatenate(targets)):
        assert got == pytest.approx(fidelity(rho, sigma), abs=2e-8)
        assert got == pytest.approx(fidelity_oracle(rho, sigma), abs=1e-7)


@pytest.mark.parametrize("experiment", ["heisenberg_fidelity", "field_fidelity"])
def test_exact_zero_noise_fidelity_never_reads_above_one(experiment):
    _, result = run_experiment(experiment, {"time_points": 16, "exact": True, "noise": ZERO_NOISE})
    out = io.StringIO()
    format_csv(result, out)
    lines = out.getvalue().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for name in ("f_full", "f_partial5", "f_partial3"):
            if name in row:
                assert float(row[name]) <= 1.0, f"{name} reads {row[name]}"
                assert float(row[name]) == pytest.approx(1.0, abs=1e-9)


def test_the_40_digit_rotor_oracle_agrees_with_libm_and_is_unitary():
    # pi to 50 digits; cos and sin of phases up to 1e9 within 1 ulp of the
    # C library's, their squares summing to 1 within 1e-38; a rotor's
    # |u|^2 + |c|^2 likewise
    assert str(_pi_decimal(50)) == "3.1415926535897932384626433832795028841971693993751"
    rng = np.random.default_rng(11)
    with localcontext() as ctx:
        ctx.prec = 40
        for x in (rng.uniform(-1.0, 1.0, 300) * 10.0 ** rng.uniform(-20.0, 9.0, 300)).tolist() + [0.0, math.pi]:
            cos, sin = _cos_sin_decimal(Decimal(x))
            assert abs(float(cos) - math.cos(x)) <= math.ulp(math.cos(x))
            assert abs(float(sin) - math.sin(x)) <= math.ulp(math.sin(x))
            assert abs(cos * cos + sin * sin - 1) <= Decimal("1e-38")
        for delta, coupling, t in ((1.0, 0.95, 4.5), (-3.0, 0.0, 1e3), (0.0, 0.0, 2.0), (0.5, 1.0, 0.0)):
            ur, ui, ci = rotor_decimal(delta, coupling, t)
            assert abs(ur * ur + ui * ui + ci * ci - 1) <= Decimal("1e-38")
