import itertools

import numpy as np
import pytest

from conftest import random_density, random_xstate, random_xstate_raw
from oracles import block_counts_reference, fidelity, psd_factor, psd_project_matrix
from xsim.errors import ContractError, ProtocolError
from xsim.experiments import run_experiment
from xsim.linalg import PAULI, dagger, kron
from xsim.xstate import strip_phases
from xsim.tomography import (
    FULL,
    PARTIAL3,
    PARTIAL5,
    measure_block,
    psd_project,
    reconstruct_full,
    reconstruct_x3,
    reconstruct_x5,
    setting_index,
    setting_probabilities,
)

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5

# (joint, first-qubit, second-qubit) correlators of the outcome frequencies
# (++, +-, -+, --) of a setting.
CORRELATORS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])


def _exact(rho, settings):
    """Exact frequencies (S, 4) of one state: a stack of one."""
    return measure_block(np.asarray(rho)[None], settings, 1, 0, 0, exact=True)[0]


def _protocol_fidelities(target, noisy, shots, seed, exact=False):
    """Fidelities of the full, 5- and 3-setting estimates of one state,
    all read from one nine-setting dataset."""
    f = measure_block(np.asarray(noisy)[None], FULL, shots, seed, 0, exact=exact)[0]
    factor = reconstruct_full(f)
    estimates = (
        factor @ dagger(factor),
        reconstruct_x5(f[[FULL.index(s) for s in PARTIAL5]]).matrix(),
        reconstruct_x3(f[[FULL.index(s) for s in PARTIAL3]]).matrix(),
    )
    return tuple(float(fidelity(m, target)) for m in estimates)


def test_setting_index_row_major():
    assert setting_index("XX") == 0
    assert setting_index("XY") == 1
    assert setting_index("ZZ") == 8
    assert [setting_index(s) for s in FULL] == list(range(9))
    with pytest.raises(ProtocolError):
        setting_index("XQ")


def test_setting_probabilities_zz_reads_diagonal():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    np.testing.assert_allclose(setting_probabilities(rho, ("ZZ",))[0], [0.4, 0.3, 0.2, 0.1], atol=1e-14)


def test_bell_state_exact_expectations():
    for setting, joint in (("XX", 1.0), ("YY", -1.0), ("ZZ", 1.0)):
        got, first, second = CORRELATORS @ _exact(BELL, (setting,))[0]
        assert got == pytest.approx(joint, abs=1e-14)
        assert first == pytest.approx(0.0, abs=1e-14)
        assert second == pytest.approx(0.0, abs=1e-14)
        # cross-check against the trace formula
        m = kron(PAULI[setting[0]], PAULI[setting[1]])
        assert np.trace(m @ BELL).real == pytest.approx(joint, abs=1e-14)


def test_measure_block_deterministic_given_seed():
    rho = random_xstate(np.random.default_rng(3)).matrix()[None]
    a = measure_block(rho, ("XY",), 500, 42, 0)
    b = measure_block(rho, ("XY",), 500, 42, 0)
    np.testing.assert_array_equal(a, b)
    for seed, first in ((43, 0), (42, 1)):
        assert not np.array_equal(a, measure_block(rho, ("XY",), 500, seed, first))
    assert np.rint(a * 500).sum() == 500


def test_measure_block_zz_on_ground_state_all_first_bin():
    rho = np.zeros((1, 4, 4), dtype=complex)
    rho[0, 0, 0] = 1.0
    counts = np.rint(measure_block(rho, ("ZZ",), 200, 0, 0) * 200)
    np.testing.assert_array_equal(counts, [[[200, 0, 0, 0]]])


def test_measure_block_frequency_invariants():
    # Readout error at 0 and 0.05 on sampled and exact stacks. Sampled rows
    # are integer counts over shots: 1/49 * 49 is not 1 in floating point,
    # so the counts are read back with rint and must give the row exactly.
    rho = np.array([random_density(np.random.default_rng(47 + k)) for k in range(3)])
    for p_readout in (0.0, 0.05):
        for shots in (1, 49, 100, 1000):
            f = measure_block(rho, FULL, shots, 2, 3, p_readout=p_readout)
            counts = np.rint(f * shots)
            np.testing.assert_array_equal(f, counts / shots)
            assert counts.min() >= 0.0
            np.testing.assert_array_equal(counts.sum(axis=-1), shots)
        f = measure_block(rho, FULL, 1000, 2, 3, p_readout=p_readout, exact=True)
        assert f.shape == (3, 9, 4) and f.min() >= 0.0
        np.testing.assert_allclose(f.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        with pytest.raises(ContractError):
            measure_block(rho, FULL, 0, 2, 3, p_readout=p_readout)
    # At p = 0 the readout fold leaves the clipped, renormalized
    # probabilities bit for bit; in ZZ they are the diagonal, here of
    # full-rank, rank-deficient and slightly negative states.
    diagonals = np.array([np.diag(m).real for m in rho] + [[0.5, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0], [0.6, -1e-3, 0.2, 0.201]])
    zz = measure_block(np.array([np.diag(d).astype(complex) for d in diagonals]), ("ZZ",), 1, 0, 0, exact=True)[:, 0]
    clipped = np.clip(diagonals, 0.0, None)
    np.testing.assert_array_equal(zz, clipped / clipped.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("exact", [False, True])
def test_measure_block_rejects_a_state_with_a_nan_entry(exact):
    # A NaN entry makes a setting's total NaN, which no ordered comparison
    # catches as "<= 0"; it must be a contract violation, not a ValueError
    # from the draw, alone or among valid states, at any readout rate.
    good = random_density(np.random.default_rng(3))
    for entry in ((0, 0), (1, 2)):
        bad = good.copy()
        bad[entry] = np.nan
        for rho in (bad[None], np.array([good, bad, good])):
            for p_readout in (0.0, 0.02):
                with pytest.raises(ContractError):
                    measure_block(rho, PARTIAL5, 100, 7, 1, p_readout, exact)


@pytest.mark.filterwarnings("error")
def test_measure_block_draws_the_reference_chain_on_a_fresh_stream_per_block():
    # A sampled block is the reference step-major chain over all nine
    # settings of its points, point-major in FULL order, on a generator
    # built afresh under (seed, first); the listed settings are read out of
    # it. The inputs are dense in the conditional probabilities where
    # numpy's sampler branches: uniform rows off by 1e-16, exact zeros, two
    # outcomes summing to 1 and weights k/8, in all nine settings (diagonal
    # states read their weights in ZZ and near-uniform rows elsewhere), at
    # shot counts around the switch to BTPE (n p = 30) and where (n + 1) p
    # is integral. The samplers share one Generator, whose binomial set-up
    # numpy keeps and reuses while (n, p) repeats: the maximally mixed state
    # gives every setting the same distribution, the shot counts and the
    # keys repeat, and a small outcome probability goes both ways across the
    # switch between inversion and BTPE from one call to the next. Whole
    # stacks take the array steps, their first two states the scalar loop.
    src = np.random.default_rng(18)
    eighths = [w for w in itertools.product(range(9), repeat=4) if sum(w) == 8]
    diagonals = [np.array(eighths[k]) / 8.0 for k in src.choice(len(eighths), size=24, replace=False)]
    diagonals += [0.25 + src.choice([-1e-16, 0.0, 1e-16], size=4) for _ in range(12)]
    diagonals += [np.roll([a, 1.0 - a, 0.0, 0.0], k) for a, k in zip(src.random(8), range(8))]
    diagonals += [[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    mixed = np.eye(4, dtype=complex) / 4.0
    tilted = np.diag([0.994, 0.002, 0.003, 0.001]).astype(complex)
    noisy = random_density(np.random.default_rng(3))
    rho = np.array([np.diag(d).astype(complex) for d in diagonals] + [mixed, mixed, mixed, tilted, tilted, noisy, mixed])
    keys = itertools.cycle([(int(src.integers(0, 2**63)), 0), (7, 3), (2**64 - 1, 10**6), (0, 0), (7, 3)])
    for settings in (FULL, ("ZZ",)):
        index = [FULL.index(s) for s in settings]
        for shots in (1, 2, 29, 30, 31, 59, 60, 61, 119, 120, 121, 5954, 8000, 8001, 10**6, 10**9, 50, 8000):
            seed, first = next(keys)
            for stack in (rho, rho[-2:]):
                rows = setting_probabilities(stack, FULL).reshape(-1, 4).tolist()
                want = np.array(block_counts_reference(rows, shots, seed, first)).reshape(-1, 9, 4)[:, index]
                got = measure_block(stack, settings, shots, seed, first)
                np.testing.assert_array_equal(got, want / shots)


def test_shot_error_shrinks_with_more_shots():
    rho = random_xstate(np.random.default_rng(5)).matrix()
    probs = setting_probabilities(rho, ("XX",))[0]
    lo, hi = [], []
    for seed in range(20):
        few = measure_block(rho[None], ("XX",), 1000, seed, 0)[0, 0]
        many = measure_block(rho[None], ("XX",), 64000, seed, 0)[0, 0]
        lo.append(np.max(np.abs(few - probs)))
        hi.append(np.max(np.abs(many - probs)))
    assert np.mean(hi) < np.mean(lo)


def _repaired(rho_hat):
    """The state L L^dagger of ``psd_project``'s factor L."""
    factor = psd_project(rho_hat)
    return factor @ dagger(factor)


def test_psd_project_passes_through_psd_input():
    rho = random_density(np.random.default_rng(7))
    given = rho.copy()
    np.testing.assert_array_equal(psd_project(rho), psd_factor(rho, "test"))
    np.testing.assert_array_equal(rho, given)


def test_psd_project_single_negative_eigenvalue():
    rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    np.testing.assert_allclose(_repaired(rho), np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)


def test_psd_project_two_negative_eigenvalues():
    rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    np.testing.assert_allclose(_repaired(rho), np.diag([0.6, 0.4, 0.0, 0.0]), atol=1e-12)


def test_psd_project_preserves_trace_and_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(30):
        h = random_density(rng) + np.diag(rng.uniform(-0.08, 0.02, size=4))
        h = h / np.trace(h).real
        out = _repaired(h)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(out)) > -1e-12
        np.testing.assert_allclose(out, psd_project_matrix(h), rtol=0, atol=1e-15)
        np.testing.assert_allclose(_repaired(out), out, atol=0)
        np.testing.assert_allclose(_repaired(out), out, rtol=0, atol=1e-15)


def test_psd_project_rejects_non_hermitian():
    with pytest.raises(ContractError):
        psd_project(np.array([[1.0, 0.2], [0.0, 0.0]]))
    # up to linalg.HERMITIAN_ATOL, 1e-10, passes; one entry without its
    # partner: |m - m^dagger| is the entry's magnitude
    past = np.nextafter(1e-10, 1.0)
    for unit in (1.0, 1j):
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        m[0, 1] = 1e-10 * unit
        psd_project(m)
        m[0, 1] = past * unit
        with pytest.raises(ContractError, match="expects Hermitian"):
            psd_project(m)


def test_reconstruct_full_exact_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = random_density(rng)
        factor = reconstruct_full(_exact(rho, FULL))
        np.testing.assert_allclose(factor @ dagger(factor), rho, atol=1e-12)


def test_reconstruct_x5_exact_on_complex_xstates():
    rng = np.random.default_rng(13)
    for _ in range(40):
        x = random_xstate_raw(rng)
        got = reconstruct_x5(_exact(x.matrix(), PARTIAL5))
        np.testing.assert_allclose(got.matrix(), x.matrix(), atol=1e-12)


def test_reconstruct_x3_exact_on_real_xstates():
    rng = np.random.default_rng(17)
    for _ in range(40):
        x = random_xstate_raw(rng, complex_corners=False)
        got = reconstruct_x3(_exact(x.matrix(), PARTIAL3))
        np.testing.assert_allclose(got.matrix(), x.matrix(), atol=1e-12)


def test_reconstruct_corner_clamping():
    # frequencies claiming |w| > sqrt(a d) must be clamped to the boundary
    freqs = np.array([
        (1.0, 0.0, 0.0, 0.0),   # XX: <XX> = 1
        (0.0, 0.5, 0.5, 0.0),   # YY: <YY> = -1
        (0.45, 0.05, 0.05, 0.45),  # ZZ
    ])
    x = reconstruct_x3(freqs)
    assert abs(x.w) <= np.sqrt(x.a * x.d) + 1e-12
    x.validate()


def test_protocol_errors_on_wrong_frequency_shape():
    freqs = _exact(BELL, PARTIAL3)
    with pytest.raises(ProtocolError):
        reconstruct_x5(freqs)
    with pytest.raises(ProtocolError):
        reconstruct_x3(freqs[:2])
    with pytest.raises(ProtocolError):
        reconstruct_x3(freqs[:, :3])
    with pytest.raises(ProtocolError):
        reconstruct_full(freqs[0])


def test_reconstruction_consistency_under_shot_noise():
    rho = random_xstate(np.random.default_rng(19)).matrix()
    shots = 20000
    freqs = measure_block(rho[None], FULL, shots, 7, 0)[0]
    full = reconstruct_full(freqs)
    assert fidelity(full @ dagger(full), rho) > 0.995
    x5 = reconstruct_x5(freqs[[FULL.index(s) for s in PARTIAL5]])
    assert fidelity(x5.matrix(), rho) > 0.995


def test_exact_zero_noise_protocols_recover_target():
    x = random_xstate_raw(np.random.default_rng(23))
    full, p5, p3 = _protocol_fidelities(x.matrix(), x.matrix(), 100, 0, exact=True)
    assert full == pytest.approx(1.0, abs=1e-9)
    assert p5 == pytest.approx(1.0, abs=1e-9)
    # the 3-observable protocol misses corner phases, so it only recovers
    # targets that are real to begin with
    real_x, _ = strip_phases(x)
    full, p5, p3 = _protocol_fidelities(real_x.matrix(), real_x.matrix(), 100, 0, exact=True)
    assert p3 == pytest.approx(1.0, abs=1e-9)


def test_protocol_scores_repeat_on_one_seed():
    x = random_xstate_raw(np.random.default_rng(29), complex_corners=False)
    full_a, p5_a, p3_a = _protocol_fidelities(x.matrix(), x.matrix(), 4000, 11)
    full_b, p5_b, p3_b = _protocol_fidelities(x.matrix(), x.matrix(), 4000, 11)
    assert full_a == full_b
    assert p5_a == p5_b
    assert p3_a == p3_b


def test_xprep_reconstruction_json():
    x = random_xstate(np.random.default_rng(31))
    target = {"kind": "xstate", **x.to_json()}
    params, res = run_experiment("xprep_single", {"target": target, "shots": 800, "seed": 5})
    blob = res.report["reconstruction"]
    assert blob["fidelity_convention"] == "squared-uhlmann"
    assert blob["protocol"] == "partial5"
    assert (blob["shots"], blob["seed"]) == (800, 5)
    noisy = np.array(res.report["noisy_output"]["re"]) + 1j * np.array(res.report["noisy_output"]["im"])
    freqs = measure_block(noisy[None], PARTIAL5, 800, 5, 0, params["noise"].p_readout)
    np.testing.assert_allclose(np.array(blob["reconstructed_re"]), reconstruct_x5(freqs[0]).matrix().real, atol=0)


@pytest.mark.parametrize("exact", [False, True])
def test_measure_records_do_not_depend_on_the_other_settings(exact):
    # The concurrence and fidelity sweeps, and the three protocols of a
    # fidelity sweep, measure different setting lists through one loop;
    # a setting's frequencies must be the same whichever list it is drawn in.
    rho = random_density(np.random.default_rng(41))[None]
    full = measure_block(rho, FULL, 3000, 17, 0, p_readout=0.05, exact=exact)
    assert full.shape == (1, len(FULL), 4)
    for settings in (PARTIAL5, PARTIAL3):
        subset = measure_block(rho, settings, 3000, 17, 0, p_readout=0.05, exact=exact)
        assert subset.shape == (1, len(settings), 4)
        assert all((subset[0, i] == full[0, FULL.index(s)]).all() for i, s in enumerate(settings))
    assert (full[0, 0] != measure_block(rho, ("XX",), 3000, 17, 0, exact=exact)[0, 0]).any()


def _psd_project_one_by_one(rho_hat):
    """The per-matrix repair: one eigh and one sequential loop per matrix,
    then the factor of the repaired eigenvalues."""
    w, v = np.linalg.eigh(rho_hat)
    lam = w.copy()
    n = len(lam)
    for i in range(n):
        if lam[i] < 0.0:
            lam[i + 1:] += lam[i] / (n - 1 - i)
            lam[i] = 0.0
    return v * np.sqrt(np.clip(lam, 0.0, None))


def _unit_trace_hermitian(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    h = (q * np.asarray(eigenvalues, dtype=float)) @ q.conj().T
    h = (h + h.conj().T) / 2.0
    return h / np.trace(h).real


def test_stacked_psd_repair_matches_the_per_matrix_loop():
    rng = np.random.default_rng(43)
    spectra = [
        (0.5, 0.5, 0.0, 0.0),       # rank deficient: roundoff may leave
        (1.0, 0.0, 0.0, 0.0),       # eigenvalues of -1e-17 to repair
        (0.7, 0.4, -0.1, 0.0),      # one negative eigenvalue
        (0.8, 0.5, -0.2, -0.1),     # two, the second pushed up by the first
        (1.2, 0.1, -0.15, -0.15),   # mass of both spread over the rest
        (0.9, -0.3, 0.25, 0.15),
    ]
    stack = np.array([_unit_trace_hermitian(rng, s) for s in spectra * 5]
                     + [random_density(rng) + np.diag(rng.uniform(-0.1, 0.02, size=4)) for _ in range(30)])
    stack /= np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]
    got = psd_project(stack)
    want = np.array([_psd_project_one_by_one(h) for h in stack])
    repaired = np.linalg.eigvalsh(stack)[:, 0] < 0.0
    assert 0 < repaired.sum() < len(stack)
    np.testing.assert_array_equal(got, want)
    for one, g in zip(stack, got):
        np.testing.assert_array_equal(psd_project(one), g)
    np.testing.assert_allclose(got @ dagger(got), psd_project_matrix(stack), rtol=0, atol=1e-15)


def test_psd_project_rejects_all_negative_input_alone_and_in_a_stack():
    negative = -np.eye(4, dtype=complex) / 4.0
    with pytest.raises(ContractError):
        psd_project(negative)
    with pytest.raises(ContractError):
        psd_project(np.array([np.eye(4) / 4.0, negative]))
