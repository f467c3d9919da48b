import itertools

import numpy as np
import pytest

from conftest import random_density, random_xstate, random_xstate_raw
from oracles import substream
from xsim.errors import ContractError, ProtocolError
from xsim.experiments import run_experiment
from xsim.linalg import PAULI, fidelity, kron
from xsim.rng import multinomial_counts
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
    return measure_block(np.asarray(rho)[None], settings, 1, (0,), exact=True)[0]


def _protocol_fidelities(target, noisy, shots, seed, exact=False):
    """Fidelities of the full, 5- and 3-setting estimates of one state,
    all read from one nine-setting dataset."""
    f = measure_block(np.asarray(noisy)[None], FULL, shots, (seed,), exact=exact)[0]
    estimates = (
        reconstruct_full(f),
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
    a = measure_block(rho, ("XY",), 500, (42,))
    b = measure_block(rho, ("XY",), 500, (42,))
    np.testing.assert_array_equal(a, b)
    c = measure_block(rho, ("XY",), 500, (43,))
    assert not np.array_equal(a, c)
    assert np.rint(a * 500).sum() == 500


def test_measure_block_zz_on_ground_state_all_first_bin():
    rho = np.zeros((1, 4, 4), dtype=complex)
    rho[0, 0, 0] = 1.0
    counts = np.rint(measure_block(rho, ("ZZ",), 200, (0,)) * 200)
    np.testing.assert_array_equal(counts, [[[200, 0, 0, 0]]])


def test_measure_block_frequency_invariants():
    # Readout error at 0 and 0.05 on sampled and exact stacks. Sampled rows
    # are integer counts over shots: 1/49 * 49 is not 1 in floating point,
    # so the counts are read back with rint and must give the row exactly.
    rho = np.array([random_density(np.random.default_rng(47 + k)) for k in range(3)])
    for p_readout in (0.0, 0.05):
        for shots in (1, 49, 100, 1000):
            f = measure_block(rho, FULL, shots, (2, 3, 4), p_readout=p_readout)
            counts = np.rint(f * shots)
            np.testing.assert_array_equal(f, counts / shots)
            assert counts.min() >= 0.0
            np.testing.assert_array_equal(counts.sum(axis=-1), shots)
        f = measure_block(rho, FULL, 1000, (2, 3, 4), p_readout=p_readout, exact=True)
        assert f.shape == (3, 9, 4) and f.min() >= 0.0
        np.testing.assert_allclose(f.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        with pytest.raises(ContractError):
            measure_block(rho, FULL, 0, (2, 3, 4), p_readout=p_readout)
    # At p = 0 the readout fold leaves the clipped, renormalized
    # probabilities bit for bit; in ZZ they are the diagonal, here of
    # full-rank, rank-deficient and slightly negative states.
    diagonals = np.array([np.diag(m).real for m in rho] + [[0.5, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0], [0.6, -1e-3, 0.2, 0.201]])
    zz = measure_block(np.array([np.diag(d).astype(complex) for d in diagonals]), ("ZZ",), 1, range(6), exact=True)[:, 0]
    clipped = np.clip(diagonals, 0.0, None)
    np.testing.assert_array_equal(zz, clipped / clipped.sum(axis=-1, keepdims=True))


def test_measure_block_needs_one_seed_per_state():
    rho = np.array([random_density(np.random.default_rng(5 + k)) for k in range(3)])
    for seeds in ((1,), (1, 2, 3, 4)):
        with pytest.raises(ContractError):
            measure_block(rho, PARTIAL3, 100, seeds)
    # exact, no seed is read
    assert measure_block(rho, PARTIAL3, 100, (), exact=True).shape == (3, 3, 4)


@pytest.mark.filterwarnings("error")
def test_measure_block_rows_match_a_fresh_stream_per_draw():
    # Each row is numpy's multinomial, redrawn through the snapped chain
    # where a snap could have moved it; it must be the chain's draw on a
    # generator built afresh for its (point, setting). The inputs are dense
    # in the conditional probabilities where numpy's sampler branches:
    # uniform rows off by 1e-16, exact zeros, two outcomes summing to 1 and
    # weights k/8, in all nine settings (diagonal states read their weights
    # in ZZ and near-uniform rows elsewhere), at shot counts around the
    # switch to BTPE (n p = 30) and where (n + 1) p is integral. The
    # samplers share one Generator, whose binomial set-up numpy keeps and
    # reuses while (n, p) repeats: the maximally mixed state gives every
    # setting the same distribution, points repeat a seed, the shot counts
    # repeat, and a small outcome probability goes both ways across the
    # switch between inversion and BTPE from one call to the next.
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
    seeds = src.integers(0, 2**63, size=len(diagonals)).tolist() + [7, 7, 8, 2**64 - 1, 0, 0, 7]
    for settings in (FULL, ("ZZ",)):
        probs = setting_probabilities(rho, settings)
        for shots in (1, 2, 29, 30, 31, 59, 60, 61, 119, 120, 121, 5954, 8000, 8001, 10**6, 10**9, 50, 8000):
            want = [[multinomial_counts(substream(seed, setting_index(s)), shots, p) for s, p in zip(settings, point)]
                    for seed, point in zip(seeds, probs.tolist())]
            got = measure_block(rho, settings, shots, seeds)
            np.testing.assert_array_equal(got, np.array(want, dtype=float) / shots)


def test_shot_error_shrinks_with_more_shots():
    rho = random_xstate(np.random.default_rng(5)).matrix()
    probs = setting_probabilities(rho, ("XX",))[0]
    lo, hi = [], []
    for seed in range(20):
        few = measure_block(rho[None], ("XX",), 1000, (seed,))[0, 0]
        many = measure_block(rho[None], ("XX",), 64000, (seed,))[0, 0]
        lo.append(np.max(np.abs(few - probs)))
        hi.append(np.max(np.abs(many - probs)))
    assert np.mean(hi) < np.mean(lo)


def test_psd_project_passes_through_psd_input():
    rho = random_density(np.random.default_rng(7))
    out = psd_project(rho)
    assert out is rho


def test_psd_project_single_negative_eigenvalue():
    rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    np.testing.assert_allclose(psd_project(rho), np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)


def test_psd_project_two_negative_eigenvalues():
    rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    np.testing.assert_allclose(psd_project(rho), np.diag([0.6, 0.4, 0.0, 0.0]), atol=1e-12)


def test_psd_project_preserves_trace_and_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(30):
        h = random_density(rng) + np.diag(rng.uniform(-0.08, 0.02, size=4))
        h = h / np.trace(h).real
        out = psd_project(h)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(out)) > -1e-12
        np.testing.assert_allclose(psd_project(out), out, atol=0)


def test_psd_project_rejects_non_hermitian():
    with pytest.raises(ContractError):
        psd_project(np.array([[1.0, 0.2], [0.0, 0.0]]))


def test_reconstruct_full_exact_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = random_density(rng)
        np.testing.assert_allclose(reconstruct_full(_exact(rho, FULL)), rho, atol=1e-12)


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
    freqs = measure_block(rho[None], FULL, shots, (7,))[0]
    full = reconstruct_full(freqs)
    assert fidelity(full, rho) > 0.995
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
    freqs = measure_block(noisy[None], PARTIAL5, 800, (5,), params["noise"].p_readout)
    np.testing.assert_allclose(np.array(blob["reconstructed_re"]), reconstruct_x5(freqs[0]).matrix().real, atol=0)


@pytest.mark.parametrize("exact", [False, True])
def test_measure_records_do_not_depend_on_the_other_settings(exact):
    # The concurrence and fidelity sweeps, and the three protocols of a
    # fidelity sweep, measure different setting lists through one loop;
    # a setting's frequencies must be the same whichever list it is drawn in.
    rho = random_density(np.random.default_rng(41))[None]
    full = measure_block(rho, FULL, 3000, (17,), p_readout=0.05, exact=exact)
    assert full.shape == (1, len(FULL), 4)
    for settings in (PARTIAL5, PARTIAL3):
        subset = measure_block(rho, settings, 3000, (17,), p_readout=0.05, exact=exact)
        assert subset.shape == (1, len(settings), 4)
        assert all((subset[0, i] == full[0, FULL.index(s)]).all() for i, s in enumerate(settings))
    assert (full[0, 0] != measure_block(rho, ("XX",), 3000, (17,), exact=exact)[0, 0]).any()


def _psd_project_one_by_one(rho_hat):
    """The per-matrix repair: one eigh and one sequential loop per matrix."""
    w, v = np.linalg.eigh(rho_hat)
    if w[0] >= 0.0:
        return rho_hat
    lam = w.copy()
    n = len(lam)
    for i in range(n):
        if lam[i] < 0.0:
            lam[i + 1:] += lam[i] / (n - 1 - i)
            lam[i] = 0.0
    out = (v * lam) @ v.conj().T
    return (out + out.conj().T) / 2.0


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
    repaired = [not np.array_equal(g, h) for g, h in zip(got, stack)]
    assert 0 < sum(repaired) < len(stack)
    np.testing.assert_array_equal(got, want)
    for one, g in zip(stack, got):
        np.testing.assert_array_equal(psd_project(one), g)


def test_psd_project_rejects_all_negative_input_alone_and_in_a_stack():
    negative = -np.eye(4, dtype=complex) / 4.0
    with pytest.raises(ContractError):
        psd_project(negative)
    with pytest.raises(ContractError):
        psd_project(np.array([np.eye(4) / 4.0, negative]))
