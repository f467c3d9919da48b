import numpy as np
import pytest

from conftest import random_density, random_xstate, random_xstate_raw
from xsim.errors import ContractError, ProtocolError
from xsim.linalg import fidelity
from xsim.xstate import strip_phases
from xsim.tomography import (
    FULL,
    PARTIAL3,
    PARTIAL5,
    ShotRecord,
    TomographyReport,
    exact_record,
    expectations_from_counts,
    measure,
    outcome_probabilities,
    pauli_pair_matrix,
    psd_project,
    reconstruct_full,
    reconstruct_x3,
    reconstruct_x5,
    robustness_report,
    sample_setting,
    setting_index,
)

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def test_setting_index_row_major():
    assert setting_index("XX") == 0
    assert setting_index("XY") == 1
    assert setting_index("ZZ") == 8
    assert [setting_index(s) for s in FULL] == list(range(9))
    with pytest.raises(ProtocolError):
        setting_index("XQ")


def test_outcome_probabilities_zz_reads_diagonal():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    np.testing.assert_allclose(outcome_probabilities(rho, "ZZ"), [0.4, 0.3, 0.2, 0.1], atol=1e-14)


def test_bell_state_exact_expectations():
    for setting, joint in (("XX", 1.0), ("YY", -1.0), ("ZZ", 1.0)):
        rec = exact_record(BELL, setting)
        got, first, second = expectations_from_counts(rec)
        assert got == pytest.approx(joint, abs=1e-14)
        assert first == pytest.approx(0.0, abs=1e-14)
        assert second == pytest.approx(0.0, abs=1e-14)
        # cross-check against the trace formula
        m = pauli_pair_matrix(setting)
        assert np.trace(m @ BELL).real == pytest.approx(joint, abs=1e-14)


def test_sample_setting_deterministic_given_seed():
    rho = random_xstate(np.random.default_rng(3)).matrix()
    a = sample_setting(rho, "XY", 500, 42)
    b = sample_setting(rho, "XY", 500, 42)
    assert a == b
    c = sample_setting(rho, "XY", 500, 43)
    assert a != c
    assert sum(a.counts) == 500


def test_sample_zz_on_ground_state_all_first_bin():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rec = sample_setting(rho, "ZZ", 200, 0)
    assert rec.counts == (200, 0, 0, 0)


def test_shot_record_validation():
    ShotRecord("XX", 10, (4, 3, 2, 1))
    with pytest.raises(ContractError):
        ShotRecord("XX", 10, (4, 3, 2, 2))
    with pytest.raises(ContractError):
        ShotRecord("XX", 0, (0.5, 0.2, 0.2, 0.2))
    ShotRecord("XX", 0, (0.5, 0.2, 0.2, 0.1))


def test_shot_error_shrinks_with_more_shots():
    rho = random_xstate(np.random.default_rng(5)).matrix()
    probs = outcome_probabilities(rho, "XX")
    lo, hi = [], []
    for seed in range(20):
        few = sample_setting(rho, "XX", 1000, seed).frequencies()
        many = sample_setting(rho, "XX", 64000, seed).frequencies()
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
        records = [exact_record(rho, s) for s in FULL]
        np.testing.assert_allclose(reconstruct_full(records), rho, atol=1e-12)


def test_reconstruct_x5_exact_on_complex_xstates():
    rng = np.random.default_rng(13)
    for _ in range(40):
        x = random_xstate_raw(rng)
        records = [exact_record(x.matrix(), s) for s in PARTIAL5]
        got = reconstruct_x5(records)
        np.testing.assert_allclose(got.matrix(), x.matrix(), atol=1e-12)


def test_reconstruct_x3_exact_on_real_xstates():
    rng = np.random.default_rng(17)
    for _ in range(40):
        x = random_xstate_raw(rng, complex_corners=False)
        records = [exact_record(x.matrix(), s) for s in PARTIAL3]
        got = reconstruct_x3(records)
        np.testing.assert_allclose(got.matrix(), x.matrix(), atol=1e-12)


def test_reconstruct_corner_clamping():
    # frequencies claiming |w| > sqrt(a d) must be clamped to the boundary
    records = [
        ShotRecord("XX", 0, (1.0, 0.0, 0.0, 0.0)),   # <XX> = 1
        ShotRecord("YY", 0, (0.0, 0.5, 0.5, 0.0)),   # <YY> = -1
        ShotRecord("ZZ", 0, (0.45, 0.05, 0.05, 0.45)),
    ]
    x = reconstruct_x3(records)
    assert abs(x.w) <= np.sqrt(x.a * x.d) + 1e-12
    x.validate()


def test_protocol_errors_on_missing_and_duplicate():
    rho = BELL
    records = [exact_record(rho, s) for s in PARTIAL3]
    with pytest.raises(ProtocolError):
        reconstruct_x5(records)
    with pytest.raises(ProtocolError):
        reconstruct_x3(records[:2])
    with pytest.raises(ProtocolError):
        reconstruct_x3([records[0], records[0], records[2]])


def test_reconstruction_consistency_under_shot_noise():
    rho = random_xstate(np.random.default_rng(19)).matrix()
    shots = 20000
    records = [sample_setting(rho, s, shots, 7) for s in FULL]
    full = reconstruct_full(records)
    assert fidelity(full, rho) > 0.995
    x5 = reconstruct_x5([r for r in records if r.setting in PARTIAL5])
    assert fidelity(x5.matrix(), rho) > 0.995


def test_robustness_report_exact_zero_noise_recovers_target():
    x = random_xstate_raw(np.random.default_rng(23))
    full, p5, p3 = robustness_report(x.matrix(), x.matrix(), 100, 0, exact=True)
    assert full.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert p5.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert full.protocol == "full" and p5.protocol == "partial5" and p3.protocol == "partial3"
    assert full.shots == 0
    # the 3-observable protocol misses corner phases, so it only recovers
    # targets that are real to begin with
    real_x, _ = strip_phases(x.matrix())
    full, p5, p3 = robustness_report(real_x.matrix(), real_x.matrix(), 100, 0, exact=True)
    assert p3.fidelity_to_target == pytest.approx(1.0, abs=1e-9)


def test_robustness_report_shares_shot_records():
    x = random_xstate_raw(np.random.default_rng(29), complex_corners=False)
    full_a, p5_a, p3_a = robustness_report(x.matrix(), x.matrix(), 4000, 11)
    full_b, p5_b, p3_b = robustness_report(x.matrix(), x.matrix(), 4000, 11)
    assert full_a.fidelity_to_target == full_b.fidelity_to_target
    assert p5_a.fidelity_to_target == p5_b.fidelity_to_target
    assert p3_a.fidelity_to_target == p3_b.fidelity_to_target


def test_tomography_report_json():
    x = random_xstate(np.random.default_rng(31))
    rep = TomographyReport("partial5", x.matrix(), 0.97, 0.01, 800, 5)
    blob = rep.to_json()
    assert blob["fidelity_convention"] == "squared-uhlmann"
    assert blob["protocol"] == "partial5"
    np.testing.assert_allclose(np.array(blob["reconstructed_re"]), x.matrix().real, atol=0)



@pytest.mark.parametrize("exact", [False, True])
def test_measure_records_do_not_depend_on_the_other_settings(exact):
    # The concurrence and fidelity sweeps, and the three protocols of
    # robustness_report, measure different setting lists through one loop;
    # a setting's record must be the same whichever list it is drawn in.
    rho = random_density(np.random.default_rng(41))
    full = measure(rho, FULL, 3000, 17, p_readout=0.05, exact=exact)
    assert tuple(full) == FULL
    for settings in (PARTIAL5, PARTIAL3):
        subset = measure(rho, settings, 3000, 17, p_readout=0.05, exact=exact)
        assert tuple(subset) == settings
        assert all(subset[s] == full[s] for s in settings)
    assert full["XX"] != measure(rho, ("XX",), 3000, 17, exact=exact)["XX"]


@pytest.mark.parametrize("shots, counts", [(2, (0.5, 0.5, 0.5, 0.5)), (3, (True, True, True, 0))])
def test_shot_record_rejects_fractional_and_boolean_counts(shots, counts):
    # Both sum to the shot count, so only the integer check can catch them.
    with pytest.raises(ContractError):
        ShotRecord("XX", shots, counts)


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
