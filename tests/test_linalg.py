import numpy as np
import pytest

from conftest import random_density, random_hermitian
from oracles import (
    expm_oracle,
    fidelity,
    herm_eig,
    partial_trace,
    relative_phase,
    sqrtm_psd,
    trace_distance,
    validate_density,
)
from xsim.errors import ContractError, DimensionError
from xsim.linalg import (
    I2,
    SX,
    SY,
    SZ,
    dagger,
    is_hermitian,
    kron,
)


def test_kron_places_first_factor_leftmost():
    m = kron(SX, SY)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 3] = -1j
    expect[1, 2] = 1j
    expect[2, 1] = -1j
    expect[3, 0] = 1j
    np.testing.assert_allclose(m, expect, atol=0)
    np.testing.assert_allclose(kron(SZ, I2), np.diag([1, 1, -1, -1]).astype(complex), atol=0)


def test_dagger_and_hermitian_checks():
    m = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    np.testing.assert_allclose(dagger(m), m.conj().T)
    assert is_hermitian(SY)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_density_catches_bad_trace_and_negativity():
    validate_density(np.eye(4) / 4.0)
    with pytest.raises(ContractError):
        validate_density(np.eye(4) / 2.0)
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ContractError):
        validate_density(bad)
    with pytest.raises(DimensionError):
        validate_density(np.eye(3) / 3.0)


def test_partial_trace_of_product_state():
    rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    rho_b = np.array([[0.2, 0.0], [0.0, 0.8]], dtype=complex)
    joint = kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, keep=(0,)), rho_a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, keep=(1,)), rho_b, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, keep=(0, 1)), joint, atol=0)


def test_partial_trace_four_qubits_keep_pair():
    rng = np.random.default_rng(11)
    pair = random_density(rng, 4)
    rest = random_density(rng, 4)
    joint = kron(rest, pair)
    np.testing.assert_allclose(partial_trace(joint, keep=(2, 3)), pair, atol=1e-13)
    with pytest.raises(DimensionError):
        partial_trace(joint, keep=(4,))


def test_herm_eig_matches_numpy_on_random_draws():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8, 16):
        for _ in range(12):
            h = random_hermitian(rng, dim)
            w, v = herm_eig(h)
            ref = np.sort(np.linalg.eigvalsh(h))[::-1]
            np.testing.assert_allclose(w, ref, atol=1e-11)
            np.testing.assert_allclose(h @ v, v @ np.diag(w), atol=1e-10)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-11)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ContractError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_oracle_pauli_z():
    u = expm_oracle(SZ, 0.7)
    np.testing.assert_allclose(u, np.diag([np.exp(-0.7j), np.exp(0.7j)]), atol=1e-13)
    # group property
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    np.testing.assert_allclose(
        expm_oracle(h, 0.4) @ expm_oracle(h, 0.9), expm_oracle(h, 1.3), atol=1e-11
    )


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 4)
    root = sqrtm_psd(rho)
    np.testing.assert_allclose(root @ root, rho, atol=1e-11)
    with pytest.raises(ContractError):
        sqrtm_psd(np.diag([1.0, -0.5]))


def test_fidelity_known_values():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert fidelity(np.eye(4) / 4.0, pure) == pytest.approx(0.25, abs=1e-12)
    assert fidelity(pure, pure) == pytest.approx(1.0, abs=1e-12)
    # symmetric, and equals overlap squared on pure states
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bell = np.outer(psi, psi.conj())
    assert fidelity(pure, bell) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(bell, pure) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_bounds_on_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        f = fidelity(a, b)
        assert -1e-12 <= f <= 1.0 + 1e-12
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-10)


def test_trace_distance_extremes():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(p0, p0) == pytest.approx(0.0, abs=1e-14)


def test_relative_phase_recovers_global_phase():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    u = expm_oracle(h, 0.3)
    g = np.exp(0.77j)
    assert relative_phase(u, g * u) * g == pytest.approx(1.0, abs=1e-12)
