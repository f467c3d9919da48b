import json
import math

import numpy as np
import pytest

from oracles import expm_oracle
from xsim.circuits import assemble_x_unitary
from xsim.errors import ContractError
from xsim.heisenberg import (
    HeisenbergParams,
    SectorState,
    block_amplitudes,
    concurrence_analytic,
    embed_sector,
    evolve_diagonal,
    evolve_even,
    evolve_odd,
    hamiltonian,
    propagator,
    propagator_x_params,
    spectrum,
)
from xsim.linalg import I2, SX, SY, SZ, kron
from xsim.xstate import concurrence_x, xstate_from_matrix


def _random_params(rng, field=True):
    jx, jy = rng.uniform(-2.0, 2.0, size=2)
    if abs(jx + jy) < 0.1:
        jx += 0.5
    jz = rng.uniform(-2.0, 2.0)
    if field:
        return HeisenbergParams(jx, jy, jz, rng.uniform(-2, 2), rng.uniform(-2, 2))
    return HeisenbergParams(jx, jy, jz)


def test_parameter_conversions():
    p = HeisenbergParams.from_j_kappa(j=1.0, kappa=0.75, jz=1.0, B=1.0, b=0.5)
    assert p.Jx == pytest.approx(1.75)
    assert p.Jy == pytest.approx(0.25)
    assert p.j == pytest.approx(1.0)
    assert p.j_kappa == pytest.approx(0.75)
    assert p.kappa == pytest.approx(0.75)
    assert p.xi == pytest.approx(1.25)
    assert p.eta == pytest.approx(math.sqrt(1.25))
    with pytest.raises(ContractError):
        _ = HeisenbergParams(1.0, -1.0, 0.5).kappa


def test_hamiltonian_matches_pauli_construction():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = _random_params(rng)
        h = hamiltonian(p)
        ref = 0.5 * (
            p.Jx * kron(SX, SX) + p.Jy * kron(SY, SY) + p.Jz * kron(SZ, SZ)
        )
        ref += 0.5 * (p.B + p.b) * kron(SZ, I2) + 0.5 * (p.B - p.b) * kron(I2, SZ)
        np.testing.assert_allclose(h, ref, atol=1e-13)


def test_spectrum_frozen_values():
    p = HeisenbergParams.from_j_kappa(j=1.0, kappa=0.5, jz=1.0)
    energies, vectors = spectrum(p)
    np.testing.assert_allclose(energies, [1.0, 0.0, 0.5, -1.5], atol=1e-14)
    p = HeisenbergParams.from_j_kappa(j=1.0, kappa=0.75, jz=1.0, B=1.0, b=0.5)
    energies, vectors = spectrum(p)
    golden = 0.5 * (math.sqrt(5.0) - 1.0)
    np.testing.assert_allclose(energies, [1.75, -0.75, golden, -golden - 1.0], atol=1e-12)
    h = hamiltonian(p)
    for k in range(4):
        np.testing.assert_allclose(h @ vectors[:, k], energies[k] * vectors[:, k], atol=1e-12)


def test_spectrum_eigenvectors_against_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = _random_params(rng)
        energies, vectors = spectrum(p)
        h = hamiltonian(p)
        np.testing.assert_allclose(
            np.sort(energies), np.sort(np.linalg.eigvalsh(h)), atol=1e-11
        )
        for k in range(4):
            v = vectors[:, k]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(h @ v, energies[k] * v, atol=1e-11)


def test_propagator_against_expm_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = _random_params(rng)
        t = rng.uniform(0.0, 8.0)
        np.testing.assert_allclose(
            propagator(p, t), expm_oracle(hamiltonian(p), t), atol=1e-11
        )


def test_propagator_group_property_and_identity():
    p = HeisenbergParams.from_j_kappa(1.0, 0.6, 0.8, B=0.7, b=0.2)
    np.testing.assert_allclose(propagator(p, 0.0), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        propagator(p, 1.1) @ propagator(p, 0.7), propagator(p, 1.8), atol=1e-12
    )


def test_block_amplitudes_roundtrip_unitarity():
    p = HeisenbergParams.from_j_kappa(1.0, 0.75, 0.5, B=1.0, b=0.5)
    for sector in ("even", "odd"):
        u, c = block_amplitudes(p, 0.9, sector)
        assert abs(u) ** 2 + abs(c) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert c.real == pytest.approx(0.0, abs=1e-14)  # coupling amplitude is purely imaginary


def test_evolve_even_frozen_point():
    # lambda = 1, zero field, 2 Jk t = pi/2 gives the fully entangled block
    p = HeisenbergParams.from_j_kappa(1.0, 0.5, 0.0)
    t = math.pi / 2.0
    s = evolve_even(1.0, p, t)
    np.testing.assert_allclose(s.block, 0.5 * np.array([[1.0, 1j], [-1j, 1.0]]), atol=1e-12)
    rho = embed_sector(s)
    assert concurrence_x(xstate_from_matrix(rho)) == pytest.approx(1.0, abs=1e-12)


def test_evolve_odd_frozen_point():
    # mu = 1, zero field, 2 J t = pi swaps the odd populations completely
    p = HeisenbergParams.from_j_kappa(1.0, 0.5, 0.0)
    t = math.pi / 2.0
    s = evolve_odd(1.0, p, t)
    np.testing.assert_allclose(s.block, np.diag([0.0, 1.0]), atol=1e-12)


def test_evolution_matches_propagator_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        lam = rng.uniform(-1.0, 1.0)
        s = evolve_even(lam, p, t)
        u = propagator(p, t)
        init = np.zeros((4, 4), dtype=complex)
        init[0, 0] = (1.0 + lam) / 2.0
        init[3, 3] = (1.0 - lam) / 2.0
        expect = u @ init @ u.conj().T
        np.testing.assert_allclose(embed_sector(s), expect, atol=1e-12)
        mu = rng.uniform(-1.0, 1.0)
        s = evolve_odd(mu, p, t)
        init = np.zeros((4, 4), dtype=complex)
        init[1, 1] = (1.0 + mu) / 2.0
        init[2, 2] = (1.0 - mu) / 2.0
        expect = u @ init @ u.conj().T
        np.testing.assert_allclose(embed_sector(s), expect, atol=1e-12)


def test_sector_state_validation():
    good = SectorState("even", np.diag([0.6, 0.4]).astype(complex))
    good.validate()
    with pytest.raises(ContractError):
        SectorState("sideways", np.diag([0.6, 0.4]).astype(complex)).validate()
    with pytest.raises(ContractError):
        SectorState("even", np.diag([0.9, 0.4]).astype(complex)).validate()
    with pytest.raises(ContractError):
        evolve_even(1.5, HeisenbergParams(1.0, 0.5, 0.0), 0.1)


def test_concurrence_analytic_closed_forms():
    # zero field: C_even = |lambda sin 2 Jk t|, C_odd = |mu sin 2 J t|
    p = HeisenbergParams.from_j_kappa(1.0, 0.75, 0.3)
    ts = np.linspace(0.0, 7.0, 40)
    for t in ts:
        assert concurrence_analytic("even", 0.8, p, t) == pytest.approx(
            abs(0.8 * math.sin(2 * 0.75 * t)), abs=1e-12
        )
        assert concurrence_analytic("odd", -0.6, p, t) == pytest.approx(
            abs(0.6 * math.sin(2 * t)), abs=1e-12
        )
    # field case: 2|lambda| (Jk/xi) |sin xi t| sqrt(cos^2 xi t + (B/xi)^2 sin^2 xi t)
    p = HeisenbergParams.from_j_kappa(1.0, 0.75, 0.3, B=1.0)
    xi = p.xi
    for t in ts:
        s, c = math.sin(xi * t), math.cos(xi * t)
        expect = 2.0 * 0.8 * (0.75 / xi) * abs(s) * math.sqrt(c * c + (1.0 / xi**2) * s * s)
        assert concurrence_analytic("even", 0.8, p, t) == pytest.approx(expect, abs=1e-12)


def test_concurrence_analytic_matches_full_chain():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        lam = rng.uniform(-1.0, 1.0)
        direct = concurrence_x(xstate_from_matrix(embed_sector(evolve_even(lam, p, t))))
        assert concurrence_analytic("even", lam, p, t) == pytest.approx(direct, abs=1e-10)
        mu = rng.uniform(-1.0, 1.0)
        direct = concurrence_x(xstate_from_matrix(embed_sector(evolve_odd(mu, p, t))))
        assert concurrence_analytic("odd", mu, p, t) == pytest.approx(direct, abs=1e-10)


def test_concurrence_field_limit_matches_zero_field():
    p0 = HeisenbergParams.from_j_kappa(1.0, 0.75, 0.5)
    p1 = HeisenbergParams.from_j_kappa(1.0, 0.75, 0.5, B=1e-8)
    for t in np.linspace(0.0, 5.0, 23):
        assert concurrence_analytic("even", 0.9, p1, t) == pytest.approx(
            concurrence_analytic("even", 0.9, p0, t), abs=1e-7
        )


def test_isotropic_exchange_generates_nothing_even():
    # kappa = 0 keeps the even sector diagonal for all times
    p = HeisenbergParams.from_j_kappa(1.0, 0.0, 0.7, B=0.9, b=0.1)
    for t in np.linspace(0.0, 9.0, 30):
        assert concurrence_analytic("even", 1.0, p, t) == 0.0


def test_concurrence_periodicity_zero_field():
    p = HeisenbergParams.from_j_kappa(1.0, 0.75, 0.0)
    period = math.pi / (2.0 * 0.75)
    for t in np.linspace(0.0, 3.0, 11):
        assert concurrence_analytic("even", 0.7, p, t) == pytest.approx(
            concurrence_analytic("even", 0.7, p, t + period), abs=1e-12
        )


def test_evolve_diagonal_matches_propagator():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        pops = rng.dirichlet(np.ones(4))
        x = evolve_diagonal(p, pops, t)
        u = propagator(p, t)
        expect = u @ np.diag(pops).astype(complex) @ u.conj().T
        np.testing.assert_allclose(x.matrix(), expect, atol=1e-12)


def test_propagator_x_params_covers_field_case():
    rng = np.random.default_rng(19)
    for _ in range(60):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        q = propagator_x_params(p, t)
        np.testing.assert_allclose(assemble_x_unitary(q), propagator(p, t), atol=1e-11)


def test_heisenberg_json_round_trip():
    p = HeisenbergParams(1.3, 0.4, -0.2, 0.9, 0.1)
    back = HeisenbergParams.from_json(json.loads(json.dumps(p.to_json())))
    assert back == p
    with pytest.raises(ContractError):
        HeisenbergParams.from_json({"Jx": 1.0, "Jy": 1.0, "Jz": 0.0, "extra": 2.0})
