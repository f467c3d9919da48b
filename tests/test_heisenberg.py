import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from oracles import (
    DIGITS,
    assemble_x_unitary,
    concurrence_wootters_oracle,
    evolve_diagonal_decimal,
    expm_oracle,
    hamiltonian,
    rotor_decimal,
)
from xsim.errors import ContractError
from xsim.experiments import _circuit_weights, _couplings, _time_grid, resolve_params
from xsim.heisenberg import HeisenbergParams, _rotor, evolve_diagonal, propagator_x_params
from xsim.linalg import I2, SX, SY, SZ, kron
from xsim.xstate import concurrence_x


def _random_params(rng, field=True):
    jx, jy = rng.uniform(-2.0, 2.0, size=2)
    if abs(jx + jy) < 0.1:
        jx += 0.5
    j, jk, jz = 0.5 * (jx + jy), 0.5 * (jx - jy), rng.uniform(-2.0, 2.0)
    if field:
        return HeisenbergParams(j, jk, jz, rng.uniform(-2, 2), rng.uniform(-2, 2))
    return HeisenbergParams(j, jk, jz)


def _propagator(p, t):
    """U(t) = exp(-i H t) through the Jacobi oracle."""
    return expm_oracle(hamiltonian(p), t)


def _even(lam, p, t):
    """The state diag((1+lam)/2, 0, 0, (1-lam)/2) evolved to time t."""
    return evolve_diagonal(p, ((1.0 + lam) / 2.0, 0.0, 0.0, (1.0 - lam) / 2.0), t)


def _odd(mu, p, t):
    """The state diag(0, (1+mu)/2, (1-mu)/2, 0) evolved to time t."""
    return evolve_diagonal(p, (0.0, (1.0 + mu) / 2.0, (1.0 - mu) / 2.0, 0.0), t)


def test_parameter_conversions():
    p = HeisenbergParams(J=1.0, Jk=0.75, Jz=1.0, B=1.0, b=0.5)
    assert p.xi == pytest.approx(1.25)
    assert p.eta == pytest.approx(math.sqrt(1.25))


def test_the_coupling_record_holds_the_config_couplings_bit_for_bit():
    # J as given and Jk = J kappa rounded once: through Jx = J (1 + kappa) and
    # Jy = J (1 - kappa), Jk = (Jx - Jy) / 2 differs in 248 of these 400 draws
    rng = np.random.default_rng(33)
    for j, kappa, jz, B, b in rng.uniform(-2.0, 2.0, size=(400, 5)).tolist():
        kappa *= 0.5
        params = resolve_params("field_conc", {"J": j, "kappa": kappa, "Jz": jz, "B": B, "b": b})
        assert [v.hex() for v in _couplings(params)] == [v.hex() for v in (j, j * kappa, jz, B, b)]
        params = resolve_params("heisenberg_conc", {"J": j, "kappa": kappa, "Jz": jz})
        assert [v.hex() for v in _couplings(params)] == [v.hex() for v in (j, j * kappa, jz, 0.0, 0.0)]


def test_hamiltonian_matches_pauli_construction():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = _random_params(rng)
        h = hamiltonian(p)
        ref = 0.5 * (
            (p.J + p.Jk) * kron(SX, SX) + (p.J - p.Jk) * kron(SY, SY) + p.Jz * kron(SZ, SZ)
        )
        ref += 0.5 * (p.B + p.b) * kron(SZ, I2) + 0.5 * (p.B - p.b) * kron(I2, SZ)
        np.testing.assert_allclose(h, ref, atol=1e-13)


def test_propagator_group_property_and_identity():
    p = HeisenbergParams(1.0, 0.6, 0.8, B=0.7, b=0.2)

    def u(t):
        return assemble_x_unitary(propagator_x_params(p, t))

    np.testing.assert_allclose(u(0.0), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(u(1.1) @ u(0.7), u(1.8), atol=1e-12)


def test_rotor_roundtrip_unitarity():
    p = HeisenbergParams(1.0, 0.75, 0.5, B=1.0, b=0.5)
    for delta, coupling in ((p.B, p.Jk), (p.b, p.J)):
        u, c = _rotor(delta, coupling, 0.9)
        assert abs(u) ** 2 + abs(c) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert c.real == pytest.approx(0.0, abs=1e-14)  # coupling amplitude is purely imaginary


# the couplings of the default field sweeps: J = 1, kappa = 0.95, B = 1, b = 0.5
FIELD_DEFAULTS = HeisenbergParams(1.0, 0.95, 0.0, B=1.0, b=0.5)


@pytest.mark.parametrize("t_max", [10.0, 1e3, 1e5, 1e7, 1e9])
def test_rotor_stays_unitary_at_any_phase(t_max):
    # cos and sin of one phase: |u|^2 + |c|^2 - 1 is 5.6e-16 to 6.7e-16 at
    # every t_max; a sine of a second rounding of the phase grew it with the
    # phase, to 1.9e-9 at t = 1e7 and 1.2e-7 at 1e9
    ts = np.linspace(0.0, t_max, 1001)
    for delta, coupling in ((FIELD_DEFAULTS.B, FIELD_DEFAULTS.Jk), (FIELD_DEFAULTS.b, FIELD_DEFAULTS.J)):
        m = np.array(_rotor(delta, coupling, ts))
        norm = (m.real * m.real + m.imag * m.imag).sum(axis=0)
        assert np.max(np.abs(norm - 1.0)) <= 1e-15


def test_rotor_matches_the_40_digit_oracle_up_to_its_phase_rounding():
    # The float phase x = r t that the rotor takes is off from the exact
    # phase by up to half an ulp of x (1.1e-16 x); each entry may be off by
    # that much, and by at most 1 ulp of 1 beyond it. Measured: 0.59 ulp
    # beyond it over 2,400 phases up to 1e3 (455 ulp with the sine of a
    # second rounding of the phase); 1.9e-16 x at the largest.
    rng = np.random.default_rng(29)
    for t_max in (1.0, 10.0, 100.0, 1e3):
        ts = np.concatenate([np.linspace(0.0, t_max, 51), rng.uniform(0.0, t_max, 250)])
        for delta, coupling in ((FIELD_DEFAULTS.B, FIELD_DEFAULTS.Jk), (FIELD_DEFAULTS.b, FIELD_DEFAULTS.J)):
            r = math.hypot(delta, coupling)
            u, c = _rotor(delta, coupling, ts)
            for t, got in zip(ts.tolist(), zip(u.real.tolist(), u.imag.tolist(), c.imag.tolist())):
                want = rotor_decimal(delta, coupling, t)
                with localcontext() as ctx:
                    ctx.prec = DIGITS
                    exact_phase = (Decimal(delta) ** 2 + Decimal(coupling) ** 2).sqrt() * Decimal(t)
                    phase_error = abs(Decimal(r * t) - exact_phase)
                    error = max(abs(Decimal(g) - w) for g, w in zip(got, want))
                assert error <= phase_error + Decimal(2.0**-52), (delta, coupling, t)
                assert error <= Decimal(2.2e-16) * Decimal(max(r * t, 1.0))


def test_evolve_diagonal_matches_the_40_digit_oracle_on_the_default_field_grid():
    # every X entry within 3 ulp of 1 (6.7e-16) on the 64 default field
    # times; measured 4.3e-16 (8.9e-16 with a second rounding of the phase
    # and the squares through C pow)
    params = resolve_params("field_conc", {})
    hp = _couplings(params)
    w00, w01, w10, w11 = _circuit_weights(params)
    populations = (w00, w11, w01, w10)
    ts = _time_grid(params, hp)
    x = evolve_diagonal(hp, populations, ts)
    got = {"a": x.a, "b": x.b, "c": x.c, "d": x.d, "w_re": x.w.real, "w_im": x.w.imag, "z_re": x.z.real,
           "z_im": x.z.imag}
    for k, t in enumerate(ts.tolist()):
        want = evolve_diagonal_decimal(hp, populations, t)
        for name, value in want.items():
            assert abs(Decimal(float(got[name][k])) - value) <= Decimal(6.7e-16), (name, t)


def test_even_sector_frozen_point():
    # lambda = 1, zero field, 2 Jk t = pi/2 gives the fully entangled block
    p = HeisenbergParams(1.0, 0.5, 0.0)
    t = math.pi / 2.0
    x = _even(1.0, p, t)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0], expect[0, 3], expect[3, 0], expect[3, 3] = 0.5, 0.5j, -0.5j, 0.5
    np.testing.assert_allclose(x.matrix(), expect, atol=1e-12)
    assert concurrence_x(x) == pytest.approx(1.0, abs=1e-12)


def test_odd_sector_frozen_point():
    # mu = 1, zero field, 2 J t = pi swaps the odd populations completely
    p = HeisenbergParams(1.0, 0.5, 0.0)
    t = math.pi / 2.0
    np.testing.assert_allclose(_odd(1.0, p, t).matrix(), np.diag([0.0, 0.0, 1.0, 0.0]), atol=1e-12)


def test_evolution_matches_propagator_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        lam = rng.uniform(-1.0, 1.0)
        x = _even(lam, p, t)
        u = _propagator(p, t)
        init = np.zeros((4, 4), dtype=complex)
        init[0, 0] = (1.0 + lam) / 2.0
        init[3, 3] = (1.0 - lam) / 2.0
        expect = u @ init @ u.conj().T
        np.testing.assert_allclose(x.matrix(), expect, atol=1e-12)
        mu = rng.uniform(-1.0, 1.0)
        x = _odd(mu, p, t)
        init = np.zeros((4, 4), dtype=complex)
        init[1, 1] = (1.0 + mu) / 2.0
        init[2, 2] = (1.0 - mu) / 2.0
        expect = u @ init @ u.conj().T
        np.testing.assert_allclose(x.matrix(), expect, atol=1e-12)


def test_evolved_states_are_valid_x_states():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        for x in (
            evolve_diagonal(p, rng.dirichlet(np.ones(4)), t),
            _even(rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)]), p, t),
            _odd(rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)]), p, t),
        ):
            x.validate()  # populations a probability vector, |w| <= sqrt(a d), |z| <= sqrt(b c)


def test_evolve_diagonal_rejects_non_probability_populations():
    p = HeisenbergParams(0.75, 0.25, 0.0)
    evolve_diagonal(p, (0.6, 0.0, 0.0, 0.4), 0.1)
    with pytest.raises(ContractError):
        evolve_diagonal(p, (0.9, 0.0, 0.0, 0.4), 0.1)  # sums to 1.3
    with pytest.raises(ContractError):
        evolve_diagonal(p, (0.6, -0.1, 0.5, 0.0), 0.1)  # negative entry
    with pytest.raises(ContractError):
        _even(1.5, p, 0.1)  # imbalance outside [-1, 1]


def test_sector_concurrence_closed_forms():
    # zero field: C_even = |lambda sin 2 Jk t|, C_odd = |mu sin 2 J t|
    p = HeisenbergParams(1.0, 0.75, 0.3)
    ts = np.linspace(0.0, 7.0, 40)
    for t in ts:
        assert concurrence_x(_even(0.8, p, t)) == pytest.approx(
            abs(0.8 * math.sin(2 * 0.75 * t)), abs=1e-12
        )
        assert concurrence_x(_odd(-0.6, p, t)) == pytest.approx(
            abs(0.6 * math.sin(2 * t)), abs=1e-12
        )
    # field case: 2|lambda| (Jk/xi) |sin xi t| sqrt(cos^2 xi t + (B/xi)^2 sin^2 xi t)
    p = HeisenbergParams(1.0, 0.75, 0.3, B=1.0)
    xi = p.xi
    for t in ts:
        s, c = math.sin(xi * t), math.cos(xi * t)
        expect = 2.0 * 0.8 * (0.75 / xi) * abs(s) * math.sqrt(c * c + (1.0 / xi**2) * s * s)
        assert concurrence_x(_even(0.8, p, t)) == pytest.approx(expect, abs=1e-12)


def test_sector_concurrence_matches_wootters_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        lam = rng.uniform(-1.0, 1.0)
        x = _even(lam, p, t)
        assert concurrence_x(x) == pytest.approx(concurrence_wootters_oracle(x.matrix()), abs=1e-10)
        mu = rng.uniform(-1.0, 1.0)
        x = _odd(mu, p, t)
        assert concurrence_x(x) == pytest.approx(concurrence_wootters_oracle(x.matrix()), abs=1e-10)


def test_concurrence_field_limit_matches_zero_field():
    p0 = HeisenbergParams(1.0, 0.75, 0.5)
    p1 = HeisenbergParams(1.0, 0.75, 0.5, B=1e-8)
    for t in np.linspace(0.0, 5.0, 23):
        assert concurrence_x(_even(0.9, p1, t)) == pytest.approx(
            concurrence_x(_even(0.9, p0, t)), abs=1e-7
        )


def test_isotropic_exchange_generates_nothing_even():
    # kappa = 0 keeps the even sector diagonal for all times
    p = HeisenbergParams(1.0, 0.0, 0.7, B=0.9, b=0.1)
    for t in np.linspace(0.0, 9.0, 30):
        assert concurrence_x(_even(1.0, p, t)) == 0.0


def test_concurrence_periodicity_zero_field():
    p = HeisenbergParams(1.0, 0.75, 0.0)
    period = math.pi / (2.0 * 0.75)
    for t in np.linspace(0.0, 3.0, 11):
        assert concurrence_x(_even(0.7, p, t)) == pytest.approx(
            concurrence_x(_even(0.7, p, t + period)), abs=1e-12
        )


def test_evolve_diagonal_matches_propagator():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        pops = rng.dirichlet(np.ones(4))
        x = evolve_diagonal(p, pops, t)
        u = _propagator(p, t)
        expect = u @ np.diag(pops).astype(complex) @ u.conj().T
        np.testing.assert_allclose(x.matrix(), expect, atol=1e-12)


def test_propagator_x_params_covers_field_case():
    rng = np.random.default_rng(19)
    for _ in range(60):
        p = _random_params(rng)
        t = rng.uniform(0.0, 6.0)
        q = propagator_x_params(p, t)
        np.testing.assert_allclose(assemble_x_unitary(q), _propagator(p, t), atol=1e-11)
    # B = b = 0: the zero-field exchange propagator
    rng = np.random.default_rng(37)
    for _ in range(40):
        j, kappa, jz, t = rng.uniform(0.2, 2.0), rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(0, 6)
        hp = HeisenbergParams(j, j * kappa, jz)
        q = propagator_x_params(hp, t)
        np.testing.assert_allclose(assemble_x_unitary(q), _propagator(hp, t), atol=1e-12)

