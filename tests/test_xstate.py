import json
import math
from decimal import Decimal

import numpy as np
import pytest

from conftest import checked_spectral, random_spectral, random_xstate, random_xstate_raw
from oracles import concurrence_wootters_oracle, concurrence_x_decimal, fidelity, fidelity_oracle, psd_factor, sqrtm_psd
from xsim.errors import ContractError, ShapeError
from xsim.experiments import _couplings, _parse_target, _time_block, _time_grid, resolve_params, simplex_points
from xsim.linalg import PSD_ATOL
from xsim.xstate import (
    XSpectral,
    XState,
    concurrence_x,
    fidelity_x,
    from_spectral,
    leakage,
    sqrt_x,
    strip_phases,
    to_spectral,
    xstate_from_matrix,
)

SQ3 = math.sqrt(3.0)


def test_shape_map_frozen_point():
    s = XSpectral(0.4, 0.3, 0.2, 0.1, math.pi / 6, math.pi / 6)
    x = from_spectral(s)
    np.testing.assert_allclose([x.a, x.b, x.c, x.d], [0.35, 0.15, 0.25, 0.25], atol=1e-15)
    assert x.w == pytest.approx(0.05 * SQ3, abs=1e-15)
    assert x.z == pytest.approx(0.05 * SQ3, abs=1e-15)
    # both concurrence branches negative here
    assert concurrence_x(x) == 0.0
    assert concurrence_wootters_oracle(x.matrix()) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_pure_vertex():
    x = from_spectral(XSpectral(1.0, 0.0, 0.0, 0.0, math.pi / 6, 0.0))
    assert concurrence_x(x) == pytest.approx(SQ3 / 2.0, abs=1e-14)
    x = from_spectral(XSpectral(1.0, 0.0, 0.0, 0.0, math.pi / 4, 0.0))
    assert concurrence_x(x) == pytest.approx(1.0, abs=1e-14)
    assert concurrence_x(from_spectral(XSpectral(0.25, 0.25, 0.25, 0.25, 0.3, 1.1))) == 0.0


def test_concurrence_matches_oracle_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = random_xstate_raw(rng)
        assert concurrence_x(x) == pytest.approx(
            concurrence_wootters_oracle(x.matrix()), abs=1e-12
        )


def _default_targets(experiment):
    params = resolve_params(experiment, {})
    if experiment == "tetra_sweep":
        return from_spectral(XSpectral(*simplex_points(params["resolution"]).T, params["theta"], params["phi"]))
    hp = _couplings(params)
    return _time_block(params, hp, _time_grid(params, hp))[0]


@pytest.mark.parametrize("experiment", ["tetra_sweep", "heisenberg_conc", "field_conc", "random"])
def test_concurrence_x_matches_the_40_digit_oracle(experiment):
    # within one ulp of 1 of the exact concurrence of the float entries;
    # seen 3.7e-17 (tetra_sweep, 165 targets), 5.9e-17 (heisenberg_conc),
    # 1.15e-16 (field_conc, 64 each) and 1.05e-16 on 2,000 random states
    if experiment == "random":
        rng = np.random.default_rng(59)
        targets = XState.stack([random_xstate_raw(rng) for _ in range(2000)])
    else:
        targets = _default_targets(experiment)
    got = concurrence_x(targets)
    assert (got > 0.0).any()
    for k, value in enumerate(got.tolist()):
        want = concurrence_x_decimal(XState(*(field[k] for field in targets)))
        assert abs(Decimal(value) - want) <= Decimal(2.3e-16), (experiment, k)


def _pure_sectors(rng):
    """Random X-state whose two 2x2 sectors are each rank 1: |w| = sqrt(a d), |z| = sqrt(b c)."""
    a, b, c, d = rng.dirichlet(np.ones(4))
    phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=2))
    return XState(a, b, c, d, math.sqrt(a * d) * phases[0], math.sqrt(b * c) * phases[1])


def test_fidelity_x_matches_both_oracles_on_full_rank_pairs():
    rng = np.random.default_rng(71)
    for _ in range(200):
        x, y = random_xstate_raw(rng), random_xstate_raw(rng)
        got = fidelity_x(x, y)
        assert got == pytest.approx(fidelity(x.matrix(), y.matrix()), abs=1e-14)
        assert got == pytest.approx(fidelity_oracle(x.matrix(), y.matrix()), abs=1e-14)


def test_fidelity_x_matches_the_svd_route_on_rank_deficient_pairs():
    rng = np.random.default_rng(73)
    for _ in range(200):
        x, y, full = _pure_sectors(rng), _pure_sectors(rng), random_xstate_raw(rng)
        assert fidelity_x(x, y) == pytest.approx(fidelity(x.matrix(), y.matrix()), abs=1e-14)
        # Against a full-rank state, a rank-1 sector's determinant of
        # roundoff size costs ~1e-9 under its square root. The SVD route is
        # the less accurate one here: against a 40-digit evaluation of the
        # same closed form its error reaches ~1e-8, that of fidelity_x ~4e-9.
        assert fidelity_x(x, full) == pytest.approx(fidelity(x.matrix(), full.matrix()), abs=2e-8)


def test_fidelity_x_known_values_and_symmetry():
    rng = np.random.default_rng(79)
    mixed = XState(0.25, 0.25, 0.25, 0.25, 0j, 0j)
    for _ in range(50):
        x, y = _pure_sectors(rng), random_xstate_raw(rng)
        assert fidelity_x(x, y) == fidelity_x(y, x)
        assert fidelity_x(x, x) == pytest.approx(1.0, abs=1e-15)
    for theta, phase in ((0.0, 0.0), (math.pi / 4, 0.0), (0.3, 1.9)):
        for pure in (XState(math.cos(theta) ** 2, 0.0, 0.0, math.sin(theta) ** 2,
                            math.cos(theta) * math.sin(theta) * complex(math.cos(phase), math.sin(phase)), 0j),
                     XState(0.0, math.cos(theta) ** 2, math.sin(theta) ** 2, 0.0,
                            0j, math.cos(theta) * math.sin(theta) * complex(math.cos(phase), math.sin(phase)))):
            assert fidelity_x(mixed, pure) == pytest.approx(0.25, abs=1e-15)


def test_fidelity_x_broadcasts_stacks():
    rng = np.random.default_rng(83)
    xs = [[random_xstate_raw(rng) for _ in range(4)] for _ in range(3)]
    ys = [random_xstate_raw(rng) for _ in range(4)]
    x = XState(*(np.array([[getattr(s, k) for s in row] for row in xs]) for k in "abcdwz"))
    got = fidelity_x(x, XState.stack(ys))
    assert got.shape == (3, 4)
    np.testing.assert_array_equal(got, [[fidelity_x(xs[k][p], ys[p]) for p in range(4)] for k in range(3)])
    np.testing.assert_array_equal(fidelity_x(x, ys[0]), [[fidelity_x(s, ys[0]) for s in row] for row in xs])


def test_sqrt_x_matches_the_jacobi_root_on_random_xstates():
    rng = np.random.default_rng(89)
    states = [random_xstate_raw(rng, complex_corners=k % 2 == 0) for k in range(200)]
    for x in states:
        np.testing.assert_allclose(sqrt_x(x).matrix(), sqrtm_psd(x.matrix()), rtol=0, atol=1e-14)
    # a stack is rooted entry by entry, with the floats of each entry alone
    roots = sqrt_x(XState.stack(states)).matrix()
    np.testing.assert_array_equal(roots, [sqrt_x(x).matrix() for x in states])


def _dyadic_rank_one(rng):
    """X-state, unnormalized, whose sectors are rank 1 with a determinant of
    exactly 0.0: dyadic roots s, t, u, v and corners s v, t u times a unit of
    {1, -1, i, -i}."""
    s, t, u, v = rng.integers(1, 1024, size=4) / 1024.0
    unit = (1.0, -1.0, 1j, -1j)
    return XState(s * s, t * t, u * u, v * v, s * v * unit[rng.integers(4)], t * u * unit[rng.integers(4)])


def test_sqrt_x_is_exact_on_rank_one_and_zero_sectors():
    # A rank-1 sector M has the root M / sqrt(tr M). The Jacobi oracle is no
    # reference here: the roundoff of its zero eigenvalue enters under a
    # square root and moves its root by up to ~5e-9.
    rng = np.random.default_rng(97)
    for _ in range(200):
        x = _dyadic_rank_one(rng)
        m = x.matrix()
        want = np.zeros((4, 4), dtype=complex)
        for sector in ([0, 3], [1, 2]):
            block = m[np.ix_(sector, sector)]
            want[np.ix_(sector, sector)] = block / math.sqrt(np.trace(block).real)
        np.testing.assert_allclose(sqrt_x(x).matrix(), want, rtol=0, atol=1e-15)
    for x in (XState(0.6, 0.0, 0.0, 0.4, 0.3j, 0j), XState(0.0, 0.7, 0.3, 0.0, 0j, -0.2 + 0.1j),
              XState(0.6, -1e-17, 0.0, 0.4, 0.3j, 0j)):
        root = sqrt_x(x).matrix()
        zero = [1, 2] if x.a else [0, 3]
        assert (root[np.ix_(zero, zero)] == 0.0).all()
        np.testing.assert_allclose(root, sqrtm_psd(x.matrix()), rtol=0, atol=1e-14)


@pytest.mark.parametrize("experiment", ["heisenberg_fidelity", "field_fidelity"])
def test_sqrt_x_of_the_default_lambda_one_targets(experiment):
    # lambda = 1 leaves two weights at zero, so each sector is rank 1 up to
    # a determinant of roundoff size. The root of such a sector is
    # ill-conditioned: a 1e-17 change of an entry moves it by ~3e-9, so the
    # closed form and the Jacobi root agree to 4e-9 only, while both square
    # back to the target.
    params = resolve_params(experiment, {})
    assert params["lambda"] == 1.0
    hp = _couplings(params)
    targets, _ = _time_block(params, hp, _time_grid(params, hp))
    sigma = targets.matrix()
    root = sqrt_x(targets).matrix()
    np.testing.assert_array_equal(root, root.conj().swapaxes(-1, -2))
    np.testing.assert_allclose(root @ root, sigma, rtol=0, atol=1e-15)
    assert np.linalg.eigvalsh(root).min() > -1e-15
    for got, m in zip(root, sigma):
        np.testing.assert_allclose(got, sqrtm_psd(m), rtol=0, atol=1e-8)
    # at t = 0 the target is diagonal, and its root is exact
    np.testing.assert_allclose(root[0], sqrtm_psd(sigma[0]), rtol=0, atol=1e-14)


def test_sqrt_x_rejects_a_negative_eigenvalue_beyond_psd_atol():
    # the check that the LAPACK factor of the target made, now in closed form
    inside = XState(0.5, 0.25, 0.25, -0.5 * PSD_ATOL, 0.0j, 0.0j)
    beyond = XState(0.5, 0.25, 0.25, -2.0 * PSD_ATOL, 0.0j, 0.0j)
    psd_factor(inside.matrix(), "test")
    sqrt_x(inside)
    for bad in (beyond, XState(0.5, 0.25, 0.25, 0.0, 0.1j, 0j), XState(0.25, 0.5, 0.0, 0.25, 0j, 0.1)):
        with pytest.raises(ContractError, match="not positive semidefinite"):
            psd_factor(bad.matrix(), "test")
        with pytest.raises(ContractError, match="not positive semidefinite"):
            sqrt_x(bad)
        with pytest.raises(ContractError, match="not positive semidefinite"):
            sqrt_x(XState.stack([inside, bad, inside]))


def test_matrix_layout_and_validate():
    x = XState(0.4, 0.1, 0.15, 0.35, 0.2 + 0.1j, -0.05j)
    m = x.matrix()
    assert m[0, 3] == 0.2 + 0.1j and m[3, 0] == 0.2 - 0.1j
    assert m[1, 2] == -0.05j and m[2, 1] == 0.05j
    x.validate()
    with pytest.raises(ContractError):
        XState(0.5, 0.5, 0.0, 0.0, 0.3, 0.0).validate()  # |w| > sqrt(a d)
    with pytest.raises(ContractError):
        XState(0.6, 0.1, 0.1, 0.1, 0.0, 0.0).validate()  # trace != 1


def test_round_trip_spectral():
    rng = np.random.default_rng(23)
    for _ in range(300):
        s = random_spectral(rng)
        x = from_spectral(s)
        back = from_spectral(checked_spectral(x))
        np.testing.assert_allclose(back.matrix(), x.matrix(), atol=1e-10)


def test_round_trip_degenerate_sectors():
    rng = np.random.default_rng(29)
    for _ in range(60):
        p0 = rng.uniform(0.1, 0.4)
        p1 = rng.uniform(0.05, 0.3)
        rest = 1.0 - 2 * p0 - p1
        if rest < 0.01:
            continue
        # p00 == p10 makes a == d regardless of theta
        s = XSpectral(p0, p1, p0, rest, rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2))
        x = from_spectral(s)
        back = from_spectral(checked_spectral(x))
        np.testing.assert_allclose(back.matrix(), x.matrix(), atol=1e-10)


def test_maximally_mixed_inverts_through_degenerate_branch():
    # both sectors are degenerate, so any angle is exact: the weights and
    # the round trip are what is checked
    x = XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
    s = checked_spectral(x)
    np.testing.assert_allclose(s.probs, [0.25, 0.25, 0.25, 0.25], atol=1e-15)
    np.testing.assert_allclose(from_spectral(s).matrix(), x.matrix(), rtol=0, atol=1e-15)


@pytest.mark.parametrize("near_degenerate", [True, False])
def test_spectral_round_trip_is_exact_to_roundoff(near_degenerate):
    # 20,000 random weights, with both angles within 1e-9 of pi/4, where a
    # sector is nearly degenerate and cos 2 theta nearly 0, or uniform in
    # [0, pi/2]: inverting the shape map and mapping back moves no entry
    # by more than 1e-15.
    rng = np.random.default_rng(41)
    p = rng.dirichlet(np.ones(4), size=20_000).T
    if near_degenerate:
        theta, phi = math.pi / 4 + rng.uniform(-1e-9, 1e-9, size=(2, 20_000))
    else:
        theta, phi = rng.uniform(0.0, math.pi / 2, size=(2, 20_000))
    x = from_spectral(XSpectral(*p, theta, phi))
    s, (infeasible, _) = to_spectral(x)
    back = from_spectral(s)
    assert not infeasible.any()
    for name in ("a", "b", "c", "d", "w", "z"):
        assert np.max(np.abs(getattr(back, name) - getattr(x, name))) <= 1e-15, name


def test_to_spectral_weights_are_the_sector_eigenvalues():
    # Each sector's two weights are the eigenvalues of its 2x2 block, and
    # (cos, sin) of its angle is the eigenvector of the first weight, at the
    # signed angle in (-pi/2, pi/2] whose sign is the corner's.
    rng = np.random.default_rng(43)
    signs = set()
    for _ in range(300):
        x, _ = strip_phases(random_xstate(rng))
        s = checked_spectral(x)
        for angle, plus, minus, block in ((s.theta, s.p00, s.p10, [[x.a, x.w.real], [x.w.real, x.d]]),
                                          (s.phi, s.p01, s.p11, [[x.c, x.z.real], [x.z.real, x.b]])):
            assert -math.pi / 2 < angle <= math.pi / 2
            assert np.sign(angle) == np.sign(block[0][1])
            signs.add(np.sign(angle))
            np.testing.assert_allclose(sorted([plus, minus]), np.linalg.eigvalsh(block), rtol=0, atol=1e-15)
            vector = np.array([math.cos(angle), math.sin(angle)])
            np.testing.assert_allclose(np.array(block) @ vector, plus * vector, rtol=0, atol=1e-15)
    assert signs == {-1.0, 1.0}


def test_to_spectral_rejects_complex_corners():
    x = XState(0.4, 0.1, 0.15, 0.35, 0.1j, 0.0)
    with pytest.raises(ContractError):
        to_spectral(x)
    # imaginary parts up to 1e-10 pass as roundoff
    past = np.nextafter(1e-10, 1.0)
    for w, z in ((0.1 + 1e-10j, 0.0), (0.1, -0.05 - 1e-10j)):
        to_spectral(XState(0.4, 0.1, 0.15, 0.35, w, z))
    for w, z in ((0.1 + past * 1j, 0.0), (0.1, -0.05 - past * 1j)):
        with pytest.raises(ContractError, match="needs a real X-state"):
            to_spectral(XState(0.4, 0.1, 0.15, 0.35, w, z))


def test_spectral_weights_may_fall_1e_12_below_zero():
    past = np.nextafter(1e-12, 1.0)
    XSpectral(0.5 + 1e-12, 0.3, 0.2, -1e-12, 0.3, 0.2).validate()
    with pytest.raises(ContractError, match="spectral weights invalid"):
        XSpectral(0.5 + past, 0.3, 0.2, -past, 0.3, 0.2).validate()


def test_leakage_and_xstate_from_matrix():
    x = random_xstate(np.random.default_rng(37))
    assert leakage(x.matrix()) == 0.0
    got = xstate_from_matrix(x.matrix())
    np.testing.assert_allclose(got.matrix(), x.matrix(), atol=0)
    # |+><+| x |0><0| has four off-X entries of 0.25 each
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    rho = np.kron(plus, zero)
    assert leakage(rho) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ShapeError) as err:
        xstate_from_matrix(rho)
    assert err.value.leakage == pytest.approx(1.0, abs=1e-14)


def test_leakage_reads_each_off_x_entry_of_a_non_hermitian_matrix():
    # one nonzero entry at a time, without its Hermitian partner: each of
    # the eight entries off the diagonal and anti-diagonal leaks its
    # magnitude, each entry of the X shape leaks nothing
    for i in range(4):
        for j in range(4):
            rho = np.zeros((4, 4), dtype=complex)
            rho[i, j] = 0.3j
            if i == j or i + j == 3:
                assert leakage(rho) == 0.0
                xstate_from_matrix(rho)
            else:
                assert leakage(rho) == 0.3, (i, j)
                with pytest.raises(ShapeError):
                    xstate_from_matrix(rho)


def test_xstate_from_matrix_reads_a_stack_as_its_matrices_one_by_one():
    rng = np.random.default_rng(43)
    matrices = np.array([random_xstate_raw(rng).matrix() for _ in range(7)])
    stacked = xstate_from_matrix(matrices)
    singles = [xstate_from_matrix(m) for m in matrices]
    for name in ("a", "b", "c", "d", "w", "z"):
        assert getattr(stacked, name).tolist() == [getattr(x, name) for x in singles]
    assert concurrence_x(stacked).tolist() == [concurrence_x(x) for x in singles]
    one = xstate_from_matrix(matrices[:1])
    assert one.w.shape == (1,) and one.w[0] == singles[0].w


def test_xstate_from_matrix_names_the_first_point_beyond_the_leakage_bound():
    rng = np.random.default_rng(47)
    matrices = np.array([random_xstate_raw(rng).matrix() for _ in range(5)])
    matrices[1, 0, 1] = matrices[1, 1, 0] = 4e-10  # leakage 8e-10, inside the bound
    matrices[3, 0, 2] = matrices[3, 2, 0] = 1e-9  # leakage 2e-9, the first one beyond it
    matrices[4, 1, 3] = 0.25
    xstate_from_matrix(matrices[:3])
    with pytest.raises(ShapeError, match=r"^matrix at point 3 is not X-shaped \(leakage 2\.000e-09\)$") as err:
        xstate_from_matrix(matrices)
    assert err.value.leakage == leakage(matrices[3])
    with pytest.raises(ShapeError, match=r"^matrix is not X-shaped \(leakage 2\.500e-01\)$"):
        xstate_from_matrix(matrices[4])
    for bad in (np.eye(3), np.eye(4)[0], np.zeros((2, 2, 4, 4))):
        with pytest.raises(ContractError, match=r"expects a 4x4 matrix or a \(P, 4, 4\) stack"):
            xstate_from_matrix(bad)


def test_bell_diagonal_concurrence_is_twice_the_largest_weight_less_one():
    # At theta = phi = pi/4 the four basis states are the Bell states, and the
    # concurrence of a Bell-diagonal state is max(0, 2 p_max - 1).
    rng = np.random.default_rng(53)
    off = []
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        want = max(0.0, 2.0 * p.max() - 1.0)
        assert abs(concurrence_x(from_spectral(XSpectral(*p, math.pi / 4, math.pi / 4))) - want) <= 1e-15
        off.append(abs(concurrence_x(from_spectral(XSpectral(*p, math.pi / 4, 0.0))) - want))
    # at phi = 0 the second sector is diagonal, so the form pins the angle convention
    assert max(off) > 0.1


def test_strip_phases_round_trip():
    # Each corner's phase goes modulo pi: the corners come back real, signed
    # and of their own magnitude, mu = alpha + beta and nu = alpha - beta lie
    # in (-pi/2, pi/2], and the inverse rotation restores the state.
    rng = np.random.default_rng(41)
    signs = set()
    for _ in range(100):
        x = random_xstate_raw(rng)
        real_x, (alpha, beta) = strip_phases(x)
        w, z = complex(real_x.w), complex(real_x.z)
        assert w.imag == 0.0 and z.imag == 0.0
        assert (abs(w), abs(z)) == (abs(x.w), abs(x.z))
        signs.update((np.sign(w.real), np.sign(z.real)))
        assert all(-math.pi / 2 < phase <= math.pi / 2 for phase in (alpha + beta, alpha - beta))
        # populations untouched, concurrence invariant
        np.testing.assert_allclose(
            [real_x.a, real_x.b, real_x.c, real_x.d], [x.a, x.b, x.c, x.d], atol=0
        )
        assert concurrence_x(real_x) == pytest.approx(concurrence_x(x), abs=1e-14)
        # conjugating by the negated phases undoes the strip
        rot = np.diag([1.0, np.exp(-1j * alpha)]).astype(complex)
        rot = np.kron(rot, np.diag([1.0, np.exp(-1j * beta)]))
        restored = rot @ real_x.matrix() @ rot.conj().T
        np.testing.assert_allclose(restored, x.matrix(), rtol=0, atol=1e-15)
    assert signs == {-1.0, 1.0}


def test_strip_phases_takes_phases_modulo_pi_and_none_of_roundoff_sized_corners():
    # mu = arg w and nu = arg z modulo pi, in (-pi/2, pi/2]: a phase of
    # -pi/2 turns into +pi/2 and a negative real corner keeps its sign
    for (w, z), (mu, nu), signed in (((0.1j, -0.1j), (math.pi / 2, math.pi / 2), (0.1, -0.1)),
                                     ((-0.2, 0.1 - 0.1j), (0.0, -math.pi / 4), (-0.2, math.hypot(0.1, 0.1))),
                                     ((-0.2 + 0j, 1e-12j), (0.0, 0.0), (-0.2, 1e-12)),
                                     ((-1e-13 + 1e-13j, 0j), (0.0, 0.0), (math.hypot(1e-13, 1e-13), 0.0))):
        real_x, (alpha, beta) = strip_phases(XState(0.3, 0.2, 0.2, 0.3, w, z))
        assert (alpha + beta, alpha - beta) == pytest.approx((mu, nu), abs=1e-16)
        assert (complex(real_x.w), complex(real_x.z)) == signed


def test_strip_phases_preserves_spectrum():
    rng = np.random.default_rng(43)
    x = random_xstate_raw(rng)
    real_x, _ = strip_phases(x)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(real_x.matrix()), np.linalg.eigvalsh(x.matrix()), atol=1e-12
    )


def test_json_round_trips():
    # the xprep_single target reader takes each kind's to_json fields back
    x = XState(0.4, 0.1, 0.15, 0.35, 0.2 + 0.1j, -0.05j)
    assert _parse_target(json.loads(json.dumps({"kind": "xstate", **x.to_json()}))) == (x, None)
    s = XSpectral(0.4, 0.3, 0.2, 0.1, 0.5, 0.7)
    assert _parse_target(json.loads(json.dumps({"kind": "spectral", **s.to_json()}))) == (from_spectral(s), s)
