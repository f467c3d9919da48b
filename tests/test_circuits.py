import math

import numpy as np
import pytest

from conftest import make_circuit, prepare, prepare_complex, random_spectral, random_xstate_raw
from oracles import assemble_x_unitary, build_xstate_circuit_alt, circuit_unitary, relative_phase
from oracles import ry_matrix, rz_matrix, w_matrix
from xsim import circuits
from xsim.circuits import (
    Circuit,
    XUnitaryParams,
    build_xstate_circuit,
    classical_prep_angles,
    decompose_x_unitary,
    eigenbasis_block,
    rotation_stack,
    run_stack,
)
from xsim.errors import ContractError, DimensionError
from xsim.xstate import from_spectral


def test_gate_matrices_match_displayed_conventions():
    def matrix(kind, t):
        return rotation_stack(kind, np.array([t]))[0]

    t = 0.37
    c, s = math.cos(t / 2), math.sin(t / 2)
    np.testing.assert_allclose(matrix("ry", t), [[c, -s], [s, c]], atol=1e-15)
    np.testing.assert_allclose(matrix("rz", t), np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]), atol=1e-15)
    np.testing.assert_allclose(matrix("w", 0.0), np.diag([1.0, 1j]), atol=1e-15)
    x = 0.23
    np.testing.assert_allclose(matrix("w", x), np.diag([np.exp(-1j * x), 1j * np.exp(1j * x)]), atol=1e-15)


def test_rotation_stacks_equal_the_scalar_rows_bit_for_bit():
    # One array pass per angle column must give the floats of the scalar
    # math/cmath rows, signed zeros included, or a sweep's rows and circuit
    # dumps would move; a shared column is the same function on one angle.
    rng = np.random.default_rng(19)
    special = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 5e-324, -5e-324]
    angles = np.concatenate([rng.uniform(-4 * math.pi, 4 * math.pi, 100_000), special])
    for kind, rows in (("ry", ry_matrix), ("rz", rz_matrix), ("w", w_matrix)):
        want = np.array([rows(t) for t in angles.tolist()], dtype=complex)
        got = rotation_stack(kind, angles)
        assert got.shape == (len(angles), 2, 2) and got.dtype == complex
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # a one-angle array takes numpy's short-array path
        for t in special + angles[:2000].tolist():
            one = rotation_stack(kind, np.array([t]))
            assert one.view(np.uint64).tolist() == np.array([rows(t)], dtype=complex).view(np.uint64).tolist()


def test_gate_validation():
    # the executor checks each op list before it runs it
    for bad in (
        make_circuit(2, ("nope", (0,))),
        make_circuit(2, ("u_lambda", (0,), 0.1)),
        make_circuit(2, ("rx", (0,), 0.1)),
        make_circuit(2, ("ry", (0,))),  # missing angle
        make_circuit(2, ("ry", (0,), 0.1), ("cnot", (0, 1), 0.2)),  # an angle too many
        make_circuit(2, ("cnot", (1, 1))),  # control == target
        make_circuit(2, ("ry", (1, 0), 0.1)),  # control on a 1q gate
    ):
        with pytest.raises(ContractError):
            run_stack((bad,), (0,))


def test_circuit_width_and_bounds():
    with pytest.raises(DimensionError):
        run_stack((Circuit(5, ()),), (0,))
    with pytest.raises(DimensionError):
        run_stack((make_circuit(2, ("ry", (3,), 0.1)),), (0,))


def test_op_list_is_checked_once_for_a_block():
    circuits._plan.cache_clear()
    block = build_xstate_circuit(np.tile([0.4, 0.3, 0.2, 0.1], (64, 1)), 0.1 * np.arange(64), 0.5)
    run_stack(block, (2, 3))
    run_stack(block, (2, 3))
    assert circuits._plan.cache_info().misses == 1


def test_cnot_truth_table():
    c = make_circuit(2, ("cnot", (0, 1)))
    u = circuit_unitary(c).real
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[1, 1] = perm[3, 2] = perm[2, 3] = 1.0
    np.testing.assert_allclose(u, perm, atol=1e-15)
    # control on qubit 1, target qubit 0
    c = make_circuit(2, ("cnot", (1, 0)))
    u = circuit_unitary(c).real
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[3, 1] = perm[2, 2] = perm[1, 3] = 1.0
    np.testing.assert_allclose(u, perm, atol=1e-15)


def test_gates_apply_in_listed_order():
    c = make_circuit(1, ("ry", (0,), math.pi / 2), ("rz", (0,), 0.7))
    u = circuit_unitary(c)
    expect = np.diag(np.exp([-0.35j, 0.35j])) @ ry_matrix(math.pi / 2)
    np.testing.assert_allclose(u, expect, atol=1e-15)


def test_classical_prep_amplitudes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        c = prepare(p, 0.0, 0.0)  # its first block: every gate but the last four
        c = Circuit(4, c.ops[:-4], c.angles[:-2])
        psi = circuit_unitary(c)[:, 0]
        # nonzero amplitudes only at |i j i j>, equal to sqrt(p_ij)
        expect = np.zeros(16)
        for i in range(2):
            for j in range(2):
                expect[10 * i + 5 * j] = math.sqrt(p[2 * i + j])
        np.testing.assert_allclose(psi, expect, atol=1e-12)


def test_classical_prep_product_distribution_drops_leading_rotation():
    q0, r0 = 0.75, 0.875
    p = (q0 * r0, q0 * (1 - r0), (1 - q0) * r0, (1 - q0) * (1 - r0))
    alpha, _, _ = classical_prep_angles(np.array([p]))
    assert abs(alpha) < 1e-12
    c = prepare(p, 0.3, 0.2)
    ops, angles = c.ops[:-4], c.angles[:-2]
    # leading rotation and its CNOT are elided: 4 gates, no CNOT onto qubit 1
    assert len(ops) == 4 and len(angles) == 2
    assert all(not (kind == "cnot" and qubits[1] == 1) for kind, qubits in ops)
    # still prepares the right amplitudes
    psi = circuit_unitary(Circuit(4, ops, angles))[:, 0]
    for i in range(2):
        for j in range(2):
            assert psi[10 * i + 5 * j] == pytest.approx(math.sqrt(p[2 * i + j]), abs=1e-12)


def test_classical_prep_angles_count_weights_within_the_margin_as_zero():
    # A weight within 1e-12 of zero, on either side, is the exact zero: the
    # angles are those of the exact distribution bit for bit, and the
    # product distribution keeps no leading rotation. A weight beyond the
    # margin is kept.
    exact = np.array([[0.6, 0.4, 0.0, 0.0], [0.0, 0.3, 0.0, 0.7]])
    for eps in (1e-12, 3e-17, -0.0, -3e-17, -1e-12):
        nudged = exact + eps * np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(classical_prep_angles(nudged), classical_prep_angles(exact))
        assert classical_prep_angles(nudged)[0].tolist() == [0.0, 0.0]
    kept = classical_prep_angles(exact + 2e-12 * np.array([[-1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]]))
    assert kept[0][0] > 2e-6 and kept[0][1] == 0.0


def test_eigenbasis_block_maps_all_four_basis_states():
    th, ph = 0.3, 0.4
    u = circuit_unitary(Circuit(2, *eigenbasis_block(th, ph)))
    images = {
        0: [math.cos(th), 0, 0, math.sin(th)],
        1: [0, math.sin(ph), math.cos(ph), 0],
        2: [-math.sin(th), 0, 0, math.cos(th)],
        3: [0, math.cos(ph), -math.sin(ph), 0],
    }
    for col, vec in images.items():
        np.testing.assert_allclose(u[:, col], vec, atol=1e-14)


def test_build_xstate_circuit_matches_shape_map():
    rng = np.random.default_rng(13)
    for _ in range(60):
        s = random_spectral(rng)
        circ = prepare(s.probs, s.theta, s.phi)
        pair = run_stack((circ,), (2, 3))[0]
        np.testing.assert_allclose(pair, from_spectral(s).matrix(), atol=1e-12)


def test_alt_block_equals_standard_with_reflected_angle():
    rng = np.random.default_rng(19)
    for _ in range(40):
        s = random_spectral(rng)
        alt = run_stack((build_xstate_circuit_alt(s.probs, s.theta, s.phi),), (2, 3))[0]
        std = run_stack((prepare(s.probs, s.theta, math.pi / 2 - s.phi),), (2, 3))[0]
        np.testing.assert_allclose(alt, std, atol=1e-13)


def test_complex_xstate_circuit_restores_phases():
    rng = np.random.default_rng(23)
    for _ in range(40):
        x = random_xstate_raw(rng)
        circ, spectral, (alpha, beta) = prepare_complex(x)
        pair = run_stack((circ,), (2, 3))[0]
        np.testing.assert_allclose(pair, x.matrix(), atol=1e-11)
        # the weights are a distribution, and each angle carries its corner's sign
        assert min(spectral.probs) >= -1e-12 and abs(sum(spectral.probs) - 1.0) <= 1e-12
        assert all(-math.pi / 2 < angle <= math.pi / 2 for angle in (spectral.theta, spectral.phi))


def test_x_unitary_assembly_structure():
    rng = np.random.default_rng(29)
    for _ in range(50):
        q = XUnitaryParams(*rng.uniform(-math.pi, math.pi, size=5), *rng.uniform(0, math.pi, size=2))
        u = assemble_x_unitary(q)
        # unitary, X-shaped, determinant +1
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        for i, j in ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)):
            assert abs(u[i, j]) < 1e-14
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)


def test_decompose_x_unitary_reassembles():
    rng = np.random.default_rng(31)
    for _ in range(100):
        q = XUnitaryParams(*rng.uniform(-math.pi, math.pi, size=5), *rng.uniform(0, math.pi, size=2))
        u = assemble_x_unitary(q)
        circ = decompose_x_unitary(q)
        assert circ.width == 2
        assert sum(1 for kind, _ in circ.ops if kind == "cnot") == 3
        v = circuit_unitary(circ)
        np.testing.assert_allclose(relative_phase(u, v) * v, u, atol=1e-11)
