"""The executor evolves one state per op-list group until the group's first
gate whose angles are not all equal bit for bit, where the state splits
into one row per circuit: every output must equal the circuit's own run
bit for bit, and the sharing must show in the number of rows each
contraction sees."""

import numpy as np
import pytest

from conftest import ZERO_NOISE_MODEL
from xsim import circuits
from xsim.circuits import Circuit, build_xstate_circuit, run_stack
from xsim.experiments import _couplings, _time_block, _time_grid, resolve_params, run_experiment
from xsim.noise import NoiseModel

NOISES = (ZERO_NOISE_MODEL, NoiseModel())
FULL = build_xstate_circuit(np.array([[0.5, 0.0, 0.1, 0.4]]), 0.3, 0.2)[0]  # the full first block


def assert_per_point(circs, keep, nm):
    """Each output of one call equals the circuit's own run, bit for bit."""
    got = run_stack(circs, keep, nm.gate_noise)
    want = np.array([run_stack((c,), keep, nm.gate_noise)[0] for c in circs])
    assert np.array_equal(got, want)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def rows_seen(monkeypatch) -> list:
    """(live qubits, rows) of the state out of every contraction run_stack
    makes from now on."""
    seen, apply = [], circuits.apply_local

    def recording(state, op, axes):
        out = apply(state, op, axes)
        seen.append(((out.ndim - 1) // 2, out.shape[0]))
        return out

    monkeypatch.setattr(circuits, "apply_local", recording)
    return seen


def with_angles(c: Circuit, **changes) -> Circuit:
    """``c`` with the angles at the given column positions (``a0``, ``a1``, ...) replaced."""
    angles = list(c.angles)
    for name, value in changes.items():
        angles[int(name[1:])] = value
    return c._replace(angles=tuple(angles))


@pytest.mark.parametrize("nm", NOISES, ids=("zero", "default"))
@pytest.mark.parametrize("points", (64, 256))
@pytest.mark.parametrize("experiment", ("heisenberg_fidelity", "field_fidelity"))
def test_time_sweep_blocks_equal_each_point_run_alone(experiment, points, nm):
    params = resolve_params(experiment, {"time_points": points})
    hp = _couplings(params)
    circs = _time_block(params, hp, _time_grid(params, hp))[1]
    assert len(circs) == points
    assert_per_point(circs, (2, 3), nm)


# the exact 256-point clean_tomography leg, and the 8-point highshot legs
SWEEP_CASES = [("field_fidelity", 256)] + [(e, 8) for e in ("heisenberg_conc", "field_conc", "heisenberg_fidelity",
                                                            "field_fidelity")]


@pytest.mark.parametrize("experiment, points", SWEEP_CASES)
def test_time_sweeps_evolve_one_state_while_three_qubits_are_live(experiment, points, monkeypatch):
    # a time block's preparation weights do not depend on time, so its
    # ancilla angles are one bit pattern per op list
    seen = rows_seen(monkeypatch)
    _, result = run_experiment(experiment, {"time_points": points, "exact": True})
    assert {rows for live, rows in seen if live == 3} == {1}
    # the steps after the ancilla pair still see every point
    assert sum(rows for live, rows in seen if live == 2) >= len(result.rows)


def test_prefixes_that_differ_only_in_the_sign_of_zero_are_not_merged(monkeypatch):
    # the second rotation's column holds 0.0 and -0.0: it is not constant,
    # so the state splits at that gate, after one shared RY and CNOT
    circs = [with_angles(FULL, a1=(0.0, -0.0)[i % 2]) for i in range(6)]
    seen = rows_seen(monkeypatch)
    run_stack(circs, (2, 3))
    assert [rows for _, rows in seen] == [1, 1] + [6] * (len(seen) - 2)
    monkeypatch.undo()
    for nm in NOISES:
        assert_per_point(circs, (2, 3), nm)


def test_a_group_of_equal_circuits_evolves_one_state_for_all_of_them(monkeypatch):
    circs = [FULL] * 5
    seen = rows_seen(monkeypatch)
    got = run_stack(circs, (2, 3))
    assert {rows for _, rows in seen} == {1}
    assert got.shape == (5, 4, 4) and all(np.array_equal(rho, got[0]) for rho in got)
    monkeypatch.undo()
    for nm in NOISES:
        assert_per_point(circs, (2, 3), nm)


def test_keeping_every_qubit_shares_the_state_up_to_the_first_varying_angle(monkeypatch):
    # the first eigenbasis rotation, the seventh gate, is the first to vary
    circs = [with_angles(FULL, a3=0.1 * i) for i in range(8)]
    seen = rows_seen(monkeypatch)
    run_stack(circs, (0, 1, 2, 3))
    assert [rows for _, rows in seen] == [1] * 6 + [8] * 4
    assert [live for live, _ in seen] == [1, 2, 2, 2, 3, 4, 4, 4, 4, 4]  # no qubit is traced out
    monkeypatch.undo()
    for nm in NOISES:
        assert_per_point(circs, (0, 1, 2, 3), nm)


def test_one_group_shares_its_stage_while_another_in_the_call_does_not(monkeypatch):
    shared = [with_angles(FULL, a3=0.1 * i) for i in range(8)]
    points = np.array([0.5, 0.0, 0.1, 0.4]) + np.outer(np.arange(8), [-0.05, 0.05, 0.0, 0.0])
    distinct = build_xstate_circuit(points, 0.3, 0.2, phases=(0.3, 0.0))
    assert distinct[0].ops == FULL.ops + (("rz", (2,)),) and len({c.angles[:3] for c in distinct}) == 8
    circs = [c for pair in zip(shared, distinct) for c in pair]
    seen = rows_seen(monkeypatch)
    run_stack(circs, (2, 3))
    assert sorted(rows for live, rows in seen if live == 3) == [1, 1, 8, 8]
    monkeypatch.undo()
    for nm in NOISES:
        assert_per_point(circs, (2, 3), nm)


def test_a_constant_rotation_is_built_once_per_call(monkeypatch):
    # The two eigenbasis rotations of a tetra block are constant in both of
    # its op lists; with the CNOT that makes three single operators. A
    # constant 0.0 and -0.0 are two operators.
    built, gate_superop = [], circuits._gate_superop

    def counting(u, noise):
        built.append(u.ndim)
        return gate_superop(u, noise)

    monkeypatch.setattr(circuits, "_gate_superop", counting)
    points = np.array([[0.25, 0.25, 0.25, 0.25], [0.36, 0.24, 0.24, 0.16], [0.5, 0.0, 0.1, 0.4], [0.4, 0.3, 0.2, 0.1]])
    block = build_xstate_circuit(points, 0.3, 0.2)
    assert [c.ops == FULL.ops for c in block] == [False, False, True, True]
    run_stack(block, (2, 3), NoiseModel().gate_noise)
    assert built.count(2) == 3
    built.clear()
    # one circuit per group, so every column is constant: six operators for
    # the first, then RY(-0.0) and the RZ tail for the second
    minus_zero = with_angles(FULL, a3=-0.0)
    tailed = Circuit(4, FULL.ops + (("rz", (2,)),), minus_zero.angles + (0.1,))
    run_stack((with_angles(FULL, a3=0.0), tailed), (2, 3))
    assert built.count(2) == 8
