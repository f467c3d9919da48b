"""The block routes that prepare a sweep equal the scalar routes of
``tests/oracles.py`` bit for bit: every target entry, every op list and
every angle, signed zeros included, and the first error of a block."""

import math

import numpy as np
import pytest

from oracles import (
    build_complex_xstate_circuit_scalar,
    build_xstate_circuit_scalar,
    evolve_diagonal_scalar,
)
from xsim.circuits import build_complex_xstate_circuit, build_xstate_circuit
from xsim.errors import ContractError, InfeasibleStateError
from xsim.experiments import (
    _circuit_weights,
    _couplings,
    _time_block,
    _time_grid,
    resolve_params,
    run_experiment,
    simplex_points,
)
from xsim.xstate import XSpectral, XState, from_spectral

FIELDS = ("a", "b", "c", "d", "w", "z")
# Valid, with its a, d sector 3e-12 from degenerate: an inversion that
# divides by cos 2 theta (~1e-11 here) loses its weights.
FOUND_TARGET = XState(0.3000000000015, 0.2, 0.2, 0.2999999999985, 0.29 + 0j, 0.1 + 0j)
# Valid as an X-state (|w| within 1e-10 of sqrt(a d)), but its weight
# -5e-11 passes to_spectral's 1e-10 margin and fails the preparation's 1e-12.
EDGE_TARGET = XState(0.3, 0.2, 0.2, 0.3, 0.30000000005 + 0j, 0.1 + 0j)
EDGE_ERROR = "classical distribution invalid: [ 6.00000000e-01  3.00000000e-01 -5.00000041e-11  1.00000000e-01]"


def _bits(values) -> list:
    """Each float of ``values`` (complex ones as two) as its hex form, which
    tells -0.0 from 0.0."""
    return [float.hex(v) for v in np.asarray(values, dtype=complex).view(float).tolist()]


def _scalar_block(experiment, params):
    """(targets, circuits) of every point of a sweep, one scalar call each."""
    if experiment == "tetra_sweep":
        theta, phi = params["theta"], params["phi"]
        points = simplex_points(params["resolution"]).tolist()
        return ([from_spectral(XSpectral(*p, theta, phi)) for p in points],
                [build_xstate_circuit_scalar(p, theta, phi) for p in points])
    hp = _couplings(params)
    w00, w01, w10, w11 = _circuit_weights(params)
    targets = []
    for t in _time_grid(params, hp).tolist():
        x = evolve_diagonal_scalar(hp, (w00, w11, w01, w10), t)
        targets.append(XState(x.a, x.b, x.c, x.d, -1j * x.w, 1j * x.z))  # the time sweeps' frame
    # each sector's populations are its eigenvalues at every time, larger first
    weights = (max(w00, w10), max(w11, w01), min(w00, w10), min(w11, w01))
    return targets, [build_complex_xstate_circuit_scalar(x, weights)[0] for x in targets]


def _block(experiment, params):
    """(targets, circuits) of every point of a sweep, built as one block."""
    if experiment == "tetra_sweep":
        theta, phi = params["theta"], params["phi"]
        points = simplex_points(params["resolution"])
        targets = from_spectral(XSpectral(*points.T, theta, phi))
        return targets, build_xstate_circuit(points, theta, phi)
    hp = _couplings(params)
    return _time_block(params, hp, _time_grid(params, hp))


def assert_block_equals_scalar(experiment, config):
    params = resolve_params(experiment, config)
    (targets, circuits), (want_targets, want_circuits) = _block(experiment, params), _scalar_block(experiment, params)
    assert len(circuits) == len(want_circuits) == len(want_targets)
    for name in FIELDS:
        assert _bits(getattr(targets, name)) == _bits([getattr(x, name) for x in want_targets]), name
    for got, want in zip(circuits, want_circuits):
        assert (got.width, got.ops) == (want.width, want.ops)
        assert all(type(a) is float for a in got.angles)
        assert _bits(got.angles) == _bits(want.angles)


EDGE_CONFIGS = [
    ("field_conc", {"lambda": 0.0}),  # a == d: the degenerate sector
    ("field_fidelity", {"lambda": -1.0, "gamma": 0.0}),  # zero weights, factorized preparations
    ("field_conc", {"B": 0.0, "b": 0.0}),
    ("field_fidelity", {"Jz": 0.3, "t_max": 40.0, "time_points": 300}),
    ("field_conc", {"time_points": 513}),
    ("heisenberg_conc", {"lambda": 0.0}),
    ("heisenberg_fidelity", {"lambda": -1.0, "gamma": 0.0}),
    ("tetra_sweep", {"resolution": 1}),
    ("tetra_sweep", {"resolution": 64}),
]


@pytest.mark.parametrize("experiment", ["tetra_sweep", "heisenberg_conc", "field_conc", "heisenberg_fidelity",
                                        "field_fidelity"])
def test_default_blocks_equal_the_scalar_routes_bit_for_bit(experiment):
    # every time grid starts at t = 0, where the rotor phase takes its epsilon
    assert_block_equals_scalar(experiment, {})


@pytest.mark.parametrize("experiment, config", EDGE_CONFIGS, ids=[f"{e}-{c}" for e, c in EDGE_CONFIGS])
def test_edge_blocks_equal_the_scalar_routes_bit_for_bit(experiment, config):
    assert_block_equals_scalar(experiment, config)


def test_random_field_blocks_equal_the_scalar_routes_bit_for_bit():
    rng = np.random.default_rng(20)
    for k in range(40):
        config = {"J": rng.uniform(-2, 2), "kappa": rng.uniform(-1, 1), "Jz": rng.uniform(-1, 1),
                  "gamma": rng.uniform(0, math.pi), "lambda": rng.uniform(-1, 1), "B": rng.uniform(-2, 2),
                  "b": rng.uniform(-2, 2), "time_points": int(rng.integers(2, 100))}
        assert_block_equals_scalar("field_fidelity" if k % 2 else "field_conc", config)


TIME_CONFIGS = [(e, {"time_points": 256}) for e in ("heisenberg_conc", "field_conc", "heisenberg_fidelity",
                                                     "field_fidelity")]
TIME_CONFIGS += [(e, c) for e, c in EDGE_CONFIGS if e != "tetra_sweep"]


@pytest.mark.parametrize("experiment, config", TIME_CONFIGS, ids=[f"{e}-{c}" for e, c in TIME_CONFIGS])
def test_each_op_list_of_a_time_block_has_one_ancilla_stage(experiment, config):
    # the rotations on the ancilla pair (0, 1) set the preparation weights,
    # which do not depend on time: one bit pattern per op list
    stages = {}
    for c in _block(experiment, resolve_params(experiment, config))[1]:
        rotations = [q for kind, (*_, q) in c.ops if kind != "cnot"]
        stage = tuple(_bits([a for a, q in zip(c.angles, rotations) if q in (0, 1)]))
        stages.setdefault(c.ops, set()).add(stage)
    assert stages and all(len(patterns) == 1 for patterns in stages.values())


def test_the_degenerate_and_factorized_branches_are_reached():
    # lambda = 0 makes every field target's a, d sector degenerate, and
    # lambda = -1 with gamma = 0 makes every weight vector factorize
    params = resolve_params("field_conc", {"lambda": 0.0})
    targets, _ = _block("field_conc", params)
    assert np.all(np.abs(targets.a - targets.d) < 1e-12)
    _, circuits = _block("field_conc", resolve_params("field_conc", {"lambda": -1.0, "gamma": 0.0}))
    assert all(("cnot", (0, 1)) not in c.ops for c in circuits)


@pytest.mark.parametrize("experiment", ["field_conc", "field_fidelity"])
def test_roundoff_in_the_default_field_targets_moves_no_op_list(experiment):
    # Every default field target has a weight that is zero up to roundoff;
    # a relative change of about 1e-16 in each entry (corner phases too)
    # must not decide whether a preparation keeps its leading RY and CNOT.
    targets, circuits = _block(experiment, resolve_params(experiment, {}))
    ops, n = [c.ops for c in circuits], len(circuits)
    rng = np.random.default_rng(8)
    for _ in range(50):
        nudged = {name: getattr(targets, name) * (1.0 + rng.uniform(-2e-16, 2e-16, n)) for name in FIELDS}
        for name in ("w", "z"):
            nudged[name] = nudged[name] * (1.0 + 2e-16j * rng.uniform(-1.0, 1.0, n))
        got = build_complex_xstate_circuit(XState(**nudged))[0]
        assert [c.ops for c in got] == ops


# heisenberg_* and field_* each share one default grid and one set of targets.
@pytest.mark.parametrize("experiment", ["heisenberg_conc", "field_conc"])
def test_roundoff_sized_corners_set_no_phase(experiment):
    # A corner of magnitude at most 1e-12 has no phase, so 1e-16 (u + iv)
    # added to the exactly-zero corners (at t = 0) moves no op list: 0 of
    # 3,200 per grid. A phase for every nonzero corner changes 50 of 3,200
    # on the field grid.
    targets, circuits = _block(experiment, resolve_params(experiment, {}))
    ops, n = [c.ops for c in circuits], len(circuits)
    assert any(np.all(np.array([targets.w, targets.z]) == 0.0, axis=0))
    rng = np.random.default_rng(9)
    changed = 0
    for _ in range(50):
        nudged = {name: getattr(targets, name) for name in FIELDS}
        for name in ("w", "z"):
            u, v = rng.uniform(-1.0, 1.0, (2, n))
            nudged[name] = np.where(nudged[name] == 0.0, 1e-16 * (u + 1j * v), nudged[name])
        changed += sum(c.ops != want for c, want in zip(build_complex_xstate_circuit(XState(**nudged))[0], ops))
    assert changed == 0


@pytest.mark.parametrize("experiment", ["heisenberg_conc", "field_conc"])
def test_ulp_moves_of_the_times_move_no_op_list(experiment):
    # Every time of the 256-point default grid moved by 1, 2 and 3 ulp up
    # and down: 0 of 1,536 op lists change per grid. Folding the zero-field
    # angles into [0, pi/2), or a phase for every nonzero corner, changes 6
    # of 1,536 on each grid.
    params = resolve_params(experiment, {"time_points": 256})
    hp = _couplings(params)
    ts = _time_grid(params, hp)
    ops = [c.ops for c in _time_block(params, hp, ts)[1]]
    changed = 0
    for direction in (np.inf, -np.inf):
        moved = ts
        for _ in range(3):
            moved = np.nextafter(moved, direction)
            changed += sum(c.ops != want for c, want in zip(_time_block(params, hp, moved)[1], ops))
    assert changed == 0


def _first_scalar_error(targets):
    for x in targets:
        try:
            build_complex_xstate_circuit_scalar(x)
        except ContractError as exc:
            return exc
    return None


@pytest.mark.parametrize("layout", [
    {5: "edge"},  # an invalid distribution only
    {5: "edge", 7: "infeasible"},  # the first failing point raises
    {3: "infeasible", 5: "edge"},
    {5: "infeasible"},  # fails both checks: to_spectral's comes first
])
def test_a_block_raises_the_first_error_of_the_scalar_route(layout):
    rng = np.random.default_rng(5)
    special = {"edge": EDGE_TARGET, "infeasible": XState(0.25, 0.25, 0.25, 0.25, 0.6 + 0j, 0j)}
    targets = []
    for index in range(9):
        if index in layout:
            targets.append(special[layout[index]])
        else:
            a, b, c, d = rng.dirichlet(np.ones(4)).tolist()
            targets.append(XState(a, b, c, d, 0.5 * math.sqrt(a * d) * 1j, -0.3 * math.sqrt(b * c) + 0j))
    want = _first_scalar_error(targets)
    assert want is not None
    with pytest.raises(ContractError) as got:
        build_complex_xstate_circuit(XState.stack(targets))
    assert (type(got.value), str(got.value)) == (type(want), str(want))
    if layout == {5: "edge"}:
        assert str(got.value) == EDGE_ERROR
    if layout.get(5) == "infeasible":
        assert type(got.value) is InfeasibleStateError


def test_xprep_single_raises_the_edge_target_error_through_a_block_of_one():
    target = {"kind": "xstate", **EDGE_TARGET.to_json()}
    with pytest.raises(ContractError) as got:
        run_experiment("xprep_single", {"target": target, "exact": True})
    assert str(got.value) == EDGE_ERROR


def test_xprep_single_prepares_the_target_next_to_a_degenerate_sector():
    _, result = run_experiment("xprep_single", {"target": {"kind": "xstate", **FOUND_TARGET.to_json()}, "exact": True})
    assert abs(sum(result.report["spectral"]["p"]) - 1.0) <= 1e-15
    ideal, want = result.report["ideal_output"], FOUND_TARGET.to_json()
    assert set(ideal) == set(want)
    assert all(abs(ideal[key] - want[key]) <= 1e-12 for key in want), (ideal, want)

