"""Gate set, circuits as an op list plus angles, the executor, and the
preparation circuits.

Gate conventions (fixed by explicit matrices; tests compare entrywise):

    RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
    RZ(t) = diag(e^{-i t/2}, e^{+i t/2})
    W(x) = diag(e^{-i x}, i e^{+i x})
    CNOT = |0><0| x I + |1><1| x X   (control, target any distinct pair)

A circuit is ``Circuit(width, ops, angles)``. ``ops`` lists each gate as
``(kind, qubits)`` in application order (``ops[0]`` acts first), with
``qubits`` = (target,) for a rotation and (control, target) for a CNOT;
``angles`` holds one float per rotation, in op order. Each gate kind is
declared once: in ``_ROTATIONS``, its matrices built by ``rotation_stack``,
or in ``_FIXED`` without a parameter. Qubit 0 is the leftmost tensor factor.

``run_stack`` is the one executor: it runs circuits from |0...0> and returns
the density matrices of the qubits it keeps, tracing every other qubit out
after its last gate. The points of a sweep share a few op lists and differ
only in their angles, so it groups circuits by (width, ops), checks each op
list once (``_plan``), and stacks a group's angle rows into one float64
table of shape (P, n_rot): a column that is constant (bit for bit) gives
one shared matrix, any other column a (P, 2, 2) stack, both from one array
pass of numpy's ``cos`` and ``sin`` that equals the scalar
``math``/``cmath`` rows bit for bit. A group's state is one row until the
first gate whose column is not constant, which splits it into one row per
circuit: a time sweep's ancilla angles depend only on its initial
populations, so its block evolves one three-qubit state per op list, not
one per point. The preparation builders take a block of points too: IEEE
arithmetic, ``sqrt``, ``cos`` and ``sin`` run as numpy array passes, float
squares are IEEE products, and ``asin`` and ``atan2`` are ``math``
functions mapped over the block (``linalg.mathmap``), since numpy's arcsin
and arctan2 can differ from them in the last bit, which would move the
floats of the rows and the circuit dumps. ``to_json`` writes a circuit for the
``--dump-circuit`` sidecar; the program reads no circuit JSON back.

The X-state preparation circuit acts on four qubits. A first block turns
|0000> into sum_ij sqrt(p_ij)|ij>|ij>, so that qubits (2, 3) carry the
classical mixture p after the ancilla pair (0, 1) is traced out (each
right after its CNOT, so the executor holds at most three qubits). A second
block on qubits (2, 3) rotates the computational basis into the entangled
X-state eigenbasis, |i,j> -> |e_{i, i xor j}>:

    second block = C1 . (RY(theta-phi) x I) . C2 . (RY(theta+phi) x I)

where C1 is CNOT(first -> second) inside the pair, C2 the reverse, and the
product is read right to left (rightmost factor applied first). The tests
keep a three-CNOT variant of this block as a reference (acceptance
criterion 08): it prepares the same X-state with phi replaced by pi/2 - phi.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, raise_first
from .linalg import apply_local, mathmap, superop
from .xstate import XState, strip_phases, to_spectral


def rotation_stack(kind: str, t: np.ndarray) -> np.ndarray:
    """The (P, 2, 2) stack of the rotation ``kind`` at a (P,) array of
    angles, from one array pass of numpy's cos and sin. A phase e^{i a t} is
    cos y + i sin y at y = 0.0 + a t, as ``cmath.exp(1j * a * t)`` gives it,
    so that t = -0.0 gives +0.0."""
    if kind == "ry":
        c, s = np.cos(t / 2.0), np.sin(t / 2.0)
        return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2).astype(complex)
    u = np.zeros(t.shape + (2, 2), dtype=complex)
    for k, y in enumerate((-0.5 * t, 0.0 + 0.5 * t) if kind == "rz" else (-t, 0.0 + t)):
        u.real[:, k, k], u.imag[:, k, k] = np.cos(y), np.sin(y)
    if kind == "w":
        u[:, 1, 1] *= 1j
    return u


# Parameter-free gates; CNOT acts on (control, target), control leading.
_FIXED = {
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
_ROTATIONS = ("ry", "rz", "w")
GATE_KINDS = (*_ROTATIONS, *_FIXED)


class Circuit(NamedTuple):
    """A fixed-width op list and the angles of its rotations; ``ops[0]`` is
    applied first."""

    width: int
    ops: tuple
    angles: tuple = ()

    def to_json(self) -> dict:
        angles, gates = iter(self.angles), []
        for kind, qubits in self.ops:
            gate = {"kind": kind, "params": [] if kind in _FIXED else [next(angles)], "target": qubits[-1]}
            if len(qubits) == 2:
                gate["control"] = qubits[0]
            gates.append(gate)
        return {"width": self.width, "gates": gates}


@lru_cache(maxsize=256)
def _plan(width: int, ops: tuple) -> tuple:
    """(number of rotations, steps) of an op list, checked once per list. A
    step is (kind, qubits, angle column or None, the qubits whose last gate
    it is)."""
    if not 1 <= width <= 4:
        raise DimensionError(f"circuit width {width} unsupported")
    last, n_rot, columns = {}, 0, []
    for index, (kind, qubits) in enumerate(ops):
        if kind not in GATE_KINDS:
            raise ContractError(f"unknown gate kind {kind!r}")
        if kind == "cnot":
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise ContractError("cnot needs distinct control and target")
        elif len(qubits) != 1:
            raise ContractError(f"gate {kind} takes no control qubit")
        if any(q < 0 or q >= width for q in qubits):
            raise DimensionError(f"gate {kind} on {qubits} addresses qubits outside width {width}")
        columns.append(None if kind in _FIXED else n_rot)
        n_rot += kind in _ROTATIONS
        last.update((q, index) for q in qubits)
    return n_rot, tuple((kind, qubits, column, tuple(q for q in qubits if last[q] == index))
                        for index, ((kind, qubits), column) in enumerate(zip(ops, columns)))


def _enter(state: np.ndarray, live: list, qubits) -> np.ndarray:
    """``state`` with each of ``qubits`` not yet in ``live`` appended to it,
    and to ``live``, as |0><0|."""
    for q in qubits:
        if q not in live:
            n, p = len(live), state.shape[0]
            grown = np.zeros((p, 2**n, 2, 2**n, 2), dtype=complex)
            grown[:, :, 0, :, 0] = state.reshape(p, 2**n, 2**n)
            state = grown.reshape((p,) + (2,) * (2 * n + 2))
            live.append(q)
    return state


def _gate_superop(u: np.ndarray, noise) -> np.ndarray:
    """The superoperator of unitary ``u`` (or of each of a stack) followed
    by ``noise``, a superoperator or None."""
    s = superop(u[..., None, :, :])
    return s if noise is None else noise @ s


def run_stack(circuits, keep, gate_noise=None) -> np.ndarray:
    """The reduced states on qubits ``keep`` that the circuits make of
    |0...0>, as a (P, 2^k, 2^k) stack in input order, kept qubits in
    ascending order: the one executor of density matrices.

    A qubit enters the register as |0><0| at its first gate and, unless
    kept, is traced out right after its last; a kept qubit that no gate
    touches joins at the end. ``keep`` outside the width raises
    DimensionError, and a circuit whose angle count differs from its
    rotation count ContractError. ``gate_noise`` maps gate arity to the
    superoperator of the noise on the touched qubits, or to None
    (``NoiseModel.gate_noise``); it is composed into each gate's
    superoperator, so a noisy gate is one contraction. Circuits of equal
    width and ops share one gate loop over the table of their angles: a
    column equal bit for bit (-0.0 is not 0.0) gives one operator, built
    once per call for each angle, and any other a stack of them, whose first
    gate splits the group's one-row state into one row per circuit; a group
    with no such gate hands its one output to every member. So each state
    gets the arithmetic of its own run.
    """
    keep = sorted(set(int(q) for q in keep))
    k, gate_noise = len(keep), gate_noise or {1: None, 2: None}
    out = np.empty((len(circuits), 2**k, 2**k), dtype=complex)
    groups, fixed = {}, {}  # fixed: kind, or (kind, angle bits) of a constant column -> superoperator
    for index, c in enumerate(circuits):
        groups.setdefault((c.width, c.ops), []).append(index)
    for (width, ops), members in groups.items():
        n_rot, steps = _plan(width, ops)
        if not keep or keep[0] < 0 or keep[-1] >= width:
            raise DimensionError(f"keep={keep} invalid for circuit width {width}")
        rows = [circuits[i].angles for i in members]
        if any(len(row) != n_rot for row in rows):
            raise ContractError(f"a circuit of {n_rot} rotations needs {n_rot} angles")
        table = np.array(rows, dtype=float).reshape(len(members), n_rot)
        bits = table.view(np.int64)
        shared, first = (bits == bits[0]).all(axis=0), bits[0].tolist()
        state, live = np.ones(1, dtype=complex), []
        for kind, qubits, column, frees in steps:
            state = _enter(state, live, qubits)
            if column is not None and not shared[column]:
                s = _gate_superop(rotation_stack(kind, table[:, column]), gate_noise[1])
            else:
                key = kind if column is None else (kind, first[column])
                if key not in fixed:
                    u = _FIXED[kind] if column is None else rotation_stack(kind, table[:1, column])[0]
                    fixed[key] = _gate_superop(u, gate_noise[len(qubits)])
                s = fixed[key]
            at = [live.index(q) for q in qubits]
            state = apply_local(state, s, at + [len(live) + a for a in at])
            for q in frees:
                if q not in keep:
                    a = live.index(q)
                    state = np.trace(state, axis1=1 + a, axis2=1 + len(live) + a)
                    live.remove(q)
        state = _enter(state, live, keep)
        at = [1 + live.index(q) for q in keep]
        state = state.transpose([0] + at + [k + a for a in at])
        out[members] = state.reshape(-1, 2**k, 2**k)
    return out


def classical_prep_angles(p: np.ndarray) -> tuple:
    """Angles (alpha, beta, gamma) preparing sum_ij sqrt(p_ij) |ij>|ij>, as
    arrays over the rows of a (P, 4) array of distributions.

    Closed form: the correlation angle alpha satisfies
    sin(alpha) = 2 sqrt(p00 p11) - 2 sqrt(p01 p10) (always in [-1, 1]); the
    sum/difference angles u = (beta+gamma)/2, v = (gamma-beta)/2 follow from
    atan2 of the amplitude sums and differences. All four prepared
    amplitudes come out nonnegative, equal to sqrt(p_ij). A weight within
    1e-12 of zero, the margin the distribution check allows below it, counts
    as zero, so roundoff cannot decide whether the distribution factorizes.
    """
    r = np.sqrt(np.where(p > 1e-12, p, 0.0)).T
    alpha = mathmap(math.asin, np.clip(2.0 * (r[0] * r[3] - r[1] * r[2]), -1.0, 1.0))
    u, v = mathmap(math.atan2, [r[1] + r[2], r[1] - r[2]], [r[0] - r[3], r[0] + r[3]])
    return alpha, u - v, u + v


_PREP_OPS = (("ry", (0,)), ("cnot", (0, 1)), ("ry", (0,)), ("ry", (1,)), ("cnot", (0, 2)), ("cnot", (1, 3)))


def eigenbasis_block(theta, phi, pair=(0, 1)) -> tuple:
    """(ops, angles) of the second block: |i,j> -> |e_{i, i xor j}>
    exactly, two CNOTs; the angles are arrays for array theta and phi."""
    first, second = pair
    ops = (("ry", (first,)), ("cnot", (second, first)), ("ry", (first,)), ("cnot", (first, second)))
    return ops, (theta + phi, theta - phi)


def build_xstate_circuit(p: np.ndarray, theta, phi, phases=(0.0, 0.0), earlier=()) -> list:
    """Four-qubit circuits preparing the real X-states with the weights of
    the rows of a (P, 4) array ``p``, or of its one row shared by every
    point, and eigenbasis angles (theta, phi), per point or shared, on
    qubits (2, 3), then RZ(-alpha) on qubit 2 and RZ(-beta) on qubit 3
    where ``phases`` = (alpha, beta) exceed 1e-14 in magnitude. The first
    block drops its leading rotation and CNOT where the distribution
    factorizes (|alpha| <= 1e-12): they act trivially on |0000>. The first
    point that fails ``earlier`` checks or is no probability vector
    raises."""
    invalid = (np.minimum.reduce(p, axis=1) < -1e-12) | (np.abs(p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3] - 1.0) > 1e-9)
    raise_first(*earlier, (invalid, lambda i: ContractError(f"classical distribution invalid: {p[i]}")))
    alpha, beta, gamma = classical_prep_angles(p)
    eig_ops, eig_angles = eigenbasis_block(theta, phi, pair=(2, 3))
    columns = (alpha, beta, gamma, *eig_angles, -phases[0], -phases[1])
    table = np.empty(np.broadcast(*columns).shape + (7,))
    for k, column in enumerate(columns):
        table[:, k] = column
    kinds = (np.abs(alpha) > 1e-12) * 4 + (np.abs(phases[0]) > 1e-14) * 2 + (np.abs(phases[1]) > 1e-14)
    kinds = np.broadcast_to(kinds, len(table)).tolist()
    out = [None] * len(table)
    for kind in set(kinds):
        full, tail2, tail3 = kind >> 2, (kind >> 1) & 1, kind & 1
        ops = (_PREP_OPS if full else _PREP_OPS[2:]) + eig_ops + (("rz", (2,)),) * tail2 + (("rz", (3,)),) * tail3
        points = [i for i, k in enumerate(kinds) if k == kind]
        picked = [0] * full + [1, 2, 3, 4] + [5] * tail2 + [6] * tail3
        for i, angles in zip(points, table[points][:, picked].tolist()):
            out[i] = Circuit(4, ops, tuple(angles))
    return out


def build_complex_xstate_circuit(x: XState, weights=None) -> tuple:
    """(circuits, spectral, (alpha, beta)) for a stack of arbitrary
    (complex) X-state targets, every time sweep's route: strips the corner
    phases modulo pi, inverts the shape map to signed angles, builds the
    real preparations and restores the phases with RZ gates, with
    ``weights`` (p00, p01, p10, p11) for every point if given. Infeasible
    recovered weights raise before an invalid distribution."""
    real_x, phases = strip_phases(x)
    s, infeasible = to_spectral(real_x)
    p = np.column_stack(s.probs) if weights is None else np.array([weights])
    return build_xstate_circuit(p, s.theta, s.phi, phases, (infeasible,)), s, phases


class XUnitaryParams(NamedTuple):
    """Parameters of the X-shaped special unitary family.

    The family couples only {|00>, |11>} and {|01>, |10>}:

        corner block  [[ e^{i(a1-x)/2} cos t1, -e^{i(b1-x)/2} sin t1],
                       [ e^{-i(b1+x)/2} sin t1, e^{-i(a1+x)/2} cos t1]]
        middle block  [[-i e^{i(a2+x)/2} sin t2,  i e^{i(b2+x)/2} cos t2],
                       [ i e^{-i(b2-x)/2} cos t2, i e^{-i(a2-x)/2} sin t2]]

    Determinant is +1 for all real parameter values.
    """

    a1: float
    b1: float
    a2: float
    b2: float
    x: float
    t1: float
    t2: float


_X_UNITARY_OPS = (("rz", (0,)), ("rz", (1,)), ("cnot", (0, 1)), ("ry", (0,)), ("cnot", (1, 0)), ("ry", (0,)),
                  ("w", (1,)), ("cnot", (0, 1)), ("rz", (0,)), ("rz", (1,)))


def decompose_x_unitary(q: XUnitaryParams) -> Circuit:
    """Seven-element gate sequence reproducing the XUnitaryParams matrix
    exactly (global phase 1): local RZ pair, CNOT, RY x W, reverse CNOT,
    RY, CNOT, closing RZ pair.

    The phase gate carries x/2: the target family splits the two parity
    sectors by x in total, and the W gate applies its argument with
    opposite signs to the sectors, so the full x would double the split.
    """
    s1 = -0.25 * (q.a1 + q.b1 + q.a2 + q.b2)
    s2 = -0.25 * (q.a1 + q.b1 - q.a2 - q.b2)
    s3 = -0.25 * (q.a2 - q.b2 + q.a1 - q.b1)
    s4 = -0.25 * (q.a1 - q.b1 - q.a2 + q.b2)
    return Circuit(2, _X_UNITARY_OPS, (s3, s4, q.t1 - q.t2, q.t1 + q.t2, 0.5 * q.x, s1, s2))
