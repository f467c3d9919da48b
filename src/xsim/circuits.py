"""Gate set, circuit container, the executor, and the preparation circuits.

Gate conventions (fixed by explicit matrices; tests compare entrywise):

    RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
    RZ(t) = diag(e^{-i t/2}, e^{+i t/2})
    W(x) = diag(e^{-i x}, i e^{+i x})
    CNOT = |0><0| x I + |1><1| x X   (control, target any distinct pair)

Each gate kind is declared once: in ``_ROTATIONS`` with its one angle, or
in ``_FIXED`` without a parameter. Qubit 0 is the leftmost tensor factor.
Gates in a Circuit are stored in application order: ``gates[0]`` acts
first. ``run_stack`` is the one executor: it runs circuits from |0...0>
and returns the density matrices of the qubits it keeps, tracing every
other qubit out after its last gate. ``to_json`` writes a circuit for the
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
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError
from .linalg import apply_local, superop
from .xstate import XState, strip_phases, to_spectral


def ry_matrix(t: float) -> np.ndarray:
    c, s = math.cos(t / 2.0), math.sin(t / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(t: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * t), 0.0], [0.0, np.exp(0.5j * t)]], dtype=complex)


def w_matrix(x: float) -> np.ndarray:
    return np.array([[np.exp(-1j * x), 0.0], [0.0, 1j * np.exp(1j * x)]], dtype=complex)


# Parameter-free gates; CNOT acts on (control, target), control leading.
_FIXED = {
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
_ROTATIONS = {"ry": ry_matrix, "rz": rz_matrix, "w": w_matrix}
GATE_KINDS = (*_ROTATIONS, *_FIXED)


@dataclass(frozen=True)
class Gate:
    """One gate instance: kind, parameters, target, optional control."""

    kind: str
    params: tuple = ()
    target: int = 0
    control: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ContractError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cnot":
            if self.control is None or self.control == self.target:
                raise ContractError("cnot needs distinct control and target")
        elif self.control is not None:
            raise ContractError(f"gate {self.kind} takes no control qubit")
        n_params = 0 if self.kind in _FIXED else 1
        if len(self.params) != n_params:
            raise ContractError(f"gate {self.kind} expects {n_params} params")

    @property
    def qubits(self) -> tuple:
        """Qubits the gate acts on, in the tensor-factor order of local_matrix."""
        return (self.target,) if self.control is None else (self.control, self.target)

    def local_matrix(self) -> np.ndarray:
        """The 2x2 matrix of a single-qubit gate; for CNOT the 4x4 matrix on
        (control, target)."""
        if self.kind in _FIXED:
            return _FIXED[self.kind].copy()
        return _ROTATIONS[self.kind](self.params[0])

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "params": list(self.params), "target": self.target}
        if self.control is not None:
            obj["control"] = self.control
        return obj


@dataclass(frozen=True)
class Circuit:
    """A fixed-width gate list; ``gates[0]`` is applied first."""

    width: int
    gates: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.width <= 4:
            raise DimensionError(f"circuit width {self.width} unsupported")
        for g in self.gates:
            used = {g.target} | ({g.control} if g.control is not None else set())
            if any(q < 0 or q >= self.width for q in used):
                raise DimensionError(f"gate {g} addresses qubits outside width {self.width}")

    @property
    def topology(self) -> tuple:
        """Width and the (kind, qubits) of every gate in order: circuits with
        equal topology differ only in gate parameters."""
        return (self.width,) + tuple((g.kind, g.qubits) for g in self.gates)

    def extended(self, more) -> "Circuit":
        return Circuit(self.width, self.gates + tuple(more))

    def to_json(self) -> dict:
        return {"width": self.width, "gates": [g.to_json() for g in self.gates]}


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


def run_stack(circuits, keep, gate_noise=None) -> np.ndarray:
    """The reduced states on qubits ``keep`` that the circuits make of
    |0...0>, as a (P, 2^k, 2^k) stack in input order, kept qubits in
    ascending order: the one executor of density matrices.

    A qubit enters the register as |0><0| at its first gate and, unless
    kept, is traced out right after its last; a kept qubit that no gate
    touches joins at the end. ``keep`` outside the width raises
    DimensionError. ``gate_noise`` maps gate arity to the superoperator of
    the noise on the touched qubits, or to None (``NoiseModel.gate_noise``);
    it is composed into each gate's superoperator, so a noisy gate is one
    contraction. Circuits of equal
    ``topology`` share one gate loop, with one operator per gate where
    their parameters agree and a stack of them elsewhere, so each state
    gets the arithmetic of its own run.
    """
    keep = sorted(set(int(q) for q in keep))
    k, gate_noise = len(keep), gate_noise or {1: None, 2: None}
    out = np.empty((len(circuits), 2**k, 2**k), dtype=complex)
    groups = {}
    for index, c in enumerate(circuits):
        groups.setdefault(c.topology, []).append(index)
    for members in groups.values():
        width = circuits[members[0]].width
        if not keep or keep[0] < 0 or keep[-1] >= width:
            raise DimensionError(f"keep={keep} invalid for circuit width {width}")
        last = {q: i for i, g in enumerate(circuits[members[0]].gates) for q in g.qubits}
        state, live = np.ones(len(members), dtype=complex), []
        for index, column in enumerate(zip(*(circuits[i].gates for i in members))):
            g = column[0]
            state = _enter(state, live, g.qubits)
            same = all(h.params == g.params for h in column)
            u = g.local_matrix() if same else np.array([h.local_matrix() for h in column])
            s = superop(np.expand_dims(u, -3))
            if gate_noise[len(g.qubits)] is not None:
                s = gate_noise[len(g.qubits)] @ s
            at = [live.index(q) for q in g.qubits]
            state = apply_local(state, s, at + [len(live) + a for a in at])
            for q in g.qubits:
                if last[q] == index and q not in keep:
                    a = live.index(q)
                    state = np.trace(state, axis1=1 + a, axis2=1 + len(live) + a)
                    live.remove(q)
        state = _enter(state, live, keep)
        at = [1 + live.index(q) for q in keep]
        state = state.transpose([0] + at + [k + a for a in at])
        out[members] = state.reshape(len(members), 2**k, 2**k)
    return out


def classical_prep_angles(p) -> tuple:
    """Angles (alpha, beta, gamma) preparing sum_ij sqrt(p_ij) |ij>|ij>.

    Closed form: the correlation angle alpha satisfies
    sin(alpha) = 2 sqrt(p00 p11) - 2 sqrt(p01 p10) (always in [-1, 1]); the
    sum/difference angles u = (beta+gamma)/2, v = (gamma-beta)/2 follow from
    atan2 of the amplitude sums and differences. All four prepared
    amplitudes come out nonnegative, equal to sqrt(p_ij).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (4,) or p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise ContractError(f"classical distribution invalid: {p}")
    r = np.sqrt(np.clip(p, 0.0, None))
    alpha = math.asin(max(-1.0, min(1.0, 2.0 * (r[0] * r[3] - r[1] * r[2]))))
    u = math.atan2(r[1] + r[2], r[0] - r[3])
    v = math.atan2(r[1] - r[2], r[0] + r[3])
    return alpha, u - v, u + v


def classical_prep_gates(p) -> list:
    """Gate list of the first block; drops the leading rotation and CNOT
    when the distribution factorizes (alpha = 0), since they act trivially
    on the all-zeros input."""
    alpha, beta, gamma = classical_prep_angles(p)
    gates = []
    if abs(alpha) > 1e-12:
        gates.append(Gate("ry", (alpha,), 0))
        gates.append(Gate("cnot", (), 1, control=0))
    gates.append(Gate("ry", (beta,), 0))
    gates.append(Gate("ry", (gamma,), 1))
    gates.append(Gate("cnot", (), 2, control=0))
    gates.append(Gate("cnot", (), 3, control=1))
    return gates


def eigenbasis_block(theta: float, phi: float, pair=(0, 1)) -> list:
    """Second block: |i,j> -> |e_{i, i xor j}> exactly, two CNOTs."""
    first, second = pair
    return [
        Gate("ry", (theta + phi,), first),
        Gate("cnot", (), first, control=second),
        Gate("ry", (theta - phi,), first),
        Gate("cnot", (), second, control=first),
    ]


def build_xstate_circuit(p, theta: float, phi: float) -> Circuit:
    """Four-qubit circuit preparing the real X-state with weights p and
    eigenbasis angles (theta, phi) on qubits (2, 3)."""
    gates = classical_prep_gates(p)
    gates += eigenbasis_block(theta, phi, pair=(2, 3))
    return Circuit(4, tuple(gates))


def build_complex_xstate_circuit(x: XState) -> tuple:
    """Circuit for an arbitrary (complex) X-state target.

    Strips the corner phases, inverts the shape map, builds the real
    preparation, and restores the phases with two trailing RZ gates on the
    output pair. Returns (circuit, spectral, (alpha, beta)).
    """
    real_x, (alpha, beta) = strip_phases(x)
    spectral = to_spectral(real_x)
    circ = build_xstate_circuit(spectral.probs, spectral.theta, spectral.phi)
    tail = []
    if abs(alpha) > 1e-14:
        tail.append(Gate("rz", (-alpha,), 2))
    if abs(beta) > 1e-14:
        tail.append(Gate("rz", (-beta,), 3))
    return circ.extended(tail), spectral, (alpha, beta)


@dataclass(frozen=True)
class XUnitaryParams:
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
    gates = [
        Gate("rz", (s3,), 0),
        Gate("rz", (s4,), 1),
        Gate("cnot", (), 1, control=0),
        Gate("ry", (q.t1 - q.t2,), 0),
        Gate("cnot", (), 0, control=1),
        Gate("ry", (q.t1 + q.t2,), 0),
        Gate("w", (0.5 * q.x,), 1),
        Gate("cnot", (), 1, control=0),
        Gate("rz", (s1,), 0),
        Gate("rz", (s2,), 1),
    ]
    return Circuit(2, tuple(gates))

