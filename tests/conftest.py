"""Shared random-state generators and helpers for the test suite."""

from dataclasses import replace

import numpy as np

from xsim.circuits import Circuit, build_complex_xstate_circuit, build_xstate_circuit, run_stack
from xsim.errors import raise_first
from xsim.noise import NoiseModel
from xsim.xstate import XSpectral, XState, from_spectral, to_spectral

ZERO_NOISE_MODEL = NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0)


def random_spectral(rng, interior=False):
    if interior:
        p = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        p = p / p.sum()
    else:
        p = rng.dirichlet(np.ones(4))
    theta, phi = rng.uniform(0.0, np.pi / 2, size=2)
    return XSpectral(p[0], p[1], p[2], p[3], theta, phi)


def random_xstate(rng):
    """Random real X-state through the spectral parameterization."""
    return from_spectral(random_spectral(rng))


def random_xstate_raw(rng, complex_corners=True):
    """Random X-state sampled directly from block-positive parameters."""
    a, b, c, d = rng.dirichlet(np.ones(4))
    wmag = rng.uniform(0.0, 1.0) * np.sqrt(a * d)
    zmag = rng.uniform(0.0, 1.0) * np.sqrt(b * c)
    if complex_corners:
        w = wmag * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        z = zmag * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    else:
        w = complex(wmag * rng.choice([-1.0, 1.0]))
        z = complex(zmag * rng.choice([-1.0, 1.0]))
    return XState(a, b, c, d, w, z)


def random_density(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def make_circuit(width, *gates):
    """A Circuit of ``gates`` in application order, each (kind, qubits) or
    (kind, qubits, angle), the angle None for a CNOT."""
    angles = tuple(g[2] for g in gates if len(g) > 2 and g[2] is not None)
    return Circuit(width, tuple((g[0], tuple(g[1])) for g in gates), angles)


def extended(c, *gates):
    """``c`` followed by ``gates``, given as to ``make_circuit``."""
    more = make_circuit(c.width, *gates)
    return Circuit(c.width, c.ops + more.ops, c.angles + more.angles)


def random_circuit(rng, width, n_gates=12):
    """``n_gates`` draws over every gate kind on ``width`` qubits (a CNOT
    drawn on one qubit is skipped)."""
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["ry", "rz", "w", "cnot"])
        if kind == "cnot" and width > 1:
            control, target = rng.choice(width, size=2, replace=False)
            gates.append(("cnot", (int(control), int(target))))
        elif kind != "cnot":
            angle = float(rng.uniform(-3, 3))
            gates.append((str(kind), (int(rng.integers(width)),), angle))
    return make_circuit(width, *gates)


def run_channel(prefix, qubits, keep=None, **rates):
    """(before, after): the state that ``prefix`` makes of |0...0>, and that
    state after identity RZ(0) gates on ``qubits`` in turn, both reduced to
    ``keep`` (every qubit by default) by ``run_stack`` under a model whose
    only nonzero rates are ``rates``. So each listed qubit gets that
    one-qubit channel once, by the production route; the prefix runs under
    the same model, which makes its output mixed."""
    probes = extended(prefix, *(("rz", (q,), 0.0) for q in qubits))
    keep = range(prefix.width) if keep is None else keep
    before, after = run_stack((prefix, probes), keep, replace(ZERO_NOISE_MODEL, **rates).gate_noise)
    return before, after


def prepare(p, theta, phi) -> Circuit:
    """The circuit ``build_xstate_circuit`` makes of one point, built as a
    stack of one."""
    return build_xstate_circuit(np.array([p], dtype=float), theta, phi)[0]


def prepare_complex(x: XState) -> tuple:
    """(circuit, XSpectral, (alpha, beta)) that ``build_complex_xstate_circuit``
    makes of one X-state, built as a stack of one."""
    circuits, s, (alpha, beta) = build_complex_xstate_circuit(XState.stack([x]))
    return circuits[0], XSpectral(*(v[0] for v in (*s.probs, s.theta, s.phi))), (alpha[0], beta[0])


def checked_spectral(x: XState) -> XSpectral:
    """``to_spectral`` of ``x`` with its feasibility check raised."""
    spectral, check = to_spectral(x)
    raise_first(check)
    return spectral
