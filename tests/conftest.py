"""Shared random-state generators and helpers for the test suite."""

from dataclasses import replace

import numpy as np

from xsim.circuits import Circuit, Gate
from xsim.noise import NoiseModel, run_noisy
from xsim.xstate import XSpectral, XState, from_spectral

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


def run_channel(rho, qubits, **rates):
    """``rho`` after identity RZ(0) gates on ``qubits`` in turn, run by
    ``run_noisy`` under a model whose only nonzero rates are ``rates``: each
    listed qubit gets that one-qubit channel once, by the production route."""
    width = rho.shape[0].bit_length() - 1
    circuit = Circuit(width, tuple(Gate("rz", (0.0,), q) for q in qubits))
    return run_noisy(circuit, rho, replace(ZERO_NOISE_MODEL, **rates))
