"""The gate-noise model and its one-qubit Kraus channels.

The model is deliberately plain: after every gate, each touched qubit gets
a depolarizing kick (rate chosen by gate arity), then amplitude damping,
then phase damping. Channel order is part of the model definition.
Default rates are order-of-magnitude typical for small superconducting
devices of the 2019-2021 era and are fully overridable; nothing here claims
to calibrate a particular machine. ``NoiseModel.gate_noise`` composes the
channels for the executor ``circuits.run_stack``, which holds the gate loop.

The model's readout rate p_readout is not applied here: readout error acts
on recorded outcomes, not on the state, so
``tomography.setting_probabilities`` folds it into each setting's outcome
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import Circuit, run_stack
from .errors import ContractError
from .linalg import apply_local, superop

_RATE_FIELDS = ("p_depol_1q", "p_depol_2q", "gamma_ad", "gamma_pd", "p_readout")


@dataclass(frozen=True)
class NoiseModel:
    p_depol_1q: float = 0.001
    p_depol_2q: float = 0.01
    gamma_ad: float = 0.001
    gamma_pd: float = 0.001
    p_readout: float = 0.02

    def __post_init__(self):
        for name in _RATE_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ContractError(f"noise rate {name}={v} outside [0, 1]")

    @cached_property
    def gate_noise(self) -> dict:
        """Gate arity -> the one-qubit superoperator applied to each touched
        qubit after a gate of that arity, or None when all its rates are zero.

        Depolarizing, amplitude damping and phase damping are composed in
        that order into one 4x4 matrix, built once per model.
        """
        out = {}
        for arity, depol in ((1, self.p_depol_1q), (2, self.p_depol_2q)):
            total = None
            for rate, family in ((depol, depolarizing_kraus), (self.gamma_ad, amplitude_damping_kraus),
                                 (self.gamma_pd, phase_damping_kraus)):
                if rate > 0.0:
                    s = channel_superop(family(rate))
                    total = s if total is None else s @ total
            out[arity] = total
        return out

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _RATE_FIELDS}

    @staticmethod
    def from_json(obj: dict) -> "NoiseModel":
        extra = set(obj) - set(_RATE_FIELDS)
        if extra:
            raise ContractError(f"unknown noise fields {sorted(extra)}")
        for name, v in obj.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ContractError(f"noise rate {name} must be a number, got {v!r}")
        rates = {name: float(obj[name]) for name in obj}
        for name, v in rates.items():
            if not math.isfinite(v):
                raise ContractError(f"noise rate {name}={v} is not finite")
        return NoiseModel(**rates)


def depolarizing_kraus(p: float) -> list:
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"depolarizing rate {p} outside [0, 1]")
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return [
        math.sqrt(1.0 - 0.75 * p) * np.eye(2, dtype=complex),
        math.sqrt(0.25 * p) * sx,
        math.sqrt(0.25 * p) * sy,
        math.sqrt(0.25 * p) * sz,
    ]


def amplitude_damping_kraus(gamma: float) -> list:
    if not 0.0 <= gamma <= 1.0:
        raise ContractError(f"damping rate {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def phase_damping_kraus(gamma: float) -> list:
    if not 0.0 <= gamma <= 1.0:
        raise ContractError(f"damping rate {gamma} outside [0, 1]")
    return [
        math.sqrt(1.0 - gamma) * np.eye(2, dtype=complex),
        math.sqrt(gamma) * np.diag([1.0, 0.0]).astype(complex),
        math.sqrt(gamma) * np.diag([0.0, 1.0]).astype(complex),
    ]


def channel_superop(kraus) -> np.ndarray:
    """Superoperator of a one-qubit Kraus set, after checking that the set
    is trace preserving."""
    total = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(total - np.eye(2))) > 1e-10:
        raise ContractError("Kraus set is not trace preserving")
    return superop(kraus)


def apply_channel(rho: np.ndarray, kraus, qubits) -> np.ndarray:
    """Apply a single-qubit Kraus channel to each listed qubit in turn."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n_qubits = dim.bit_length() - 1
    if rho.shape != (dim, dim) or 2**n_qubits != dim:
        raise ContractError("density matrix dimension must be a power of 2")
    s = channel_superop(kraus)
    if isinstance(qubits, int):
        qubits = (qubits,)
    out = rho.reshape((1,) + (2,) * (2 * n_qubits))
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ContractError(f"qubit index {q} outside register of {n_qubits}")
        out = apply_local(out, s, (q, n_qubits + q))
    return out.reshape(dim, dim)


def run_noisy(c: Circuit, rho: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Execute a circuit with per-gate noise on the touched qubits; with an
    all-zero model the arithmetic is identical to run_density."""
    return run_stack((c,), rho, nm.gate_noise)[0]
