"""The gate-noise model and its one-qubit Kraus channels.

The model is deliberately plain: after every gate, each touched qubit gets
a depolarizing kick (rate chosen by gate arity), then amplitude damping,
then phase damping. Channel order is part of the model definition.
Default rates are order-of-magnitude typical for small superconducting
devices of the 2019-2021 era and are fully overridable; nothing here claims
to calibrate a particular machine. ``NoiseModel.gate_noise`` composes the
channels into one superoperator per gate arity, over every qubit such a
gate touches, and the executor ``circuits.run_stack`` composes it into each
gate's own superoperator, so a gate and its noise are one contraction; no
other route applies a channel to a state. ``experiments.resolve_params``
builds the model from config JSON after checking every rate.

Every channel of the model is covariant under Z conjugation, so the noisy
preparations stay exactly X-shaped at any rates, not approximately; a
property test pins this. The CNOT that copies each ancilla into the pair
(2, 3), with the ancilla then traced out, leaves the pair exactly diagonal.
The later gates carry its Z_3 invariance into Z_2 Z_3 invariance, which is
the X shape: RY on qubit 2, CNOT(3 -> 2) and the RZ tails keep Z_3, and the
last CNOT(2 -> 3) maps Z_3 to Z_2 Z_3.

The model's readout rate p_readout is not applied here: readout error acts
on recorded outcomes, not on the state, so
``tomography.setting_probabilities`` folds it into each setting's outcome
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ContractError
from .linalg import I2, SX, SY, SZ, superop

RATE_FIELDS = ("p_depol_1q", "p_depol_2q", "gamma_ad", "gamma_pd", "p_readout")


@dataclass(frozen=True)
class NoiseModel:
    p_depol_1q: float = 0.001
    p_depol_2q: float = 0.01
    gamma_ad: float = 0.001
    gamma_pd: float = 0.001
    p_readout: float = 0.02

    def __post_init__(self):
        for name in RATE_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ContractError(f"noise rate {name}={v} outside [0, 1]")

    @property
    def gate_noise(self) -> MappingProxyType:
        """Gate arity -> the superoperator of the noise on the touched
        qubits after a gate of that arity, or None when all its rates are
        zero.

        Depolarizing, amplitude damping and phase damping are composed in
        that order into one 4x4 one-qubit matrix. Arity 1 maps to it; arity
        2 to the 16x16 product of it on both touched qubits, in the axis
        order of a two-qubit gate's superoperator: (row control, row
        target, column control, column target). Built once per process per
        set of gate rates, and read-only, as the models with them share it.
        """
        return _gate_noise(self.p_depol_1q, self.p_depol_2q, self.gamma_ad, self.gamma_pd)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in RATE_FIELDS}


@lru_cache(maxsize=64)
def _gate_noise(p_depol_1q: float, p_depol_2q: float, gamma_ad: float, gamma_pd: float) -> MappingProxyType:
    out = {}
    for arity, depol in ((1, p_depol_1q), (2, p_depol_2q)):
        total = None
        for rate, family in ((depol, depolarizing_kraus), (gamma_ad, amplitude_damping_kraus),
                             (gamma_pd, phase_damping_kraus)):
            if rate > 0.0:
                s = channel_superop(family(rate))
                total = s if total is None else s @ total
        if arity == 2 and total is not None:
            one = total.reshape(2, 2, 2, 2)
            total = np.einsum("aAbB,cCdD->acACbdBD", one, one).reshape(16, 16)
        if total is not None:
            total.flags.writeable = False
        out[arity] = total
    return MappingProxyType(out)


def depolarizing_kraus(p: float) -> list:
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"depolarizing rate {p} outside [0, 1]")
    return [
        math.sqrt(1.0 - 0.75 * p) * I2,
        math.sqrt(0.25 * p) * SX,
        math.sqrt(0.25 * p) * SY,
        math.sqrt(0.25 * p) * SZ,
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
