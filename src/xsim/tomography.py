"""Shot-sampled Pauli-pair measurements and state reconstruction.

Three protocols: FULL measures all nine two-qubit Pauli pairs and inverts
the Pauli expansion; PARTIAL5 measures {XX, YY, ZZ, XY, YX}, enough to fix
the six parameters of an X-state; PARTIAL3 measures {XX, YY, ZZ}, enough
when the X-state is real. Outcome order within a setting is (++, +-, -+, --)
with + the +1 eigenvalue of the local Pauli.

For an X-state with corners w = <00|rho|11> and z = <01|rho|10> the relevant
traces are

    <XX> = 2 Re w + 2 Re z        <XY> = -2 Im w + 2 Im z
    <YY> = -2 Re w + 2 Re z       <YX> = -2 Im w - 2 Im z

so the reconstructors use Re w = (<XX> - <YY>)/4, Re z = (<XX> + <YY>)/4,
Im w = -(<XY> + <YX>)/4, Im z = (<XY> - <YX>)/4, with the ZZ outcome
frequencies giving the diagonal directly.

Setting (i, j), with Pauli indices in (X, Y, Z) order, draws from
rng.keyed_stream(seed, 3i+j). A ShotRecord with shots = 0 is the
exact-probability limit; its counts hold the outcome distribution itself.

Readout error flips each recorded outcome bit independently with probability
p_readout. A shot drawn from probs and then flipped is one draw from
F @ probs, F[j, k] = P(flip pattern j ^ k), so ``recorded_probabilities``
folds the flips into each setting's distribution, which is then drawn with
one multinomial chain or recorded exactly. ``measure`` is the one place that
records settings; a setting's record depends only on (state, setting, shots,
seed, p_readout), not on which other settings are measured with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ProtocolError
from .linalg import PAULI, fidelity, kron
from .rng import keyed_stream, multinomial_counts
from .xstate import XState, leakage

PAULI_ORDER = "XYZ"
FULL = ("XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ")
PARTIAL5 = ("XX", "YY", "ZZ", "XY", "YX")
PARTIAL3 = ("XX", "YY", "ZZ")

# Rows are the +1 and -1 eigenbras of each local Pauli: conjugating by the
# basis of a setting puts its outcome probabilities on the diagonal.
_MEASUREMENT_BASIS = {
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "Y": np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / math.sqrt(2.0),
    "Z": np.eye(2, dtype=complex),
}


def _outcome_map(setting: str) -> np.ndarray:
    """4x16 map from a flattened two-qubit density matrix to the diagonal of
    B rho B^dagger, B the setting's basis: M[k, (a, b)] = B[k, a] conj(B[k, b])."""
    b = kron(_MEASUREMENT_BASIS[setting[0]], _MEASUREMENT_BASIS[setting[1]])
    return np.einsum("ka,kb->kab", b, b.conj()).reshape(4, 16)


_OUTCOME_MAPS = {setting: _outcome_map(setting) for setting in FULL}

# _XOR[k, j] = k ^ j: flip pattern m moves outcome k to k ^ m.
_XOR = np.bitwise_xor.outer(np.arange(4), np.arange(4))

# [i, j] -> sigma_i (x) sigma_j with sigma = (I, X, Y, Z): the operator basis
# of the linear inversion.
_PAULI_STACK = np.array([PAULI[k] for k in "IXYZ"])
_PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", _PAULI_STACK, _PAULI_STACK).reshape(4, 4, 4, 4)


def setting_index(setting: str) -> int:
    """Substream index of a setting: 3*first + second in (X, Y, Z) order."""
    if len(setting) != 2 or any(ch not in PAULI_ORDER for ch in setting):
        raise ProtocolError(f"unknown setting {setting!r}")
    return 3 * PAULI_ORDER.index(setting[0]) + PAULI_ORDER.index(setting[1])


def pauli_pair_matrix(setting: str) -> np.ndarray:
    setting_index(setting)
    return kron(PAULI[setting[0]], PAULI[setting[1]])


def outcome_probabilities(rho: np.ndarray, setting: str) -> np.ndarray:
    """Four outcome probabilities (++, +-, -+, --), clipped and renormalized."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ContractError("outcome_probabilities expects a 4x4 density matrix")
    setting_index(setting)
    probs = (_OUTCOME_MAPS[setting] @ rho.reshape(16)).real
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0.0:
        raise ContractError("outcome probabilities sum to zero")
    return probs / total


@dataclass(frozen=True)
class ShotRecord:
    """Counts for one measurement setting.

    shots >= 1 means sampled integer counts summing to shots; shots = 0
    marks the exact-probability limit, where counts hold the distribution.
    """

    setting: str
    shots: int
    counts: tuple

    def __post_init__(self):
        setting_index(self.setting)
        if len(self.counts) != 4 or any(c < 0 for c in self.counts):
            raise ContractError("counts must be four nonnegative numbers")
        if self.shots < 0:
            raise ContractError("shots must be nonnegative")
        total = sum(self.counts)
        if self.shots > 0 and abs(total - self.shots) > 1e-9:
            raise ContractError(f"counts sum to {total}, expected {self.shots}")
        if self.shots == 0 and abs(total - 1.0) > 1e-9:
            raise ContractError("exact record counts must sum to 1")

    def frequencies(self) -> np.ndarray:
        if self.shots == 0:
            return np.asarray(self.counts, dtype=float)
        return np.asarray(self.counts, dtype=float) / self.shots


def recorded_probabilities(rho: np.ndarray, setting: str, p_readout: float = 0.0) -> np.ndarray:
    """Probabilities of the recorded outcomes: F @ outcome_probabilities,
    with each outcome bit flipped independently with probability p_readout."""
    if not 0.0 <= p_readout <= 1.0:
        raise ContractError(f"readout flip probability {p_readout} outside [0, 1]")
    probs = outcome_probabilities(rho, setting)
    if p_readout == 0.0:
        return probs
    q = 1.0 - p_readout
    flip = np.array([q * q, q * p_readout, p_readout * q, p_readout * p_readout])[_XOR]
    # Summed over k in order, so each entry is one fixed float sum.
    return sum(probs[k] * flip[k] for k in range(4))


def sample_setting(rho: np.ndarray, setting: str, shots: int, seed: int, p_readout: float = 0.0) -> ShotRecord:
    """Multinomial shot sample of one Pauli-pair measurement, readout error included."""
    if shots < 1:
        raise ContractError("shots must be >= 1; use exact_record for the exact limit")
    probs = recorded_probabilities(rho, setting, p_readout)
    rng = keyed_stream(seed, setting_index(setting))
    return ShotRecord(setting=setting, shots=shots, counts=multinomial_counts(rng, shots, probs))


def exact_record(rho: np.ndarray, setting: str, p_readout: float = 0.0) -> ShotRecord:
    probs = recorded_probabilities(rho, setting, p_readout)
    return ShotRecord(setting=setting, shots=0, counts=tuple(float(p) for p in probs))


def measure(rho: np.ndarray, settings, shots: int, seed: int, p_readout: float = 0.0, exact: bool = False) -> dict:
    """{setting: ShotRecord} of each listed setting, in the order listed.

    Each record is sampled with ``shots`` shots (or exact when ``exact``)
    from the setting's distribution with readout error ``p_readout``,
    keyed by ``seed`` and the setting alone.
    """
    return {
        setting: exact_record(rho, setting, p_readout) if exact
        else sample_setting(rho, setting, shots, seed, p_readout)
        for setting in settings
    }


def expectations_from_counts(rec: ShotRecord) -> tuple:
    """(joint, marginal of first qubit, marginal of second qubit)."""
    fpp, fpm, fmp, fmm = rec.frequencies()
    joint = fpp - fpm - fmp + fmm
    first = fpp + fpm - fmp - fmm
    second = fpp - fpm + fmp - fmm
    return float(joint), float(first), float(second)


def _index_records(records, required) -> dict:
    by_setting = {}
    for rec in records:
        if rec.setting in by_setting:
            raise ProtocolError(f"duplicate record for setting {rec.setting}")
        by_setting[rec.setting] = rec
    missing = [s for s in required if s not in by_setting]
    if missing:
        raise ProtocolError(f"missing settings {missing}")
    return by_setting


def psd_project(rho_hat: np.ndarray) -> np.ndarray:
    """Nearest-valid-state repair by eigenvalue truncation.

    Negative eigenvalues are zeroed in ascending order, each one's mass
    spread uniformly over the eigenvalues above it. Already-PSD input is
    returned unchanged.
    """
    rho_hat = np.asarray(rho_hat, dtype=complex)
    n = rho_hat.shape[0]
    if np.max(np.abs(rho_hat - rho_hat.conj().T)) > 1e-10:
        raise ContractError("psd_project expects a Hermitian matrix")
    if abs(np.trace(rho_hat).real - 1.0) > 1e-10:
        raise ContractError("psd_project expects unit trace")
    w, v = np.linalg.eigh(rho_hat)
    if w[0] >= 0.0:
        return rho_hat
    lam = w.copy()
    for i in range(n):
        if lam[i] < 0.0:
            if i == n - 1:
                raise ContractError("cannot repair: all eigenvalue mass negative")
            lam[i + 1:] += lam[i] / (n - 1 - i)
            lam[i] = 0.0
    out = (v * lam) @ v.conj().T
    return (out + out.conj().T) / 2.0


def reconstruct_full(records) -> np.ndarray:
    """Linear inversion from all nine settings, then PSD repair.

    The two single-qubit terms are each estimable from three settings;
    averaging the three estimates uses every record's marginals.
    """
    by_setting = _index_records(records, FULL)
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    for i, p1 in enumerate(PAULI_ORDER):
        for j, p2 in enumerate(PAULI_ORDER):
            joint, first, second = expectations_from_counts(by_setting[p1 + p2])
            t[i + 1, j + 1] = joint
            t[i + 1, 0] += first / 3.0
            t[0, j + 1] += second / 3.0
    rho_hat = np.einsum("ij,ijab->ab", t, _PAULI_PAIRS)
    return psd_project(rho_hat / 4.0)


def _clamped_corner(value: complex, bound: float) -> complex:
    mag = abs(value)
    if mag <= bound or mag == 0.0:
        return value
    return value * (bound / mag)


def reconstruct_x5(records) -> XState:
    """X-state estimate from {XX, YY, ZZ, XY, YX}; corners block-clamped."""
    by_setting = _index_records(records, PARTIAL5)
    a, b, c, d = by_setting["ZZ"].frequencies()
    xx, _, _ = expectations_from_counts(by_setting["XX"])
    yy, _, _ = expectations_from_counts(by_setting["YY"])
    xy, _, _ = expectations_from_counts(by_setting["XY"])
    yx, _, _ = expectations_from_counts(by_setting["YX"])
    w = complex((xx - yy) / 4.0, -(xy + yx) / 4.0)
    z = complex((xx + yy) / 4.0, (xy - yx) / 4.0)
    w = _clamped_corner(w, math.sqrt(max(a * d, 0.0)))
    z = _clamped_corner(z, math.sqrt(max(b * c, 0.0)))
    return XState(float(a), float(b), float(c), float(d), w, z)


def reconstruct_x3(records) -> XState:
    """Real-X-state estimate from {XX, YY, ZZ}; imaginary parts are zero by
    protocol assumption."""
    by_setting = _index_records(records, PARTIAL3)
    a, b, c, d = by_setting["ZZ"].frequencies()
    xx, _, _ = expectations_from_counts(by_setting["XX"])
    yy, _, _ = expectations_from_counts(by_setting["YY"])
    w = _clamped_corner(complex((xx - yy) / 4.0), math.sqrt(max(a * d, 0.0)))
    z = _clamped_corner(complex((xx + yy) / 4.0), math.sqrt(max(b * c, 0.0)))
    return XState(float(a), float(b), float(c), float(d), w, z)


FIDELITY_CONVENTION = "squared-uhlmann"  # that of linalg.fidelity, named in every report


@dataclass(frozen=True)
class TomographyReport:
    protocol: str
    reconstructed: np.ndarray
    fidelity_to_target: float
    leakage: float
    shots: int
    seed: int

    def to_json(self) -> dict:
        m = np.asarray(self.reconstructed)
        return {
            "protocol": self.protocol,
            "reconstructed_re": m.real.tolist(),
            "reconstructed_im": m.imag.tolist(),
            "fidelity_to_target": self.fidelity_to_target,
            "fidelity_convention": FIDELITY_CONVENTION,
            "leakage": self.leakage,
            "shots": self.shots,
            "seed": self.seed,
        }


def robustness_report(
    target: np.ndarray,
    noisy_output: np.ndarray,
    shots: int,
    seed: int,
    p_readout: float = 0.0,
    exact: bool = False,
) -> tuple:
    """Run all three protocols on one shared dataset of nine records.

    Sharing the per-setting samples between protocols isolates what the
    comparison is about: the protocols differ in which settings they use,
    not in sampling luck. Returns (full, partial5, partial3) reports;
    leakage is that of noisy_output.
    """
    records = measure(noisy_output, FULL, shots, seed, p_readout, exact).values()
    leak = leakage(noisy_output)
    estimates = (reconstruct_full(records), reconstruct_x5(records).matrix(), reconstruct_x3(records).matrix())
    return tuple(
        TomographyReport(protocol, mat, fidelity(mat, target), leak, 0 if exact else shots, seed)
        for protocol, mat in zip(("full", "partial5", "partial3"), estimates)
    )
