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

Setting (i, j), with Pauli indices in (X, Y, Z) order, has setting index
3i + j; row k of a measured stack is point first + k.

Readout error flips each recorded outcome bit independently with probability
p_readout. A shot drawn from probs and then flipped is one draw from
F @ probs, F[j, k] = P(flip pattern j ^ k), so ``setting_probabilities``
folds the flips into each setting's distribution, which is then drawn with
one multinomial chain or recorded exactly.

Every measurement is recorded as a frequency stack. ``measure_block``
takes a (P, 4, 4) stack of states and returns the (P, S, 4) outcome
frequencies of the S listed settings: exact, they are the distributions
from one contraction of the stack; sampled, the block draws all nine
settings of every point, point-major in setting-index order, as one
snapped multinomial chain per row on one Philox stream built afresh
under the key (seed, first), and returns the listed ones. A sampled row
therefore depends on (block, point, setting, shots, seed, p_readout) but
not on the other settings listed; an exact row depends on its state and
setting alone. The reconstructions and ``psd_project`` take these stacks;
one state is a stack of one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ProtocolError
from .linalg import PAULI, cabs, is_hermitian, kron
from .rng import block_counts
from .xstate import XState, sqrt_nonneg

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


# The (9, 4, 16) maps of the settings in FULL order, that is by setting_index.
_OUTCOME_MAPS = np.array([_outcome_map(setting) for setting in FULL])

# _XOR[k, j] = k ^ j: flip pattern m moves outcome k to k ^ m.
_XOR = np.bitwise_xor.outer(np.arange(4), np.arange(4))

# [i, j] -> sigma_i (x) sigma_j with sigma = (I, X, Y, Z): the operator basis
# of the linear inversion.
_PAULI_STACK = np.array([PAULI[k] for k in "IXYZ"])
_PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", _PAULI_STACK, _PAULI_STACK).reshape(4, 4, 4, 4)


_SETTING_INDEX = {setting: index for index, setting in enumerate(FULL)}


def setting_index(setting: str) -> int:
    """Position of a setting in FULL, the order a block draws and stores
    its settings in: 3*first + second in (X, Y, Z) order."""
    index = _SETTING_INDEX.get(setting) if isinstance(setting, str) else None
    if index is None:
        raise ProtocolError(f"unknown setting {setting!r}")
    return index


def setting_probabilities(rho: np.ndarray, settings, p_readout: float = 0.0) -> np.ndarray:
    """Recorded outcome probabilities (..., S, 4) of a state, or of a
    (..., 4, 4) stack of states, in each of the S listed settings.

    One contraction with the outcome maps of all S settings meets each
    state as a matrix-vector product, so a state's probabilities are the
    same floats in a stack of any size. Each setting's four probabilities
    are clipped at zero and renormalized, then readout error is folded in:
    F @ probs, with each outcome bit flipped independently with
    probability p_readout.
    """
    if not 0.0 <= p_readout <= 1.0:
        raise ContractError(f"readout flip probability {p_readout} outside [0, 1]")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ContractError("outcome probabilities need 4x4 density matrices")
    maps = _OUTCOME_MAPS[[setting_index(s) for s in settings]].reshape(-1, 16)
    probs = np.maximum(np.matmul(maps, rho.reshape(-1, 16, 1))[..., 0].real, 0.0)
    probs = probs.reshape(rho.shape[:-2] + (len(settings), 4))
    total = probs.sum(axis=-1, keepdims=True)
    if not (total > 0.0).all():
        raise ContractError("outcome probabilities sum to zero or are not numbers")
    probs = probs / total
    q = 1.0 - p_readout
    flip = np.array([q * q, q * p_readout, p_readout * q, p_readout * p_readout])[_XOR]
    # Summed over k in order, so each entry is one fixed float sum.
    return sum(probs[..., k, None] * flip[k] for k in range(4))


def measure_block(rho: np.ndarray, settings, shots: int, seed: int, first: int, p_readout: float = 0.0,
                  exact: bool = False) -> np.ndarray:
    """Recorded outcome frequencies (P, S, 4) of a (P, 4, 4) stack of states
    in each of the S listed settings.

    Exact, the frequencies are the distributions of one
    ``setting_probabilities`` contraction. Sampled, the block draws all nine
    settings of every point, point-major in FULL order, as one
    ``block_counts`` call on the stream (seed, first), ``first`` being the
    index of its first point, and returns the listed settings.
    """
    if exact:
        return setting_probabilities(rho, settings, p_readout)
    index = [setting_index(s) for s in settings]
    probs = setting_probabilities(rho, FULL, p_readout)
    if shots < 1:
        raise ContractError("shots must be >= 1; the exact limit is measured with exact=True")
    return block_counts(probs.reshape(-1, 4), shots, seed, first).reshape(probs.shape)[:, index] / shots


def _last_axis_first(a: np.ndarray) -> np.ndarray:
    """``a`` with its last axis moved to the front, to unpack entry by entry."""
    return a.transpose(-1, *range(a.ndim - 1))


def _correlators(f: np.ndarray) -> tuple:
    """(joint, first-qubit marginal, second-qubit marginal) of outcome
    frequencies f of shape (..., 4)."""
    fpp, fpm, fmp, fmm = _last_axis_first(f)
    return fpp - fpm - fmp + fmm, fpp + fpm - fmp - fmm, fpp - fpm + fmp - fmm


def _frequency_stack(f, settings) -> np.ndarray:
    """``f`` as frequencies (..., S, 4) of the S ``settings``, rows in the
    order listed; any other shape raises ProtocolError."""
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (len(settings), 4):
        raise ProtocolError(f"expected frequencies of shape (..., {len(settings)}, 4), got {f.shape}")
    return f


def psd_project(rho_hat: np.ndarray) -> np.ndarray:
    """Nearest-valid-state repair by eigenvalue truncation, of one matrix or
    of each matrix of a stack, as a factor L of the repaired state L L^dagger:
    the eigenvectors scaled by the roots of the repaired eigenvalues, so the
    repaired matrix is never formed.

    Negative eigenvalues are zeroed in ascending order, each one's mass
    spread uniformly over the eigenvalues above it. A stack is repaired
    one eigenvalue column at a time, masked to the matrices negative in
    that column, so each matrix sees the float operations of a repair of
    it alone. Input without a negative eigenvalue gets V sqrt(w), the
    factor of the reference ``psd_factor`` in ``tests/oracles.py``.
    """
    rho_hat = np.asarray(rho_hat, dtype=complex)
    n = rho_hat.shape[-1]
    if not is_hermitian(rho_hat):
        raise ContractError("psd_project expects Hermitian matrices")
    if (np.abs(np.trace(rho_hat, axis1=-2, axis2=-1).real - 1.0) > 1e-10).any():
        raise ContractError("psd_project expects unit trace")
    w, v = np.linalg.eigh(rho_hat)
    lam = w.reshape(-1, n)  # a view: the repair writes into w
    for i in range(n):
        neg = lam[:, i] < 0.0
        if not neg.any():
            break
        if i == n - 1:
            raise ContractError("cannot repair: all eigenvalue mass negative")
        lam[neg, i + 1:] += (lam[neg, i] / (n - 1 - i))[:, None]
        lam[neg, i] = 0.0
    return v * np.sqrt(w.clip(0.0, None))[..., None, :]


def reconstruct_full(data) -> np.ndarray:
    """Linear inversion from all nine settings, then PSD repair: the factor
    L (..., 4, 4) of the estimate L L^dagger, from frequencies (..., 9, 4)
    in FULL order.

    The two single-qubit terms are each estimable from three settings;
    averaging the three estimates uses every setting's marginals.
    """
    f = _frequency_stack(data, FULL)
    t = np.zeros(f.shape[:-2] + (4, 4))
    t[..., 0, 0] = 1.0
    joint, first, second = _correlators(f)
    for i in range(3):
        for j in range(3):
            t[..., i + 1, j + 1] = joint[..., 3 * i + j]
            t[..., i + 1, 0] += first[..., 3 * i + j] / 3.0
            t[..., 0, j + 1] += second[..., 3 * i + j] / 3.0
    rho_hat = np.einsum("...ij,ijab->...ab", t, _PAULI_PAIRS)
    return psd_project(rho_hat / 4.0)


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _clamped_corner(value: np.ndarray, bound: np.ndarray) -> np.ndarray:
    mag = cabs(value)
    keep = (mag <= bound) | (mag == 0.0)
    return np.where(keep, value, value * (bound / np.where(keep, 1.0, mag)))


def _clamped_xstate(zz: np.ndarray, corners: np.ndarray) -> XState:
    """X-state with diagonal zz and corners (w, z), each block-clamped."""
    a, b, c, d = _last_axis_first(zz)
    w, z = _clamped_corner(corners, sqrt_nonneg(np.array([a * d, b * c])))
    return XState(a, b, c, d, w, z)


def reconstruct_x5(data) -> XState:
    """X-state estimate from {XX, YY, ZZ, XY, YX}; corners block-clamped.
    Frequencies (..., 5, 4) in PARTIAL5 order give a stack of X-states."""
    f = _frequency_stack(data, PARTIAL5)
    xx, yy, _, xy, yx = _last_axis_first(_correlators(f)[0])
    return _clamped_xstate(f[..., 2, :], _complex(np.array([xx - yy, xx + yy]) / 4.0,
                                                  np.array([-(xy + yx), xy - yx]) / 4.0))


def reconstruct_x3(data) -> XState:
    """Real-X-state estimate from {XX, YY, ZZ}; imaginary parts are zero by
    protocol assumption. Frequencies (..., 3, 4) in PARTIAL3 order give a
    stack of X-states."""
    f = _frequency_stack(data, PARTIAL3)
    xx, yy, _ = _last_axis_first(_correlators(f)[0])
    return _clamped_xstate(f[..., 2, :], _complex(np.array([xx - yy, xx + yy]) / 4.0, 0.0))


FIDELITY_CONVENTION = "squared-uhlmann"  # (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, named in every report
