"""Independent oracles for the tests: a Jacobi eigensolver and the routes built on it.

The production code diagonalizes with LAPACK (``numpy.linalg.eigh`` and
``svd``). The cyclic Jacobi eigensolver ``herm_eig`` and the routes built on
it (``expm_oracle``, ``sqrtm_psd``, ``validate_density``, ``trace_distance``
and the Wootters concurrence ``concurrence_wootters_oracle``) check that
code from the outside: they must not share code with the implementations
they validate, and nothing in ``xsim`` calls them.
"""

from __future__ import annotations

import numpy as np

from xsim.errors import ContractError, DimensionError
from xsim.linalg import PSD_ATOL, SY, _square, is_hermitian, kron

_DIMS = (2, 4, 16)


def herm_eig(m: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Each sweep annihilates every off-diagonal pair with a complex Givens
    rotation; sweeps repeat until the off-diagonal Frobenius norm falls below
    ``tol`` (relative to the matrix norm). Deterministic, no libraries beyond
    numpy array arithmetic.

    Returns
    -------
    (w, v) : eigenvalues sorted in descending order, and the matching
        orthonormal eigenvectors as columns of ``v``.
    """
    a = _square(m, "herm_eig")
    if a.shape[0] not in _DIMS and a.shape[0] != 8:
        raise DimensionError(f"herm_eig: unsupported dimension {a.shape[0]}")
    if not is_hermitian(a):
        raise ContractError("herm_eig: input is not Hermitian within 1e-10")
    n = a.shape[0]
    a = (a + a.conj().T) / 2.0
    v = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= 1e-18 * scale:
                    continue
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                sgn = 1.0 if tau >= 0 else -1.0
                t = -sgn / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # A <- G^dag A G with G = [[c, -s e^{i phi}], [s e^{-i phi}, c]]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(phase) * col_q
                a[:, q] = -s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + s * phase * row_q
                a[q, :] = -s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vol_p = v[:, p].copy()
                vol_q = v[:, q].copy()
                v[:, p] = c * vol_p + s * np.conj(phase) * vol_q
                v[:, q] = -s * phase * vol_p + c * vol_q
    else:
        raise ContractError("herm_eig: Jacobi iteration failed to converge")
    w = np.real(np.diag(a))
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def expm_oracle(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Unitary exp(-i h t) of a Hermitian generator, via the eigensolver."""
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root; eigenvalues below zero are clamped to zero."""
    w, v = herm_eig(m)
    if w.min() < -PSD_ATOL:
        raise ContractError(f"sqrtm_psd: eigenvalue {w.min():.3e} too negative")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def validate_density(rho: np.ndarray, atol: float = PSD_ATOL) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity of a density matrix.

    Positivity is enforced up to ``-atol`` on the smallest eigenvalue;
    genuinely indefinite input raises ContractError.
    """
    rho = _square(rho, "validate_density")
    if rho.shape[0] not in _DIMS:
        raise DimensionError(f"unsupported density-matrix dimension {rho.shape[0]}")
    if not is_hermitian(rho):
        raise ContractError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-12:
        raise ContractError(f"density matrix trace {np.trace(rho)} != 1")
    evals, _ = herm_eig(rho)
    if evals.min() < -atol:
        raise ContractError(f"density matrix has eigenvalue {evals.min():.3e} < 0")
    return rho


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian operators."""
    w, _ = herm_eig(np.asarray(rho, complex) - np.asarray(sigma, complex))
    return float(0.5 * np.sum(np.abs(w)))


def concurrence_wootters_oracle(rho: np.ndarray) -> float:
    """Spectral concurrence of an arbitrary two-qubit density matrix.

    Oracle route: with Y = sy x sy and the spin-flipped state
    rho~ = Y conj(rho) Y, the concurrence is max(0, l1 - l2 - l3 - l4)
    where l_i are the decreasing square roots of the eigenvalues of
    rho rho~. Factoring rho = L L+ turns them into the singular values of
    L+ Y conj(L), which stay accurate at machine precision even when rho
    is rank deficient (a direct sqrt of near-zero eigenvalues would
    amplify roundoff to ~1e-8). The singular values come from the
    Hermitian embedding [[0, A], [A+, 0]], whose spectrum is {+/- s_i}.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ContractError("concurrence_wootters_oracle expects a 4x4 density matrix")
    yy = kron(SY, SY).real
    w, v = herm_eig((rho + rho.conj().T) / 2.0)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    a = factor.conj().T @ yy @ factor.conj()
    emb = np.zeros((8, 8), dtype=complex)
    emb[:4, 4:] = a
    emb[4:, :4] = a.conj().T
    sing, _ = herm_eig(emb)
    lam = sing[:4]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
