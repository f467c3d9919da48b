"""Independent references for the tests: a Jacobi eigensolver, the routes
built on it, and the reference forms of circuits, unitaries and streams.

The production code diagonalizes with LAPACK (``numpy.linalg.eigh`` and
``svd``). The cyclic Jacobi eigensolver ``herm_eig`` and the routes built on
it (``expm_oracle``, ``sqrtm_psd``, ``validate_density``, ``trace_distance``
and the Wootters concurrence ``concurrence_wootters_oracle``) check that
code from the outside: they must not share code with the implementations
they validate, and nothing in ``xsim`` calls them.

Three LAPACK routes the sweeps no longer run stay here as references:
``psd_factor``, the eigendecomposition factor L of a state rho = L L^dagger,
``fidelity``, the SVD fidelity of two states so factored, and
``psd_project_matrix``, the repaired matrix that ``tomography.psd_project``
now hands on as a factor.

The other references are what the program does not run:

* ``hamiltonian``, the 4x4 H of the XYZ model; ``expm_oracle(hamiltonian(p), t)``
  is U(t), against which ``evolve_diagonal`` and ``propagator_x_params`` are
  checked,
* ``assemble_x_unitary``, the matrix of an ``XUnitaryParams`` point,
* ``ry_matrix``, ``rz_matrix`` and ``w_matrix``, the scalar rows of each
  rotation, which the executor's array stacks must equal bit for bit,
* ``circuit_unitary``, a circuit's unitary as the product of its gates
  embedded by Kronecker products (``kron_gate``), sharing no code with the
  executor ``circuits.run_stack``; the ket a circuit makes of basis state
  ``k`` is its column ``k``,
* ``partial_trace``, one einsum over the whole register, against which the
  executor's reduced states are checked,
* ``rotor_decimal`` and ``evolve_diagonal_decimal``, the closed form of the
  dynamics to 40 digits in the stdlib's ``decimal``, against which
  ``heisenberg._rotor`` and ``evolve_diagonal`` are held to error budgets,
  and ``concurrence_x_decimal``, the X-state concurrence to 40 digits,
  which budgets ``xstate.concurrence_x``,
* ``build_xstate_circuit_alt``, the three-CNOT preparation whose output is
  that of ``circuits.build_xstate_circuit`` at phi -> pi/2 - phi,
* ``relative_phase``, for unitaries equal up to a global phase,
* ``substream``, a Philox generator built afresh per key, whose key
  packing ``rng.keyed_stream`` must match draw for draw, and
  ``block_counts_reference``, the step-major snapped multinomial chain of a
  block drawn one scalar binomial at a time on such a generator, which
  ``rng.block_counts`` must equal count for count on either route,
* the scalar routes of the block builders, one point per call in Python
  floats (``evolve_diagonal_scalar``, ``strip_phases_scalar``,
  ``to_spectral_scalar``, ``build_xstate_circuit_scalar``,
  ``build_complex_xstate_circuit_scalar`` and the functions they call),
  which ``heisenberg.evolve_diagonal``, ``xstate.strip_phases``,
  ``xstate.to_spectral`` and the ``circuits`` builders must match bit for
  bit.
"""

from __future__ import annotations

import cmath
import math
import string
import sys
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from xsim.circuits import _PREP_OPS, Circuit, XUnitaryParams, build_xstate_circuit, eigenbasis_block
from xsim.errors import ContractError, DimensionError, InfeasibleStateError
from xsim.heisenberg import HeisenbergParams
from xsim.linalg import HERMITIAN_ATOL, I2, PSD_ATOL, SX, SY, _square, dagger, is_hermitian, kron
from xsim.xstate import XSpectral, XState

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


def fidelity_oracle(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 through the Jacobi eigensolver,
    square roots and all: on rank-deficient input it takes roots of ~1e-16
    eigenvalues, which costs it ~1e-8."""
    root = sqrtm_psd(rho)
    mid = root @ sigma @ root
    w, _ = herm_eig((mid + mid.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def psd_factor(m: np.ndarray, who: str) -> np.ndarray:
    """A factor L with m = L L^dagger, from the LAPACK eigendecomposition;
    a stack of matrices gives the stack of their factors.

    Raises ContractError when a matrix is not Hermitian or has an
    eigenvalue below -PSD_ATOL; eigenvalues in between are clamped to zero.
    """
    if not is_hermitian(m):
        raise ContractError(f"{who}: input is not Hermitian within {HERMITIAN_ATOL}")
    w, v = np.linalg.eigh(m)
    if w.min() < -PSD_ATOL:
        raise ContractError(f"{who}: input is not positive semidefinite")
    return v * np.sqrt(w.clip(0.0, None))[..., None, :]


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Squared-Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 by the
    LAPACK SVD route, the full-tomography score the sweeps used before they
    scored from ``psd_project``'s factor and ``xstate.sqrt_x``.

    Symmetric in its arguments and equal to |<psi|phi>|^2 on pure states;
    against the maximally mixed two-qubit state any pure state scores 1/4.
    Computed as the squared sum of the singular values of L_rho^dagger
    L_sigma for factors rho = L_rho L_rho^dagger (``psd_factor``),
    which equals the trace above without taking square roots of the
    near-zero eigenvalues of sqrt(rho) sigma sqrt(rho): a rank-deficient
    state scores 1 against itself to roundoff, where that route is off by
    ~1e-8. Stacks of states broadcast against each other and give a stack
    of fidelities.
    """
    rho = _square(rho, "fidelity")
    sigma = _square(sigma, "fidelity")
    if rho.shape[-1] != sigma.shape[-1]:
        raise DimensionError("fidelity: operands have different dimensions")
    overlap = dagger(psd_factor(rho, "fidelity")) @ psd_factor(sigma, "fidelity")
    return np.linalg.svd(overlap, compute_uv=False).sum(axis=-1) ** 2


def psd_project_matrix(rho_hat: np.ndarray) -> np.ndarray:
    """The repaired matrix of ``tomography.psd_project``, rebuilt as
    (V L' V^dagger + h.c.) / 2 from the truncated eigenvalues L' of the
    LAPACK decomposition, and the input itself where it has no negative
    eigenvalue: the route the sweeps took before they kept the factor."""
    rho_hat = np.asarray(rho_hat, dtype=complex)
    n = rho_hat.shape[-1]
    w, v = np.linalg.eigh(rho_hat)
    repair = w[..., 0] < 0.0
    if not repair.any():
        return rho_hat
    lam, v = w[repair], v[repair]
    for i in range(n - 1):
        neg = lam[:, i] < 0.0
        lam[neg, i + 1:] += (lam[neg, i] / (n - 1 - i))[:, None]
        lam[neg, i] = 0.0
    out = (v * lam[:, None, :]) @ dagger(v)
    repaired = rho_hat.copy()
    repaired[repair] = (out + dagger(out)) / 2.0
    return repaired


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


def hamiltonian(p: HeisenbergParams) -> np.ndarray:
    """H of the XYZ model with field, in the basis (|00>, |01>, |10>, |11>)."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = 0.5 * p.Jz + p.B
    h[1, 1] = -0.5 * p.Jz + p.b
    h[2, 2] = -0.5 * p.Jz - p.b
    h[3, 3] = 0.5 * p.Jz - p.B
    h[0, 3] = h[3, 0] = p.Jk
    h[1, 2] = h[2, 1] = p.J
    return h


def assemble_x_unitary(q: XUnitaryParams) -> np.ndarray:
    """The X-shaped special unitary of ``q``, entry by entry as in the
    ``XUnitaryParams`` docstring."""
    u = np.zeros((4, 4), dtype=complex)
    c1, s1 = math.cos(q.t1), math.sin(q.t1)
    c2, s2 = math.cos(q.t2), math.sin(q.t2)
    u[0, 0] = np.exp(0.5j * (q.a1 - q.x)) * c1
    u[0, 3] = -np.exp(0.5j * (q.b1 - q.x)) * s1
    u[3, 0] = np.exp(-0.5j * (q.b1 + q.x)) * s1
    u[3, 3] = np.exp(-0.5j * (q.a1 + q.x)) * c1
    u[1, 1] = -1j * np.exp(0.5j * (q.a2 + q.x)) * s2
    u[1, 2] = 1j * np.exp(0.5j * (q.b2 + q.x)) * c2
    u[2, 1] = 1j * np.exp(-0.5j * (q.b2 - q.x)) * c2
    u[2, 2] = 1j * np.exp(-0.5j * (q.a2 - q.x)) * s2
    return u


def embed(m: np.ndarray, qubit: int, width: int) -> np.ndarray:
    """A one-qubit operator on ``qubit`` of a ``width``-qubit register."""
    out = np.eye(1, dtype=complex)
    for q in range(width):
        out = kron(out, m if q == qubit else I2)
    return out


def ry_matrix(t: float) -> tuple:
    """The rows of RY(t) from scalar ``math`` calls; ``rz_matrix`` and
    ``w_matrix`` likewise from ``cmath``. ``circuits.rotation_stack`` must
    give these floats bit for bit."""
    c, s = math.cos(t / 2.0), math.sin(t / 2.0)
    return ((c, -s), (s, c))


def rz_matrix(t: float) -> tuple:
    return ((cmath.exp(-0.5j * t), 0.0), (0.0, cmath.exp(0.5j * t)))


def w_matrix(x: float) -> tuple:
    return ((cmath.exp(-1j * x), 0.0), (0.0, 1j * cmath.exp(1j * x)))


_ROTATION_ROWS = {"ry": ry_matrix, "rz": rz_matrix, "w": w_matrix}


def gates(c: Circuit) -> list:
    """(kind, qubits, angle) of each gate of ``c`` in order; the angle of a
    CNOT is None."""
    angles = iter(c.angles)
    return [(kind, qubits, None if kind == "cnot" else next(angles)) for kind, qubits in c.ops]


def kron_gate(kind: str, qubits: tuple, angle, width: int) -> np.ndarray:
    """Full-register unitary of one gate, built from Kronecker products."""
    if kind != "cnot":
        return embed(np.array(_ROTATION_ROWS[kind](angle), dtype=complex), qubits[0], width)
    control, target = qubits
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    term0 = np.eye(1, dtype=complex)
    term1 = np.eye(1, dtype=complex)
    for q in range(width):
        term0 = kron(term0, p0 if q == control else I2)
        term1 = kron(term1, p1 if q == control else (SX if q == target else I2))
    return term0 + term1


def circuit_unitary(c: Circuit) -> np.ndarray:
    """The circuit's unitary: the product of its Kronecker-embedded gates,
    the first gate rightmost."""
    u = np.eye(2**c.width, dtype=complex)
    for g in gates(c):
        u = kron_gate(*g, c.width) @ u
    return u


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    Parameters
    ----------
    rho : ndarray
        Density matrix on n qubits, n <= 4 (dimension 2, 4, 8, or 16), or a
        stack of them along leading axes.
    keep : iterable of int
        Qubit indices to retain, 0 = leftmost factor. Order in the output
        follows ascending qubit index.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise DimensionError(f"partial_trace: expected square matrices, got shape {rho.shape}")
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim or not 1 <= n <= 4:
        raise DimensionError(f"partial_trace: dimension {dim} is not a small qubit register")
    keep = sorted(set(int(q) for q in keep))
    if not keep or any(q < 0 or q >= n for q in keep):
        raise DimensionError(f"partial_trace: keep={keep} invalid for {n} qubits")
    letters = string.ascii_lowercase
    bra = list(letters[:n])
    ket = list(letters[n : 2 * n])
    for q in range(n):
        if q not in keep:
            ket[q] = bra[q]
    out = "".join(bra[q] for q in keep) + "".join(ket[q] for q in keep)
    sub = "..." + "".join(bra) + "".join(ket) + "->..." + out
    k = len(keep)
    stack = rho.shape[:-2]
    return np.einsum(sub, rho.reshape(stack + (2,) * (2 * n))).reshape(stack + (2**k, 2**k))


def eigenbasis_block_alt(theta: float, phi: float, pair=(0, 1)) -> tuple:
    """(ops, angles) of the three-CNOT variant of
    ``circuits.eigenbasis_block``; same X-state output with
    phi -> pi/2 - phi."""
    first, second = pair
    ops = (("ry", (first,)), ("cnot", (second, first)), ("ry", (first,)), ("cnot", (second, first)),
           ("cnot", (first, second)))
    return ops, (theta + phi, theta - phi)


def build_xstate_circuit_alt(p, theta: float, phi: float) -> Circuit:
    """``circuits.build_xstate_circuit`` with the three-CNOT second block;
    its output X-state equals that of build_xstate_circuit at
    phi -> pi/2 - phi. The first block is the program's, built as a stack
    of one."""
    prep = build_xstate_circuit(np.array([p], dtype=float), theta, phi)[0]
    ops, angles = eigenbasis_block_alt(theta, phi, pair=(2, 3))
    return Circuit(4, prep.ops[:-4] + ops, prep.angles[:-2] + angles)


def relative_phase(target: np.ndarray, candidate: np.ndarray) -> complex:
    """Unit phase g such that g * candidate best matches target.

    Read off the entry of largest magnitude in ``target``; useful for
    comparing unitaries that are only defined up to a global phase.
    """
    target = np.asarray(target, complex)
    candidate = np.asarray(candidate, complex)
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    if abs(candidate[idx]) < 1e-14:
        raise ContractError("relative_phase: matrices differ in support")
    g = target[idx] / candidate[idx]
    return g / abs(g)


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator keyed by (seed, stream), built afresh."""
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def snap_reference(p: float, n: int) -> float:
    """A conditional p of n draws moved onto the first of the points where
    numpy's binomial sampler branches (0, 1/2, 1, 30/n, 1 - 30/n, then the
    grid point k/(n+1) nearest p) within 1e-12, then clipped to [0, 1]."""
    k = round(p * (n + 1))
    for anchor in (0.0, 0.5, 1.0, 30.0 / n, 1.0 - 30.0 / n, k / (n + 1)):
        if abs(p - anchor) <= 1e-12:
            p = anchor
            break
    return min(max(p, 0.0), 1.0)


def block_counts_reference(rows, shots: int, seed: int, stream: int) -> list:
    """Counts of ``shots`` draws over each outcome distribution of ``rows``
    (a list of four-probability rows), as nested lists: numpy's multinomial
    chain of each row with snapped conditionals, drawn step-major (step j of
    every row before step j + 1 of any), one scalar binomial at a time, on a
    generator built afresh under the key (seed, stream)."""
    binomial = substream(seed, stream).binomial
    counts = [[0, 0, 0, shots] for _ in rows]
    remaining = [1.0] * len(rows)
    for j in range(3):
        for r, (row, count) in enumerate(zip(rows, counts)):
            if count[3] > 0:
                p = snap_reference(float(row[j]) / remaining[r], count[3]) if remaining[r] > 0.0 else 1.0
                if p > 0.0:
                    count[j] = int(binomial(count[3], p))
                    count[3] -= count[j]
            remaining[r] -= float(row[j])
    return counts


# The scalar routes, one point per call, that the block routes of the
# program must equal bit for bit: the evolution, the phase strip, the
# shape-map inversion and the preparation circuits.


def rotor_scalar(delta: float, coupling: float, t: float) -> tuple:
    """(u, c) of exp(-i t [[delta, coupling], [coupling, -delta]]) from
    scalar math calls on one phase x = r t, sin(r t)/r as t sin(x)/x."""
    r = math.hypot(delta, coupling)
    x = r * t or sys.float_info.epsilon
    sin_over_r = t * (math.sin(x) / x)
    u = complex(math.cos(x), -delta * sin_over_r)
    c = complex(0.0, -coupling * sin_over_r)
    return u, c


def evolve_diagonal_scalar(p: HeisenbergParams, populations, t: float) -> XState:
    """``heisenberg.evolve_diagonal`` at one time, in Python floats."""
    n00, n01, n10, n11 = (float(v) for v in populations)
    if min(n00, n01, n10, n11) < -1e-12 or abs(n00 + n01 + n10 + n11 - 1.0) > 1e-9:
        raise ContractError("populations must be a probability vector")
    u, c = rotor_scalar(p.B, p.Jk, t)
    up, cp = rotor_scalar(p.b, p.J, t)
    uu, cc, uup, ccp = (m.real * m.real + m.imag * m.imag for m in (u, c, up, cp))
    return XState(
        a=n00 * uu + n11 * cc,
        b=n01 * uup + n10 * ccp,
        c=n01 * ccp + n10 * uup,
        d=n00 * cc + n11 * uu,
        w=(n11 - n00) * u * c,
        z=(n10 - n01) * up * cp,
    )


def strip_phases_scalar(x: XState) -> tuple:
    """``xstate.strip_phases`` of one X-state: each corner's argument taken
    modulo pi into (-pi/2, pi/2], 0 at a magnitude of at most 1e-12, and
    the corner turned real, negative where the argument moved by pi."""
    args, corners = [], []
    for corner in (complex(x.w), complex(x.z)):
        arg, size = (math.atan2(corner.imag, corner.real) if abs(corner) > 1e-12 else 0.0), abs(corner)
        if arg > math.pi / 2:
            arg, size = arg - math.pi, -size
        elif arg <= -math.pi / 2:
            arg, size = arg + math.pi, -size
        args.append(arg)
        corners.append(complex(size))
    mu, nu = args
    return XState(x.a, x.b, x.c, x.d, *corners), ((mu + nu) / 2.0, (mu - nu) / 2.0)


def invert_pair_scalar(big: float, small: float, corner: float) -> tuple:
    """(angle, weight_plus, weight_minus) of one 2x2 sector: its eigenvalues
    and the signed angle of the larger one's eigenvector. abs(complex) is C
    hypot, as numpy's hypot; math.hypot can differ from both in the last bit."""
    ang = 0.5 * math.atan2(2.0 * corner, big - small)
    mean, half = 0.5 * (big + small), 0.5 * abs(complex(big - small, 2.0 * corner))
    return ang, mean + half, mean - half


def to_spectral_scalar(x: XState) -> XSpectral:
    """``xstate.to_spectral`` of one real X-state, raising at once."""
    if not (abs(complex(x.w).imag) <= 1e-10 and abs(complex(x.z).imag) <= 1e-10):
        raise ContractError("to_spectral needs a real X-state; strip phases first")
    theta, p00, p10 = invert_pair_scalar(x.a, x.d, complex(x.w).real)
    phi, p01, p11 = invert_pair_scalar(x.c, x.b, complex(x.z).real)
    weights = (p00, p01, p10, p11)
    if min(weights) < -1e-10 or max(weights) > 1.0 + 1e-10:
        raise InfeasibleStateError(f"recovered weights outside [0, 1]: {tuple(map(float, weights))}")
    return XSpectral(p00, p01, p10, p11, theta, phi)


def classical_prep_angles_scalar(p) -> tuple:
    """``circuits.classical_prep_angles`` of one distribution, with its check."""
    p = tuple(map(float, p))
    if len(p) != 4 or min(p) < -1e-12 or abs(p[0] + p[1] + p[2] + p[3] - 1.0) > 1e-9:
        raise ContractError(f"classical distribution invalid: {np.array(p)}")
    r = [math.sqrt(v) if v > 1e-12 else 0.0 for v in p]
    alpha = math.asin(max(-1.0, min(1.0, 2.0 * (r[0] * r[3] - r[1] * r[2]))))
    u = math.atan2(r[1] + r[2], r[0] - r[3])
    v = math.atan2(r[1] - r[2], r[0] + r[3])
    return alpha, u - v, u + v


def build_xstate_circuit_scalar(p, theta: float, phi: float) -> Circuit:
    """One circuit of ``circuits.build_xstate_circuit``."""
    alpha, beta, gamma = classical_prep_angles_scalar(p)
    if abs(alpha) > 1e-12:
        prep_ops, prep_angles = _PREP_OPS, (alpha, beta, gamma)
    else:
        prep_ops, prep_angles = _PREP_OPS[2:], (beta, gamma)
    ops, angles = eigenbasis_block(theta, phi, pair=(2, 3))
    return Circuit(4, prep_ops + ops, prep_angles + angles)


def build_complex_xstate_circuit_scalar(x: XState, weights=None) -> tuple:
    """(circuit, spectral, (alpha, beta)) of one X-state target, as
    ``circuits.build_complex_xstate_circuit`` gives them for a stack;
    ``weights``, when given, stand in for the recovered ones in the circuit."""
    real_x, (alpha, beta) = strip_phases_scalar(x)
    spectral = to_spectral_scalar(real_x)
    probs = spectral.probs if weights is None else weights
    width, ops, angles = build_xstate_circuit_scalar(probs, spectral.theta, spectral.phi)
    for qubit, phase in ((2, alpha), (3, beta)):
        if abs(phase) > 1e-14:
            ops, angles = ops + (("rz", (qubit,)),), angles + (-phase,)
    return Circuit(width, ops, angles), spectral, (alpha, beta)


# A 40-digit reference of the closed form of the dynamics, in the stdlib's
# decimal: series sine and cosine after reduction by 2 pi. Its inputs are
# the exact binary values of the floats it is given, so what it measures
# includes the rounding of every float step, the phase r t among them.

DIGITS = 40


@lru_cache(maxsize=None)
def _pi_decimal(digits: int) -> Decimal:
    """pi to ``digits`` digits, by the series of the arcsine at 1/2:
    pi = 6 asin(1/2) = 3 sum_k (2k)! / (16^k (k!)^2 (2k + 1))."""
    with localcontext() as ctx:
        ctx.prec = digits
        total, term, k = Decimal(0), Decimal(3), 0
        while total + term != total:
            total += term
            k += 1
            term = term * (2 * k - 1) * (2 * k - 1) / (8 * k * (2 * k + 1))
        return total


def _cos_sin_decimal(x: Decimal) -> tuple:
    """(cos x, sin x) to the current precision: x reduced into [-pi, pi]
    with a pi carrying as many more digits as x has before its point, then
    the Taylor terms x^n / n! summed by n mod 4."""
    with localcontext() as ctx:
        ctx.prec += max(0, x.adjusted()) + 5
        two_pi = 2 * _pi_decimal(ctx.prec)
        y = x - two_pi * (x / two_pi).to_integral_value()
        eps = Decimal(10) ** -(ctx.prec + 2)
        terms = [Decimal(1)]
        while len(terms) < 2 or abs(terms[-1]) > eps:
            terms.append(terms[-1] * y / len(terms))
        cos, sin = sum(terms[0::4]) - sum(terms[2::4]), sum(terms[1::4]) - sum(terms[3::4])
    return +cos, +sin


def rotor_decimal(delta: float, coupling: float, t: float) -> tuple:
    """(Re u, Im u, Im c) of exp(-i t [[delta, coupling], [coupling, -delta]])
    to DIGITS digits, with r = sqrt(delta^2 + coupling^2) and the phase r t
    taken exactly from the float inputs; Re c is zero."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        delta, coupling, t = Decimal(delta), Decimal(coupling), Decimal(t)
        r = (delta * delta + coupling * coupling).sqrt()
        cos, sin = _cos_sin_decimal(r * t)
        sin_over_r = sin / r if r else t
        return cos, -delta * sin_over_r, -coupling * sin_over_r


def evolve_diagonal_decimal(p: HeisenbergParams, populations, t: float) -> dict:
    """``heisenberg.evolve_diagonal`` at one time to DIGITS digits, as a dict
    of the X entries a, b, c, d and the corner parts w_re, w_im, z_re, z_im."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        n00, n01, n10, n11 = (Decimal(float(v)) for v in populations)
        ur, ui, ci = rotor_decimal(p.B, p.Jk, t)
        upr, upi, cpi = rotor_decimal(p.b, p.J, t)
        uu, cc, uup, ccp = ur * ur + ui * ui, ci * ci, upr * upr + upi * upi, cpi * cpi
        # u c with c = i Im c, so Re(u c) = -Im u Im c and Im(u c) = Re u Im c
        return {
            "a": n00 * uu + n11 * cc, "b": n01 * uup + n10 * ccp,
            "c": n01 * ccp + n10 * uup, "d": n00 * cc + n11 * uu,
            "w_re": (n11 - n00) * -ui * ci, "w_im": (n11 - n00) * ur * ci,
            "z_re": (n10 - n01) * -upi * cpi, "z_im": (n10 - n01) * upr * cpi,
        }


def concurrence_x_decimal(x: XState) -> Decimal:
    """``xstate.concurrence_x`` of one X-state to DIGITS digits, from the
    exact values of its float entries: 2 max(0, |w| - sqrt(b c), |z| - sqrt(a d)),
    with a negative product's root taken as zero."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        a, b, c, d = (Decimal(float(v)) for v in (x.a, x.b, x.c, x.d))
        w, z = ((Decimal(float(v.real)) ** 2 + Decimal(float(v.imag)) ** 2).sqrt() for v in map(complex, (x.w, x.z)))
        return 2 * max(Decimal(0), w - max(b * c, Decimal(0)).sqrt(), z - max(a * d, Decimal(0)).sqrt())
