"""Dense complex linear algebra for few-qubit operators.

Conventions used across the whole package:

* operators and states are plain ``numpy`` complex arrays,
* qubit 0 is the leftmost (most significant) tensor factor, so the basis
  state |i j> of two qubits sits at row index ``2*i + j``,
* states hold one to four qubits (dimension 2, 4, 8 or 16),
* all functions are pure and never mutate their arguments.

Every gate goes through one kernel, ``apply_local``: it contracts a small
operator into chosen axes of a stack of states, each viewed as a tensor of
shape ``(2,)*k`` (a density matrix of k/2 qubits with its row axes first),
so no operator is ever embedded into the full register. The executor
hands it each gate's superoperator (``superop``) with the gate's noise
composed in, so a gate and its noise are one contraction. The operator is
shared by the stack or given per state, so the points of a sweep evolve
together.

The code diagonalizes with LAPACK (``numpy.linalg.eigh`` and ``svd``),
on single matrices and on stacks alike. The independent oracles that check
it (the Jacobi eigensolver ``herm_eig`` and the routes built on it) live
with the tests, in ``tests/oracles.py``, and so do the reference forms of
the partial trace and of U rho U^dagger.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"I": I2, "X": SX, "Y": SY, "Z": SZ}

HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-9


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the first factor on the leftmost qubit."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def cabs(z) -> np.ndarray:
    """|z| entry by entry through C hypot, as Python's abs(complex) gives it;
    numpy's vectorized complex abs can differ from it in the last bit."""
    return np.hypot(z.real, z.imag)


def mathmap(fn, *arrays) -> np.ndarray:
    """A function of Python floats, such as ``math.atan2``, mapped over
    float arrays of one shape; numpy's arctan2 and arcsin can differ from
    ``math`` in the last bit."""
    lists = (np.ravel(a).tolist() for a in arrays)
    return np.array(list(map(fn, *lists)), dtype=float).reshape(np.shape(arrays[0]))


def _square(m: np.ndarray, who: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"{who}: expected square matrices, got shape {m.shape}")
    return m


def is_hermitian(m: np.ndarray) -> bool:
    m = _square(m, "is_hermitian")
    return bool(np.max(np.abs(m - dagger(m))) <= HERMITIAN_ATOL)


def apply_local(state: np.ndarray, op: np.ndarray, axes) -> np.ndarray:
    """Contract ``op`` into the listed axes of a stack of qubit tensors.

    ``state`` has shape ``(P,) + (2,)*k``: P tensors of k axes each, a stack
    of one for a single state. ``op`` is one 2^m x 2^m matrix shared by the
    whole stack, or a ``(P, 2^m, 2^m)`` stack of them, one per tensor (a
    stack of one tensor meets P operators as P copies of itself); its m
    tensor factors act on ``axes`` (counted within each tensor, the stack
    axis excluded) in the order listed, and every other axis is left alone.
    On a density tensor of n qubits, row axis q is qubit q and column axis
    n + q its conjugate side, so a gate on qubits (q1, ..., qm) acts through
    its superoperator on axes (q1, ..., qm, n + q1, ..., n + qm). The result
    may be a non-contiguous view.
    """
    perm, inverse = _permutations(state.ndim, tuple(axes))
    moved = state.transpose(perm)
    out = op @ moved.reshape(moved.shape[0], op.shape[-1], -1)
    return out.reshape((-1,) + moved.shape[1:]).transpose(inverse)


@lru_cache(maxsize=None)
def _permutations(ndim: int, axes: tuple) -> tuple:
    """The transpose moving tensor ``axes`` next to the stack axis, and its inverse."""
    axes = tuple(a + 1 for a in axes)
    perm = (0,) + axes + tuple(a for a in range(1, ndim) if a not in axes)
    return perm, tuple(np.argsort(perm).tolist())


def superop(kraus) -> np.ndarray:
    """Superoperator sum_k K (x) conj(K) of a Kraus set (or a one-element
    list holding a unitary), acting on a density matrix's (row, column)
    index pairs: rho'[a, b] = sum S[(a, b), (c, d)] rho[c, d]. Leading axes
    before the Kraus axis give a stack of superoperators."""
    k = np.asarray(kraus, dtype=complex)
    d = k.shape[-1]
    return np.einsum("...kac,...kbd->...abcd", k, k.conj()).reshape(k.shape[:-3] + (d * d, d * d))
