"""Two-qubit X-states: spectral parameterization, concurrence, phase stripping.

An X-state has nonzero entries only on the main diagonal (a, b, c, d) and the
anti-diagonal corners w = <00|rho|11> and z = <01|rho|10>:

    [[a, 0, 0, w],
     [0, b, z, 0],
     [0, z*, c, 0],
     [w*, 0, 0, d]]

Every real X-state is a mixture of the four orthonormal entangled basis states

    |e00> = cos(theta)|00> + sin(theta)|11>
    |e01> = sin(phi)|01> + cos(phi)|10>
    |e10> = cos(phi)|01> - sin(phi)|10>
    |e11> = -sin(theta)|00> + cos(theta)|11>

with mixing weights carried by XSpectral. The weight labels follow the
preparation circuit's basis map |i,j> -> |e_{i, i xor j}>: p00 weights |e00>,
p01 weights |e01>, p10 weights |e11>, and p11 weights |e10>. With that
labeling the shape map reads

    a = p00 cos^2(theta) + p10 sin^2(theta)
    d = p00 sin^2(theta) + p10 cos^2(theta)
    b = p01 sin^2(phi) + p11 cos^2(phi)
    c = p01 cos^2(phi) + p11 sin^2(phi)
    w = (p00 - p10) cos(theta) sin(theta)
    z = (p01 - p11) cos(phi) sin(phi)

and the concurrence of any X-state (complex corners included) is

    C = 2 max{0, |w| - sqrt(b c), |z| - sqrt(a d)}.

XState and XSpectral fields may also be numpy arrays of one shape: such a
value is a stack of X-states, one per entry, and ``from_spectral``,
``to_spectral``, ``strip_phases``, ``matrix``,
``concurrence_x``, ``fidelity_x`` (two stacks that broadcast), ``sqrt_x``
and ``leakage`` work on stacks entry by entry, and ``xstate_from_matrix``
reads a (P, 4, 4) stack of matrices into one. A sweep builds the targets of
a whole block of points this way, and scores its X-shaped outputs with
``concurrence_x(xstate_from_matrix(outputs))``, no eigensolver.

Complex corner phases are local: a diagonal unitary
diag(1, e^{i alpha}) x diag(1, e^{i beta}) removes them modulo pi without
touching populations or entanglement (``strip_phases``). The corners left
are real and signed, and ``to_spectral`` gives each its sign as an angle
in (-pi/2, pi/2].
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InfeasibleStateError, ShapeError
from .linalg import PSD_ATOL, cabs, mathmap

# Row/column index pairs that must vanish for a matrix to be X-shaped.
NON_X_INDICES = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))
_NON_X_ROWS, _NON_X_COLS = np.array(NON_X_INDICES).T


class XState(NamedTuple):
    """X-shaped two-qubit density matrix, stored by its six free entries."""

    a: float
    b: float
    c: float
    d: float
    w: complex
    z: complex

    def validate(self) -> "XState":
        diag = (self.a, self.b, self.c, self.d)
        if any(p < -1e-12 for p in diag):
            raise ContractError(f"X-state has negative population: {diag}")
        if abs(sum(diag) - 1.0) > 1e-12:
            raise ContractError(f"X-state populations sum to {sum(diag)!r}, not 1")
        if abs(self.w) > math.sqrt(max(self.a * self.d, 0.0)) + 1e-10:
            raise ContractError("X-state corner |w| exceeds sqrt(a d)")
        if abs(self.z) > math.sqrt(max(self.b * self.c, 0.0)) + 1e-10:
            raise ContractError("X-state corner |z| exceeds sqrt(b c)")
        return self

    def matrix(self) -> np.ndarray:
        """The 4x4 matrix, or a (..., 4, 4) stack of them for array entries."""
        m = np.zeros(np.shape(self.a) + (4, 4), dtype=complex)
        m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], m[..., 3, 3] = self.a, self.b, self.c, self.d
        m[..., 0, 3], m[..., 3, 0] = self.w, np.conj(self.w)
        m[..., 1, 2], m[..., 2, 1] = self.z, np.conj(self.z)
        return m

    @staticmethod
    def stack(states) -> "XState":
        """One XState whose entries are arrays over the X-states ``states``."""
        return XState(*(np.array(column) for column in zip(*states)))

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "w_re": complex(self.w).real,
            "w_im": complex(self.w).imag,
            "z_re": complex(self.z).real,
            "z_im": complex(self.z).imag,
        }

class XSpectral(NamedTuple):
    """Spectral parameters of a real X-state: four weights and two angles."""

    p00: float
    p01: float
    p10: float
    p11: float
    theta: float
    phi: float

    @property
    def probs(self) -> tuple:
        return (self.p00, self.p01, self.p10, self.p11)

    def validate(self) -> "XSpectral":
        # scalar checks, summed in numpy's order for four entries
        if min(self.probs) < -1e-12 or abs(self.p00 + self.p01 + self.p10 + self.p11 - 1.0) > 1e-12:
            raise ContractError(f"spectral weights invalid: {np.array(self.probs)}")
        for name, angle in (("theta", self.theta), ("phi", self.phi)):
            if not -1e-12 <= angle <= math.pi / 2 + 1e-12:
                raise ContractError(f"{name} must lie in [0, pi/2], got {angle}")
        return self

    def to_json(self) -> dict:
        return {"p": [self.p00, self.p01, self.p10, self.p11], "theta": self.theta, "phi": self.phi}

def from_spectral(s: XSpectral) -> XState:
    """Shape map from spectral parameters to the six X-state entries."""
    ct, st = np.cos(s.theta), np.sin(s.theta)
    cf, sf = np.cos(s.phi), np.sin(s.phi)
    return XState(
        a=s.p00 * ct * ct + s.p10 * st * st,
        d=s.p00 * st * st + s.p10 * ct * ct,
        b=s.p01 * sf * sf + s.p11 * cf * cf,
        c=s.p01 * cf * cf + s.p11 * sf * sf,
        # a cast, not an addition of 0j, keeps a real part of -0.0
        w=np.asarray((s.p00 - s.p10) * ct * st, dtype=complex)[()],
        z=np.asarray((s.p01 - s.p11) * cf * sf, dtype=complex)[()],
    )


def _invert_pair(big, small, corner) -> tuple:
    """(angle, weight_plus, weight_minus) of 2x2 sectors, arrays of one
    shape, such that big = w+ cos^2 + w- sin^2, small = w+ sin^2 + w- cos^2
    and corner = (w+ - w-) cos sin. The weights are the eigenvalues of
    [[big, corner], [corner, small]], mean +- hypot(big - small, 2 corner) / 2,
    with no division, so a sector with big = small, where any angle is exact,
    is no special case. (cos, sin) is the eigenvector of the larger one, at
    the signed angle in (-pi/2, pi/2] that carries the corner's sign."""
    ang = 0.5 * mathmap(math.atan2, 2.0 * corner, big - small)
    mean, half = 0.5 * (big + small), 0.5 * np.hypot(big - small, 2.0 * corner)
    return ang, mean + half, mean - half


def to_spectral(x: XState) -> tuple:
    """(XSpectral, check) inverting the shape map for a real X-state or a
    stack. ``check`` is the ``raise_first`` check of weights outside [0, 1]
    beyond 1e-10 (InfeasibleStateError); complex corners raise at once."""
    corners = np.array([x.w, x.z], dtype=complex)
    if not np.all(np.abs(corners.imag) <= 1e-10):
        raise ContractError("to_spectral needs a real X-state; strip phases first")
    # both sectors of every point as one (2, ...) stack
    (theta, phi), plus, minus = _invert_pair(np.array([x.a, x.c]), np.array([x.d, x.b]), corners.real)
    weights = np.concatenate([plus, minus]).reshape(4, -1)  # rows p00, p01, p10, p11
    infeasible = (np.minimum.reduce(weights) < -1e-10) | (np.maximum.reduce(weights) > 1.0 + 1e-10)
    return XSpectral(plus[0], plus[1], minus[0], minus[1], theta, phi), (infeasible, lambda i: InfeasibleStateError(
        f"recovered weights outside [0, 1]: {tuple(weights[:, i].tolist())}"))


def sqrt_nonneg(v):
    """sqrt(max(v, 0.0)) entry by entry, signed zeros included."""
    return np.sqrt(np.where(0.0 > v, 0.0, v))


def concurrence_x(x: XState):
    """Closed-form concurrence of an X-state, or of each one of a stack."""
    t1, t2 = cabs(np.array([x.w, x.z])) - sqrt_nonneg(np.array([x.b * x.c, x.a * x.d]))
    # A magnitude minus a root is never -0.0, so no maximum meets a signed zero tie.
    return 2.0 * np.maximum(np.maximum(t1, t2), 0.0)


def fidelity_x(x: XState, y: XState):
    """Squared-Uhlmann fidelity of two X-states, or of two stacks that broadcast:
    each sector adds sqrt(tr AB + 2 sqrt(det A det B)) to the root, no eigensolver.
    Corners multiply as reals: numpy may fuse complex products on arrays, not on scalars."""
    root, abs2 = 0.0, lambda u: u.real * u.real + u.imag * u.imag
    for p, q, u, r, s, v in ((x.a, x.d, x.w, y.a, y.d, y.w), (x.b, x.c, x.z, y.b, y.c, y.z)):
        dets = sqrt_nonneg(p * q - abs2(u)) * sqrt_nonneg(r * s - abs2(v))
        root = root + sqrt_nonneg(p * r + q * s + 2.0 * (u.real * v.real + u.imag * v.imag) + 2.0 * dets)
    return root * root


def sqrt_x(x: XState) -> XState:
    """The PSD square root of an X-state, or of each one of a stack, itself
    X-shaped: each sector M gives (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)),
    no eigensolver, and a zero sector gives zero. Raises ContractError where a
    sector has an eigenvalue below -PSD_ATOL."""
    out = {}
    for (p, q, u), names in (((x.a, x.d, x.w), "adw"), ((x.b, x.c, x.z), "bcz")):
        if np.any(0.5 * (p + q) - 0.5 * np.hypot(p - q, 2.0 * cabs(u)) < -PSD_ATOL):
            raise ContractError("sqrt_x: input is not positive semidefinite")
        root = sqrt_nonneg(p * q - (u.real * u.real + u.imag * u.imag))
        norm = sqrt_nonneg(p + q + 2.0 * root)
        norm = np.where(norm > 0.0, norm, np.inf)
        out.update(zip(names, ((p + root) / norm, (q + root) / norm, u / norm)))
    return XState(**out)


def leakage(rho: np.ndarray):
    """Sum of absolute values of the eight entries outside the X shape, of
    a matrix or of each matrix of a (..., 4, 4) stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ContractError("leakage expects 4x4 matrices")
    # cumsum adds in index order, as a sum over the eight entries one by one
    return cabs(rho[..., _NON_X_ROWS, _NON_X_COLS]).cumsum(axis=-1)[..., -1][()]


def xstate_from_matrix(rho: np.ndarray) -> XState:
    """Read the six X entries off a matrix, or off each matrix of a
    (P, 4, 4) stack, rejecting input whose leakage exceeds 1e-9: the
    ShapeError names the first such point of a stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim > 3:
        raise ContractError("xstate_from_matrix expects a 4x4 matrix or a (P, 4, 4) stack")
    leak = np.ravel(leakage(rho))
    bad = np.flatnonzero(leak > 1e-9)
    if bad.size:
        where = f" at point {bad[0]}" if rho.ndim == 3 else ""
        raise ShapeError(f"matrix{where} is not X-shaped (leakage {leak[bad[0]]:.3e})", leak[bad[0]])
    a, b, c, d = (rho[..., k, k].real[()] for k in range(4))
    return XState(a=a, b=b, c=c, d=d, w=rho[..., 0, 3][()], z=rho[..., 1, 2][()])


def strip_phases(x: XState):
    """Remove the corner phases of an X-state, or of each one of a stack.

    Conjugation by diag(1, e^{i alpha}) x diag(1, e^{i beta}) multiplies
    w by e^{-i(alpha+beta)} and z by e^{i(beta-alpha)}; solving for the
    corner arguments modulo pi, in (-pi/2, pi/2], makes both real and
    signed. A corner of magnitude at most 1e-12 has phase 0: roundoff sets
    no phase.

    Returns (real XState, (alpha, beta)). Applying the inverse rotation,
    angles (-alpha, -beta), restores the original corners, those within
    the margin up to their phase.
    """
    corners = np.array([x.w, x.z], dtype=complex)
    size = cabs(corners)
    arg = np.where(size > 1e-12, mathmap(math.atan2, corners.imag, corners.real), 0.0)
    down, up = arg > math.pi / 2, arg <= -math.pi / 2
    mu, nu = np.where(down, arg - math.pi, np.where(up, arg + math.pi, arg))
    alpha = (mu + nu) / 2.0
    beta = (mu - nu) / 2.0
    real_x = XState(x.a, x.b, x.c, x.d, *np.where(down | up, -size, size).astype(complex))
    return real_x, (alpha, beta)
