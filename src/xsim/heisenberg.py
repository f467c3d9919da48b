"""Two-spin XYZ exchange dynamics with an inhomogeneous z-field.

The Hamiltonian, in units with hbar = 1 and the computational basis
(|00>, |01>, |10>, |11>),

    H = [[Jz/2 + B,  0,         0,        Jk],
         [0,         -Jz/2 + b, J,        0 ],
         [0,         J,         -Jz/2 - b, 0],
         [Jk,        0,         0,        Jz/2 - B]]

with J = (Jx+Jy)/2 and Jk = (Jx-Jy)/2; a config's anisotropy kappa gives
Jk = J kappa. ``HeisenbergParams`` stores these entries, (J, Jk, Jz, B, b),
and nothing else. The local z-fields on the two sites are (B+b)/2 and
(B-b)/2, so B is their sum and b their difference. H
commutes with sz x sz, so the even span{|00>, |11>} and odd span{|01>, |10>}
parity sectors evolve independently. Writing xi = sqrt(B^2 + (Jk)^2) and
eta = sqrt(b^2 + J^2), the energies are Jz/2 +/- xi and -Jz/2 +/- eta, and
the propagator factors into two 2x2 rotors

    u = cos(xi t) - i (B/xi) sin(xi t),    c = -i (Jk/xi) sin(xi t)

on the even pair (primed analogs with (b, J, eta) on the odd pair), the even
block carrying phase e^{-i Jz t/2} and the odd block e^{+i Jz t/2}. A rotor
takes cos and sin of one phase x = xi t, and sin(xi t)/xi as t sin(x)/x, so
xi = 0 and eta = 0 are exact, not special cases.

Every quantity of the dynamics has one closed form built on these rotors.
``evolve_diagonal`` evolves any state diagonal in the computational basis
into an X-state, at a whole array of times in one pass; a population
imbalance inside one sector is the case with the other sector empty, and
``xstate.concurrence_x`` of the result is its concurrence.
``propagator_x_params`` is the one closed form of U(t): it places U(t) in
the X-shaped unitary family, which ``circuits.decompose_x_unitary``
compiles into a two-qubit circuit. The energies are read off
``HeisenbergParams.xi`` and ``eta``. H itself and its matrix exponential
are test references (``tests/oracles.py``).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .circuits import XUnitaryParams
from .errors import ContractError
from .xstate import XState


class HeisenbergParams(NamedTuple):
    """Exchange couplings J = (Jx+Jy)/2 and Jk = (Jx-Jy)/2, Jz, and the
    z-field parameters: the entries of H as written above."""

    J: float
    Jk: float
    Jz: float
    B: float = 0.0
    b: float = 0.0

    @property
    def xi(self) -> float:
        return math.hypot(self.B, self.Jk)

    @property
    def eta(self) -> float:
        return math.hypot(self.b, self.J)


def _rotor(delta: float, coupling: float, ts) -> tuple:
    """(u, c) of the block propagator exp(-i t [[delta, coupling], [coupling, -delta]])
    at each time of ``ts``, as complex arrays of its shape."""
    r = math.hypot(delta, coupling)
    # cos and sin of one phase x = r t; sin(r t) / r is t sin(x) / x, and
    # x = 0 (-0.0 included, or an r t that underflows) takes the epsilon
    x = r * ts
    x = np.where(x == 0.0, sys.float_info.epsilon, x)
    sin_over_r = ts * (np.sin(x) / x)
    uc = np.zeros((2,) + np.shape(ts), dtype=complex)
    uc.real[0], uc.imag = np.cos(x), (-delta * sin_over_r, -coupling * sin_over_r)
    return uc[0, ...], uc[1, ...]


def evolve_diagonal(p: HeisenbergParams, populations, ts) -> XState:
    """Evolve a computational-basis-diagonal state diag(n00, n01, n10, n11)
    to each time of ``ts``, as an XState stack of its shape.

    Both sectors run at once; the result is the X-state with corners
    w = (n11 - n00) u c and z = (n10 - n01) u' c'.
    """
    n00, n01, n10, n11 = (float(v) for v in populations)
    if min(n00, n01, n10, n11) < -1e-12 or abs(n00 + n01 + n10 + n11 - 1.0) > 1e-9:
        raise ContractError("populations must be a probability vector")
    u, c = _rotor(p.B, p.Jk, ts)
    up, cp = _rotor(p.b, p.J, ts)
    m = np.array([u, c, up, cp])
    uu, cc, uup, ccp = m.real * m.real + m.imag * m.imag
    return XState(
        a=n00 * uu + n11 * cc,
        b=n01 * uup + n10 * ccp,
        c=n01 * ccp + n10 * uup,
        d=n00 * cc + n11 * uu,
        w=(n11 - n00) * u * c,
        z=(n10 - n01) * up * cp,
    )


def propagator_x_params(p: HeisenbergParams, t: float) -> XUnitaryParams:
    """Parameters placing U(t) inside the X-shaped special-unitary family.

    Exact for arbitrary field values, not only the zero-field case: with
    (u, c) and (u', c') the two sector rotors,

        x = Jz t, t1 = atan2(|c|, |u|), t2 = atan2(|u'|, |c'|),
        a1 = 2 arg u, b1 = 2 arg c - 2 pi,
        a2 = 2 arg u' + pi, b2 = 2 arg c' - pi.
    """
    u, c = _rotor(p.B, p.Jk, t)
    up, cp = _rotor(p.b, p.J, t)
    return XUnitaryParams(
        a1=2.0 * math.atan2(u.imag, u.real),
        b1=2.0 * math.atan2(c.imag, c.real) - 2.0 * math.pi,
        a2=2.0 * math.atan2(up.imag, up.real) + math.pi,
        b2=2.0 * math.atan2(cp.imag, cp.real) - math.pi,
        x=p.Jz * t,
        t1=math.atan2(abs(c), abs(u)),
        t2=math.atan2(abs(up), abs(cp)),
    )
