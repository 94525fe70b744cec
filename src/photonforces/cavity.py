"""Lossless three-layer Fabry-Perot stack: interface amplitudes and photon numbers.

Normal incidence, single polarization (TE and TM coincide at theta = 0).
Interface amplitudes follow the convention r' = -r, t*t' - r*r' = 1, under
which the composite coefficients take the form

    nu2 = 1 / (1 + r1*r2*e^{2 i k2 d2}),
    R1  = (r1 + r2*e^{2 i k2 d2}) * nu2,
    T1  = t1*nu2,   T2 = t2,   k2 = n2*omega/c,

and the directional photon numbers in each layer are linear in the two
input occupations <n_1+> and <n_3->.  `photon_numbers` evaluates the stack
once into the real record that every force term reads: these numbers,
|R1|^2, (n3/n1)|T1 T2|^2 and the layer totals <n> = (<n+> + <n->)/2.  The
intracavity numbers carry no phase: |nu2|^2 / Re[1 + 2 R1' R2 nu2
e^{2 i k2 d2}] is exactly 1 / (1 - r1^2 r2^2), a per-stack constant
computed in a cancellation-free product form.  For a lossless stack every
output lies between the two inputs, so equal inputs are a fixed point.

Every function broadcasts over numpy arrays of omega, of the input
occupations and of the stack parameters themselves: one call evaluates a
whole grid.  `LayerStack` computes the left-incidence interface amplitudes
r1, t1, r2, t2 once per stack; `photon_numbers` forms the one
right-incidence amplitude it needs, t2'.
"""

import math
from typing import NamedTuple

import numpy as np

from .constants import C, HBAR, KB
from .errors import (
    FINITE, INDEX, NONNEGATIVE, POSITIVE, NumericalGuardError, at_row, first_row, require, sqrt,
)

_TWO_PI = 2.0 * math.pi


class LayerStack:
    """Three lossless layers: permittivities eps1..eps3 and cavity width d2 (m),
    each a scalar or an array, and the refractive indices n1..n3 = sqrt(eps)
    (dimensionless).  r1, t1 and r2, t2 are the left-incidence Fresnel
    amplitudes r = (n_a - n_b) / (n_a + n_b), t = 2 n_a / (n_a + n_b) of the
    interfaces n1|n2 and n2|n3, and `intracavity` the factor
    1 / (1 - r1^2 r2^2) of the intracavity photon numbers; all are computed
    once per stack."""

    __slots__ = ("eps1", "eps2", "eps3", "d2", "n1", "n2", "n3", "r1", "r2", "t1", "t2",
                 "intracavity")

    def __init__(self, eps1, eps2, eps3, d2):
        self.eps1, self.eps2, self.eps3, self.d2 = eps1, eps2, eps3, d2
        for name in ("eps1", "eps2", "eps3", "d2"):
            require(name, getattr(self, name), POSITIVE if name == "d2" else INDEX)
        n1, n2, n3 = sqrt(eps1), sqrt(eps2), sqrt(eps3)
        self.n1, self.n2, self.n3 = n1, n2, n3
        s1, s2 = n1 + n2, n2 + n3
        self.r1, self.t1 = (n1 - n2) / s1, 2.0 * n1 / s1
        self.r2, self.t2 = (n2 - n3) / s2, 2.0 * n2 / s2
        # 1 - r1^2 r2^2 = (1 - r1 r2)(1 + r1 r2), each factor expanded over
        # the index ratios a = n1/n2 and b = n3/n2, so that strong mirrors
        # (r1 r2 -> -1) lose no digits: 1/(1 - r1^2 r2^2) is
        # ((1 + a)(1 + b))^2 / (4 (1 + a b)(a + b)).  Every term is positive,
        # and as n <= sqrt(max float) no product overflows: (1 + a)(1 + b)
        # and a b are at most that root squared, which is finite, and each
        # quotient is at most the result, about max(a, b, 1/a, 1/b) / 4
        a, b = n1 / n2, n3 / n2
        outer = (1.0 + a) * (1.0 + b)
        self.intracavity = (outer / (1.0 + a * b)) * (outer / (4.0 * (a + b)))


class CompositeCoefficients(NamedTuple):
    """Composite amplitudes of the three-layer stack over omega; T2 is the
    real single-interface value."""

    nu2: complex
    R1: complex
    T1: complex
    T2: complex


def _phase_factor(stack, omega):
    phase = 2.0 * (stack.n2 * omega / C) * stack.d2
    require("round-trip phase 2 k2 d2", phase, FINITE, NumericalGuardError)
    # Reduce the phase to [-pi, pi] before exponentiating to limit
    # argument-reduction error for optically thick cavities.  The phase is
    # positive, so % is an exact fmod, and the shift by 2*pi is exact too
    # (Sterbenz).
    phase = phase % _TWO_PI
    phase = phase - _TWO_PI * (phase > math.pi)
    return _plain(np.exp(1j * phase))


def _plain(x):
    """A scalar result as a Python number, arrays as they are: arithmetic on
    numpy scalars costs several times more, which one-point grids feel."""
    return x if isinstance(x, np.ndarray) else x.item()


def composite(stack, omega):
    """Composite reflection/transmission amplitudes of the stack at angular
    frequency omega (rad/s), from its interface amplitudes r1, r2, t1, t2.
    A round-trip phase 2 k2 d2 that overflows and a degenerate resonance are
    guard errors that carry their row."""
    require("omega", omega, POSITIVE)
    e = _phase_factor(stack, omega)
    base = 1.0 + stack.r1 * stack.r2 * e
    row = first_row(_abs_sq(base) < 1e-28)  # |base| < 1e-14
    if row is not None:
        raise NumericalGuardError(
            "degenerate resonance: |1 + r1 r2 e^(2 i k2 d2)| = "
            f"{abs(at_row(base, row)):g}",
            row=row,
        )
    nu2 = 1.0 / base
    return CompositeCoefficients(nu2=nu2, R1=(stack.r1 + stack.r2 * e) * nu2, T1=stack.t1 * nu2,
                                 T2=stack.t2)


class DirectionalPhotonNumbers(NamedTuple):
    """A stack's photon-number record over omega: the six directional values,
    R1_sq = |R1|^2, T_sq = (n3/n1)|T1 T2|^2 and the layer totals <n1..3>."""

    n1p: float
    n1m: float
    n2p: float
    n2m: float
    n3p: float
    n3m: float
    R1_sq: float
    T_sq: float
    totals: tuple


def _abs_sq(z):
    return z.real * z.real + z.imag * z.imag


def photon_numbers(stack, omega, in1, in3):
    """Photon-number record for inputs <n_1+> = in1, <n_3-> = in3."""
    require("in1", in1, NONNEGATIVE)
    require("in3", in3, NONNEGATIVE)
    cc = composite(stack, omega)
    n1, n2, n3 = stack.n1, stack.n2, stack.n3
    r1, r2, t1, t2 = stack.r1, stack.r2, stack.t1, stack.t2
    # Every transmitted amplitude is a real constant times nu2, and a
    # lossless stack is reciprocal: |R2'|^2 = |R1|^2 and
    # (n1/n3)(t1' t2')^2 = (n3/n1)(t1 t2)^2.  The right-incidence
    # amplitudes r1' = -r1 and t2' enter squared.
    t2_p = 2.0 * n3 / (n2 + n3)
    r1_sq, nu2_sq = _abs_sq(cc.R1), _abs_sq(cc.nu2)
    del cc  # its three complex arrays, before the numbers are formed
    t_sq = (n3 / n1) * (t1 * t2) ** 2 * nu2_sq
    n1m = r1_sq * in1 + t_sq * in3
    n2p = ((n2 / n1) * t1**2 * in1 + (n2 / n3) * (t2_p * r1) ** 2 * in3) * stack.intracavity
    n2m = ((n2 / n1) * (t1 * r2) ** 2 * in1 + (n2 / n3) * t2_p**2 * in3) * stack.intracavity
    n3p = t_sq * in1 + r1_sq * in3
    totals = 0.5 * (in1 + n1m), 0.5 * (n2p + n2m), 0.5 * (n3p + in3)
    return DirectionalPhotonNumbers(n1p=in1, n1m=n1m, n2p=n2p, n2m=n2m, n3p=n3p, n3m=in3,
                                    R1_sq=r1_sq, T_sq=t_sq, totals=totals)


def bose_einstein(omega, T):
    """Thermal occupation 1/(e^{hbar*omega/kB*T} - 1), stable at both ends."""
    require("omega", omega, POSITIVE)
    require("T", T, NONNEGATIVE)
    # rows where kB*T is 0 (T = 0 or underflow) divide by 1 and are moved past
    # the cut at 700, so that they give 0 however small omega is
    kt = KB * T
    x = HBAR * omega / (kt + (kt == 0)) + 701.0 * (kt == 0)
    # x > 700 is cut to 0; -expm1(-x) keeps full precision however small x is,
    # and gives inf, with numpy's RuntimeWarning, where 1/x overflows (x < 5.6e-309)
    return _plain((x <= 700.0) * np.exp(-x) / -np.expm1(-x))

