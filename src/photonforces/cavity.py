"""Lossless three-layer Fabry-Perot stack: Fresnel data and photon numbers.

Normal incidence, single polarization (TE and TM coincide at theta = 0).
Interface amplitudes follow the convention r' = -r, t*t' - r*r' = 1, under
which the composite coefficients take the form

    nu2 = 1 / (1 + r1*r2*e^{2 i k2 d2}),
    R1  = (r1 + r2*e^{2 i k2 d2}) * nu2,
    T1  = t1*nu2,   T2 = t2,

and the directional photon numbers in each layer are linear in the two
input occupations <n_1+> and <n_3->.  `photon_numbers` evaluates the stack
once into the real record that every force term reads: these numbers,
|R1|^2, (n3/n1)|T1 T2|^2 and the layer totals.  The intracavity numbers
carry no phase: |nu2|^2 / Re[1 + 2 R1' R2 nu2 e^{2 i k2 d2}] is exactly
1 / (1 - r1^2 r2^2), a per-stack constant computed in a cancellation-free
product form.  For a lossless stack every output lies between the two
inputs, so equal inputs are a fixed point.

Every function broadcasts over numpy arrays of omega, of the input
occupations and of the stack parameters themselves: one call evaluates a
whole grid.  The Fresnel coefficients are computed once per stack.
"""

import math
from typing import NamedTuple

import numpy as np

from .constants import C, HBAR, KB
from .errors import INDEX, NONNEGATIVE, POSITIVE, NumericalGuardError, at_row, first_row, require

_TWO_PI = 2.0 * math.pi


class LayerStack:
    """Three lossless layers: permittivities eps1..eps3 and cavity width d2 (m),
    each a scalar or an array.  `interfaces` holds the Fresnel coefficients
    of the interfaces n1|n2 and n2|n3, and `intracavity` the factor
    1 / (1 - r1^2 r2^2) of the intracavity photon numbers; both are computed
    once per stack."""

    __slots__ = ("eps1", "eps2", "eps3", "d2", "interfaces", "intracavity")

    def __init__(self, eps1, eps2, eps3, d2):
        self.eps1, self.eps2, self.eps3, self.d2 = eps1, eps2, eps3, d2
        for name in ("eps1", "eps2", "eps3", "d2"):
            require(name, getattr(self, name), POSITIVE if name == "d2" else INDEX)
        n1, n2, n3 = self.n1, self.n2, self.n3
        self.interfaces = fresnel(n1, n2), fresnel(n2, n3)
        # 1 - r1^2 r2^2 = (1 - r1 r2)(1 + r1 r2), each factor expanded over
        # the indices so that strong mirrors (r1 r2 -> -1) lose no digits
        outer = (n1 + n2) * (n2 + n3)
        gap = 4.0 * n2 * (n1 * n3 + n2 * n2) * (n1 + n3)
        self.intracavity = outer * outer / gap

    @property
    def n1(self):
        return self.eps1**0.5

    @property
    def n2(self):
        return self.eps2**0.5

    @property
    def n3(self):
        return self.eps3**0.5

    def k2(self, omega):
        """Wavenumber inside the cavity layer, n2*omega/c (1/m)."""
        return self.n2 * omega / C


class InterfaceCoefficients(NamedTuple):
    """Single-interface amplitudes: left incidence (r, t), right (r_p, t_p)."""

    r: float
    t: float
    r_p: float
    t_p: float


def fresnel(n_a, n_b):
    """Normal-incidence Fresnel coefficients for the interface n_a | n_b."""
    require("n_a", n_a, INDEX)
    require("n_b", n_b, INDEX)
    s = n_a + n_b
    r = (n_a - n_b) / s
    return InterfaceCoefficients(r=r, t=2.0 * n_a / s, r_p=-r, t_p=2.0 * n_b / s)


class CompositeCoefficients(NamedTuple):
    """Composite amplitudes of the three-layer stack over omega; T2 is the
    real single-interface value."""

    nu2: complex
    R1: complex
    T1: complex
    T2: complex


def _phase_factor(stack, omega):
    # Reduce 2*k2*d2 to [-pi, pi] before exponentiating to limit
    # argument-reduction error for optically thick cavities.  The phase is
    # positive, so % is an exact fmod, and the shift by 2*pi is exact too
    # (Sterbenz).
    phase = 2.0 * stack.k2(omega) * stack.d2 % _TWO_PI
    phase = phase - _TWO_PI * (phase > math.pi)
    return _plain(np.exp(1j * phase))


def _plain(x):
    """A scalar result as a Python number, arrays as they are: arithmetic on
    numpy scalars costs several times more, which one-point grids feel."""
    return x if isinstance(x, np.ndarray) else x.item()


def composite(stack, omega):
    """Composite reflection/transmission amplitudes of the stack at angular
    frequency omega (rad/s)."""
    require("omega", omega, POSITIVE)
    i1, i2 = stack.interfaces
    e = _phase_factor(stack, omega)
    base = 1.0 + i1.r * i2.r * e
    row = first_row(_abs_sq(base) < 1e-28)  # |base| < 1e-14
    if row is not None:
        raise NumericalGuardError(
            "degenerate resonance: |1 + r1 r2 e^(2 i k2 d2)| = "
            f"{abs(at_row(base, row)):g}",
            row=row,
        )
    nu2 = 1.0 / base
    return CompositeCoefficients(nu2=nu2, R1=(i1.r + i2.r * e) * nu2, T1=i1.t * nu2, T2=i2.t)


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
    i1, i2 = stack.interfaces
    n1, n2, n3 = stack.n1, stack.n2, stack.n3
    # Every transmitted amplitude is a real constant times nu2, and a
    # lossless stack is reciprocal: |R2'|^2 = |R1|^2 and
    # (n1/n3)(t1' t2')^2 = (n3/n1)(t1 t2)^2.
    r1_sq = _abs_sq(cc.R1)
    t_sq = (n3 / n1) * (i1.t * i2.t) ** 2 * _abs_sq(cc.nu2)
    n1m = r1_sq * in1 + t_sq * in3
    n2p = (
        (n2 / n1) * i1.t**2 * in1 + (n2 / n3) * (i2.t_p * i1.r_p) ** 2 * in3
    ) * stack.intracavity
    n2m = (
        (n2 / n1) * (i1.t * i2.r) ** 2 * in1 + (n2 / n3) * i2.t_p**2 * in3
    ) * stack.intracavity
    n3p = t_sq * in1 + r1_sq * in3
    totals = (total_photon_number(in1, n1m), total_photon_number(n2p, n2m),
              total_photon_number(n3p, in3))
    return DirectionalPhotonNumbers(n1p=in1, n1m=n1m, n2p=n2p, n2m=n2m, n3p=n3p, n3m=in3,
                                    R1_sq=r1_sq, T_sq=t_sq, totals=totals)


def total_photon_number(n_plus, n_minus):
    """Total photon number of a homogeneous lossless layer: the equal-weight
    average of the two directional values."""
    if first_row((n_plus < 0) | (n_minus < 0)) is not None:
        raise ValueError(f"photon numbers must be >= 0, got {n_plus}, {n_minus}")
    return 0.5 * (n_plus + n_minus)


def bose_einstein(omega, T):
    """Thermal occupation 1/(e^{hbar*omega/kB*T} - 1), stable at both ends."""
    require("omega", omega, POSITIVE)
    require("T", T, NONNEGATIVE)
    # rows where kB*T is 0 (T = 0 or underflow) divide by 1 and are moved past
    # the cut at 700, so that they give 0 however small omega is
    kt = KB * T
    x = HBAR * omega / (kt + (kt == 0)) + 701.0 * (kt == 0)
    # x > 700 is cut to 0, and x < 1e-8 takes the Rayleigh-Jeans form 1/x: inf,
    # with numpy's RuntimeWarning, for a float or an array where x < 5.6e-309
    n = (x <= 700.0) * np.exp(-x) / -np.expm1(-x)
    if first_row(x < 1e-8) is not None:
        n = np.where(x < 1e-8, np.divide(1.0, x), n)[()]
    return _plain(n)

