"""Lossless three-layer Fabry-Perot stack: Fresnel data and photon numbers.

Normal incidence, single polarization (TE and TM coincide at theta = 0).
Interface amplitudes follow the convention r' = -r, t*t' - r*r' = 1, under
which the composite coefficients take the form

    nu2 = 1 / (1 + r1*r2*e^{2 i k2 d2}),
    R1  = (r1 + r2*e^{2 i k2 d2}) * nu2,        R2  = r2,
    T1  = t1*nu2,                               T2  = t2,
    R1' = r1',  R2' = (r2' + r1'*e^{2 i k2 d2}) * nu2,
    T1' = t1',  T2' = t2'*nu2,

and the directional photon numbers in each layer are linear in the two
input occupations <n_1+> and <n_3->, with the intracavity numbers divided
by Re[1 + 2 R1' R2 nu2 e^{2 i k2 d2}].  For a lossless stack every output
lies between the two inputs, so equal inputs are a fixed point.

Every function broadcasts over numpy arrays of omega, of the input
occupations and of the stack parameters themselves: one call evaluates a
whole grid.  The Fresnel coefficients are computed once per stack.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C, HBAR, KB
from .errors import NumericalGuardError, at_row, first_row, nonfinite

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LayerStack:
    """Three lossless layers: permittivities eps1..eps3 and cavity width d2 (m),
    each a scalar or an array.  `interfaces` holds the Fresnel coefficients
    of the interfaces n1|n2 and n2|n3, computed once per stack."""

    eps1: float
    eps2: float
    eps3: float
    d2: float
    interfaces: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("eps1", "eps2", "eps3", "d2"):
            value = getattr(self, name)
            low = value <= 0 if name == "d2" else value < 1
            row = first_row(nonfinite(value) | low)
            if row is not None:
                need = "positive" if name == "d2" else "real and >= 1"
                raise ValueError(f"{name} must be {need}, got {at_row(value, row)}")
        interfaces = fresnel(self.n1, self.n2), fresnel(self.n2, self.n3)
        object.__setattr__(self, "interfaces", interfaces)

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


@dataclass(frozen=True)
class InterfaceCoefficients:
    """Single-interface amplitudes: left incidence (r, t), right (r_p, t_p)."""

    r: float
    t: float
    r_p: float
    t_p: float


def fresnel(n_a, n_b):
    """Normal-incidence Fresnel coefficients for the interface n_a | n_b."""
    if first_row((n_a < 1) | (n_b < 1)) is not None:
        raise ValueError(f"indices must be >= 1, got {n_a}, {n_b}")
    s = n_a + n_b
    r = (n_a - n_b) / s
    return InterfaceCoefficients(r=r, t=2.0 * n_a / s, r_p=-r, t_p=2.0 * n_b / s)


@dataclass(frozen=True)
class CompositeCoefficients:
    """Composite amplitudes of the three-layer stack over omega; R2, T2, R1'
    and T1' are the real single-interface values."""

    nu2: complex
    R1: complex
    R2: complex
    T1: complex
    T2: complex
    R1p: complex
    R2p: complex
    T1p: complex
    T2p: complex
    denom: float  # Re[1 + 2 R1' R2 nu2 e^{2 i k2 d2}]


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
    """Composite reflection/transmission amplitudes and the photon-number
    denominator for the stack at angular frequency omega (rad/s)."""
    row = first_row(omega <= 0)
    if row is not None:
        raise ValueError(f"omega must be positive, got {at_row(omega, row)}")
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
    return CompositeCoefficients(
        nu2=nu2,
        R1=(i1.r + i2.r * e) * nu2,
        R2=i2.r,
        T1=i1.t * nu2,
        T2=i2.t,
        R1p=i1.r_p,
        R2p=(i2.r_p + i1.r_p * e) * nu2,
        T1p=i1.t_p,
        T2p=i2.t_p * nu2,
        denom=(1.0 + 2.0 * i1.r_p * i2.r * nu2 * e).real,
    )


@dataclass(frozen=True)
class DirectionalPhotonNumbers:
    """The six directional photon-number expectation values over omega, and
    the composite amplitudes of the stack they were computed from."""

    n1p: float
    n1m: float
    n2p: float
    n2m: float
    n3p: float
    n3m: float
    amplitudes: CompositeCoefficients


def _abs_sq(z):
    return z.real * z.real + z.imag * z.imag


def photon_numbers(stack, omega, in1, in3):
    """Directional photon numbers for inputs <n_1+> = in1, <n_3-> = in3."""
    if first_row((in1 < 0) | (in3 < 0)) is not None:
        raise ValueError(f"input photon numbers must be >= 0, got {in1}, {in3}")
    cc = composite(stack, omega)
    i1, i2 = stack.interfaces
    n1, n2, n3 = stack.n1, stack.n2, stack.n3
    # Every amplitude but R1 and R2' is a real constant times nu2.
    nu_sq = _abs_sq(cc.nu2)
    cavity = nu_sq / cc.denom
    n1m = _abs_sq(cc.R1) * in1 + (n1 / n3) * (i1.t_p * i2.t_p) ** 2 * in3 * nu_sq
    n2p = (
        (n2 / n1) * i1.t**2 * in1 + (n2 / n3) * (i2.t_p * i1.r_p) ** 2 * in3
    ) * cavity
    n2m = (
        (n2 / n1) * (i1.t * i2.r) ** 2 * in1 + (n2 / n3) * i2.t_p**2 * in3
    ) * cavity
    n3p = (n3 / n1) * (i1.t * i2.t) ** 2 * in1 * nu_sq + _abs_sq(cc.R2p) * in3
    return DirectionalPhotonNumbers(
        n1p=in1, n1m=n1m, n2p=n2p, n2m=n2m, n3p=n3p, n3m=in3, amplitudes=cc
    )


def total_photon_number(n_plus, n_minus):
    """Total photon number of a homogeneous lossless layer: the equal-weight
    average of the two directional values."""
    if first_row((n_plus < 0) | (n_minus < 0)) is not None:
        raise ValueError(f"photon numbers must be >= 0, got {n_plus}, {n_minus}")
    return 0.5 * (n_plus + n_minus)


def bose_einstein(omega, T):
    """Thermal occupation 1/(e^{hbar*omega/kB*T} - 1), stable at both ends."""
    row = first_row(omega <= 0)
    if row is not None:
        raise ValueError(f"omega must be positive, got {at_row(omega, row)}")
    if T < 0:
        raise ValueError(f"temperature must be >= 0, got {T}")
    if T == 0:
        return 0.0 * omega
    x = HBAR * omega / (KB * T)
    # e^-x / (1 - e^-x) cannot overflow; x > 700 is cut to 0 and x < 1e-8
    # takes the Rayleigh-Jeans form 1/x
    n = (x <= 700.0) * np.exp(-x) / -np.expm1(-x)
    if first_row(x < 1e-8) is not None:
        n = np.where(x < 1e-8, 1.0 / x, n)[()]
    return _plain(n)


def occupation(omega, fixed=None, temperature=None):
    """Input occupation of one side over omega: the `fixed` value if given,
    else the Bose-Einstein occupation at `temperature` (K) if given, else 0."""
    if fixed is not None:
        return fixed
    if temperature is not None:
        return bose_einstein(omega, temperature)
    return 0.0
