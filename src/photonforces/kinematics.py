"""Single-photon transmission through a dielectric block.

A photon entering a block of refractive index n couples to the induced
atomic dipoles and propagates as a polariton quasiparticle at v = c/n.
Given a momentum convention (Abraham hbar*k0/n, Minkowski n*hbar*k0, or
an arbitrary value p), energy-momentum conservation together with the
relativistic covariance condition fixes the dipole rest mass

    delta_m = n*p/c - hbar*omega/c^2

and the recoil velocity of the block

    V_r = (hbar*omega - c*p) / (M_r * c),   M_r = M - delta_m.

The isolated photon+block system moves with a constant center-of-energy
velocity (CEV) regardless of the convention chosen; `cev_check` exposes
both the before- and after-entry expressions so callers can verify it.
While the photon crosses a block of length L, taking n*L/c, the block
drifts at V_r, so it ends displaced by V_r*n*L/c and again at rest.

The block index n may be a numpy array: `solve_transmission` and
`cev_check` then evaluate the whole index grid in one call.
"""

from typing import NamedTuple

from .constants import C, HBAR
from .errors import (
    INDEX, NONNEGATIVE, POSITIVE, FeasibilityError, at_row, first_row, require, sqrt,
)


class PhotonInput:
    """Free photon of angular frequency omega (rad/s), with its vacuum
    wavenumber k0 = omega/c (1/m) and energy hbar*omega (J)."""

    __slots__ = ("omega", "k0", "energy")

    def __init__(self, omega):
        require("omega", omega, POSITIVE)
        self.omega = omega
        self.k0 = omega / C
        self.energy = HBAR * omega


class MediumBlock:
    """Dielectric block: index n (scalar or array) and rest mass M (kg)."""

    __slots__ = ("n", "M")

    def __init__(self, n, M):
        require("n", n, INDEX)
        require("M", M, POSITIVE)
        self.n, self.M = n, M


class MomentumConvention:
    """Photon momentum convention: 'abraham', 'minkowski', or 'general'.

    For 'general' the total polariton momentum is prescribed directly
    via `p` (kg*m/s, >= 0).
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("abraham", "minkowski", "general"):
            raise ValueError(f"unknown momentum convention {kind!r}")
        if kind == "general":
            if p is None:
                raise ValueError("general convention requires an explicit p")
            require("p", p, NONNEGATIVE)
        elif p is not None:
            raise ValueError(f"{kind} convention takes no explicit p")
        self.kind, self.p = kind, p


ABRAHAM = MomentumConvention("abraham")
MINKOWSKI = MomentumConvention("minkowski")


def general(p):
    """Convention with an explicitly prescribed polariton momentum p."""
    return MomentumConvention("general", p)


class PolaritonSolution(NamedTuple):
    """Energy/momentum partition of the polariton plus block recoil.

    Energies in J, momenta in kg*m/s, masses in kg, velocities in m/s.
    `exotic` flags a prescribed-momentum solution with delta_m < 0
    (allowed while E > 0, but outside the Abraham..Minkowski range).
    """

    E: float
    E_f: float
    E_d: float
    p: float
    p_f: float
    p_d: float
    delta_m: float
    m0: float
    v: float
    M_r: float
    V_r: float
    exotic: bool = False


def solve_transmission(photon, block, conv):
    """Solve the one-photon transmission model for a momentum convention.

    Raises FeasibilityError when the dipole mass would exceed the block
    mass (M_r <= 0) or when a prescribed momentum makes the dipole
    energy fall below -hbar*omega (total polariton energy E <= 0).
    """
    n = block.n
    hw = photon.energy
    hk0 = HBAR * photon.k0

    # Analytic forms per convention avoid the catastrophic cancellation of
    # hbar*omega - c*p against the Mc^2-scale totals in the residual checks.
    p_f = hk0 / n
    if conv.kind == "abraham":
        p = p_f
        E_d = 0.0
        E = hw
        p_d = 0.0
        vr_numerator = hw * (1.0 - 1.0 / n)
    elif conv.kind == "minkowski":
        p = n * hk0
        E_d = (n * n - 1.0) * hw
        E = hw + E_d
        p_d = (n - 1.0 / n) * hk0
        vr_numerator = hw * (1.0 - n)
    else:
        p = conv.p
        # E = n*p*c; forming delta_m first would round E away from 0 at the
        # feasibility boundary p = 0
        E = n * p * C
        E_d = E - hw
        p_d = p - p_f
        vr_numerator = hw - C * p
    delta_m = E_d / C**2
    row = first_row(delta_m >= block.M)
    if row is not None:
        raise FeasibilityError(
            f"dipole mass {at_row(delta_m, row):g} kg exceeds block mass "
            f"{at_row(block.M, row):g} kg",
            row=row,
        )
    row = first_row(E <= 0)
    if row is not None:
        raise FeasibilityError(
            f"prescribed momentum p={at_row(p, row):g} gives polariton energy "
            f"{at_row(E, row):g} J <= 0",
            row=row,
        )

    M_r = block.M - delta_m
    V_r = vr_numerator / (M_r * C)
    v = C / n
    m0_sq = (E - p * C) * (E + p * C)  # E^2 - (pc)^2 without squaring first
    m0 = sqrt(m0_sq * (m0_sq > 0)) / C**2  # rounding-level negatives -> 0
    return PolaritonSolution(
        E=E,
        E_f=hw,
        E_d=E_d,
        p=p,
        p_f=p_f,
        p_d=p_d,
        delta_m=delta_m,
        m0=m0,
        v=v,
        M_r=M_r,
        V_r=V_r,
        exotic=delta_m < 0,
    )


def cev_check(photon, block, sol):
    """Center-of-energy velocity before and after photon entry.

    Returns (V_before, V_after); for a valid solution the two agree to
    near machine precision, which is equivalent to the conservation of
    momentum (numerators) and energy (denominators).
    """
    hw = photon.energy
    v_before = hw * C / (hw + block.M * C**2)
    v_after = (sol.E * sol.v + sol.M_r * C**2 * sol.V_r) / (sol.E + sol.M_r * C**2)
    return v_before, v_after


def mass_transfer_cube(delta_m, density):
    """Side length (m) of the medium cube whose mass equals delta_m."""
    require("delta_m", delta_m, POSITIVE)
    require("density", density, POSITIVE)
    return (delta_m / density) ** (1.0 / 3.0)
