"""Electromagnetic pressures and Casimir-type forces on the three-layer stack.

The spectral force density is the sum of three terms: zero-point (ZCF),
thermal (TCF), and nonequilibrium (NCF) Casimir forces,

    <F_x>_w = -(hbar*w/2) d(rho)/dx - hbar*w (d(rho)/dx) <n>
              - hbar*w rho d<n>/dx,

with rho the 1D electromagnetic LDOS and <n> the local total photon
number: the layer totals of the stack's `photon_numbers` record, which
also carries the |R1|^2 of the beam law.  In a lossless stack both
profiles are piecewise constant, so the derivatives collapse into impulses
at the two interfaces; evaluating rho and <n> "at" a jump as the two-sided
arithmetic mean makes the impulse sum identical to the pressure-difference
route

    <F>_w = S * [P(x1) - P(x2)],   P = hbar*w*rho*(<n> + 1/2).

Conventions fixed here (they cancel from every reported ratio):
  * LDOS rho = n * rho0 with rho0 = 1/(pi*c)  (1D, both directions);
  * layer total photon number = average of the two directional values.
Under these conventions the measured anti-reflective interface-force
constant kappa is 1/2 rather than 1; see ar_interface_forces.

Every function broadcasts: pass numpy arrays of omega or of the stack
parameters (and the photon numbers computed over them) to evaluate a whole
grid in one call.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cavity import occupation, photon_numbers, total_photon_number
from .constants import C, HBAR
from .errors import INDEX, NONNEGATIVE, POSITIVE, NumericalGuardError, at_row, first_row, require

#: Vacuum 1D LDOS, states per unit length per unit angular frequency.
RHO0 = 1.0 / (math.pi * C)


def _rho(stack, rho0):
    return stack.n1 * rho0, stack.n2 * rho0, stack.n3 * rho0


def pressure(rho, n_total, omega):
    """Spectral electromagnetic pressure hbar*omega*rho*(n_total + 1/2)."""
    if first_row((rho < 0) | (n_total < 0) | (omega < 0)) is not None:
        raise ValueError("pressure inputs must be nonnegative")
    return HBAR * omega * rho * (n_total + 0.5)


@dataclass(frozen=True)
class InterfaceImpulses:
    """ZCF/TCF/NCF force-per-area impulses at one interface (N/(m^2 rad/s))."""

    zcf: float
    tcf: float
    ncf: float

    @property
    def total(self):
        return self.zcf + self.tcf + self.ncf


def force_density_decomposition(stack, omega, numbers, rho0=RHO0):
    """ZCF/TCF/NCF impulses at the two interfaces of the stack.

    Jumps are (right - left); rho and <n> at a jump are the two-sided
    arithmetic means, which makes S * sum(impulses) equal the
    pressure-difference net force identically.
    """
    rho1, rho2, rho3 = _rho(stack, rho0)
    n1t, n2t, n3t = numbers.totals
    out = []
    for rho_l, rho_r, n_l, n_r in ((rho1, rho2, n1t, n2t), (rho2, rho3, n2t, n3t)):
        d_rho = rho_r - rho_l
        d_n = n_r - n_l
        rho_mean = 0.5 * (rho_l + rho_r)
        n_mean = 0.5 * (n_l + n_r)
        out.append(
            InterfaceImpulses(
                zcf=-0.5 * HBAR * omega * d_rho,
                tcf=-HBAR * omega * d_rho * n_mean,
                ncf=-HBAR * omega * rho_mean * d_n,
            )
        )
    return tuple(out)


def net_force_pressure(stack, omega, numbers, x1, x2, S, rho0=RHO0):
    """Net spectral force on the stack from the pressure difference
    S * [P(x1) - P(x2)], with x1 in layer 1 (x < 0) and x2 in layer 3
    (x > d2).  Warns when eps1 != eps3 (zero-point parts no longer cancel)."""
    if x1 >= 0.0:
        raise ValueError(f"x1 must lie in layer 1 (x < 0), got {x1}")
    if first_row(x2 <= stack.d2) is not None:
        raise ValueError(f"x2 must lie in layer 3 (x > d2), got {x2}")
    require("S", S, POSITIVE)
    if first_row(stack.eps1 != stack.eps3) is not None:
        warnings.warn(
            "eps1 != eps3: zero-point pressures do not cancel; the net force "
            "includes a static Casimir-like offset",
            stacklevel=2,
        )
    rho1, _, rho3 = _rho(stack, rho0)
    n1t, _, n3t = numbers.totals
    p1 = pressure(rho1, n1t, omega)
    p3 = pressure(rho3, n3t, omega)
    return S * (p1 - p3)


def reflector_force(omega, in1, S, rho0=RHO0):
    """Spectral force of a beam of occupation in1 on a perfect reflector in
    vacuum: the F0 that normalizes all force ratios."""
    # Perfect reflector: n1- = n1+ = in1 in front, nothing behind; the
    # zero-point terms cancel between the two vacuum half-spaces.
    return S * HBAR * omega * rho0 * in1


def total_force_beam(stack, omega, in1, S, rho0=RHO0):
    """Force of a beam (occupation in1 from the left, nothing from the right)
    on the stack, and the dimensionless ratio to F0 (see beam_ratio)."""
    if first_row(stack.eps1 != stack.eps3) is not None:
        raise ValueError("total_force_beam requires eps1 == eps3")
    require("in1", in1, POSITIVE)
    ratio = beam_ratio(photon_numbers(stack, omega, in1, 0.0))
    return ratio * reflector_force(omega, in1, S, rho0), ratio


def beam_ratio(numbers):
    """F/F0 of a beam on a stack with eps1 == eps3, from its photon numbers
    (no input from the right).

    Evaluates (<n1> - <n3>)/<n1+> and checks it against |R1|^2; a relative
    disagreement above 1e-12 trips a numerical guard.
    """
    n1t, _, n3t = numbers.totals
    ratio = (n1t - n3t) / numbers.n1p
    r1_sq = numbers.R1_sq
    row = first_row(abs(ratio - r1_sq) > 1e-12 * np.maximum(1.0, r1_sq))
    if row is not None:
        raise NumericalGuardError(
            f"force ratio {at_row(ratio, row)!r} disagrees with "
            f"|R1|^2 = {at_row(r1_sq, row)!r}",
            row=row,
        )
    return ratio


def ar_interface_forces(n, omega, in1, S, rho0=RHO0):
    """Interface forces F1, F2 for a slab of index n with ideal anti-reflective
    coatings, and the measured constant kappa with F1 = kappa*(1-n)*F0.

    Reflections are zeroed and the transmitted photon number is fixed by
    power conservation (|t|^2 = 1/n entering, n leaving), so every layer
    carries forward occupation in1 and zero backward.  Only the
    beam-induced (thermal + nonequilibrium) part enters F1 and F2; the
    zero-point impulses form a static background that cancels between the
    two interfaces and is excluded from the beam force.  Under this
    module's LDOS and averaging conventions kappa = 1/2.
    """
    require("n", n, INDEX)
    require("omega", omega, POSITIVE)
    require("in1", in1, NONNEGATIVE)
    require("S", S, POSITIVE)
    n_tot = total_photon_number(in1, 0.0)  # same in all three regions
    rho_vac = rho0
    rho_slab = n * rho0
    # Beam part of the interface impulse: -hbar*w * Delta(rho * n_tot).
    f1 = -S * HBAR * omega * (rho_slab - rho_vac) * n_tot
    f2 = -S * HBAR * omega * (rho_vac - rho_slab) * n_tot
    f0 = reflector_force(omega, in1, S, rho0)
    undefined = (n == 1) | (in1 == 0)  # kappa is 0/0 there: NaN
    kappa = f1 / ((1.0 - n) * f0 + undefined)
    if first_row(undefined) is not None:
        kappa = np.where(undefined, np.nan, kappa)[()]
    return f1, f2, kappa


@dataclass(frozen=True)
class ThermalScenario:
    """Spectral-integration scenario: left/right inputs, omega grid, area.

    Each side is either a temperature (occupation from the Bose-Einstein
    distribution at every grid frequency) or a fixed occupation applied
    uniformly across the grid.
    """

    omega_grid: np.ndarray
    area: float
    t_left: float | None = None
    t_right: float | None = None
    occ_left: float | None = None
    occ_right: float | None = None

    def __post_init__(self):
        grid = np.asarray(self.omega_grid, dtype=float)
        if grid.size == 0:
            raise ValueError("omega grid must not be empty")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("omega grid must be strictly increasing")
        require("area", self.area, POSITIVE)
        for side, temp, occ in (
            ("left", self.t_left, self.occ_left),
            ("right", self.t_right, self.occ_right),
        ):
            if (temp is None) == (occ is None):
                raise ValueError(f"{side} side needs exactly one of temperature or occupation")
        object.__setattr__(self, "omega_grid", grid)


def integrate_spectrum(scenario, stack, quantity="net_force", rho0=RHO0):
    """Trapezoidal integral of a spectral quantity over the scenario grid.

    quantity: 'net_force' (pressure-difference route) or 'interface_force'
    (sum of ZCF+TCF+NCF impulses times area) -- the two agree to rounding.
    A single-point grid returns the spectral value itself.
    """
    if quantity not in ("net_force", "interface_force"):
        raise ValueError(f"unknown spectral quantity {quantity!r}")
    grid = scenario.omega_grid
    in1 = occupation(grid, scenario.occ_left, scenario.t_left)
    in3 = occupation(grid, scenario.occ_right, scenario.t_right)
    numbers = photon_numbers(stack, grid, in1, in3)
    if quantity == "net_force":
        values = net_force_pressure(
            stack, grid, numbers, -1.0, math.inf, scenario.area, rho0
        )
    else:
        imp1, imp2 = force_density_decomposition(stack, grid, numbers, rho0)
        values = scenario.area * (imp1.total + imp2.total)
    if values.size == 1:
        return float(values[0])
    return float(np.trapezoid(values, grid))
