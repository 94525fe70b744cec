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
  * LDOS rho = n * RHO0, RHO0 = 1/(pi*c) (1D, both directions), read per call;
  * layer total photon number = average of the two directional values.
Under these conventions the measured anti-reflective interface-force
constant kappa is 1/2 rather than 1; see ar_interface_forces.

Every function broadcasts: pass numpy arrays of omega or of the stack
parameters (and the photon numbers computed over them) to evaluate a whole
grid in one call.  The functions here are spectral (per rad/s); the force
integrated over a frequency grid is the trapezoid of the CLI force table's
net_pressure and net_impulse columns, which the `force` command records in
its JSON metadata.  The CLI's pressure route is the private core of
net_force_pressure: no positions (P is uniform in each outer layer), no
check of S and no warning.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np

from .cavity import photon_numbers, total_photon_number
from .constants import C, HBAR
from .errors import INDEX, NONNEGATIVE, POSITIVE, NumericalGuardError, at_row, first_row, require

#: Vacuum 1D LDOS, states per unit length per unit angular frequency.
RHO0 = 1.0 / (math.pi * C)


def _rho(stack):
    return stack.n1 * RHO0, stack.n2 * RHO0, stack.n3 * RHO0


def pressure(rho, n_total, omega):
    """Spectral electromagnetic pressure hbar*omega*rho*(n_total + 1/2)."""
    if first_row((rho < 0) | (n_total < 0) | (omega < 0)) is not None:
        raise ValueError("pressure inputs must be nonnegative")
    return HBAR * omega * rho * (n_total + 0.5)


class InterfaceImpulses(NamedTuple):
    """ZCF/TCF/NCF force-per-area impulses at one interface (N/(m^2 rad/s))."""

    zcf: float
    tcf: float
    ncf: float

    @property
    def total(self):
        return self.zcf + self.tcf + self.ncf


def force_density_decomposition(stack, omega, numbers):
    """ZCF/TCF/NCF impulses at the two interfaces of the stack.

    Jumps are (right - left); rho and <n> at a jump are the two-sided
    arithmetic means, which makes S * sum(impulses) equal the
    pressure-difference net force identically.
    """
    rho1, rho2, rho3 = _rho(stack)
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


def net_force_pressure(stack, omega, numbers, x1, x2, S):
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
    return _net_pressure(stack, omega, numbers, S)


def _net_pressure(stack, omega, numbers, S):
    """S * [P(x1) - P(x2)], unchecked and silent (see the module docstring)."""
    rho1, _, rho3 = _rho(stack)
    n1t, _, n3t = numbers.totals
    return S * (pressure(rho1, n1t, omega) - pressure(rho3, n3t, omega))


def reflector_force(omega, in1, S):
    """Spectral force of a beam of occupation in1 on a perfect reflector in
    vacuum: the F0 that normalizes all force ratios."""
    # Perfect reflector: n1- = n1+ = in1 in front, nothing behind; the
    # zero-point terms cancel between the two vacuum half-spaces.
    return S * HBAR * omega * RHO0 * in1


def total_force_beam(stack, omega, in1, S):
    """Force of a beam (occupation in1 from the left, nothing from the right)
    on the stack, and the dimensionless ratio to F0 (see beam_ratio)."""
    if first_row(stack.eps1 != stack.eps3) is not None:
        raise ValueError("total_force_beam requires eps1 == eps3")
    require("in1", in1, POSITIVE)
    ratio = beam_ratio(photon_numbers(stack, omega, in1, 0.0))
    return ratio * reflector_force(omega, in1, S), ratio


def beam_ratio(numbers):
    """F/F0 of a beam on a stack with eps1 == eps3, from its photon numbers
    (no input from the right): the record's |R1|^2.  It is checked against
    (<n1> - <n3>)/<n1+> = (1 + |R1|^2 - T)/2, which loses the digits of
    1 - T where |R1|^2 is small; a gap above 1e-12 * max(1, |R1|^2) trips a
    numerical guard."""
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
    return r1_sq


def ar_interface_forces(n, omega, in1, S):
    """Interface forces F1, F2 for a slab of index n with ideal anti-reflective
    coatings, and the measured constant kappa with F1 = kappa*(1-n)*F0.

    Reflections are zeroed and the transmitted photon number is fixed by
    power conservation (|t|^2 = 1/n entering, n leaving), so every layer
    carries forward occupation in1 and zero backward.  Only the
    beam-induced (thermal + nonequilibrium) part enters F1 and F2; the
    zero-point impulses form a static background that cancels between the
    two interfaces and is excluded from the beam force.  Under this
    module's LDOS and averaging conventions kappa = 1/2, which is also its
    value at n = 1 (the limit of F1 = 0); it is NaN where in1 = 0, or
    where F0 underflows to 0.
    """
    require("n", n, INDEX)
    require("omega", omega, POSITIVE)
    require("in1", in1, NONNEGATIVE)
    require("S", S, POSITIVE)
    n_tot = total_photon_number(in1, 0.0)  # same in all three regions
    rho_vac = RHO0
    rho_slab = n * RHO0
    # Beam part of the interface impulse: -hbar*w * Delta(rho * n_tot).
    f1 = -S * HBAR * omega * (rho_slab - rho_vac) * n_tot
    f2 = -S * HBAR * omega * (rho_vac - rho_slab) * n_tot
    f0 = reflector_force(omega, in1, S)
    undefined = (n == 1) | (in1 == 0)  # kappa is 0/0 there
    # np.divide, so that an underflowed F0 gives nan for a float too, not ZeroDivisionError
    kappa = np.divide(f1, (1.0 - n) * f0 + undefined)
    if first_row(undefined) is not None:  # the limit 1/2 at n = 1; no beam, no kappa
        kappa = np.where(in1 == 0, np.nan, np.where(n == 1, 0.5, kappa))[()]
    return f1, f2, kappa
