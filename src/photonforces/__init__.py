"""Polariton kinematics in dielectrics and electromagnetic forces on
lossless three-layer cavity structures."""

from .cavity import (
    CompositeCoefficients,
    DirectionalPhotonNumbers,
    LayerStack,
    bose_einstein,
    composite,
    photon_numbers,
)
from .constants import C, EV, H, HBAR, KB
from .errors import ConfigError, FeasibilityError, NumericalGuardError, PhotonForcesError
from .forces import (
    RHO0,
    InterfaceImpulses,
    ar_interface_forces,
    beam_ratio,
    force_density_decomposition,
    net_force_pressure,
    reflector_force,
    total_force_beam,
)
from .kinematics import (
    ABRAHAM,
    MINKOWSKI,
    MediumBlock,
    MomentumConvention,
    PhotonInput,
    PolaritonSolution,
    cev_check,
    general,
    mass_transfer_cube,
    solve_transmission,
)
from .table import ResultTable

__version__ = "0.1.0"
