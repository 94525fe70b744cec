"""Polariton kinematics in dielectrics and electromagnetic forces on
lossless three-layer cavity structures."""

from .cavity import (
    CompositeCoefficients,
    DirectionalPhotonNumbers,
    InterfaceCoefficients,
    LayerStack,
    bose_einstein,
    composite,
    fresnel,
    occupation,
    photon_numbers,
    total_photon_number,
)
from .constants import C, EV, H, HBAR, KB
from .errors import ConfigError, FeasibilityError, NumericalGuardError, PhotonForcesError
from .forces import (
    RHO0,
    InterfaceImpulses,
    LdosProfile,
    SpectralForce,
    ThermalScenario,
    ar_interface_forces,
    beam_ratio,
    force_density_decomposition,
    integrate_spectrum,
    ldos,
    net_force_pressure,
    pressure,
    reflector_force,
    spectral_force,
    total_force_beam,
)
from .kinematics import (
    ABRAHAM,
    MINKOWSKI,
    FourMomentum,
    MediumBlock,
    MomentumConvention,
    PhotonInput,
    PolaritonSolution,
    bloch_momentum,
    cev_check,
    general,
    mass_transfer_cube,
    photon_momentum,
    solve_transmission,
    transit_timeline,
)
from .table import ResultTable

__version__ = "0.1.0"
