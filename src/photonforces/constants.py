"""Physical constants in SI units (CODATA 2018 exact values).

Single source of truth for every module; the CLI records
CONSTANTS_VERSION in output metadata so archived results are traceable.
"""

import math

# Speed of light in vacuum (m/s)
C = 2.99792458e8

# Planck constant (J*s)
H = 6.62607015e-34

# Reduced Planck constant (J*s)
HBAR = H / (2.0 * math.pi)

# Elementary charge (C); also the eV -> J conversion factor
EV = 1.602176634e-19

# Boltzmann constant (J/K)
KB = 1.380649e-23

CONSTANTS_VERSION = "CODATA-2018"

