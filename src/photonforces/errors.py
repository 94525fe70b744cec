"""Exception hierarchy shared by the library and the CLI.

Exit-code mapping used by the CLI:
    ConfigError          -> 2
    FeasibilityError     -> 3
    NumericalGuardError  -> 4

Library functions evaluate whole grids at once, so a feasibility or guard
error carries `row`: the index of the first grid row that failed (0 for a
scalar evaluation), which the CLI turns into the row and its grid value.
"""

import math

import numpy as np


class PhotonForcesError(Exception):
    """Base class for all library errors."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ConfigError(PhotonForcesError):
    """Invalid, unknown, or out-of-range configuration input."""


class FeasibilityError(PhotonForcesError):
    """Physically infeasible parameter combination (e.g. recoil mass <= 0)."""


class NumericalGuardError(PhotonForcesError):
    """A numerical guard tripped (degenerate resonance, identity violation)."""


def first_row(failed):
    """Index of the first row where the vectorized test `failed` holds, or
    None if it holds nowhere.  A scalar test counts as row 0, which is also
    the first row of any grid it broadcasts over."""
    if isinstance(failed, np.ndarray):
        if failed.size == 0:
            return None
        i = int(failed.argmax())
        return i if failed.flat[i] else None
    return 0 if failed else None


def nonfinite(value):
    """Vectorized `not math.isfinite(value)`, as cheap as that for scalars."""
    if isinstance(value, np.ndarray):
        return ~np.isfinite(value)
    return not math.isfinite(value)


def at_row(values, row):
    """Element `row` of a grid quantity, or the quantity itself if scalar."""
    return np.ravel(values)[row] if np.ndim(values) else values
