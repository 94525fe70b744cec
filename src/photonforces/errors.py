"""Exception hierarchy and input domains shared by the library and the CLI.

Exit-code mapping used by the CLI:
    ConfigError          -> 2
    FeasibilityError     -> 3
    NumericalGuardError  -> 4
Any other exception is an internal error (exit 1, with a traceback).

A range check on an input goes through `require` and one of four domains,
none of which admits nan or inf.  What is computed from checked inputs is
not range-checked again: a nan or inf that an overflow makes there reaches
`ResultTable`'s non-finite guard (exit 4), unless a guard names it sooner, as
`cavity.composite` does for the round-trip phase.  Library functions
evaluate whole grids at once, so an error carries `row`: the first grid row
that failed (0 for a scalar evaluation), which the CLI turns into the row
and its value.  `first_row`, `at_row` and `sqrt` take a scalar or a grid
alike.
"""

import math
from typing import NamedTuple

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
    """A numerical guard tripped (degenerate resonance, identity violation,
    non-finite result)."""


class Domain(NamedTuple):
    """The finite values from `low` up; `text` completes "<name> must be ..."."""

    text: str
    low: float


# bounds next to -inf and 0, so that `low <= x < inf` alone rejects nan, +-inf and 0
FINITE = Domain("finite", math.nextafter(-math.inf, 0.0))
POSITIVE = Domain("positive and finite", math.nextafter(0.0, 1.0))
NONNEGATIVE = Domain("finite and >= 0", 0.0)
INDEX = Domain("real and >= 1", 1.0)


def require(name, value, domain, error=ValueError):
    """Raise `error` naming `name` and the first value of `value` (scalar or
    array) outside `domain`; a PhotonForcesError carries its row."""
    if isinstance(value, np.ndarray):
        row = first_row(~((value >= domain.low) & (value < math.inf)))
    else:
        row = None if domain.low <= value < math.inf else 0
    if row is not None:
        message = f"{name} must be {domain.text}, got {at_row(value, row)}"
        raise error(message, row=row) if issubclass(error, PhotonForcesError) else error(message)


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


def at_row(values, row):
    """Element `row` of a grid quantity, or the quantity itself if scalar."""
    return np.ravel(values)[row] if np.ndim(values) else values


def sqrt(x):
    """The correctly rounded square root of a scalar (`math.sqrt`) or of each
    element of an array (`np.sqrt`), so that a one-row run and a grid row
    agree to the bit: `x ** 0.5` of a Python float is libm's `pow`, which can
    be an ulp off."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)
