"""Exception types shared across the package, and its one check of
integer arguments.

The CLI maps these onto process exit codes, so the split matters:
configuration problems are user-fixable without touching any math, while
NumericalError subclasses mean a requested computation is ill-posed or
outside the method's validity region.
"""

import numbers


def check_integer(name: str, value) -> int:
    """``value`` as a Python int, or a ValueError naming ``name`` and the
    value unless it is an integer (a numpy integer counts, a bool does
    not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class ConfigError(ValueError):
    """A config file or CLI parameter is missing, unknown, or malformed."""


class NumericalError(RuntimeError):
    """Base class for failures of the numerical contracts (singular systems,
    degenerate approximation targets, inadmissible step sizes, ...)."""


class ApproximationError(NumericalError):
    """The rational-approximation pipeline cannot produce a valid result."""


class SolverError(NumericalError):
    """A direct factorization or solve failed (singular or near-singular);
    ``index`` is the failing matrix's position in a stacked factorization."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SpatialError(NumericalError):
    """The discretization or initial-state setup violates its preconditions."""


class AdmissibilityError(NumericalError):
    """The time step is too large for the spectral extent of the operator."""
