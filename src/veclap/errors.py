"""Exception hierarchy shared across the package.

Two branches matter for the CLI exit codes: ``InputError`` (bad arguments or
data, exit code 2) and ``NumericalError`` (a computation failed, exit code 3).
"""


class VeclapError(Exception):
    """Base class for all package errors."""


class InputError(VeclapError, ValueError):
    """Invalid argument, configuration, geometry (e.g. a non-positive sphere
    radius) or matrix property (e.g. B not SPD)."""


class NumericalError(VeclapError, RuntimeError):
    """A numerical computation failed."""


class GeometryError(NumericalError):
    """Degenerate element geometry (a non-positive area factor)."""


class ConvergenceError(NumericalError):
    """Iterative eigensolver did not reach the residual tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals
