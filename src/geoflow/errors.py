"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: bad input 2, evaluation outside a
convergence region 3, violated model invariants 4, internal consistency
failures 1.
"""


class GeoflowError(Exception):
    """Base class for package-specific failures."""


class InputError(GeoflowError):
    """Malformed or out-of-contract user input (exit code 2)."""


class PoleError(InputError):
    """Evaluation requested exactly at a pole of the function."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{message} at {location}")
        self.location = location


class DegenerateDenominatorError(GeoflowError):
    """The closed-form cross-check has a vanishing denominator here."""


class IntegralityError(GeoflowError):
    """A value contracted to be an integer failed the integrality check."""


class ResidualError(GeoflowError):
    """A numerical fit left a residual above tolerance; geoflow raises none."""


class ConvergenceRegionError(GeoflowError):
    """Evaluation point lies outside the series' half-plane (exit code 3)."""


class InsufficientSpectrumError(GeoflowError):
    """The spectrum's completeness cutoff caps the achievable tail bound
    above the requested target."""


class ModelInvariantError(GeoflowError):
    """Spectral-model data violates a structural invariant (exit code 4)."""
