"""Exception hierarchy shared by all saext modules."""

from __future__ import annotations


class SaextError(Exception):
    """Base class for all numerical / domain errors raised by saext."""


class EvaluationError(SaextError):
    """A user-supplied function returned a non-finite value."""

    def __init__(self, message: str, abscissa: float):
        super().__init__(f"{message} (at x={abscissa!r})")
        self.abscissa = abscissa


class ConvergenceError(SaextError):
    """An iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float, residual: float, iterations: int):
        super().__init__(
            f"{message} (best estimate {estimate!r}, residual {residual!r}, "
            f"{iterations} iterations)"
        )
        self.estimate = estimate
        self.residual = residual
        self.iterations = iterations


class AccuracyError(SaextError):
    """A quadrature or summation could not certify the requested accuracy."""

    def __init__(self, message: str, estimate, achieved_error: float):
        super().__init__(f"{message} (estimate {estimate!r}, achieved error {achieved_error!r})")
        self.estimate = estimate
        self.achieved_error = achieved_error


class InvalidParameterError(SaextError):
    """Input parameters violate a documented precondition."""


class IncompleteSpectrumError(SaextError):
    """The positive levels up to the s ceiling were fewer than requested."""

    def __init__(self, message: str, roots_found):
        super().__init__(f"{message} (roots found so far: {roots_found})")
        self.roots_found = list(roots_found)


class DiagnosticError(SaextError):
    """An internal cross-check failed; results would not be trustworthy."""


class InvalidRootError(SaextError):
    """A value passed as an eigenvalue does not solve the eigenvalue equation."""
