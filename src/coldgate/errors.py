"""Exception types shared across the simulation modules."""


class ColdgateError(Exception):
    """Base class for all package errors."""


class ValidationError(ColdgateError):
    """A configuration or argument failed validation."""


class NoMinimum(ColdgateError):
    """A potential has no local minimum (non-positive curvature) near the guess."""


class QuadratureFailure(ColdgateError):
    """An adaptive integration did not reach the requested tolerance."""


class PerturbationInvalid(ColdgateError):
    """The interaction shift is too large for perturbation theory."""


class ConvergenceFailure(ColdgateError):
    """A grid convergence pre-check or iterative solve failed."""


class NormLoss(ColdgateError):
    """Wavefunction norm drifted beyond tolerance during propagation."""


class NotConverged(ColdgateError):
    """Self-consistent iteration hit the budget without converging.

    ``state`` is the best non-converged result, when the solver has one."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class NonBasisSyndrome(ColdgateError):
    """Syndrome register is not a computational basis state (unmodeled error)."""


class GeometryMismatch(ColdgateError):
    """Register geometry incompatible with the requested operation."""


class HierarchyViolated(UserWarning):
    """Derivative hierarchy assumption of the adiabatic expansion is violated."""
