"""Exception types shared across the package.

Each type carries the command-line exit code of its class and the label its
message is reported under: 1 for usage and input errors (UsageError), 2 for
an invariant that failed, 3 for a numeric or solver failure (the default).
"""


class FlockError(Exception):
    """Base class for all package errors."""

    exit_code = 3
    label = "numeric failure"


class UsageError(FlockError, ValueError):
    """Input the caller can correct: a usage error on the command line."""

    exit_code = 1
    label = "error"


class DomainError(UsageError):
    """Argument outside its mathematical domain (e.g. mu not in [-1, 1])."""


class ConfigError(UsageError):
    """Invalid or inconsistent configuration (CLI flags, config file, kernels)."""


class PreconditionError(FlockError, ValueError):
    """A documented operation precondition is violated (e.g. nonzero-mean data)."""


class DegenerateWeightError(FlockError, ArithmeticError):
    """A weighted average was requested against a weight with vanishing integral."""


class NumericError(FlockError, ArithmeticError):
    """Non-finite value encountered; message carries the offending location."""


class SolverError(FlockError, RuntimeError):
    """Linear solve failed or produced an unusable solution.

    Carries a condition-number estimate when one is available.
    """

    def __init__(self, message, condition=None):
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)
        self.condition = condition


class InvariantError(FlockError, RuntimeError):
    """A structural invariant failed after convergence (indicates a bug)."""

    exit_code = 2
    label = "invariant violation"


class FieldStateError(UsageError):
    """Discrete field state is invalid (non-unit orientation, negative density)."""


class GridShapeError(UsageError):
    """Mismatched grid shapes between field arrays."""
