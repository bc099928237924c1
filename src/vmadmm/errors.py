"""Exception types shared across the package.

A class that builds its message in its own ``__init__`` defines
``__reduce__`` to pickle the arguments it was made from, so an error
raised in the runner's solver process reaches the caller with its type,
message and attributes."""


class VmAdmmError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(VmAdmmError, ValueError):
    """Operand dimensions do not agree."""

    def __init__(self, what, expected, got):
        self.what = what
        self.expected = expected
        self.got = got
        super().__init__(f"{what}: expected dimension {expected}, got {got}")

    def __reduce__(self):
        return type(self), (self.what, self.expected, self.got), self.__dict__


class AdjointConsistencyError(VmAdmmError):
    """A matrix-free operator failed the <Ax, v> == <x, A*v> probe test."""


class NotPositiveSemidefinite(VmAdmmError):
    """A metric operator violates positive semidefiniteness at construction."""


class EigensolveError(VmAdmmError):
    """Dense symmetric eigensolve failed."""


class CapabilityError(VmAdmmError):
    """A function was asked for an operation it does not support."""


class StrategyError(VmAdmmError):
    """No exact subproblem strategy applies to the given configuration."""


class UnsupportedMetric(VmAdmmError):
    """The metric operator form is not supported by this update."""


class SingularSubproblem(VmAdmmError):
    """The linear system of a quadratic subproblem is singular."""


class AssumptionError(VmAdmmError):
    """A run was requested under schedules that fail every convergence assumption."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "no convergence assumption is satisfied by the given schedules; "
            "pass force=True to run anyway. Failures: " + "; ".join(report.notes)
        )

    def __reduce__(self):
        return type(self), (self.report,), self.__dict__


class NonFiniteIterate(VmAdmmError):
    """An iterate became NaN or infinite."""

    def __init__(self, iteration):
        self.iteration = iteration
        super().__init__(f"non-finite value in iterate at iteration {iteration}")

    def __reduce__(self):
        return type(self), (self.iteration,), self.__dict__


class UnsupportedSetting(VmAdmmError):
    """A diagnostic was requested outside the regime where it is defined."""


class OracleError(VmAdmmError):
    """The saddle-point oracle did not reach its target residual."""

    def __init__(self, message, best_kkt):
        self.message = message
        self.best_kkt = best_kkt
        super().__init__(f"{message} (best KKT residual {best_kkt:.3e})")

    def __reduce__(self):
        return type(self), (self.message, self.best_kkt), self.__dict__


class ConfigError(VmAdmmError):
    """A run configuration could not be parsed or validated."""


class InputError(VmAdmmError):
    """An input file cannot be read or lacks an entry the command needs."""
