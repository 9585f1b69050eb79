"""Exception types shared across the package, one class per ``pump`` exit code: 1 for
:class:`ConfigError` (bad input; also a :class:`ValueError`), 2 for :class:`NumericalFailure`
and for a bare :class:`PumpError`, a guard only a library call can reach (a grid whose
node count does not match its samples, a singular matrix, the winding of a pump that is not
optimal, an infeasible bathtub target)."""


class PumpError(Exception):
    """Base class for all errors raised by this package."""


class NumericalFailure(PumpError):
    """A certified numerical invariant (unitarity, Hermiticity, an optimal pump's
    integer charge or a phase step that would alias) failed hard."""


class ConfigError(PumpError, ValueError):
    """Invalid input; ``field`` names the offending entry by its config path
    (``cycle.period``), so a library call and a configuration fail alike."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
