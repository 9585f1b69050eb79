"""Exception types shared across the package, one family per ``pump`` exit code: 1 for
:class:`ConfigError` (bad input; also a :class:`ValueError`), 2 for any other one."""


class PumpError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatch(PumpError):
    """A sample sequence does not match its cycle grid."""


class SingularInput(PumpError):
    """Matrix is singular (or nearly so) where an invertible one is required."""


class NumericalFailure(PumpError):
    """A certified numerical invariant (unitarity, Hermiticity) failed hard."""


class NotOptimal(PumpError):
    """Operation requires an optimal pump but the energy shift has
    off-diagonal weight above tolerance."""


class PhaseStepTooLarge(NumericalFailure):
    """A row phase advances by pi or more between grid nodes; the winding
    count would alias.  Refine the grid."""


class TargetInfeasible(PumpError):
    """Requested particle flux is outside the feasible range of the grid."""


class ConfigError(PumpError, ValueError):
    """Invalid input; ``field`` names the offending entry by its config path
    (``cycle.period``), so a library call and a configuration fail alike."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class EnergyOutOfWindow(ConfigError):
    """Requested energy lies outside the model's validity window."""


class UnknownModel(ConfigError):
    """Configuration references a model that is not in the registry."""


class MissingParam(ConfigError):
    """A required model parameter is absent."""


class BadParamRange(ConfigError):
    """A model parameter has an invalid value."""


class UnknownParam(ConfigError):
    """A model parameter is not understood by the referenced model."""
