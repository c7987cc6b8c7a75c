"""Exception types raised across the library."""


class BladeGaugeError(Exception):
    """Base class for all bladegauge errors."""


class DimensionMismatchError(BladeGaugeError, ValueError):
    """Operands have incompatible shapes or spacetimes."""


class DomainError(BladeGaugeError, ValueError):
    """Input violates a mathematical precondition (non-hermitian, |pi| > 1, ...)."""


class RankError(BladeGaugeError, ValueError):
    """A requested form degree exceeds what the dimension admits."""


class ChartError(BladeGaugeError, ValueError):
    """Evaluation outside the valid coordinate chart (pole guard, cut locus)."""


class ParameterError(BladeGaugeError, ValueError):
    """Invalid numerical parameter (quadrature order, grid spec, signature)."""


class ConsistencyError(BladeGaugeError, RuntimeError):
    """Cross-validated quantities disagree beyond the stated tolerance."""


class DivergenceError(BladeGaugeError, RuntimeError):
    """An iterative procedure failed to descend; try a smaller step size."""


class ConfigError(BladeGaugeError, ValueError):
    """Scenario configuration failed validation; `schema_path` locates the fault."""

    def __init__(self, message, schema_path=None):
        super().__init__(message)
        self.schema_path = list(schema_path) if schema_path is not None else []
