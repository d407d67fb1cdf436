"""Exception types shared across the package."""

__all__ = ["DomainError", "DivergenceError", "QuadratureError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DivergenceError(ValueError):
    """A requested integral or series is provably divergent."""


class QuadratureError(RuntimeError):
    """Quadrature failed in a way that cannot be reported as a result."""
