"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented domain contract."""


class NumericError(RuntimeError):
    """A numeric routine cannot deliver the requested accuracy."""
