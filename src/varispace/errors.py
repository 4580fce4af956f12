"""Exception types shared across the toolkit."""


class VarispaceError(Exception):
    """Base class for all toolkit errors."""


class DataError(VarispaceError, ValueError):
    """Invalid input: bad shapes, values, identifiers, or configuration."""


class FormatError(DataError):
    """A serialized artifact does not conform to its declared file format."""


class NumericalError(VarispaceError, RuntimeError):
    """A numerical procedure failed: it did not converge, or its result
    overflows float64."""
