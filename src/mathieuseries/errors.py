"""Exception types shared across the package."""


class MathieuSeriesError(Exception):
    """Base of every error the package raises on purpose; the CLI exits 2 on it."""


class OrderOverflowError(MathieuSeriesError, ValueError):
    """A polynomial / derivative order beyond the supported cap was requested."""


class ParameterError(MathieuSeriesError, ValueError):
    """A parameter combination violates the domain constraints of a series."""


class RegimeError(ParameterError):
    """An operation restricted to (gamma, alpha) in Z+ x N was called outside it."""


class ToleranceError(MathieuSeriesError, RuntimeError):
    """The requested tolerance cannot be met within the term/evaluation budget."""


class CrossValidationError(MathieuSeriesError, RuntimeError):
    """Two independently computed error brackets for the same quantity do not overlap."""
