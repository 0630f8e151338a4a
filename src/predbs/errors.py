"""Exception types shared across the package."""


class PredbsError(Exception):
    """Base class for all package-specific errors."""


class InputError(PredbsError, ValueError):
    """A domain input violates its contract (range, shape, finiteness)."""


class QuoteRejectedError(PredbsError, ValueError):
    """Market quote violates static no-arbitrage bounds beyond both clamp limits."""


class EstimationError(PredbsError, RuntimeError):
    """Statistical estimation failed."""


class ParseError(PredbsError, ValueError):
    """Input file is unreadable or structurally invalid."""


class DataQualityError(ParseError):
    """Input file parsed but too many rows were rejected to trust the result."""
