"""Exception types shared across the package.

Class names mirror the error conditions of the public API contracts, so
callers can catch a specific failure without string matching.
"""


class UpsetError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGenerators(UpsetError):
    """An upper set was requested from an empty generator list."""


class TrivialUpperSet(UpsetError):
    """The construction would yield the empty property or the full power set."""


class SizeLimitExceeded(UpsetError):
    """An exact computation was requested beyond its configured cap."""


class MissingMcParams(UpsetError):
    """Monte Carlo estimation needs both a sample count and a seed."""


class KOutOfRange(UpsetError):
    """Symmetric-polynomial index k outside 1..len(sets)."""


class OutOfRange(UpsetError):
    """Family parameter outside the supported range."""


class EmptyInput(UpsetError):
    """A report was requested over an empty record list."""


class TooFewRecords(UpsetError):
    """Trend classification needs at least three records."""
