"""Exception types shared across the package."""


class KRamanujanError(Exception):
    """Base class for all package errors."""


class DomainError(KRamanujanError):
    """An argument is outside the mathematical domain of the operation."""


class RangeError(KRamanujanError):
    """An index or interval argument is malformed or out of bounds."""


class UnsupportedRangeError(DomainError):
    """A certified bound for k overflows double precision."""


class ResourceLimitError(KRamanujanError):
    """A sieve or scan would exceed the configured memory budget."""


class InconclusiveError(KRamanujanError):
    """An oracle scan cannot certify its answer within the given limit."""
