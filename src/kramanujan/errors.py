"""Exception types shared across the package; each carries its CLI exit code."""


class KRamanujanError(Exception):
    """Base class for all package errors; exit code 2."""

    exit_code = 2


class DomainError(KRamanujanError):
    """An argument is outside the mathematical domain of the operation; exit 2."""


class RangeError(KRamanujanError):
    """An index or interval argument is malformed or out of bounds; exit 2."""


class UnsupportedRangeError(DomainError):
    """A certified bound for k overflows double precision; exit 2."""


class ResourceLimitError(KRamanujanError):
    """A sieve or scan would exceed the configured memory budget; exit 5."""

    exit_code = 5


class InconclusiveError(KRamanujanError):
    """An oracle scan cannot certify its answer within the given limit; exit 4."""

    exit_code = 4
