"""Exact computation of k-Ramanujan primes, certified upper bounds under
short-interval prime theorems, breakpoint tables, and empirical theorem
verification over prime ranges."""

from .core import (
    BreakpointEntry,
    breakpoints,
    brute_force_R,
    certified_bound,
    cor_bound,
    first_k_ramanujan,
    parse_k,
)
from .errors import (
    DomainError,
    InconclusiveError,
    KRamanujanError,
    RangeError,
    ResourceLimitError,
    UnsupportedRangeError,
)
from .primes import PrimeStore, sieve_upto
from .theorems import AXLER, BUILTIN_THEOREMS, DUSART, TRUDGIAN, GapTheorem
from .verify import VerificationReport, verify_theorem

__all__ = [
    "AXLER",
    "BUILTIN_THEOREMS",
    "BreakpointEntry",
    "DUSART",
    "DomainError",
    "GapTheorem",
    "InconclusiveError",
    "KRamanujanError",
    "PrimeStore",
    "RangeError",
    "ResourceLimitError",
    "TRUDGIAN",
    "UnsupportedRangeError",
    "VerificationReport",
    "breakpoints",
    "brute_force_R",
    "certified_bound",
    "cor_bound",
    "first_k_ramanujan",
    "parse_k",
    "sieve_upto",
    "verify_theorem",
]

__version__ = "0.1.0"
