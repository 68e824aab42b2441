"""Segmented sieve and exact prime-counting / nth-prime / gap queries."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, RangeError, ResourceLimitError

# Hard cap on sieve limits; keeps the prime table well under a few GiB.
DEFAULT_SIEVE_BUDGET = 2_000_000_000

# Number of odd integers per segment. Semantically invisible: results are
# identical for any positive value (tested).
_SEGMENT_ODDS = 1 << 22


class PrimeStore:
    """Immutable, 1-indexed table of all primes up to ``limit``.

    Index n holds p_n with p_1 = 2.  Construct via :func:`sieve_upto`.
    """

    __slots__ = ("limit", "primes")

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = limit
        self.primes = primes
        primes.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.primes)

    def prime_count(self, x: int | Fraction) -> int:
        """pi(x) for integer or exact rational x <= limit; int() floors x >= 0."""
        fx = int(x)
        if fx > self.limit:
            raise DomainError(f"pi({x}) needs a sieve past {self.limit}")
        return int(np.searchsorted(self.primes, fx, side="right"))

    def nth_prime(self, n: int) -> int:
        if not 1 <= n <= self.count:
            raise RangeError(f"prime index {n} outside 1..{self.count}")
        return int(self.primes[n - 1])

    def gap_arrays(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Consecutive prime pairs as arrays (p_j, p_{j+1}), lo <= p_j <= hi.

        Also includes the straddling pair with p_j < lo < p_{j+1} when one
        exists, so callers always see the gap covering lo.
        """
        if not 2 <= lo <= hi <= self.limit:
            raise RangeError(f"bad gap range [{lo}, {hi}] for limit {self.limit}")
        # 0-based index of the first pair: the prime starting the gap that
        # covers lo (straddling pair included); lo >= 2 = p_1 keeps it >= 0.
        lo_idx = int(np.searchsorted(self.primes, lo, side="right")) - 1
        # pairs run while p_j <= hi and p_{j+1} is in the store
        hi_idx = int(np.searchsorted(self.primes, hi, side="right"))
        hi_idx = min(hi_idx, self.count - 1)
        return self.primes[lo_idx:hi_idx], self.primes[lo_idx + 1 : hi_idx + 1]

    def __repr__(self) -> str:
        return f"PrimeStore(limit={self.limit}, count={self.count})"


def sieve_upto(limit: int) -> PrimeStore:
    """All primes <= limit, as a store."""
    if limit < 0:
        raise RangeError("sieve limit must be non-negative")
    if limit > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds budget {DEFAULT_SIEVE_BUDGET}"
        )
    return PrimeStore(limit, _sieve(limit))


def _sieve(limit: int) -> np.ndarray:
    """Primes <= limit, odd-only and segmented; base primes from _sieve(isqrt)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd_base = _sieve(math.isqrt(limit))[1:]
    # Rosser-Schoenfeld: pi(x) < 1.25506 x / log x for x > 1.
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    out[0] = 2
    count = 1

    span = 2 * _SEGMENT_ODDS
    low = 3
    while low <= limit:
        high = min(low + span, limit + 1)  # exclusive, odd-aligned low
        mask = np.ones((high - low + 1) // 2, dtype=bool)
        for p in odd_base:
            p = int(p)
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= high:
                continue
            mask[(start - low) // 2 :: p] = False
        found = np.flatnonzero(mask)
        found *= 2  # in place: one temporary per segment
        found += low
        out[count : count + len(found)] = found
        count += len(found)
        low = high

    return out[:count]  # a view: the unwritten tail is never paged in
