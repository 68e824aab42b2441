"""Segmented sieve and exact prime-counting / nth-prime / gap queries."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import compress
from typing import TYPE_CHECKING

from .errors import DomainError, RangeError, ResourceLimitError

if TYPE_CHECKING:
    from array import array

# Hard cap on sieve limits; keeps the prime table well under a few GiB.
DEFAULT_SIEVE_BUDGET = 2_000_000_000

# No prime gap below the budget exceeds 292 (Oliveira e Silva, Herzog and Pardi,
# Math. Comp. 83, 2014), so a mask starting this far below its segment holds a prime.
MAX_GAP = 292

# Odd integers per segment.  The 1 MiB mask stays in a 2 MiB L2 cache
# (sieving to 1e8 takes 0.31 s at 2^19, 0.28 s at 2^20, 0.33 s at 2^21 and
# 0.38 s at 2^22).  Semantically invisible: results are identical for any
# positive value (tested).
_SEGMENT_ODDS = 1 << 20

# A segment starts from a tiled pattern, 3*5*7*11*13 = 15015 odds (15 KB) long,
# that already strikes the odd multiples of these primes.
_WHEEL = (3, 5, 7, 11, 13)


class PrimeStore:
    """Immutable, 1-indexed table of all primes up to ``limit``.

    Index n holds p_n with p_1 = 2; ``primes`` is a read-only memoryview of
    4-byte unsigned ints.  Construct via :func:`sieve_upto`.
    """

    __slots__ = ("limit", "primes")

    def __init__(self, limit: int, primes: array):
        self.limit = limit
        self.primes = memoryview(primes).toreadonly()

    @property
    def count(self) -> int:
        return len(self.primes)

    def prime_count(self, x: int | Fraction) -> int:
        """pi(x) for integer or exact rational x <= limit; int() floors x >= 0."""
        fx = int(x)
        if fx > self.limit:
            raise DomainError(f"pi({x}) needs a sieve past {self.limit}")
        return bisect_right(self.primes, fx)

    def nth_prime(self, n: int) -> int:
        if not 1 <= n <= self.count:
            raise RangeError(f"prime index {n} outside 1..{self.count}")
        return self.primes[n - 1]

    def gap_arrays(self, lo: int, hi: int) -> tuple[memoryview, memoryview]:
        """Consecutive prime pairs as arrays (p_j, p_{j+1}), lo <= p_j <= hi.

        Also includes the straddling pair with p_j < lo < p_{j+1} when one
        exists, so callers always see the gap covering lo.
        """
        if not 2 <= lo <= hi <= self.limit:
            raise RangeError(f"bad gap range [{lo}, {hi}] for limit {self.limit}")
        # 0-based index of the first pair: the prime starting the gap that
        # covers lo (straddling pair included); lo >= 2 = p_1 keeps it >= 0.
        lo_idx = bisect_right(self.primes, lo) - 1
        # pairs run while p_j <= hi and p_{j+1} is in the store
        hi_idx = min(bisect_right(self.primes, hi), self.count - 1)
        return self.primes[lo_idx:hi_idx], self.primes[lo_idx + 1 : hi_idx + 1]

    def __repr__(self) -> str:
        return f"PrimeStore(limit={self.limit}, count={self.count})"


def sieve_upto(limit: int) -> PrimeStore:
    """All primes <= limit, as a store."""
    return PrimeStore(limit, _sieve(limit))


def segments(limit: int) -> list[partial]:
    """One zero-argument sieve per segment [low, high) of [3, limit], in order,
    each taking start = max(3, low - MAX_GAP), low and high as its first three
    arguments and returning the odd mask of [start, high) as a bytearray (byte
    i: whether start + 2i is prime)."""
    if _budgeted(limit) < 3:
        return []
    root = math.isqrt(limit)
    flags = bytearray([1]) * (root + 1)  # a plain sieve of the base primes
    for p in range(3, math.isqrt(root) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, root + 1, 2 * p)))
    odd = compress(range(_WHEEL[-1] + 2, root + 1, 2), flags[_WHEEL[-1] + 2 :: 2])
    wheel = bytearray([1]) * math.prod(_WHEEL)  # byte j stands for 2j + 1
    for p in _WHEEL:
        wheel[p // 2 :: p] = bytes(len(range(p // 2, len(wheel), p)))
    base, wheel, span = [*_WHEEL, *odd], bytes(wheel), 2 * _SEGMENT_ODDS  # wheel first
    return [
        partial(_segment, max(3, low - MAX_GAP), low, min(low + span, limit + 1),
                base, wheel)
        for low in range(3, limit + 1, span)
    ]


def record_prefix(limit: int, k: Fraction, n: int = 1) -> int:
    """A sieve limit that holds every stride-n ratio p_a/p_(a-n) > k with p_a <=
    limit (all of limit for k <= 1): below the budget p_a - p_(a-n) <= n*MAX_GAP,
    so such a ratio has p_(a-n) < n*MAX_GAP/(k - 1) and p_a at most the result.
    limit itself must be within the budget."""
    _budgeted(limit)
    if k <= 1:
        return limit
    num, den = k.numerator, k.denominator
    return min(limit, n * MAX_GAP * den // (num - den) + n * MAX_GAP)


def nth_prime_limit(n: int) -> int:
    """A sieve limit that reaches p_n, within the budget exactly for the n up
    to pi(DEFAULT_SIEVE_BUDGET) = 98,222,287 (published).

    p_n < n(log n + log log n) for n >= 6; n = 2..5 give 16, 19, 22 and 26,
    each at least p_5 = 11.  Up to n = 98,222,287, p_n <= the budget, which
    is below the formula from n = 94,032,343.  n stops at 2^53.
    """
    x = float(min(n, 2**53))
    limit = int(x * (math.log(x) + math.log(math.log(x)))) + 16
    return min(limit, DEFAULT_SIEVE_BUDGET) if n <= 98_222_287 else limit


def _budgeted(limit: int) -> int:
    """limit, if a sieve may reach it: the one range and budget check."""
    if limit < 0:
        raise RangeError("sieve limit must be non-negative")
    if limit > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds budget {DEFAULT_SIEVE_BUDGET}"
        )
    return limit


def _segment(start: int, low: int, high: int, base: list, wheel: bytes) -> bytearray:
    """Odd mask of [start, high) for odd start <= low: the wheel (byte j: 2j + 1 is
    prime to 15015) tiled from start, base primes 17..isqrt(high - 1) struck, base
    primes in range restored.  Raises if [start, low) is not empty but has no prime."""
    n, r = (high - start + 1) // 2, start // 2 % len(wheel)
    mask = bytearray(wheel[r:] + wheel[:r]) * (n // len(wheel) + 1)
    del mask[n:]
    zeros = memoryview(bytes(n // 17 + 1))  # the longest strike, at p = 17
    for p in base[len(_WHEEL) : bisect_right(base, math.isqrt(high - 1))]:
        i = (-start - p) // 2 % p  # start + 2i: p's first odd multiple from start
        mask[i::p] = zeros[: (n - 1 - i) // p + 1]  # none when i >= n
    for p in base[bisect_left(base, start) : bisect_left(base, high)]:
        mask[(p - start) // 2] = 1
    if start < low and mask.find(1, 0, (low - start) // 2) < 0:
        raise RuntimeError(f"no prime in [{start}, {low}): a gap past MAX_GAP")
    return mask


def _sieve(limit: int) -> array:
    """Primes <= limit: 2, then the odd masks of segments(limit) from each low."""
    from array import array  # a shared library: a call that never sieves skips it
    parts = segments(limit)
    out = array("I", [2] if limit >= 2 else [])
    for part in parts:
        start, low, high = part.args[:3]
        out.extend(compress(range(low, high, 2), part()[(low - start) // 2 :]))
    return out
