"""Segmented sieve, its gap finder, pi / nth-prime queries and the segment index."""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress, islice
from typing import TYPE_CHECKING, Iterator

from .errors import DomainError, RangeError, ResourceLimitError

if TYPE_CHECKING:
    from array import array

# Hard cap on sieve limits; keeps the prime table well under a few GiB.
DEFAULT_SIEVE_BUDGET = 2_000_000_000

# No prime gap below the budget exceeds 292 (Oliveira e Silva, Herzog and Pardi,
# Math. Comp. 83, 2014), so a mask starting this far below its segment holds a prime.
MAX_GAP = 292

# Odd integers per segment, at most.  The segment from low spans 2^17 integers
# to 2^22, then 2^(bits(low) - 5), so its mask of low/64 to low/32 bytes grows
# with the x a call needs (64 KiB below 4.2M), while it still has over 100 odds
# per base prime to strike, whose Python loop is the per-segment cost.  A
# boundary depends on low alone, so segments(limit) is segments(budget) but
# for its last, and each span divides the next, so 3 + m*2^21 stays a low.
# The cap's 1 MiB mask stays in a 2 MiB L2 cache (sieving to 1e8 took 0.31 s
# at 2^19, 0.28 s at 2^20, 0.33 s at 2^21 and 0.38 s at 2^22, uniformly).
# Semantically invisible: results are identical for any positive value (tested).
_SEGMENT_ODDS = 1 << 20

# Mask bytes per scan slice, each with its own cut.  Semantically invisible (tested).
_SCAN_ODDS = 1 << 12

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
    """All primes <= limit, as a store: 2, then the odd masks of segments(limit)
    from each low."""
    from array import array  # a shared library: a call that never sieves skips it
    out = array("I", [2] if limit >= 2 else [])
    for part in segments(limit):
        start, low, high = part.args[:3]
        out.extend(compress(range(low, high, 2), part()[(low - start) // 2 :]))
    return PrimeStore(limit, out)


def segments(limit: int) -> Iterator[partial]:
    """Lazily, one zero-argument sieve per segment [low, high) of [3, limit], in
    order, each taking start = max(3, low - MAX_GAP), low and high as its first
    three arguments and returning the odd mask of [start, high) as a bytearray
    (byte i: whether start + 2i is prime).  Each comes with the base primes to
    isqrt(high - 1) of its full segment, so they also sieve what limit cuts off."""
    if _budgeted(limit) < 3:
        return
    root = math.isqrt(min(limit + 2 * _SEGMENT_ODDS, DEFAULT_SIEVE_BUDGET + 1) - 1)
    flags = bytearray([1]) * (root + 1)  # a plain sieve of the base primes
    for p in range(3, math.isqrt(root) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, root + 1, 2 * p)))
    wheel = bytearray([1]) * math.prod(_WHEEL)  # byte j stands for 2j + 1
    for p in _WHEEL:
        wheel[p // 2 :: p] = bytes(len(range(p // 2, len(wheel), p)))
    base, wheel, low = [*_WHEEL], bytes(wheel), 3  # wheel primes first
    while low <= limit:
        root = math.isqrt(_high(low) - 1)  # the full segment's base primes
        base += filter(flags.__getitem__, range(base[-1] + 2, root + 1, 2))
        yield partial(_segment, max(3, low - MAX_GAP), low, min(_high(low), limit + 1),
                      base, wheel)
        low = _high(low)


def horizon() -> int:
    """Where segments.csv ends: the sieve budget, below which no gap exceeds MAX_GAP."""
    return DEFAULT_SIEVE_BUDGET


def _index(limit: int, x: int = 3) -> Iterator[tuple[partial, tuple | None, int]]:
    """(seg, row, n) for each segment of segments(limit) from x's on: its segments.csv
    row (low, high, primes, gap, prev) if that is the full segment's, else None, and
    n, the primes before it from x's segment's low, a segment with no row sieved."""
    n, rows = 0, None
    for i, seg in enumerate(segments(limit)):
        low, high = seg.args[1:3]
        if high > x:
            rows = rows or _table(i)
            row = r if (r := next(rows, ()))[:2] == (low, _high(low)) else None
            yield seg, row, n
            n += row[2] if row else high <= limit and _count_to(seg, high - 1, None)


def _nth_within(n: int) -> bool:
    """Whether p_n is within the horizon: 1 for the prime 2, then segments.csv's
    counts, read row by row only until they reach n."""
    return any(pi >= n for pi in accumulate((row[2] for row in _table()), initial=1))


def _table(i: int = 0) -> Iterator:
    """Lazily, the integer rows from row i of segments.csv, the committed table
    that scripts/records.py writes."""
    with open(os.path.join(os.path.dirname(__file__), "segments.csv")) as f:
        for r in islice(f, i + 1, None):  # past the header line
            yield tuple(map(int, r.split(",")))


def _high(low: int) -> int:
    """The end of the segment from low (see _SEGMENT_ODDS), at most the budget + 1."""
    span = min(2 * _SEGMENT_ODDS, 1 << max(17, low.bit_length() - 5))
    return min(low + span, DEFAULT_SIEVE_BUDGET + 1)


def _count_to(seg: partial, x: int, row: tuple | None, mask=None) -> int:
    """The primes of [low, x] for x in seg's segment, from the nearer end: [low, x],
    or for x in the upper half of row (the full segment's, or None) its primes less
    those of (x, high).  mask, seg's from start to x at least, is counted from the
    top only if it reaches high; with none, only the nearer side is sieved."""
    start, low, _, base, wheel = seg.args
    up = row is not None and low + row[1] <= 2 * x
    if mask is None:
        start, end = ((x + 1) | 1, row[1]) if up else (low, x + 1)
        mask = _segment(start, start, end, base, wheel) if start < end else b""
    if up and start + 2 * len(mask) >= row[1]:
        return row[2] - mask.count(1, (x - start) // 2 + 1)
    return mask.count(1, (low - start) // 2, (x - start) // 2 + 1)


def _nth_one(mask: bytearray, b: int, r: int) -> int:
    """The byte of mask's rth one from byte b (len(mask) - 1 if it holds fewer),
    by per-slice counts."""
    for b0, b1 in _slices(b, len(mask)):
        if r <= (c := mask.count(1, b0, b1)):
            return next(islice(compress(range(b0, b1), mask[b0:b1]), r - 1, None))
        r -= c
    return len(mask) - 1


def record_prefix(limit: int, k: Fraction, n: int = 1) -> int:
    """A sieve limit that holds every stride-n ratio p_a/p_(a-n) > k with p_a <=
    limit (all of limit for k <= 1), which must be within the budget: below it
    p_a - p_(a-n) <= n*MAX_GAP, and such a ratio has p_a < n*MAX_GAP*k/(k - 1)."""
    _budgeted(limit)
    if k <= 1:
        return limit
    num, den = k.numerator, k.denominator
    return min(limit, n * MAX_GAP * den // (num - den) + n * MAX_GAP)


def _slices(a: int, b: int) -> list[tuple[int, int]]:
    """The scan slices [b0, b1) of mask bytes [a, b), in order."""
    return [(b0, min(b0 + _SCAN_ODDS, b)) for b0 in range(a, b, _SCAN_ODDS)]


def _gaps(mask: bytearray, start: int, b0: int, b1: int, half: int) -> list:
    """The pairs (p, q) of consecutive primes of an odd mask from start, q at a
    byte in [b0, b1), with q - p > 2 * half: a q after half zero bytes at least."""
    x = start + 2 * b0  # the slice's first odd
    if 3 * half < x.bit_length():  # 2 * half < ~log x, the mean gap: list all
        primes = [start + 2 * mask.rfind(1, 0, b0),
                  *compress(range(x, start + 2 * b1, 2), mask[b0:b1])]
        return [(p, q) for p, q in zip(primes, primes[1:]) if q - p > 2 * half]
    run, found = bytes(half) + b"\1", []
    j = mask.find(run, max(b0 - half, 0), b1)
    while j >= 0:
        found.append((start + 2 * mask.rfind(1, 0, j), start + 2 * (j + half)))
        j = mask.find(run, j + half + 1, b1)
    return found


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
