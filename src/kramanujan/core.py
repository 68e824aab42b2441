"""First (and nth) k-Ramanujan primes: explicit upper bounds, the record walk
over the segment masks behind R_1 and the breakpoint table, and the stride-n
record-ratio search behind the nth-prime scan."""

from __future__ import annotations

import math
import re
from contextlib import suppress
from fractions import Fraction
from itertools import compress, count, islice, takewhile
from operator import sub
from typing import Iterator, NamedTuple

from .errors import DomainError, InconclusiveError, RangeError, UnsupportedRangeError
from .errors import ResourceLimitError
from .primes import MAX_GAP, PrimeStore, _count_to, _gaps, _index, _nth_one, _nth_within
from .primes import _slices, horizon, record_prefix, sieve_upto
from .theorems import BUILTIN_THEOREMS, GapTheorem

_RATIONAL = re.compile(r"^\s*(\d+(?:\.\d{1,15})?|\d+/0*[1-9]\d*)\s*$")

# Gap ratios per cut of breakpoints.  Semantically invisible (tested).
_RATIO_CHUNK = 1 << 16


def parse_rational(text: str) -> Fraction:
    """A decimal (<= 15 fractional digits) or 'p/q', parsed exactly.  Raises
    ValueError on malformed input or a value past the float range; the layer
    that uses the value checks its domain (k > 1 or c > 0)."""
    m = _RATIONAL.match(text)
    if not m:
        raise ValueError(f"cannot parse {text!r} as a decimal or p/q")
    x = Fraction(m.group(1))
    try:
        float(x)
    except OverflowError:
        raise ValueError("value past the float range (1.8e308)") from None
    return x


class BreakpointEntry(NamedTuple):
    """One ratio-record row: prime/prev_prime beats every later ratio of its
    stride (p_index/p_{index-1} for the gap ratios)."""

    index: int
    prime: int
    prev_prime: int
    ratio: Fraction


class Answer(NamedTuple):
    """R_1^(k) = p_index, its certified bound, and whether k is some p_n/p_{n-1}."""

    prime: int
    index: int
    bound: int
    k_equals_gap_ratio: bool


def shared_store(limit: int) -> PrimeStore:
    """All primes <= limit: the one sieve of the oracle's record search."""
    return sieve_upto(limit)


def cor_bound(k: Fraction, thm: GapTheorem) -> int:
    """Certified integer upper bound k*exp((c/(k-1))^(1/e)) for R_1^(k).

    The exact ceiling of the corollary's value, for k the theorem admits.
    """
    if not thm.admits(k):
        raise DomainError(f"k = {k} is outside (1, k_max] of theorem {thm.name}")
    return thm.corollary_bound(k)


def certified_bound(k: Fraction) -> int:
    """Smallest certified upper bound for R_1^(k) over the built-in theorems.

    A theorem gives its corollary's bound while it admits k, and past k_max
    the corollary's value at k_max, k_max * x0, since R_1^(k) is
    non-increasing in k.  Any size is returned; only sieve_upto has a budget.
    """
    if k <= 1:
        raise DomainError(f"threshold k must exceed 1, got {k}")
    bounds = []
    for t in BUILTIN_THEOREMS.values():
        with suppress(UnsupportedRangeError):  # >= 2^1024: never the minimum
            bounds.append(t.corollary_bound(k) if t.admits(k) else t.k_max_bound())
    if not bounds:
        raise UnsupportedRangeError(f"all bounds for k = {k} overflow double precision")
    return min(bounds)


def first_k_ramanujan(k: Fraction) -> Answer:
    """R_1^(k) as an Answer(prime, index, bound, k_equals_gap_ratio).

    p_m for m = max{n >= 2 | p_n/p_{n-1} > k} (2 if none) is the first record
    above k of the walk from min(bound, record_prefix) down, since no ratio past
    either exceeds k (ResourceLimitError for a bound past the horizon)."""
    bound = certified_bound(k)
    if bound > (end := horizon()):
        raise ResourceLimitError(f"certified bound {bound} exceeds budget {end}")
    top = min(bound, record_prefix(end, k))
    index, prime, *_ = next(_records(k, _index(top)), (1, 2))
    return Answer(prime, index, bound, k_equals_gap_ratio(k, bound))


def table_rows(k_min: Fraction, index_limit: int) -> list[BreakpointEntry]:
    """breakpoints(k_min, N), N = index_limit, by one right-to-left walk over the
    index's masks from min(p_N, record_prefix).  Past pi(horizon) N is
    pi(horizon) if k_min's certified bound is within it (no later ratio exceeds
    k_min), else a ResourceLimitError, which the rows' prime counts decide
    before any segment is built."""
    end, past = horizon(), True
    with suppress(DomainError):  # k_min <= 1, or every bound overflows
        past = certified_bound(k_min) > end
    if past and not _nth_within(index_limit):
        raise ResourceLimitError(f"p_{index_limit} is past the sieve budget {end}")
    prefix = record_prefix(end, k_min)  # the walk: to p_N's segment, or the prefix's
    walk = [*takewhile(lambda step: step[2] + 1 < index_limit, _index(prefix))]
    return [*_records(k_min, walk, index_limit - walk[-1][2] - 1)][::-1]


def _records(k_min: Fraction, walk, r: int = 0) -> Iterator[BreakpointEntry]:
    """Lazily, right to left, the gap-ratio records above k_min in walk's segments,
    the index's (seg, row, n) in order, the last cut after its rth prime from low
    if r > 0.  With num/den the best ratio so far, a segment whose row's gap g
    has g*den <= (num - den)*start is not sieved, and a slice from the prime p
    passes only gaps past (num - den)*p // den to the big-int check."""
    num, den = k_min.numerator, k_min.denominator  # the ratio to beat
    for seg, row, n in [*walk][::-1]:
        start, low = seg.args[:2]
        nth, r, mask = r, 0, None  # only the last is cut; one mask alive
        if row and row[3] * den <= (num - den) * start:
            continue
        mask = seg()
        if nth:
            del mask[_nth_one(mask, (low - start) // 2, nth) + 1 :]
        for b0, b1 in reversed(_slices((max(low, 4) - start + 1) // 2, len(mask))):
            cut = max(num - den, 0) * (start + 2 * mask.rfind(1, 0, b0)) // den
            for p, q in reversed(_gaps(mask, start, b0, b1, min(cut, MAX_GAP) // 2)):
                if q * den > num * p:  # a row, indexed from the nearer end
                    a = 1 + n + _count_to(seg, q, row, mask)
                    yield BreakpointEntry(a, q, p, Fraction(q, p))
                    num, den = q, p
    if 3 * den > 2 * num:  # the pair (2, 3), which no mask holds
        yield BreakpointEntry(2, 3, 2, Fraction(3, 2))


def brute_force_R(k: Fraction, n: int, scan_limit: int) -> tuple[int, int]:
    """R_n^(k) = p_index as (prime, index) from the critical points k*p_j <= scan_limit.

    The deficiency D(x) = pi(x) - pi(x/k) can only drop where pi(x/k) jumps,
    at x = k*p_j, and there D < n iff p_{j+n} > k*p_j.  The last failing j is
    the last row of the stride-n record search for ratios p_{j+n}/p_j above k,
    and the answer is p_{n+j} (p_n when nothing fails).  Raises InconclusiveError
    when the last failure is past scan_limit/2, because the tail cannot then
    be trusted.
    """
    if n < 1:
        raise DomainError(f"Ramanujan index must be >= 1, got {n}")
    if k <= 1:
        raise DomainError(f"threshold k must exceed 1, got {k}")
    if scan_limit < 4:
        raise RangeError(f"scan limit {scan_limit} too small")
    store = shared_store(record_prefix(scan_limit, k, n))
    # a failing j has k*p_j < p_{j+n} <= record_prefix(scan_limit, k, n), so a
    # store short of scan_limit holds every failing j, each a critical point
    short, count = store.limit < scan_limit, store.count
    if n > count:
        raise InconclusiveError(f"fewer than {n} primes below scan limit {scan_limit}")
    last = store.prime_count(min(scan_limit / k, store.limit))  # the last k*p_j
    # unless p_{last+n} > scan_limit >= k*p_last, and then j = last fails
    if 0 < last and (short or last <= count - n):
        rows = breakpoints(k, min(last + n, count), store, n)
        last = rows[-1].index - n if rows else 0
    p = store.nth_prime(last) if last else 0
    if 2 * k * p > scan_limit:
        raise InconclusiveError(f"last failing point k*{p} is above {scan_limit}/2")
    # From k*p_j on, pi(x/k) = j up to the next critical point, which passes,
    # so D(x) >= n exactly from p_{n+j} on.
    return store.nth_prime(n + last), n + last


def breakpoints(
    k_min: Fraction, index_limit: int, store: PrimeStore, n: int = 1
) -> list[BreakpointEntry]:
    """Right-to-left strict record ratios p_a/p_{a-n} over indices
    [n + 1, index_limit]; prev_prime is p_{a-n}, the gap ratio's for n = 1.

    Entry a is kept iff p_a/p_{a-n} beats every later ratio in range and
    exceeds k_min strictly; sorted by index, the ratios strictly decrease.
    Right to left, a chunk whose smallest p_(a-n) is p_min passes only its gaps
    past (num - den) * p_min // den, for the best ratio num/den so far, to the
    big-int check.
    """
    if not n + 1 <= index_limit <= store.count:
        raise RangeError(f"index limit {index_limit} outside {n + 1}..{store.count}")
    primes = store.primes
    out: list[BreakpointEntry] = []
    num, den = k_min.numerator, k_min.denominator  # the ratio to beat
    for s in reversed(range(n, index_limit, _RATIO_CHUNK)):  # p_a = primes[j], j >= s
        e = min(s + _RATIO_CHUNK, index_limit)
        gaps = map(sub, primes[s:e][::-1], primes[s - n : e - n][::-1])
        cut = (num - den) * primes[s - n] // den
        for j in compress(range(e - 1, s - 1, -1), map(cut.__lt__, gaps)):
            pa, pa_prev = primes[j], primes[j - n]
            if pa * den > num * pa_prev:
                out.append(BreakpointEntry(j + 1, pa, pa_prev, Fraction(pa, pa_prev)))
                num, den = pa, pa_prev
    out.reverse()
    return out


def k_equals_gap_ratio(k: Fraction, bound: int) -> bool:
    """True when k is exactly some gap ratio p_n/p_{n-1} with p_n <= bound.

    Any gap ratio counts, though only a record row of breakpoints closes a
    breakpoint interval (3/2 counts; R_1 = 11 on both sides of it).  Consecutive
    primes are coprime, so this holds iff k's lowest terms are p_n over p_{n-1}:
    the denominator and the numerator are the first two primes from it.
    """
    num, den = k.numerator, k.denominator
    return num <= bound and list(islice(filter(_is_prime, count(den)), 2)) == [den, num]


def _is_prime(n: int) -> bool:
    """Trial division by odd d <= sqrt(n): at most 22,400 below the sieve budget."""
    odd = range(3, math.isqrt(n) + 1, 2)
    return n == 2 or n % 2 == 1 and n > 1 and all(n % d for d in odd)
