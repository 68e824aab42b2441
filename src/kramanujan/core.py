"""First (and nth) k-Ramanujan primes: definition-level oracle, fast
characterization path, explicit upper bounds, and the breakpoint table."""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InconclusiveError, RangeError, UnsupportedRangeError
from .primes import PrimeStore, sieve_upto
from .theorems import BUILTIN_THEOREMS, GapTheorem

_K_PATTERN = re.compile(r"^\s*(\d+(?:\.\d{1,15})?|\d+/0*[1-9]\d*)\s*$")

# The largest sieve built so far.  A bigger store answers any smaller
# request identically because all searches are index-bounded.
_shared: PrimeStore | None = None


def parse_k(text: str) -> Fraction:
    """Parse a threshold k from a decimal (<= 15 fractional digits) or 'p/q'.

    Raises ValueError on malformed input or a k past the float range,
    DomainError when k <= 1.
    """
    m = _K_PATTERN.match(text)
    if not m:
        raise ValueError(f"cannot parse threshold {text!r}")
    k = Fraction(m.group(1))
    if k <= 1:
        raise DomainError(f"threshold k must exceed 1, got {k}")
    try:
        float(k)
    except OverflowError:
        raise ValueError("threshold k is past the float range (1.8e308)") from None
    return k


@dataclass(frozen=True)
class BreakpointEntry:
    """One ratio-record row: p_index/p_{index-1} beats every later gap ratio."""

    index: int
    prime: int
    prev_prime: int
    ratio: Fraction


def shared_store(limit: int) -> PrimeStore:
    """Cached sieve reaching at least ``limit``.

    The cached store is reused for any request it covers; otherwise exactly
    ``limit`` is sieved and replaces it.
    """
    global _shared
    if _shared is None or _shared.limit < limit:
        _shared = sieve_upto(limit)
    return _shared


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


def first_k_ramanujan(k: Fraction) -> tuple[int, int]:
    """R_1^(k) and its 1-based prime index.

    The answer is p_m for m = max{n >= 2 | p_n/p_{n-1} > k}, the last row
    of the record table above k, or 2 when no gap ratio exceeds k; past the
    certified bound no ratio exceeds k, so only the primes up to it are
    searched, in the shared store.
    """
    bound = certified_bound(k)
    store = shared_store(bound)
    rows = breakpoints(k, store.prime_count(bound), store)
    return (rows[-1].prime, rows[-1].index) if rows else (2, 1)


def brute_force_R(k: Fraction, n: int, scan_limit: int) -> int:
    """Definition-level oracle for R_n^(k) by exhaustive critical-point scan.

    The deficiency D(x) = pi(x) - pi(x/k) can only drop where pi(x/k) jumps,
    i.e. at x = k*p; every x below p_n fails trivially since pi(x) < n
    there.  After the last failing point k*p_j the answer is p_{n+j}.
    Raises InconclusiveError when the last failure is past scan_limit/2,
    because the tail cannot then be trusted.
    """
    if n < 1:
        raise DomainError(f"Ramanujan index must be >= 1, got {n}")
    if k <= 1:
        raise DomainError(f"threshold k must exceed 1, got {k}")
    if scan_limit < 4:
        raise RangeError(f"scan limit {scan_limit} too small")
    store = shared_store(scan_limit)
    primes = store.primes
    num, den = k.numerator, k.denominator
    if n > store.prime_count(scan_limit):
        raise InconclusiveError(f"fewer than {n} primes below scan limit {scan_limit}")

    # Critical points x = k*p for primes p with k*p <= scan_limit.
    p_hi = (scan_limit * den) // num
    count = int(np.searchsorted(primes, p_hi, side="right"))
    ps = primes[:count].tolist()
    floors = np.fromiter(
        ((num * p) // den for p in ps), dtype=np.int64, count=count
    )
    pi_at = np.searchsorted(primes, floors, side="right")
    deficiency = pi_at - (np.arange(count) + 1)
    failing = np.flatnonzero(deficiency < n)
    last = 0  # 1-based index j of the last failing critical point k*p_j
    if len(failing):
        last = int(failing[-1]) + 1
        if 2 * num * ps[last - 1] > scan_limit * den:
            raise InconclusiveError(
                f"last failing point k*{ps[last - 1]} is above {scan_limit}/2"
            )
    # From k*p_j on, pi(x/k) = j up to the next critical point, which passes,
    # so D(x) >= n exactly from p_{n+j} on (from p_n when nothing fails).
    return store.nth_prime(n + last)


def breakpoints(
    k_min: Fraction, index_limit: int, store: PrimeStore
) -> list[BreakpointEntry]:
    """Right-to-left strict record gap ratios over indices [2, index_limit].

    Entry a is kept iff p_a/p_{a-1} beats every later ratio in range and
    exceeds k_min strictly.  Output is sorted by index, so ratios strictly
    decrease along the list.

    Float prescreen, then exact confirmation: float(k_min) and each float
    ratio of two integers below 2^53 are correctly rounded, and rounding is
    monotone, so a record's float ratio is >= float(k_min) and equals the
    float maximum of the ratios after it; only those reach the big-int check.
    """
    if not 2 <= index_limit <= store.count:
        raise RangeError(f"index limit {index_limit} outside 2..{store.count}")
    primes = store.primes[:index_limit]
    ratios = np.divide(primes[1:], primes[:-1])
    # every gap ratio is below 2 (Bertrand), and a huge k_min overflows a float
    near = np.flatnonzero(ratios >= float(min(k_min, 2)))
    r = ratios[near]
    del ratios
    candidates = near[r == np.maximum.accumulate(r[::-1])[::-1]]
    out: list[BreakpointEntry] = []
    best_num, best_den = k_min.numerator, k_min.denominator  # ratio to beat
    for j in reversed(candidates.tolist()):
        pa, pa_prev = int(primes[j + 1]), int(primes[j])
        if pa * best_den > best_num * pa_prev:
            out.append(BreakpointEntry(j + 2, pa, pa_prev, Fraction(pa, pa_prev)))
            best_num, best_den = pa, pa_prev
    out.reverse()
    return out


def k_equals_gap_ratio(k: Fraction, store: PrimeStore) -> bool:
    """True when k is exactly some gap ratio p_n/p_{n-1} in the store.

    Any gap ratio counts, though only a record row of breakpoints closes a
    breakpoint interval (3/2 counts; R_1 = 11 on both sides of it).  Consecutive
    primes are coprime, so this holds iff k's lowest terms are p_n over p_{n-1}.
    """
    primes = store.primes
    j = int(np.searchsorted(primes, k.denominator))
    return primes[j : j + 2].tolist() == [k.denominator, k.numerator]
