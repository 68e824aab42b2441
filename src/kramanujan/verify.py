"""Empirical verification of short-interval prime theorems over prime ranges.

Each segment owns the pairs (p, q) whose q it holds; its mask, from MAX_GAP
below it, holds p too.  A gap at most GapTheorem.gap_floor on its scan slice is
certified with no float for every real x in it, and so is, unsieved, a segment
above lo whose segments.csv row has its largest gap within gap_floor from the
mask's start.  Other gaps, runs of zero bytes, go to a float prescreen whose guard
leaves the doubtful ones to exact checks; one check per gap (p, q), at x = p or at
x = lo in it, covers every real x where log x >= e, as x(1 + c/log^e x) has slope
1 + c(log x - e)/log^(e+1) x >= 1.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_right
from itertools import zip_longest
from typing import Iterable, NamedTuple

from .core import _table
from .errors import DomainError, RangeError
from .primes import MAX_GAP, _gaps, _slices, segments
from .theorems import GapTheorem

# Relative guard of the prescreen of x(1 + c/log^e x), which decides only finite
# values: then e <= 7547 (log^e 3 is finite), x < 2^53 is exact, and with libm's
# log and pow within an ulp the relative error is near e*2^-51, under 4*10^-12.
PRESCREEN_GUARD = 1e-9


class VerificationReport(NamedTuple):
    theorem: GapTheorem
    lo: int
    hi: int
    pairs_checked: int
    violations: list[tuple[int, int, float]]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _prescreen(thm: GapTheorem, pairs: Iterable[tuple[int, int]], lo: int) -> list:
    """Violations (p, q, threshold at x = max(p, lo)) among gap pairs: the float
    prescreen, then exact rechecks."""
    c = float(thm.c) if thm.c <= sys.float_info.max else math.inf
    ln_c = math.log(thm.c.numerator) - math.log(thm.c.denominator)  # c > 0
    e, log, guard, found = thm.e, math.log, PRESCREEN_GUARD, []
    for p, q in pairs:
        x = p if p > lo else lo  # only a segment's first pair can start below lo
        try:
            thr = x * (1.0 + c / log(x) ** e)
            margin = (thr - q) / thr  # nan when thr is inf
        except OverflowError:  # log^e x = inf past e = 7547: c/inf = 0, and for
            # c = inf exp(ln c - e ln ln x), not inf/inf (x(1 + e^709) is inf)
            tail = min(ln_c - min(e, sys.float_info.max) * log(log(x)), 709.0)
            thr, margin = x * (1.0 + math.exp(tail) * (c == math.inf)), math.nan
        if margin >= guard:  # a nan margin, not finite, is decided exactly
            continue
        if margin <= -guard or not thm.threshold_exceeds(x, q):
            found.append((p, q, thr))
    return found


def _scan_segment(thm: GapTheorem, segment, lo: int) -> tuple[int, list]:
    """Sieve one segment and scan, in slices of its mask, the pairs (p, q) whose
    q it holds, with q > lo: the number of pairs and the violations."""
    mask, (start, low) = segment(), segment.args[:2]
    a = (max(lo + 1, low) - start + 1) // 2  # the byte of the first q
    found = []
    for b0, b1 in _slices(a, len(mask)):
        xa = max(start + 2 * mask.rfind(1, 0, b0), lo)  # the slice's first p
        floor = min(thm.gap_floor(xa, start + 2 * b1 - 2), MAX_GAP)
        found += _prescreen(thm, _gaps(mask, start, b0, b1, floor // 2), lo)
    return mask.count(1, a), found


def verify_theorem(thm: GapTheorem, lo: int, hi: int) -> VerificationReport:
    """Check the pi(hi) - pi(lo) pairs of consecutive primes (p, q) with
    lo < q <= hi, each segment by its row or else by a sieve.

    Zero violations certifies the statement empirically for all real x from lo
    to the last pair's start, when log lo >= e or each gap met its slice's floor.
    """
    if lo < max(thm.x0, 3):
        raise DomainError(
            f"scan start {lo} is below {max(thm.x0, 3)}, the larger of the "
            f"theorem's validity threshold {thm.x0} and 3"
        )
    if lo > hi:
        raise RangeError(f"empty verification range [{lo}, {hi}]")
    began = time.perf_counter()
    parts = segments(hi)
    t = bisect_right(parts, lo, key=lambda seg: seg.args[1]) - 1  # it holds lo
    rows = _table("segments.csv", t, len(parts))[1]  # row i: segment i, if a row
    pairs, violations = 0, []
    for seg, row in zip_longest(parts[t:], rows, fillvalue=()):
        start, low, high = seg.args[:3]
        if row[:2] == (low, high) and low > lo and row[3] <= thm.gap_floor(start, high):
            pairs += row[2]
        else:
            count, found = _scan_segment(thm, seg, lo)
            pairs += count
            violations += found
    elapsed = time.perf_counter() - began
    return VerificationReport(thm, lo, hi, pairs, violations, elapsed)
