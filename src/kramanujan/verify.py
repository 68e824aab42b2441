"""Empirical verification of short-interval prime theorems over prime ranges.

Each segment owns the pairs (p, q) whose q it holds; its mask, from MAX_GAP
below it, holds p too.  A gap at most GapTheorem.gap_floor on its scan slice is
certified with no float for every real x in it, and so is, unscanned, a segment
whose segments.csv row has its largest gap within gap_floor from the mask's start
to the row's high.  Other gaps, runs of zero bytes, go to a float prescreen whose
guard leaves the doubtful ones to exact checks; one check per gap (p, q), at x = p
or at x = lo in it, covers every real x where log x >= e, as x(1 + c/log^e x) has
slope 1 + c(log x - e)/log^(e+1) x >= 1.  A segment that lo or hi = x cuts is
counted from x's nearer end: [low, x], or its row's count less (x, high).
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_right
from itertools import chain, islice, zip_longest
from typing import Iterable, Iterator, NamedTuple

from .core import _table
from .errors import DomainError, RangeError
from .primes import MAX_GAP, _count_to, _gaps, _slices, segments
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
    num, den = thm.c.numerator, thm.c.denominator  # c > 0; no Fraction compare
    c = num / den if num <= int(sys.float_info.max) * den else math.inf
    ln_c = math.log(num) - math.log(den)
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


def _violations(thm: GapTheorem, lo: int, todo: list, mask: bytearray | None):
    """Each scan slice's violations, in order, over todo's (segment, byte of its
    first q): the pairs (p, q) whose q it holds, with q > lo; a slice with no gap
    past its floor yields nothing.  mask, unless None, is the first segment's,
    already sieved; one mask is alive at a time."""
    for seg, a in todo:
        start = seg.args[0]
        mask = seg() if mask is None else mask
        for b0, b1 in _slices(a, len(mask)):
            xa = max(start + 2 * mask.rfind(1, 0, b0), lo)  # the slice's first p
            floor = min(thm.gap_floor(xa, start + 2 * b1 - 2), MAX_GAP)
            if gaps := _gaps(mask, start, b0, b1, floor // 2):
                yield _prescreen(thm, gaps, lo)
        mask = None  # dropped before the next segment is sieved


def scan_theorem(thm: GapTheorem, lo: int, hi: int) -> tuple[int, Iterator]:
    """pi(hi) - pi(lo), the number of pairs of consecutive primes (p, q) with
    lo < q <= hi, and a lazy iterator of their violations (p, q, threshold at
    x = max(p, lo)) in order.  The count, before the scan, is the rows' of the
    full segments from lo's, less its primes up to lo, with those up to hi of a
    last one that hi truncates, each counted by _count_to from the nearer end
    (lo's from its mask, if it is kept to be scanned); a segment whose row
    certifies it is not scanned.

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
    parts = segments(hi)
    t = bisect_right(parts, lo, key=lambda seg: seg.args[1]) - 1  # it holds lo
    rows = islice(_table("segments.csv", t, len(parts)), 1, None)  # row i: segment i
    pairs, todo = 0, []  # the segments to scan
    for seg, row in zip_longest(parts[t:], rows, fillvalue=()):
        start, low, high = seg.args[:3]
        a = (max(lo + 1, low) - start + 1) // 2  # the byte of the first q
        # certified if its row's gap (over a superset of its pairs) is within the floor
        if row[:1] != (low,) or row[3] > thm.gap_floor(start, row[1]):
            todo.append((seg, a))
            if low <= lo:  # lo's, counted below from its kept mask
                continue
        pairs += row[2] if row[:2] == (low, high) else _count_to(seg, high - 1, row)
        pairs -= _count_to(seg, lo, row) if low <= lo else 0
    seg = parts[t]
    first = seg() if todo and todo[0][0] is seg else None
    if first is not None:  # from the first odd past lo
        pairs += first.count(1, (lo - seg.args[0]) // 2 + 1)
    return pairs, chain.from_iterable(_violations(thm, lo, todo, first))


def verify_theorem(thm: GapTheorem, lo: int, hi: int) -> VerificationReport:
    """scan_theorem's count and violations, listed, as a timed report."""
    began = time.perf_counter()
    pairs, violations = scan_theorem(thm, lo, hi)
    violations = list(violations)
    elapsed = time.perf_counter() - began
    return VerificationReport(thm, lo, hi, pairs, violations, elapsed)
