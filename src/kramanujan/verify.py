"""Empirical verification of short-interval prime theorems over prime ranges.

Each segment owns the pairs (p, q) whose q it holds; its mask, from MAX_GAP
below it, holds p too.  A gap at most GapTheorem.gap_floor on its scan slice is
certified with no float for every real x in it, and so is, unscanned, a segment
whose row has its largest gap within gap_floor from the mask's start to the
row's high.  Other gaps, runs of zero bytes, go to a float prescreen whose guard
leaves the doubtful ones to exact checks; one check per gap (p, q), at x = p or
at x = lo in it, covers every real x where log x >= e, as x(1 + c/log^e x) has
slope 1 + c(log x - e)/log^(e+1) x >= 1.  The segments, their rows and pi come
from primes' segment index, the one reader of the segment table.
"""

from __future__ import annotations

import math
import sys
import time
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, RangeError
from .primes import MAX_GAP, _count_to, _gaps, _index, _slices
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
        except OverflowError:  # log^e x past the float range: c/log^e x is
            # exp(ln c - e ln ln x), not c/inf = 0 nor inf/inf (x(1 + e^709) is inf)
            tail = min(ln_c - min(e, sys.float_info.max) * log(log(x)), 709.0)
            thr, margin = x * (1.0 + math.exp(tail)), math.nan
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
    x = max(p, lo)) in order.  The count, before the scan, is the index's from
    lo's segment to hi, less that segment's primes up to lo, counted after hi's
    (from its mask if it is kept); a segment whose row certifies it is not scanned.

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
    walk, todo = _index(hi, lo), []  # todo: the segments to scan, with their first q
    lo_seg, lo_row, _ = next(walk)  # lo's segment comes first
    for seg, row, n in chain([(lo_seg, lo_row, 0)], walk):
        start, low = seg.args[:2]
        # certified if its row's gap (over a superset of its pairs) is within the floor
        if row is None or row[3] > thm.gap_floor(start, row[1]):
            todo.append((seg, (max(lo + 1, low) - start + 1) // 2))
    pairs = n + _count_to(seg, hi, row)  # the primes from lo's segment's low to hi
    first = lo_seg() if todo and todo[0][0] is lo_seg else None  # kept to be scanned
    pairs -= _count_to(lo_seg, lo, lo_row, first)  # then counted from its mask
    return pairs, chain.from_iterable(_violations(thm, lo, todo, first))


def verify_theorem(thm: GapTheorem, lo: int, hi: int) -> VerificationReport:
    """scan_theorem's count and violations, listed, as a timed report."""
    began = time.perf_counter()
    pairs, violations = scan_theorem(thm, lo, hi)
    violations = list(violations)
    elapsed = time.perf_counter() - began
    return VerificationReport(thm, lo, hi, pairs, violations, elapsed)
