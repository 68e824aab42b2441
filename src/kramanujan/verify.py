"""Empirical verification of short-interval prime theorems over prime ranges.

Each segment owns the pairs (p, q) whose q it holds; its mask, from MAX_GAP
below it, holds p too.  A scan slice whose largest gap is at most
GapTheorem.gap_floor on it is certified with no float for every real x in it.
So is, unsieved, a segment above lo whose row (low, high) of the committed
segments.csv has its largest gap within gap_floor from the mask's start: a
result rests on that table as compute's rests on records.csv.  Other slices go
to a float64 prescreen whose guard leaves the doubtful gaps to exact checks;
one check per gap (p, q), at x = p or at x = lo inside it, covers every real x
where log x >= e, as x(1 + c/log^e x) has slope 1 + c(log x - e)/log^(e+1) x >= 1.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_right
from typing import NamedTuple

from .core import _table
from .errors import DomainError, RangeError
from .primes import segment_primes, segments
from .theorems import GapTheorem

# Relative guard of the prescreen of x(1 + c/log^e x), which decides only finite
# values: then e <= 7547 (log^e 3 is finite), x < 2^53 is exact, and with np.log
# within a few ulp the relative error is near e*2^-51, under 4*10^-12.
PRESCREEN_GUARD = 1e-9

# Gap pairs per scan slice.  gap_floor passes most slices with no float; the
# slices bound the float path's memory (scanning each whole segment as one
# slice raised a verify's peak RSS by 8-9 %, and slices of 2^16 pairs by 4-7 %
# over 2^14).  Semantically invisible: reports are identical for any positive
# value (tested).
_SCAN_PAIRS = 1 << 14


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


def _scan_chunk(thm: GapTheorem, p: np.ndarray, q: np.ndarray, lo: int) -> list:
    """Violating pairs (q > lo) of a slice: none, with no float, within gap_floor."""
    if len(p) and (q - p).max() <= thm.gap_floor(max(int(p[0]), lo), int(q[-1])):
        return []
    return _prescreen(thm, p, q, lo)


def _prescreen(thm: GapTheorem, p: np.ndarray, q: np.ndarray, lo: int) -> list:
    """Violating pairs of a slice: the float prescreen, then exact rechecks."""
    import numpy as np
    x = np.maximum(p, lo).astype(np.float64)
    c = float(thm.c) if thm.c <= sys.float_info.max else np.inf
    e = min(thm.e, sys.float_info.max)
    with np.errstate(over="ignore", invalid="ignore"):
        log_pow = np.log(x) ** e  # inf past e = 7547
        thr = x * (1.0 + c / log_pow)
        margin = (thr - q) / thr
        margin[~np.isfinite(log_pow + thr)] = 0.0  # inside the guard: exact
        bad = np.isnan(thr)  # c/log^e x = inf/inf: exp(ln c - e ln ln x) instead
        ln_c = math.log(thm.c.numerator) - math.log(thm.c.denominator)  # c > 0
        thr[bad] = x[bad] * (1.0 + np.exp(ln_c - e * np.log(np.log(x[bad]))))
    fails = margin <= -PRESCREEN_GUARD
    for j in np.flatnonzero((margin < PRESCREEN_GUARD) & ~fails).tolist():
        fails[j] = not thm.threshold_exceeds(max(int(p[j]), lo), int(q[j]))
    return list(zip(p[fails].tolist(), q[fails].tolist(), thr[fails].tolist()))


def _scan_segment(thm: GapTheorem, segment, lo: int) -> tuple[int, list]:
    """Sieve one segment and scan, in slices, the pairs (p, q) whose q it holds,
    with q > lo: the number of pairs and the violations."""
    primes = segment_primes(segment(), segment.args[0])
    a = int(primes.searchsorted(max(lo, segment.args[1] - 1), side="right"))
    p, q, step = primes[a - 1 : -1], primes[a:], _SCAN_PAIRS
    found = []
    for s in range(0, len(p), step):
        found += _scan_chunk(thm, p[s : s + step], q[s : s + step], lo)
    return len(p), found


def verify_theorem(thm: GapTheorem, lo: int, hi: int) -> VerificationReport:
    """Check the pi(hi) - pi(lo) pairs of consecutive primes (p, q) with
    lo < q <= hi, each segment by its row or else by a sieve.

    Zero violations certifies the statement empirically for all real x from lo
    to the last pair's start, when log lo >= e or each slice met its gap_floor.
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
    rows = {r[:2]: r[2:4] for r in _table("segments.csv")[1]}  # (low, high): n, gap
    pairs, violations = 0, []
    for seg in parts[t:]:
        start, low, high = seg.args[:3]
        row = rows.get((low, high))
        if row and low > lo and row[1] <= thm.gap_floor(start, high):
            pairs += row[0]
        else:
            count, found = _scan_segment(thm, seg, lo)
            pairs += count
            violations += found
    elapsed = time.perf_counter() - began
    return VerificationReport(thm, lo, hi, pairs, violations, elapsed)
