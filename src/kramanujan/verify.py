"""Empirical verification of short-interval prime theorems over prime ranges.

A scan slice whose largest gap is at most GapTheorem.gap_floor on it is
certified with no float for every real x in it.  Other slices go to a float64
prescreen whose guard leaves the doubtful gaps to exact checks; one check per
gap (p, q), at x = p or at x = lo inside it, covers every real x where
log x >= e, as x(1 + c/log^e x) has slope 1 + c(log x - e)/log^(e+1) x >= 1.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError
from .primes import segments
from .theorems import GapTheorem

# Relative guard of the prescreen of x(1 + c/log^e x), which decides only finite
# values: then e <= 7547 (log^e 3 is finite), x < 2^53 is exact, and with np.log
# within a few ulp the relative error is near e*2^-51, under 4*10^-12.
PRESCREEN_GUARD = 1e-9

# Gap pairs per scan slice.  Each float temporary of a slice is 512 KiB,
# so it stays in cache (2^16 and 2^18 scan twice as fast as 2^20).
# Semantically invisible: reports are identical for any positive value
# (tested).
_SCAN_PAIRS = 1 << 16


@dataclass
class VerificationReport:
    theorem: GapTheorem
    lo: int
    hi: int
    pairs_checked: int
    violations: list[tuple[int, int, float]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _scan_chunk(thm: GapTheorem, p: np.ndarray, q: np.ndarray, lo: int) -> list:
    """Violating pairs within one slice: none, with no float, within its gap_floor."""
    if not len(p):
        return []
    floor = thm.gap_floor(max(int(p[0]), lo), max(int(q[-1]), lo))
    if np.subtract(q, p, dtype=np.int32).max() <= floor:  # p, q < 2^31
        return []
    return _prescreen(thm, p, q, lo)


def _prescreen(thm: GapTheorem, p: np.ndarray, q: np.ndarray, lo: int) -> list:
    """Violating pairs of a slice: the float prescreen, then exact rechecks."""
    x = np.maximum(p, lo).astype(np.float64)
    c = float(thm.c) if thm.c <= sys.float_info.max else np.inf
    e = min(thm.e, sys.float_info.max)
    with np.errstate(over="ignore", invalid="ignore"):
        log_pow = np.log(x) ** e  # inf past e = 7547
        thr = x * (1.0 + c / log_pow)
        margin = (thr - q) / thr
        if not np.isfinite(log_pow[-1] + thr[-1]):  # both rise with x
            margin[~np.isfinite(log_pow + thr)] = 0.0  # inside the guard: exact
            bad = np.isnan(thr)  # c/log^e x = inf/inf: exp(ln c - e ln ln x) instead
            ln_c = math.log(thm.c.numerator) - math.log(thm.c.denominator)  # c > 0
            thr[bad] = x[bad] * (1.0 + np.exp(ln_c - e * np.log(np.log(x[bad]))))
    out = []
    for j in np.flatnonzero(margin < PRESCREEN_GUARD).tolist():
        xi, qi = max(int(p[j]), lo), int(q[j])
        if margin[j] <= -PRESCREEN_GUARD or not thm.threshold_exceeds(xi, qi):
            out.append((int(p[j]), qi, float(thr[j])))
    return out


def _scan_segment(thm: GapTheorem, segment, lo: int) -> tuple:
    """Sieve one segment and scan its pairs (p, q) with q > lo in slices: its
    first and last primes (lists, empty without a prime), pairs, violations."""
    primes = segment()
    a = int(np.searchsorted(primes[1:], lo, side="right"))
    p, q, step = primes[a:-1], primes[a + 1 :], _SCAN_PAIRS
    found = []
    for s in range(0, len(p), step):
        found += _scan_chunk(thm, p[s : s + step], q[s : s + step], lo)
    return primes[:1].tolist(), primes[-1:].tolist(), len(p), found


def verify_theorem(
    thm: GapTheorem, lo: int, hi: int, jobs: int = 1
) -> VerificationReport:
    """Check the pi(hi) - pi(lo) pairs of consecutive primes (p, q) with
    lo < q <= hi; ``jobs`` threads sieve and scan one segment each.

    Zero violations certifies the statement empirically for all real x from lo
    to the last pair's start, when log lo >= e or each slice met its gap_floor.
    """
    if lo < max(thm.x0, 3):
        raise DomainError(
            f"scan start {lo} is below the theorem's validity threshold {thm.x0}"
        )
    if lo > hi:
        raise RangeError(f"empty verification range [{lo}, {hi}]")
    start = time.perf_counter()
    pairs, violations, last = 0, [], []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        scans = pool.map(lambda seg: _scan_segment(thm, seg, lo), segments(hi))
        for first, end, count, found in scans:
            if last and first and first[0] > lo:  # the seam pair, in order
                violations += _scan_chunk(thm, np.array(last), np.array(first), lo)
                pairs += 1
            pairs += count
            violations += found
            last = end or last  # a segment without a prime carries it over
    return VerificationReport(
        theorem=thm,
        lo=lo,
        hi=hi,
        pairs_checked=pairs,
        violations=violations,
        elapsed=time.perf_counter() - start,
    )
