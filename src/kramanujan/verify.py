"""Empirical verification of short-interval prime theorems over prime ranges.

A scan slice whose largest gap is at most GapTheorem.gap_floor on it is
certified with no float for every real x in it.  So is, by the gate, a segment
above lo whose gap_floor is at least 4 * _GATE_BLOCK - 2 and in which every
full block of _GATE_BLOCK odds holds a prime: no gap there is longer (from the
start of one block to the end of the next), and its primes are never extracted.
Other slices go to a float64 prescreen whose guard leaves the doubtful gaps to
exact checks; one check per gap (p, q), at x = p or at x = lo inside it, covers
every real x where log x >= e, as x(1 + c/log^e x) has slope
1 + c(log x - e)/log^(e+1) x >= 1.
"""

from __future__ import annotations

import builtins
import math
import sys
import time
from bisect import bisect_right
from contextlib import nullcontext
from itertools import repeat
from typing import NamedTuple

from .errors import DomainError, RangeError
from .primes import segment_primes, segments
from .theorems import GapTheorem

# Relative guard of the prescreen of x(1 + c/log^e x), which decides only finite
# values: then e <= 7547 (log^e 3 is finite), x < 2^53 is exact, and with np.log
# within a few ulp the relative error is near e*2^-51, under 4*10^-12.
PRESCREEN_GUARD = 1e-9

# Gap pairs per scan slice.  gap_floor passes most slices with no float; the
# slices bound the float path's memory (scanning each whole segment as one
# slice raised a verify's peak RSS by 8-9 %).  Semantically invisible: reports
# are identical for any positive value (tested).
_SCAN_PAIRS = 1 << 16

# Odds per block of the segment gate.  Semantically invisible (tested).
_GATE_BLOCK = 128

# Segments from which jobs >= 2 scan in processes: a pool costs a CLI call about
# 40 ms to import, fork and join, and two workers save about 1.4 ms a segment.
_POOL_SEGMENTS = 32


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


def _scan_segment(thm: GapTheorem, segment, lo: int) -> tuple:
    """Sieve one segment and scan its pairs (p, q) with q > lo in slices: its
    first and last primes (lists, empty without a prime), pairs, violations."""
    import numpy as np
    mask, low, high = segment(), *segment.args[:2]
    if low >= lo and thm.gap_floor(low, high) >= 4 * _GATE_BLOCK - 2:
        full = len(mask) // _GATE_BLOCK * _GATE_BLOCK
        if full and mask[:full].reshape(-1, _GATE_BLOCK).any(1).all():  # the gate
            first = int(mask[:_GATE_BLOCK].argmax())
            last = len(mask) - 1 - int(mask[full - _GATE_BLOCK :][::-1].argmax())
            pairs = int(np.count_nonzero(mask)) - 1
            return [low + 2 * first], [low + 2 * last], pairs, []
    primes = segment_primes(mask, low)
    a = int(primes[1:].searchsorted(lo, side="right"))
    p, q, step = primes[a:-1], primes[a + 1 :], _SCAN_PAIRS
    found = []
    for s in range(0, len(p), step):
        found += _scan_chunk(thm, p[s : s + step], q[s : s + step], lo)
    return primes[:1].tolist(), primes[-1:].tolist(), len(p), found


def verify_theorem(
    thm: GapTheorem, lo: int, hi: int, jobs: int = 1
) -> VerificationReport:
    """Check the pi(hi) - pi(lo) pairs of consecutive primes (p, q) with
    lo < q <= hi; with ``jobs`` >= 2 and _POOL_SEGMENTS segments or more,
    that many forked processes sieve and scan one segment each.

    Zero violations certifies the statement empirically for all real x from lo
    to the last pair's start, when log lo >= e or each slice met its gap_floor.
    """
    import numpy as np

    if lo < max(thm.x0, 3):
        raise DomainError(
            f"scan start {lo} is below {max(thm.x0, 3)}, the larger of the "
            f"theorem's validity threshold {thm.x0} and 3"
        )
    if lo > hi:
        raise RangeError(f"empty verification range [{lo}, {hi}]")
    start = time.perf_counter()
    parts = segments(hi)
    # from the segment holding lo, after the last prime below it (for the seam)
    t = bisect_right(parts, lo, key=lambda seg: seg.args[0]) - 1
    below = (_scan_segment(thm, s, lo)[1] for s in reversed(parts[:t]))
    last = next(filter(None, below), [])
    pairs, violations = 0, []
    with _pool(jobs if len(parts) - t >= _POOL_SEGMENTS else 1) as pool:
        scans = pool.map(_scan_segment, repeat(thm), parts[t:], repeat(lo))
        for first, end, count, found in scans:
            if last and first and first[0] > lo:  # the seam pair, in order
                violations += _scan_chunk(thm, np.array(last), np.array(first), lo)
                pairs += 1
            pairs += count
            violations += found
            last = end or last  # a segment without a prime carries it over
    elapsed = time.perf_counter() - start
    return VerificationReport(thm, lo, hi, pairs, violations, elapsed)


def _pool(jobs: int):
    """builtins, whose map runs inline, for one job; else a pool of jobs processes
    forked at its first map, after numpy loaded (spawned ones import it again)."""
    if jobs == 1:
        return nullcontext(builtins)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        fork = multiprocessing.get_context("fork")
    except ValueError as e:  # no fork on this platform
        raise ValueError(f"--jobs {jobs} needs processes made by fork: {e}") from None
    return ProcessPoolExecutor(jobs, mp_context=fork)
