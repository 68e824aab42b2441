"""Regenerate src/kramanujan/segments.csv and src/kramanujan/records.csv, the
exact tables that `kramanujan verify` and `kramanujan compute` read, from one
pass over the sieve segments to the horizon.

Usage, from the repository root (the directory defaults to the package's):

    PYTHONPATH=src python scripts/records.py [DIR]

segments.csv has a header line, then one row low,high,primes,gap,prev per
segment [low, high) of primes.segments(horizon): the number of primes in
[low, high), and the largest gap q - p of the pairs (p, q) whose q lies in
[low, high), with its lower prime p (the first on a tie; 0,0 when the segment
owns no pair).  Each mask also holds the prime before its segment, so no row
needs another.

records.csv has a header line with the floor and horizon.  Each row
a,prime,prev_prime is an index a <= pi(horizon) whose gap ratio
p_a/p_(a-1) exceeds the floor and every later ratio up to the horizon.  Two
facts give the rows:

1. p_a/p_(a-1) = 1 + gap/p_(a-1), so with G the largest gap up to the
   horizon, a ratio exceeds the floor only where p_(a-1) < G/(floor - 1),
   and every ratio past that point is at most the floor.
2. So the rows are breakpoints(floor) on the primes up to
   G/(floor - 1) + G.  G is the largest gap of segments.csv: 292, after
   1,453,168,141, below 2*10^9 (Oliveira e Silva, Herzog and Pardi, Math.
   Comp. 83, 2014), so the prefix ends at 29,200,292.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from kramanujan.core import breakpoints
from kramanujan.primes import DEFAULT_SIEVE_BUDGET, segments, sieve_upto

# certified_bound(FLOOR) is past the horizon, and the bound does not increase
# with k, so every k whose bound is within the horizon exceeds FLOOR.
FLOOR = Fraction(100001, 100000)


def segment_rows(horizon: int) -> list[tuple[int, int, int, int, int]]:
    """Rows (low, high, primes in [low, high), largest owned gap, its lower
    prime) of the segments of [3, horizon], in order."""
    rows = []
    for part in segments(horizon):
        start, low, high = part.args[:3]
        primes = np.frombuffer(part(), np.bool_).nonzero()[0] * 2 + start
        a = int(primes.searchsorted(low))  # the first prime the segment holds
        owned = primes[max(a - 1, 0) :]  # from the prime before it, if any
        gaps = np.diff(owned)
        j = int(gaps.argmax()) if len(gaps) else None
        gap, prev = (0, 0) if j is None else (int(gaps[j]), int(owned[j]))
        rows.append((low, high, len(primes) - a, gap, prev))
    return rows


def records(floor: Fraction, horizon: int, gap: int) -> list[tuple[int, int, int]]:
    """Rows (a, p_a, p_(a-1)) in index order, for floor > 1 and gap the largest
    prime gap up to the horizon."""
    num, den = floor.numerator, floor.denominator
    store = sieve_upto(min(horizon, gap * den // (num - den) + gap))
    rows = breakpoints(floor, store.count, store)
    return [(r.index, r.prime, r.prev_prime) for r in rows]


def write_table(path: Path, header: str, rows: list[tuple[int, ...]]) -> None:
    lines = [header, *(",".join(map(str, r)) for r in rows)]
    path.write_text("".join(line + "\n" for line in lines))


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else Path(__file__).parents[1] / "src" / "kramanujan"
    floor, horizon = FLOOR, DEFAULT_SIEVE_BUDGET
    parts = segment_rows(horizon)
    rows = records(floor, horizon, max(r[3] for r in parts))
    write_table(out / "segments.csv", "low,high,primes,gap,prev", parts)
    header = f"floor {floor.numerator}/{floor.denominator} horizon {horizon}"
    write_table(out / "records.csv", header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
