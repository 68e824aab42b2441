"""Regenerate src/kramanujan/records.csv, the exact record table that
`kramanujan compute` reads R_1^(k) from.

Usage, from the repository root:

    PYTHONPATH=src python scripts/records.py > src/kramanujan/records.csv

The header line gives the table's floor and horizon.  Each row a,prime,
prev_prime is an index a <= pi(horizon) whose gap ratio p_a/p_(a-1) exceeds
the floor and every later ratio up to the horizon.  Two facts give the rows:

1. p_a/p_(a-1) = 1 + gap/p_(a-1), so with G the largest gap up to the
   horizon, a ratio exceeds the floor only where p_(a-1) < G/(floor - 1),
   and every ratio past that point is at most the floor.
2. So the rows are breakpoints(floor) on the primes up to
   G/(floor - 1) + G.  One pass over the sieve segments finds G: 292,
   after 1,453,168,141, below 2*10^9 (Oliveira e Silva, Herzog and Pardi,
   Math. Comp. 83, 2014), so the prefix ends at 29,200,292.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

from kramanujan.core import breakpoints
from kramanujan.primes import DEFAULT_SIEVE_BUDGET, segments, sieve_upto

# certified_bound(FLOOR) is past the horizon, and the bound does not increase
# with k, so every k whose bound is within the horizon exceeds FLOOR.
FLOOR = Fraction(100001, 100000)


def records(floor: Fraction, horizon: int) -> list[tuple[int, int, int]]:
    """Rows (a, p_a, p_(a-1)) in index order, for floor > 1."""
    gap, last = 0, 2  # the largest gap so far, and the last prime
    for part in segments(horizon):
        primes = np.append(last, part())  # the seam's gap too
        gap, last = max(gap, int(np.diff(primes).max(initial=0))), int(primes[-1])
    num, den = floor.numerator, floor.denominator
    store = sieve_upto(min(horizon, gap * den // (num - den) + gap))
    rows = breakpoints(floor, store.count, store)
    return [(r.index, r.prime, r.prev_prime) for r in rows]


def main() -> int:
    floor, horizon = FLOOR, DEFAULT_SIEVE_BUDGET
    lines = [f"floor {floor.numerator}/{floor.denominator} horizon {horizon}\n"]
    lines += [f"{a},{p},{q}\n" for a, p, q in records(floor, horizon)]
    sys.stdout.write("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
