"""Regenerate src/kramanujan/records.csv, the exact record table that
`kramanujan compute` reads R_1^(k) from.

Usage, from the repository root:

    PYTHONPATH=src python scripts/records.py > src/kramanujan/records.csv

The header line gives the table's floor and horizon.  Each row a,prime,
prev_prime is an index a <= pi(horizon) whose gap ratio p_a/p_(a-1) exceeds
the floor and every later ratio up to the horizon.  The segments of the sieve
are read from the top down, each with the first prime of the one above it,
and the rows kept so far set the ratio that breakpoints must beat.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

from kramanujan.core import breakpoints
from kramanujan.primes import DEFAULT_SIEVE_BUDGET, PrimeStore, segments

# certified_bound(FLOOR) is past the horizon, and the bound does not increase
# with k, so every k whose bound is within the horizon exceeds FLOOR.
FLOOR = Fraction(100001, 100000)


def records(floor: Fraction, horizon: int) -> list[tuple[int, int, int]]:
    """Rows (a, p_a, p_(a-1)) in index order."""
    parts = segments(horizon)
    # (index in its segment's array, primes from that segment up, p_a, p_(a-1))
    found = []
    seen, best, head = 0, floor, np.empty(0, dtype=np.int64)
    for s in reversed(range(len(parts))):
        own = parts[s]() if s else np.append(2, parts[0]())
        seen += len(own)
        primes = np.append(own, head)
        if len(primes) >= 2:
            rows = breakpoints(best, len(primes), PrimeStore(int(primes[-1]), primes))
            found += [(r.index, seen, r.prime, r.prev_prime) for r in reversed(rows)]
            best = rows[0].ratio if rows else best
        head = own[:1] if len(own) else head
    # a = (primes below the segment) + index = (total - seen) + index
    return [(seen - up + i, p, q) for i, up, p, q in reversed(found)]


def main() -> int:
    floor, horizon = FLOOR, DEFAULT_SIEVE_BUDGET
    lines = [f"floor {floor.numerator}/{floor.denominator} horizon {horizon}\n"]
    lines += [f"{a},{p},{q}\n" for a, p, q in records(floor, horizon)]
    sys.stdout.write("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
