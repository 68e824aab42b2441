"""Regenerate src/kramanujan/segments.csv, the exact table that the package's
walks over the sieve segments read, from one pass over the segments to the
horizon.

Usage, from the repository root (the directory defaults to the package's):

    PYTHONPATH=src python scripts/records.py [DIR]

segments.csv has a header line, then one row low,high,primes,gap,prev per
segment [low, high) of primes.segments(horizon), 1,018 rows: segments of 2^17
integers up to 4,194,307, twice as long each octave after, and 2^21 from
33,554,435 on, so row i is segment i of the segments to any x.  A row holds
the number of primes in [low, high), and the largest gap q - p of the pairs
(p, q) whose q lies in [low, high), with its lower prime p (the first on a
tie; 0,0 when the segment owns no pair).  Each mask also holds the prime
before its segment, so no row needs another.

The largest gap of the rows is checked to be within MAX_GAP, on which every
record prefix rests: it is 292, after 1,453,168,141, below 2*10^9 (Oliveira
e Silva, Herzog and Pardi, Math. Comp. 83, 2014).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from pathlib import Path

from kramanujan.primes import DEFAULT_SIEVE_BUDGET, MAX_GAP, segments


def segment_rows(horizon: int) -> list[tuple[int, int, int, int, int]]:
    """Rows (low, high, primes in [low, high), largest owned gap, its lower
    prime) of the segments of [3, horizon], in order.  A gap of 2h + 2 or more
    is a run of h zero bytes before a one, so the largest h with such a run is
    bisected with bytearray.find, and its first run gives the gap's prime."""
    rows = []
    for part in segments(horizon):
        start, low, high = part.args[:3]
        mask, b = part(), (low - start) // 2
        a = max(mask.rfind(1, 0, b), 0)  # the prime before low, or 3
        h = bisect_left(range(len(mask)), True,
                        key=lambda z: mask.find(bytes(z) + b"\1", a + 1) < 0)
        j = mask.find(bytes(h - 1) + b"\1", a + 1) if h else -1
        gap, prev = (2 * h, start + 2 * mask.rfind(1, 0, j)) if h else (0, 0)
        rows.append((low, high, mask.count(1, b), gap, prev))
    return rows


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else Path(__file__).parents[1] / "src" / "kramanujan"
    horizon = DEFAULT_SIEVE_BUDGET
    rows = segment_rows(horizon)
    if (gap := max(r[3] for r in rows)) > MAX_GAP:  # record_prefix's G
        raise RuntimeError(f"a prime gap of {gap} below {horizon} exceeds {MAX_GAP}")
    lines = ["low,high,primes,gap,prev", *(",".join(map(str, r)) for r in rows)]
    (out / "segments.csv").write_text("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
