"""Definition-level references for the package's record searches: each walks
every index or critical point, with no float prescreen and no segment table."""

from fractions import Fraction

import numpy as np

from kramanujan import BreakpointEntry, DomainError, InconclusiveError, RangeError

# certified_bound(FLOOR) is past the horizon, and the bound does not increase
# with k, so every k whose bound is within the horizon exceeds FLOOR
FLOOR = Fraction(100001, 100000)


def reference_breakpoints(k_min, index_limit, store, n=1):
    """Exact right-to-left record loop over every ratio p_a/p_{a-n}."""
    primes = store.primes[:index_limit].tolist()
    out = []
    best_num, best_den = k_min.numerator, k_min.denominator  # ratio to beat
    for a in range(index_limit, n, -1):
        pa, pa_prev = primes[a - 1], primes[a - 1 - n]
        if pa * best_den > best_num * pa_prev:
            out.append(BreakpointEntry(a, pa, pa_prev, Fraction(pa, pa_prev)))
            best_num, best_den = pa, pa_prev
    out.reverse()
    return out


def critical_point_R(k, n, scan_limit, store):
    """R_n^(k) = p_index as (prime, index) by an exhaustive critical-point scan
    of a store reaching scan_limit, with the checks, errors and messages of
    core.brute_force_R.

    The deficiency D(x) = pi(x) - pi(x/k) can only drop where pi(x/k) jumps,
    i.e. at x = k*p; every x below p_n fails trivially since pi(x) < n
    there.  After the last failing point k*p_j the answer is p_{n+j}.
    Raises InconclusiveError when the last failure is past scan_limit/2.
    """
    if n < 1:
        raise DomainError(f"Ramanujan index must be >= 1, got {n}")
    if k <= 1:
        raise DomainError(f"threshold k must exceed 1, got {k}")
    if scan_limit < 4:
        raise RangeError(f"scan limit {scan_limit} too small")
    assert store.limit >= scan_limit
    primes = np.asarray(store.primes[: store.prime_count(scan_limit)], dtype=np.int64)
    num, den = k.numerator, k.denominator
    if n > len(primes):
        raise InconclusiveError(f"fewer than {n} primes below scan limit {scan_limit}")

    # Critical points x = k*p for primes p with k*p <= scan_limit.
    p_hi = (scan_limit * den) // num
    count = int(np.searchsorted(primes, p_hi, side="right"))
    ps = primes[:count].tolist()
    floors = np.fromiter(((num * p) // den for p in ps), dtype=np.int64, count=count)
    pi_at = np.searchsorted(primes, floors, side="right")
    deficiency = pi_at - (np.arange(count) + 1)
    failing = np.flatnonzero(deficiency < n)
    last = 0  # 1-based index j of the last failing critical point k*p_j
    if len(failing):
        last = int(failing[-1]) + 1
        if 2 * num * ps[last - 1] > scan_limit * den:
            raise InconclusiveError(
                f"last failing point k*{ps[last - 1]} is above {scan_limit}/2"
            )
    # From k*p_j on, pi(x/k) = j up to the next critical point, which passes,
    # so D(x) >= n exactly from p_{n+j} on (from p_n when nothing fails).
    return int(primes[n + last - 1]), n + last
