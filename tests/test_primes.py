import sys
from fractions import Fraction

import numpy as np
import pytest

import kramanujan.primes as primes_mod
from kramanujan import DomainError, RangeError, ResourceLimitError, sieve_upto
from kramanujan.primes import DEFAULT_SIEVE_BUDGET


def trial_division_primes(limit: int) -> list[int]:
    """Independent oracle for sieve output; O(n sqrt n), small limits only."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def gap_pairs(store, lo, hi):
    p, q = store.gap_arrays(lo, hi)
    return list(zip(p.tolist(), q.tolist()))


def test_sieve_small():
    s = sieve_upto(10)
    assert s.primes.tolist() == [2, 3, 5, 7]
    assert s.count == 4


def test_sieve_empty():
    for limit in (0, 1):
        s = sieve_upto(limit)
        assert s.count == 0
        assert s.primes.tolist() == []


def test_sieve_at_58889(store_60k):
    s = sieve_upto(58889)
    assert s.count == 5950
    assert s.primes[-1] == 58889


def test_sieve_negative_limit():
    with pytest.raises(RangeError):
        sieve_upto(-1)


def test_sieve_budget():
    # raises before allocating anything
    with pytest.raises(ResourceLimitError):
        sieve_upto(DEFAULT_SIEVE_BUDGET + 1)


@pytest.mark.parametrize("limit", [*range(101), 1000, 100_000])
def test_sieve_matches_trial_division(limit):
    assert sieve_upto(limit).primes.tolist() == trial_division_primes(limit)


def test_sieve_under_a_tracer():
    # debuggers, coverage and profilers hold extra frame references
    expected = sieve_upto(10**5).primes.tolist()
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: None)
    try:
        traced = sieve_upto(10**5)
    finally:
        sys.settrace(previous)
    assert traced.primes.tolist() == expected


def test_sieve_independent_of_segment_size(monkeypatch):
    expected = sieve_upto(30_000).primes.tolist()
    for odds in (8, 100, 4097):
        monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", odds)
        assert sieve_upto(30_000).primes.tolist() == expected


def test_sieve_limits_straddling_segments(monkeypatch):
    # every limit up to 300 falls just before, on or after a seam; the
    # output array is sized by pi(x) < 1.25506 x/log x, tightest at x = 113
    expected = trial_division_primes(300)
    for odds in (1, 8, 56):
        monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", odds)
        for limit in range(2, 301):
            want = [p for p in expected if p <= limit]
            assert sieve_upto(limit).primes.tolist() == want, (odds, limit)


def test_prime_count_basics(store_60k):
    assert store_60k.prime_count(2) == 1
    assert store_60k.prime_count(1) == 0
    assert store_60k.prime_count(58888) == 5949
    assert store_60k.prime_count(58889) == 5950


def test_prime_count_rational(store_60k):
    # 58888/1.0008968291: pi there equals pi(58888), so the deficiency is 0
    x = Fraction(58888 * 10**10, 10008968291)
    assert store_60k.prime_count(x) == 5949
    assert store_60k.prime_count(Fraction(58888)) - store_60k.prime_count(x) == 0


def test_prime_count_floor_reduction(store_60k):
    for num, den in [(7, 2), (100, 7), (58889, 3), (10, 5)]:
        x = Fraction(num, den)
        assert store_60k.prime_count(x) == store_60k.prime_count(num // den)


def test_prime_count_out_of_range(store_60k):
    with pytest.raises(DomainError):
        store_60k.prime_count(60_001)


def test_prime_count_inverts_nth_prime(store_60k):
    ns = np.arange(1, store_60k.count + 1, 97)
    for n in ns.tolist():
        assert store_60k.prime_count(store_60k.nth_prime(n)) == n


def test_nth_prime(store_60k):
    assert store_60k.nth_prime(1) == 2
    assert store_60k.nth_prime(100) == 541
    assert store_60k.nth_prime(5950) == 58889
    for bad in (0, -1, store_60k.count + 1):
        with pytest.raises(RangeError):
            store_60k.nth_prime(bad)


def test_gap_pairs_enumeration(store_60k):
    assert gap_pairs(store_60k, 2, 7) == [(2, 3), (3, 5), (5, 7), (7, 11)]
    assert gap_pairs(store_60k, 3, 7) == [(3, 5), (5, 7), (7, 11)]


def test_gap_pairs_straddle(store_60k):
    # 58831 and 58889 are consecutive; lo inside that gap yields it first
    pairs = gap_pairs(store_60k, 58840, 58889)
    assert pairs[0] == (58831, 58889)
    assert pairs[-1][0] == 58889


def test_gap_pairs_includes_pair_ending_at_58889(store_60k):
    pairs = gap_pairs(store_60k, 58830, 58889)
    assert (58831, 58889) in pairs
    # lo on a prime starts there, not at the prime before it
    assert gap_pairs(store_60k, 58831, 58889)[0] == (58831, 58889)


def test_gap_pairs_bad_ranges(store_60k):
    for lo, hi in [(7, 2), (1, 10), (2, 100_000)]:
        with pytest.raises(RangeError):
            store_60k.gap_arrays(lo, hi)


def test_store_is_immutable(store_60k):
    with pytest.raises(ValueError):
        store_60k.primes[0] = 4
