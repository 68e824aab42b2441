import bisect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_record_prefix():
    # the prefix at 1.00001, below every k that compute answers; R_9^(2)'s is
    # 9 * 292 * 2; k <= 1 keeps the limit
    assert primes_mod.record_prefix(2 * 10**9, Fraction(100001, 100000)) == 29_200_292
    assert primes_mod.record_prefix(10**6, Fraction(100001, 100000)) == 10**6
    assert primes_mod.record_prefix(10**6, Fraction(2), 9) == 5256
    for k in (Fraction(1), Fraction(1, 2)):
        assert primes_mod.record_prefix(1000, k) == 1000
    # the full limit is checked, though its prefix (584) is in budget
    with pytest.raises(ResourceLimitError, match="budget"):
        primes_mod.record_prefix(DEFAULT_SIEVE_BUDGET + 1, Fraction(2))
    with pytest.raises(RangeError):
        primes_mod.record_prefix(-1, Fraction(2))


@pytest.mark.parametrize("n", [1, 2, 9])
def test_record_prefix_holds_every_ratio_above_k(store_60k, n):
    ps = store_60k.primes.tolist()
    for k in map(Fraction, ["1.1", "1.01", "1.001", "1.0008968291", "1.0002"]):
        prefix = primes_mod.record_prefix(store_60k.limit, k, n)
        above = [q for p, q in zip(ps, ps[n:]) if q * k.denominator > k.numerator * p]
        assert above and max(above) <= prefix


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


@pytest.fixture(scope="module")
def odd_trial_primes_1m():
    """Primes <= 10^6 by trial division of odd n by the primes up to sqrt(n)."""
    found = [2]
    for n in range(3, 10**6 + 1, 2):
        root = math.isqrt(n)
        for p in found:  # ends at a divisor or past the root, which found reaches
            if p > root or n % p == 0:
                break
        if p > root:
            found.append(n)
    return found


# Around the wheel's last prime; 169 = 13^2, which only the wheel strikes (the
# base primes up to 13 are all wheel primes); and both sides of the end of the
# pattern's first period, 2 * 15015 integers from 1.
WHEEL_LIMITS = [13, 14, 17, 169, 2 * 15015 - 2, 2 * 15015 + 2, 10**6]


@pytest.mark.parametrize("limit", WHEEL_LIMITS)
@pytest.mark.parametrize("odds", [primes_mod._SEGMENT_ODDS, 15014, 1000])
def test_wheel_sieve_matches_trial_division(
    limit, odds, odd_trial_primes_1m, monkeypatch
):
    # segments shorter than the pattern's 15015 odds start it at varied phases
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", odds)
    want = odd_trial_primes_1m[: bisect.bisect_right(odd_trial_primes_1m, limit)]
    assert sieve_upto(limit).primes.tolist() == want


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


# (low, high) of each segment to the budget
BUDGET_SEGMENTS = [seg.args[1:3] for seg in primes_mod.segments(DEFAULT_SIEVE_BUDGET)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, DEFAULT_SIEVE_BUDGET)
       | st.sampled_from([low + d for low, _ in BUDGET_SEGMENTS for d in (-1, 0, 1)]))
def test_segments_are_the_budgets_to_the_last(limit):
    # a segment's bounds depend on its low alone, so to any limit the segments
    # are the budget's, the last truncated at limit + 1: even spans that tile
    # [3, limit], each mask from MAX_GAP below its low
    parts = [*primes_mod.segments(limit)]
    got = [seg.args[1:3] for seg in parts]
    assert got[:-1] == BUDGET_SEGMENTS[: len(got)][:-1]
    assert [3, *(high for _, high in got)] == [*(low for low, _ in got),
                                               max(limit + 1, 3)]
    if got:
        low, high = BUDGET_SEGMENTS[len(got) - 1]
        assert got[-1] == (low, min(high, limit + 1)) and high > limit
    assert all((high - low) % 2 == 0 for low, high in BUDGET_SEGMENTS)
    assert [seg.args[0] for seg in parts] == [max(3, low - primes_mod.MAX_GAP)
                                             for low, _ in got]


def test_segments_grow_with_their_low():
    # 2^17 integers (a 64 KiB mask) to 4,194,307, doubling each octave to
    # 2^21 from 33,554,435; every 2^21 seam of a uniform layout is a low
    spans = {low: high - low for low, high in BUDGET_SEGMENTS}
    assert spans[3] == spans[4_063_235] == 2**17
    assert spans[4_194_307] == 2**18 and spans[33_554_435] == 2**21
    assert all(span <= 2 * primes_mod._SEGMENT_ODDS for span in spans.values())
    assert set(range(3, DEFAULT_SIEVE_BUDGET, 2**21)) <= spans.keys()


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
    # a read-only memoryview of 4-byte unsigned ints
    assert (store_60k.primes.format, store_60k.primes.itemsize) == ("I", 4)
    with pytest.raises(TypeError, match="read-only"):
        store_60k.primes[0] = 4


# segments.csv's first row, [3, 131075) with 12,250 primes, whose midpoint is 65,539
ROW_0 = (3, 131_075, 12_250, 72, 31_397)


@pytest.mark.parametrize("odds", [primes_mod._SEGMENT_ODDS, 40_000])
@pytest.mark.parametrize("x", [3, 4, 65_538, 65_539, 79_000, 80_002])
def test_count_to_from_the_nearer_end(store_10m, odds, x, monkeypatch):
    # from 65,539 on, 12,250 less the primes of (x, 131075); with segments of
    # 80,000 integers the row shares the first segment's low but not its high,
    # so the index gives the segment no row, and the count sieves [3, x]; the
    # segment's own mask, which limit x truncates, is counted from low
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", odds)
    seg, row, n = next(primes_mod._index(x))
    assert (row, n) == (None if odds == 40_000 else ROW_0, 0)
    assert primes_mod._count_to(seg, x, row) == store_10m.prime_count(x) - 1
    assert primes_mod._count_to(seg, x, row, seg()) == store_10m.prime_count(x) - 1


# the first, second and last segments; the last holds p_pi(2e9) = 1,999,999,973
@pytest.mark.parametrize("x", [3, 131_075, 1_999_999_973])
def test_nth_one_at_a_full_segment_count(x):
    # counted forward from low, the row's count of ones is its last prime's
    # byte (no segment ends on a prime), and one more is past every one
    seg, row, _ = next(primes_mod._index(DEFAULT_SIEVE_BUDGET, x))
    start, low = seg.args[:2]
    mask, b = seg(), (low - start) // 2
    assert primes_mod._nth_one(mask, b, row[2]) == mask.rfind(1) < len(mask) - 1
    assert primes_mod._nth_one(mask, b, row[2] + 1) == len(mask) - 1
