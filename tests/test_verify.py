import math
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kramanujan.cli as cli
import kramanujan.primes as primes_mod
import kramanujan.verify as verify_mod
from kramanujan import (
    AXLER,
    BUILTIN_THEOREMS,
    DUSART,
    DomainError,
    GapTheorem,
    RangeError,
    ResourceLimitError,
    TRUDGIAN,
    sieve_upto,
    verify_theorem,
)

CUSTOM_WEAK = GapTheorem("custom", 58837, Fraction("0.05"), 3)
# custom theorems from x0 = 3 that both hold and fail on gaps below 2*10^4
MIXED = [
    GapTheorem("custom", 3, Fraction(1), 3),
    GapTheorem("custom", 3, Fraction(3, 10), 2),
]
# every gap below 10^9 breaks q <= p(1 + 10^-9/log p), so a report lists every
# pair it checked as a violation, the one at lo first
EVERY_GAP_FAILS = GapTheorem("custom", 3, Fraction(1, 10**9), 1)


def largest_violation(c, e, lo, hi, store):
    """Largest prime p in [lo, hi] whose gap breaks q <= p(1 + c/log^e p),
    or None.  A hit means the candidate parameters (c, e) only hold from
    some x0 > p.  The store's gap_arrays checks the range."""
    probe = GapTheorem("candidate", 2, c, e)
    p, q = (np.asarray(a, dtype=np.int64) for a in store.gap_arrays(lo, hi))
    inside = p >= lo  # threshold is taken at x = p, so straddle is excluded
    pairs = zip(p[inside].tolist(), q[inside].tolist())
    hits = verify_mod._prescreen(probe, pairs, 2)  # ascending
    return hits[-1][:2] if hits else None


def test_builtin_x0_where_the_threshold_rises():
    # x(1 + c/log^e x) has slope >= 1 where log x >= e, so one check per gap
    # covers every real x from any lo >= 3^e; each scan starts at x0 or above
    for thm in BUILTIN_THEOREMS.values():
        assert thm.x0 >= 3**thm.e, thm.name


def test_axler_holds_to_10m():
    report = verify_theorem(AXLER, 58837, 10**7)
    assert report.ok
    assert report.pairs_checked > 600_000


def test_dusart_holds_to_10m():
    report = verify_theorem(DUSART, 396738, 10**7)
    assert report.ok


def test_weak_candidate_fails():
    report = verify_theorem(CUSTOM_WEAK, 58837, 10**6)
    assert not report.ok
    p, q, thr = report.violations[0]
    assert q > thr
    # the gap 58831 -> 58889 already exceeds the tiny allowance
    assert (58831, 58889) in {(v[0], v[1]) for v in report.violations}


def test_straddling_gap_checked_at_lo():
    # lo = 58837 falls inside the gap (58831, 58889); the check runs at
    # x = 58837 and the interval reaches past 58889
    report = verify_theorem(AXLER, 58837, 58890)
    assert report.ok
    assert report.pairs_checked == 1  # pi(58890) - pi(58837)


def test_below_validity_threshold_rejected():
    with pytest.raises(DomainError):
        verify_theorem(AXLER, 1000, 10**6)


def test_range_errors():
    with pytest.raises(RangeError):
        verify_theorem(AXLER, 10**6, 10**5)
    with pytest.raises(ResourceLimitError):
        verify_theorem(AXLER, 58837, primes_mod.DEFAULT_SIEVE_BUDGET + 1)


def test_determinism_across_seams(monkeypatch):
    # the report depends only on [lo, hi]: the pairs end at q <= hi, so the
    # pair 999983 -> 1000003 past 10^6 is not checked
    cases = [(CUSTOM_WEAK, 58837, 10**6, 36_275), (AXLER, AXLER.x0, 10**7, 0)]
    expected = [verify_theorem(t, lo, hi) for t, lo, hi, _ in cases]
    # small slices and segments put both kinds of seam inside both ranges
    monkeypatch.setattr(primes_mod, "_SCAN_ODDS", 1000)
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 100_000)
    for (thm, lo, hi, count), want in zip(cases, expected):
        assert len(want.violations) == count
        assert want.violations == sorted(want.violations)
        got = verify_theorem(thm, lo, hi)
        assert got.violations == want.violations
        assert got.pairs_checked == want.pairs_checked


RECHECK_RANGE = (58837, 150_000)
RECHECKED = (CUSTOM_WEAK, GapTheorem("custom", 58837, Fraction("0.5"), 3))


@pytest.fixture(scope="module")
def full_recheck():
    """Per theorem of RECHECKED, the violating gaps (p, q) of RECHECK_RANGE,
    each decided at 50 digits."""
    lo, hi = RECHECK_RANGE
    p, q = sieve_upto(hi).gap_arrays(lo, hi)
    return {
        thm: [
            (int(a), int(b))
            for a, b in zip(p, q)
            if not thm.threshold_exceeds(max(int(a), lo), int(b))
        ]
        for thm in RECHECKED
    }


def test_float_margin_matches_full_recheck(full_recheck):
    # every gap decided at 50 digits gives the same violations as the float
    # prescreen, which rechecks only thin margins
    for thm, want in full_recheck.items():
        got = verify_theorem(thm, *RECHECK_RANGE).violations
        assert [(a, b) for a, b, _ in got] == want
        assert want


@pytest.mark.parametrize("scan_odds", [1, 2])
@pytest.mark.parametrize("guard", [1.0, 1e-3])
def test_exact_band_width_changes_no_violation(
    monkeypatch, full_recheck, guard, scan_odds
):
    # guard 1.0 sends every gap past the floor to the exact check, 1e-3 a wide
    # band; small segments put seam pairs in the range, and slices of one or two
    # odds a slice seam inside every gap.  The items stay plain Python numbers, which
    # the CLI's row template needs
    for thm, want in full_recheck.items():
        default = verify_theorem(thm, *RECHECK_RANGE).violations
        with monkeypatch.context() as m:
            m.setattr(verify_mod, "PRESCREEN_GUARD", guard)
            m.setattr(primes_mod, "_SEGMENT_ODDS", 5000)
            m.setattr(primes_mod, "_SCAN_ODDS", scan_odds)
            got = verify_theorem(thm, *RECHECK_RANGE).violations
        assert got == default
        assert [(a, b) for a, b, _ in got] == want
        assert {tuple(map(type, v)) for v in got} == {(int, int, float)}


def test_weaker_theorem_never_worse():
    # same exponent, larger allowance: violation set can only shrink
    weak = verify_theorem(CUSTOM_WEAK, 58837, 10**6)
    stronger_c = GapTheorem("custom", 58837, Fraction("0.02"), 3)
    strong = verify_theorem(stronger_c, 58837, 10**6)
    assert len(weak.violations) <= len(strong.violations)
    assert {(p, q) for p, q, _ in weak.violations} <= {
        (p, q) for p, q, _ in strong.violations
    }


def test_largest_violation_below_axler_x0(store_10m):
    hit = largest_violation(Fraction("1.188"), 3, 2, 58837, store_10m)
    assert hit is not None
    p, q = hit
    assert p < 58837
    # consistency: the reported pair really violates the candidate interval
    assert q > p * (1 + float(AXLER.c) / math.log(p) ** AXLER.e)


def test_largest_violation_none_for_generous_allowance(store_10m):
    assert largest_violation(Fraction(10), 1, 10, 10**5, store_10m) is None


def test_largest_violation_range_error(store_10m):
    with pytest.raises(RangeError):
        largest_violation(Fraction(1), 1, 100, 10, store_10m)


@pytest.mark.parametrize(
    "c,e,lo,hi",
    [
        # log^271 x overflows a float past x = 9e5: the threshold is then
        # x(1 + exp(ln c - e ln ln x))
        pytest.param(Fraction(10**305), 271, 990_000, 10**6, id="log-pow-inf"),
        # c itself is past the float range
        pytest.param(Fraction(10**400), 1, 3, 10**4, id="c-inf"),
    ],
)
def test_non_finite_floats_decided_exactly(store_10m, c, e, lo, hi):
    thm = GapTheorem("custom", 3, c, e)
    start = time.perf_counter()
    report = verify_theorem(thm, lo, hi)
    assert time.perf_counter() - start < 5
    p, q = store_10m.gap_arrays(lo, hi)
    exact = [
        (int(a), int(b))
        for a, b in zip(p, q)
        if not thm.threshold_exceeds(max(int(a), lo), int(b))
    ]
    assert [(a, b) for a, b, _ in report.violations] == exact == []


def test_overflow_arm_threshold_against_mpmath():
    # log^466 x overflows a float from x = 101 on, and c = 10^308 is finite:
    # each violation shows x(1 + c/log^e x), not x (103.0, 107.0 and 109.0)
    c, e = 10**308, 466
    report = verify_theorem(GapTheorem("custom", 3, Fraction(c), e), 90, 120)
    pairs = [(103, 107), (107, 109), (109, 113)]
    assert [(p, q) for p, q, _ in report.violations] == pairs
    with mpmath.workdps(30):
        want = [float(p * (1 + c / mpmath.log(p) ** e)) for p, _ in pairs]
    assert [thr for *_, thr in report.violations] == pytest.approx(want, rel=1e-12)


def _assert_streams_like_stored_table(thm, lo, hi):
    # every pair of a table sieved to hi, prescreened with no gap floor
    p, q = sieve_upto(hi).gap_arrays(lo, hi)
    report = verify_theorem(thm, lo, hi)
    pairs = zip(p.tolist(), q.tolist())
    assert report.violations == verify_mod._prescreen(thm, pairs, lo)
    assert report.pairs_checked == len(p)
    return report


# floors of every size: 0 (every gap a candidate), a few bytes (the slice's
# primes listed), a long zero run (found), and past every mask (c = 10^30,
# whose floor is far past any bytes() length)
FLOORS = [
    *MIXED,
    EVERY_GAP_FAILS,
    GapTheorem("custom", 3, Fraction(1, 100), 1),
    GapTheorem("custom", 3, Fraction(10**30), 1),
]


@settings(max_examples=60, deadline=None)
@given(
    thm=st.sampled_from(FLOORS),
    odds=st.sampled_from([1, 8, 56, 1000]),
    scan_odds=st.sampled_from([1, 3, 7, primes_mod._SCAN_ODDS]),
    ends=st.lists(st.integers(3, 20_000), min_size=2, max_size=2),
)
# a floor of 0 with slice edges inside 1327 -> 1361; a zero run found across
# slice edges inside 19609 -> 19661; a listed slice with a floor of 2 or 3; and
# c = 10^30, whose floor, capped at MAX_GAP, asks for a run that fills the mask
@example(thm=EVERY_GAP_FAILS, odds=56, scan_odds=7, ends=[1300, 1400])
@example(thm=MIXED[1], odds=1000, scan_odds=7, ends=[19_000, 20_000])
@example(thm=FLOORS[3], odds=8, scan_odds=3, ends=[1000, 3000])
@example(thm=FLOORS[4], odds=1, scan_odds=1, ends=[3, 2000])
def test_streaming_matches_stored_table(thm, odds, scan_odds, ends):
    with mock.patch.object(primes_mod, "_SEGMENT_ODDS", odds), mock.patch.object(
        primes_mod, "_SCAN_ODDS", scan_odds
    ):
        _assert_streams_like_stored_table(thm, *sorted(ends))


@pytest.mark.parametrize(
    "lo,hi,odds",
    [
        pytest.param(3, 3, 8, id="3..3"),
        pytest.param(4, 4, 8, id="4..4"),
        pytest.param(5003, 9973, 8, id="lo-and-hi-prime"),
        # with 8 odds the seams are at 3 + 16j, and 19 is prime
        pytest.param(18, 400, 8, id="lo-below-seam-19"),
        pytest.param(19, 400, 8, id="lo-on-seam-19"),
        # with 56 odds the seams are at 3 + 112j; 1347..1360 holds no prime
        pytest.param(1346, 1500, 56, id="lo-below-seam-1347"),
        # segments of one odd each: most hold no prime
        pytest.param(1000, 2000, 1, id="empty-segments"),
        # the scan starts at the segment holding lo: 1328..1360 holds no
        # prime, and the mask of 1361's segment reaches back to 1327
        pytest.param(1340, 1500, 1, id="lo-past-empty-segments"),
        pytest.param(1330, 1500, 8, id="lo-below-seam-1331"),
        pytest.param(1331, 1500, 8, id="lo-on-seam-1331"),
        pytest.param(1348, 1500, 8, id="lo-past-empty-segment-1331"),
    ],
)
# slices of one and of three odds put slice seams beside the segment seams
@pytest.mark.parametrize("scan_odds", [1, 3])
def test_streaming_edges(lo, hi, odds, scan_odds, monkeypatch):
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", odds)
    monkeypatch.setattr(primes_mod, "_SCAN_ODDS", scan_odds)
    for thm in [*MIXED, EVERY_GAP_FAILS]:
        _assert_streams_like_stored_table(thm, lo, hi)


def test_each_slice_floor_holds_on_its_pairs(monkeypatch):
    # a slice's floor must hold from the x = max(p, lo) of its first pair, whose
    # p precedes the slice when the gap straddles its edge, up to its last q
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 56)
    monkeypatch.setattr(primes_mod, "_SCAN_ODDS", 7)
    ends, gaps, lo = [], verify_mod._gaps, 1000
    monkeypatch.setattr(  # 0: every pair is listed
        GapTheorem, "gap_floor", lambda self, xa, xb: ends.append((xa, xb)) or 0
    )

    def spy(mask, start, b0, b1, half):
        found = gaps(mask, start, b0, b1, half)
        xa, xb = ends[-1]
        assert all(xa <= max(p, lo) and q <= xb for p, q in found)
        straddled.extend(p for p, _ in found if p < start + 2 * b0)
        return found

    straddled = []
    monkeypatch.setattr(verify_mod, "_gaps", spy)
    report = verify_theorem(EVERY_GAP_FAILS, lo, 1500)
    assert len(report.violations) == report.pairs_checked == 71  # pi(1500) - pi(1000)
    assert len(straddled) > 20


def test_segments_below_lo_are_not_sieved(monkeypatch):
    # lo = 1348 lies in [1347, 1363), whose mask holds 1327 before 1361
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 8)
    lows, segment = [], primes_mod._segment

    def spy(start, low, *rest):
        lows.append(low)
        return segment(start, low, *rest)

    monkeypatch.setattr(primes_mod, "_segment", spy)
    report = verify_theorem(EVERY_GAP_FAILS, 1348, 2000)
    assert report.violations[0][:2] == (1327, 1361)
    # no segments.csv row matches a segment of 8 odds, so each past lo's is
    # sieved twice: once for the count, once for the scan
    assert sorted(set(lows)) == list(range(1347, 2000, 16))


@pytest.mark.parametrize("scan_odds", [1, 3])
def test_streaming_empty_last_segment(scan_odds, monkeypatch):
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 56)
    monkeypatch.setattr(primes_mod, "_SCAN_ODDS", scan_odds)
    *_, last = primes_mod.segments(1359)  # [1347, 1359]
    start, low = last.args[:2]
    assert 1 not in last()[(low - start) // 2 :]  # no prime from 1347 on
    for thm in MIXED:
        _assert_streams_like_stored_table(thm, 100, 1359)


def test_streaming_memory_is_per_segment():
    # a table to 5*10^7 alone is 24 MB of int64 primes
    tracemalloc.start()
    try:
        report = verify_theorem(AXLER, AXLER.x0, 5 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 16 * 2**20


# fails on 8 gaps up to 113 -> 127, and above a few hundred its gap_floor
# exceeds every gap, so the gate passes each segment above lo by its row
GATED = GapTheorem("custom", 3, Fraction(1, 2), 1)


def _sieved(monkeypatch):
    """The low of each segment that verify_theorem sieves, once per sieve."""
    lows, segment = [], primes_mod._segment
    monkeypatch.setattr(
        primes_mod, "_segment",
        lambda start, low, *rest: lows.append(low) or segment(start, low, *rest),
    )
    return lows


@settings(max_examples=30, deadline=None)
@given(
    thm=st.sampled_from([*MIXED, GATED]),
    odds=st.sampled_from([56, 200, 1000]),
    ends=st.lists(st.integers(3, 20_000), min_size=2, max_size=2),
)
def test_gate_matches_stored_table(small_tables, thm, odds, ends):
    with mock.patch.object(primes_mod, "_SEGMENT_ODDS", odds):
        with mock.patch.object(primes_mod, "_table", small_tables):
            _assert_streams_like_stored_table(thm, *sorted(ends))


def test_gate_passes_segments(small_tables, monkeypatch):
    # a segment the gate passes by its row is never sieved: only the last,
    # [19603, 20003), which hi truncates, and the one holding lo = 1000,
    # [803, 1203), are, in that order, for the count, each from the nearer
    # side: (20000, 20003) and [803, 1000]; as their rows certify them,
    # neither is scanned
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 200)
    monkeypatch.setattr(primes_mod, "_table", small_tables)
    _assert_streams_like_stored_table(GATED, 1000, 20_000)
    sieved = _sieved(monkeypatch)
    verify_theorem(GATED, 1000, 20_000)
    lows = [s.args[1] for s in primes_mod.segments(20_000) if s.args[2] > 1000]
    assert lows[0] == 803 and lows[-1] == 19_603 and len(lows) > 40
    assert sieved == [20_001, 803]


@pytest.mark.parametrize("lo", [2_097_100, 2_097_150, 2_097_160])
@pytest.mark.parametrize("scan_odds", [1, 3])
def test_seam_pair_at_production_size(lo, scan_odds, monkeypatch):
    # the seam 3 + 2^21 = 2,097,155, a segment's low, lies inside the gap
    # 2097143 -> 2097169
    assert 2_097_155 in [seg.args[1] for seg in primes_mod.segments(2_097_200)]
    monkeypatch.setattr(primes_mod, "_SCAN_ODDS", scan_odds)
    report = _assert_streams_like_stored_table(EVERY_GAP_FAILS, lo, 2_097_200)
    pairs = [(p, q) for p, q, _ in report.violations]
    assert pairs.count((2_097_143, 2_097_169)) == 1


def test_gate_leaves_the_segment_starting_at_lo(small_tables, monkeypatch):
    # the row of [1459, 1571) passes GATED, but lo = 1459 is prime too, and
    # no pair ends at lo
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 56)
    monkeypatch.setattr(primes_mod, "_table", small_tables)
    assert 1459 in [seg.args[1] for seg in primes_mod.segments(2000)]
    _assert_streams_like_stored_table(GATED, 1459, 2000)


def test_gate_needs_the_gap_within_the_floor(small_tables, monkeypatch):
    # the row of [1123, 1235) holds 1129 -> 1151, which breaks c = 3/25, e = 1,
    # whose gap_floor there, 12, is below its gap, 22, so the segment is
    # sieved; so is [1011, 1123), whose floor, 10, is below 1069 -> 1087
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 56)
    monkeypatch.setattr(primes_mod, "_table", small_tables)
    thm = GapTheorem("custom", 3, Fraction(3, 25), 1)
    report = _assert_streams_like_stored_table(thm, 1000, 1234)
    assert (1129, 1151) in [(p, q) for p, q, _ in report.violations]
    sieved = _sieved(monkeypatch)
    verify_theorem(thm, 1000, 1234)
    assert sieved == [899, 1011, 1123]  # lo = 1000 lies in [899, 1011)


# fails on 1,868 gaps in [10^8, 2*10^8], and no segment's row passes its
# floor: the last segment, which hi truncates, is sieved for the count and again
# for the scan
SIEVES_ALL = GapTheorem("custom", 3, Fraction(1, 3000), 2)


@pytest.mark.parametrize(
    "hi,sieved,violations", [(11 * 10**7, 7, 772), (2 * 10**8, 50, 1868)]
)
def test_violations_where_no_row_certifies(hi, sieved, violations, monkeypatch):
    lows = _sieved(monkeypatch)
    report = verify_theorem(SIEVES_ALL, 10**8, hi)
    assert (len(lows), len(report.violations)) == (sieved, violations)


# (theorem, lo, hi, segments sieved, pi(hi) - pi(lo)) with pi(10^8) = 5,761,455,
# pi(2*10^8) = 11,078,937, pi(2*10^9) = 98,222,287 (published), and pi(58837)
# = 5,949, pi(396738) = 33,608, pi(2898242) = 209,989
SIEVED = [
    # the segment holding lo alone: the last, [1998585859, 2000000001), is a
    # row, as the budget truncates it there too
    (DUSART, DUSART.x0, 2 * 10**9, 1, 98_222_287 - 33_608),
    # and the last, truncated at 10^8 + 1; axler's floor also fails the row
    # of [131075, 262147), whose gap 86 after 155921 is above it, and
    # trudgian's the rows of [3014659, 3145731), [3801091, 3932163) and
    # [4456451, 4718595), whose gap 154 after 4652353 is above 130
    (AXLER, AXLER.x0, 10**8, 3, 5_761_455 - 5_949),
    (DUSART, DUSART.x0, 10**8, 2, 5_761_455 - 33_608),
    (TRUDGIAN, TRUDGIAN.x0, 10**8, 5, 5_761_455 - 209_989),
    # near 10^8 its floor is below the largest gap of about half the rows
    (GapTheorem("custom", 3, Fraction(1, 2000), 2), 10**8, 2 * 10**8, 25,
     11_078_937 - 5_761_455),
]


@pytest.mark.parametrize("thm,lo,hi,sieved,pairs", SIEVED)
def test_sieves_only_what_no_row_certifies(thm, lo, hi, sieved, pairs, monkeypatch):
    lows = _sieved(monkeypatch)
    assert verify_theorem(thm, lo, hi).pairs_checked == pairs
    assert len(lows) == sieved


@pytest.mark.parametrize("thm,lo,hi", [case[:3] for case in SIEVED[1:]])
def test_table_and_sieve_agree(thm, lo, hi, monkeypatch):
    want = verify_theorem(thm, lo, hi)
    monkeypatch.setattr(primes_mod, "_table", lambda *args: iter([]))  # sieve all
    got = verify_theorem(thm, lo, hi)
    assert (got.pairs_checked, got.violations) == (want.pairs_checked, want.violations)


# the lows of the segments to 2.1*10^7, and the integers just below them
EDGES = [x for seg in primes_mod.segments(21_000_000)
         for x in (seg.args[1] - 1, seg.args[1]) if x >= 3]


@settings(max_examples=40, deadline=None)
@given(
    thm=st.sampled_from([EVERY_GAP_FAILS, GATED]),
    ends=st.lists(st.integers(3, 21_000_000) | st.sampled_from(EDGES),
                  min_size=2, max_size=2),
)
@example(thm=GATED, ends=[2_097_155, 6_291_458])  # lo on a low, hi + 1 on a high
@example(thm=GATED, ends=[4_194_400, 4_200_000])  # lo and hi in one segment
@example(thm=EVERY_GAP_FAILS, ends=[3, 21_000_000])
# in [6815747, 7077891), whose midpoint is 6,946,819: hi in the upper half,
# hi = high - 1, hi a low, and lo and hi in the upper half, where GATED's row
# certifies the segment, so both counts sieve only (x, high)
@example(thm=EVERY_GAP_FAILS, ends=[1_000_000, 7_000_000])
@example(thm=GATED, ends=[1_000_000, 7_077_890])
@example(thm=EVERY_GAP_FAILS, ends=[1_000_000, 6_815_747])
@example(thm=GATED, ends=[6_950_000, 7_050_000])
def test_pair_count_comes_before_the_scan(store_21m, thm, ends):
    lo, hi = sorted(ends)
    pairs, _ = verify_mod.scan_theorem(thm, lo, hi)  # nothing scanned yet
    assert pairs == store_21m.prime_count(hi) - store_21m.prime_count(lo)


def test_drained_scan_holds_one_mask_and_one_slice():
    # all but 476 of the pairs break it, some 560 in a slice of 2^12 odds;
    # verify_theorem's list of all 162,184 peaks at about 20 MiB
    thm = GapTheorem("custom", 3, Fraction(1, 5000), 2)
    tracemalloc.start()
    try:
        pairs, violations = verify_mod.scan_theorem(thm, 3, 2_200_000)
        drained = sum(1 for _ in violations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (pairs, drained) == (162_660, 162_184)
    assert peak < 4 * 2**20


def test_drained_scan_below_4_2m_holds_a_64_kib_mask():
    # c near Trudgian's 1/111 breaks 19,389 of the 214,842 pairs to 2,970,608,
    # where each mask spans 2^17 integers, 64 KiB (one from 3 to 2^21 was
    # 1 MiB); a first scan fills CPython's free lists of tuples and floats,
    # which tracemalloc would count once
    thm = GapTheorem("custom", 2, Fraction("0.00905"), 2)
    assert sum(1 for _ in verify_mod.scan_theorem(thm, 3, 200_000)[1]) > 0
    tracemalloc.start()
    try:
        pairs, violations = verify_mod.scan_theorem(thm, 3, 2_970_608)
        drained = sum(1 for _ in violations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (pairs, drained) == (214_842, 19_389)
    assert peak < 0.35 * 2**20


def test_scan_sieves_only_the_counted_segments_before_it_is_drained(monkeypatch):
    # segments from 917507, which holds lo, to 6815747, which hi = 7*10^6
    # truncates in the upper half of [6815747, 7077891): (hi, 7077891) is
    # sieved first for the count, from the first odd past hi, then lo's
    # segment, which is kept
    lows = _sieved(monkeypatch)
    pairs, violations = verify_mod.scan_theorem(EVERY_GAP_FAILS, 10**6, 7 * 10**6)
    assert next(violations)[:2] == (999_983, 1_000_003)
    assert lows == [7_000_001, 917_507]


def test_count_from_the_upper_half_of_the_last_segment():
    # pi(10^9) - pi(58837) = 50,847,534 - 5,949 (published); 10^9 lies in the
    # upper half of [998244355, 1000341507), so the count sieves (10^9,
    # 1000341507), a 171 KB mask, not [998244063, 10^9], 878 KB, and the
    # call peaks with lo's 64 KiB mask kept and the base primes to 31,628
    scan_theorem = verify_mod.scan_theorem
    assert scan_theorem(AXLER, 58837, 10**9)[0] == 50_841_585  # caches warm
    tracemalloc.start()
    try:
        pairs, _ = scan_theorem(AXLER, 58837, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == 50_841_585
    assert peak < 0.9 * 2**20


# The maximal prime gaps from 31,397 to 2*10^9, as (gap, lower prime), but
# 96 after 360,653 and 118 after 1,349,533, each followed by a larger one in
# its segment: Oliveira e Silva, Herzog and Pardi, Math. Comp. 83 (2014);
# OEIS A005250/A002386
PUBLISHED_MAXIMAL_GAPS = [
    (72, 31_397), (86, 155_921), (112, 370_261), (114, 492_113),
    (132, 1_357_201), (148, 2_010_733), (154, 4_652_353), (180, 17_051_707),
    (210, 20_831_323), (220, 47_326_693), (222, 122_164_747), (234, 189_695_659),
    (248, 191_912_783), (250, 387_096_133), (282, 436_273_009),
    (288, 1_294_268_491), (292, 1_453_168_141),
]


class TestSegmentTable:
    """segments.csv, the rows by which verify passes a segment unsieved."""

    @pytest.fixture(scope="class")
    def rows(self):
        return [*primes_mod._table()]

    def test_header_and_one_row_per_segment_to_the_budget(self, rows):
        text = Path(primes_mod.__file__).with_name("segments.csv").read_text()
        assert text.startswith("low,high,primes,gap,prev\n")
        parts = primes_mod.segments(primes_mod.DEFAULT_SIEVE_BUDGET)
        assert [row[:2] for row in rows] == [seg.args[1:3] for seg in parts]
        assert len(rows) == 1018

    def test_rows_to_3e8_are_a_fresh_scan(self, rows, records_script):
        limit = 3 * 10**8
        fresh = records_script.segment_rows(limit)
        assert [r for r in rows if r[1] <= limit] == fresh[:-1]
        assert fresh[-1][1] == limit + 1  # truncated, so not a row

    def test_counts_sum_to_pi_of_the_budget(self, rows):
        # pi(2*10^9) = 98,222,287, and 2 lies outside the segments
        assert sum(row[2] for row in rows) == 98_222_286

    def test_rows_by_index(self, rows):
        assert [*islice(primes_mod._table(5), 3)] == rows[5:8]
        assert [*primes_mod._table(1017)] == rows[1017:]

    def test_largest_gap_is_max_gap(self, rows):
        assert max(row[3] for row in rows) == primes_mod.MAX_GAP

    def test_gap_records_are_the_published_maximal_gaps(self, rows):
        records = []
        for *_, gap, prev in rows:
            if not records or gap > records[-1][0]:
                records.append((gap, prev))
        assert records == PUBLISHED_MAXIMAL_GAPS

    def test_generator_refuses_a_gap_past_max_gap(
        self, records_script, monkeypatch, tmp_path
    ):
        # the largest gap to 10^6 is 114: with a MAX_GAP of 113 a walk's record
        # prefix could cut off a ratio, so nothing is written
        monkeypatch.setattr(records_script, "MAX_GAP", 113)
        monkeypatch.setattr(records_script, "DEFAULT_SIEVE_BUDGET", 10**6)
        with pytest.raises(RuntimeError, match="gap of 114 below 1000000 exceeds 113"):
            records_script.main([str(tmp_path)])
        assert not any(tmp_path.iterdir())

    @pytest.mark.slow
    def test_regenerated_table_is_the_committed_file(self, records_script, tmp_path):
        # one pass to 2*10^9 writes segments.csv, whose largest gap is MAX_GAP
        assert records_script.main([str(tmp_path)]) == 0
        committed = Path(primes_mod.__file__).with_name("segments.csv").read_bytes()
        assert (tmp_path / "segments.csv").read_bytes() == committed
        assert [p.name for p in tmp_path.iterdir()] == ["segments.csv"]


def test_each_command_parses_only_the_rows_it_walks(monkeypatch, capsys):
    # each command parses only the segments.csv rows of the segments it walks,
    # through primes' index, and bound parses none: compute up to its walk's
    # top, min(58,890, record_prefix(2e9, 1.1) = 3,212), so row 0; table up to
    # p_N's segment and the next, whose count places p_N before it, or up to
    # the paper's record prefix's, whichever comes first, so rows 0 and 1 for
    # p_5950 = 58,889 and rows 0 to 2 for N = pi(2e9), as the prefix, 325,883,
    # lies in the third segment; and row 0 for verify, as 60,000 lies in the
    # first
    read, table = [], primes_mod._table

    def spy(*rows):
        read.append(entry := [*rows, 0])  # and the number of rows parsed
        for parsed, line in enumerate(table(*rows), 1):
            entry[-1] = parsed
            yield line

    monkeypatch.setattr(primes_mod, "_table", spy)
    for argv in [
        "compute --k 1.1",
        "bound --k 1.0008968291 --theorem axler",
        "table",
        "table --index-limit 98222287",
        "verify --theorem axler --from 58837 --to 60000",
    ]:
        assert cli.main(argv.split()) == 0
    assert read == [[0, 1], [0, 2], [0, 3], [0, 1]]


def test_scan_accepts_zero_pairs():
    # the odd mask of 3..11 and an empty slice at its end, listed or found
    mask = bytearray(b"\1\1\1\0\1")
    for half in [0, 9]:
        assert primes_mod._gaps(mask, 3, 5, 5, half) == []
    assert verify_mod._prescreen(AXLER, [], AXLER.x0) == []


def _float_path_only(monkeypatch):
    # a floor below every gap sends each pair to the float prescreen
    monkeypatch.setattr(GapTheorem, "gap_floor", lambda self, xa, xb: -1)


def test_gap_floor_above_two_to_the_31():
    # a synthetic mask past 2^31 with gaps 2..292; the allowance c*x/log^2 x is
    # about 155 there and the floor 135, so the zero runs leave only the gaps
    # past the floor to the prescreen, in slices of 7 odds or one, and the
    # violations are those of every pair; a floor of 0 or -1 lists every pair
    thm = GapTheorem("custom", 2, Fraction(1, 30000), 2)
    gaps = np.random.default_rng(0).permutation(np.arange(2, 294, 2))
    q = 2**31 + 1 + np.cumsum(gaps)
    p = q - gaps
    start = lo = int(p[0])
    floor = thm.gap_floor(lo, int(q[-1]))
    assert 100 < floor < gaps.max()
    mask = bytearray((int(q[-1]) - start) // 2 + 1)
    for prime in [start, *q.tolist()]:
        mask[(prime - start) // 2] = 1
    pairs = list(zip(p.tolist(), q.tolist()))
    want = verify_mod._prescreen(thm, pairs, lo)
    assert want
    for half in [floor // 2, 0, -1]:
        for size in [7, len(mask)]:
            got = []
            for b0 in range(1, len(mask), size):
                b1 = min(b0 + size, len(mask))
                got += primes_mod._gaps(mask, start, b0, b1, half)
            assert got == [(a, b) for a, b in pairs if b - a > 2 * half]
            assert verify_mod._prescreen(thm, got, lo) == want


def test_gap_branches_agree_on_a_mask_from_three():
    # a slice at 100,001 (17 bits) of the mask from 3: a half below 6 lists
    # every prime, a larger one finds runs of half zero bytes, and each gives
    # the pairs past 2 * half that the list of every pair holds
    class Finds(bytearray):
        def find(self, *args):
            calls.append(args)
            return super().find(*args)

    mask = Finds(next(primes_mod.segments(200_000))())
    b0 = (100_001 - 3) // 2
    every = primes_mod._gaps(mask, 3, b0, b0 + 4096, -1)
    for half in range(12):
        calls = []
        got = primes_mod._gaps(mask, 3, b0, b0 + 4096, half)
        assert got == [(p, q) for p, q in every if q - p > 2 * half]
        assert bool(calls) == (half >= 6), half  # which branch ran


def _reports(cases):
    return [
        (r.violations, r.pairs_checked)
        for r in (verify_theorem(thm, lo, hi) for thm, lo, hi in cases)
    ]


def test_floor_matches_float_path_on_builtins(monkeypatch):
    cases = [(thm, thm.x0, 10**7) for thm in BUILTIN_THEOREMS.values()]
    want = _reports(cases)
    _float_path_only(monkeypatch)
    assert _reports(cases) == want


# the shapes of perfbench's param-search candidates, with a small hi, and one
# whose threshold falls up to e^8 ~ 2981, where a floor from a slice's first q
# instead of its last would pass violations
PARAM_SHAPES = [
    (GapTheorem("custom", 58837, Fraction("0.049"), 3), 58837, 3 * 10**5),
    (GapTheorem("custom", 2, Fraction("0.009"), 2), 3, 3 * 10**5),
    (GapTheorem("custom", 2, Fraction("1.19"), 3), 3, 3 * 10**5),
    (GapTheorem("custom", 2, Fraction(10**5), 8), 3, 3 * 10**5),
]


@pytest.mark.parametrize("scan_odds", [primes_mod._SCAN_ODDS, 1 << 16, 1000, 7])
def test_floor_matches_float_path_on_param_shapes(scan_odds, monkeypatch):
    monkeypatch.setattr(primes_mod, "_SCAN_ODDS", scan_odds)
    want = _reports(PARAM_SHAPES)
    assert all(violations for violations, _ in want)
    _float_path_only(monkeypatch)
    assert _reports(PARAM_SHAPES) == want


@pytest.mark.parametrize("thm,pairs", [(AXLER, 12), (DUSART, 3), (TRUDGIAN, 5)])
def test_pairs_reaching_the_float_path(thm, pairs, monkeypatch):
    # of the 450,000-660,000 pairs to 10^7, the exact floor passes all but
    # these with no float; a weaker floor, or a coarser slice, sends more
    # pairs to the prescreen
    seen, prescreen = [], verify_mod._prescreen

    def spy(thm, gaps, lo):
        seen.extend(gaps := list(gaps))
        return prescreen(thm, gaps, lo)

    monkeypatch.setattr(verify_mod, "_prescreen", spy)
    assert verify_theorem(thm, thm.x0, 10**7).ok
    assert len(seen) == pairs


def test_c_below_one_past_the_float_range():
    # log^e x overflows but c < 1 does not: no inf/inf, every gap is exact
    thm = GapTheorem("custom", 3, Fraction(1, 2), 10**4)
    report = verify_theorem(thm, 3, 1000)
    primes = sieve_upto(1000).primes[1:].tolist()
    assert report.violations == [(p, q, float(p)) for p, q in zip(primes, primes[1:])]


def test_threshold_past_the_float_range_is_finite():
    # c and log^e x both overflow a float: the threshold is taken in log
    # space, where x(1 + exp(ln c - e ln ln x)) rounds to x, not inf/inf = nan
    thm = GapTheorem("custom", 3, Fraction(10**400), 10**400)
    report = verify_theorem(thm, 3, 100)
    assert report.violations
    assert all(thr == p for p, _, thr in report.violations)


def test_threshold_overflowing_below_e_to_the_e_is_exact(monkeypatch):
    # below e^e the threshold falls with x: inf at x = 3, finite by 997, so
    # the gap 3 -> 5 has a non-finite margin and must be decided exactly
    thm = GapTheorem("custom", 3, Fraction(17 * 10**307), 10)
    p, q = sieve_upto(1000).gap_arrays(3, 1000)
    exact = [
        (int(a), int(b))
        for a, b in zip(p, q)
        if not thm.threshold_exceeds(int(a), int(b))
    ]
    decided = []
    real = GapTheorem.threshold_exceeds
    monkeypatch.setattr(
        GapTheorem,
        "threshold_exceeds",
        lambda self, x, b: decided.append((x, b)) or real(self, x, b),
    )
    got = verify_mod._prescreen(thm, zip(p.tolist(), q.tolist()), 3)
    assert (3, 5) in decided
    assert [(a, b) for a, b, _ in got] == exact == []
