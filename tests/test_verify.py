import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def largest_violation(c, e, lo, hi, store):
    """Largest prime p in [lo, hi] whose gap breaks q <= p(1 + c/log^e p),
    or None.  A hit means the candidate parameters (c, e) only hold from
    some x0 > p.  The store's gap_arrays checks the range."""
    probe = GapTheorem("candidate", 2, c, e)
    p, q = store.gap_arrays(lo, hi)
    inside = p >= lo  # threshold is taken at x = p, so straddle is excluded
    hits = verify_mod._scan_chunk(probe, p[inside], q[inside], lo=2)  # ascending
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


def test_determinism_and_jobs_merge(monkeypatch):
    # the report depends only on [lo, hi]: the pairs end at q <= hi, so the
    # pair 999983 -> 1000003 past 10^6 is not checked
    cases = [(CUSTOM_WEAK, 58837, 10**6, 36_275), (AXLER, AXLER.x0, 10**7, 0)]
    expected = [verify_theorem(t, lo, hi) for t, lo, hi, _ in cases]
    # small slices and segments put both kinds of seam inside both ranges
    monkeypatch.setattr(verify_mod, "_SCAN_PAIRS", 1000)
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 100_000)
    for (thm, lo, hi, count), want in zip(cases, expected):
        assert len(want.violations) == count
        assert want.violations == sorted(want.violations)
        for jobs in (1, 2, 3):
            got = verify_theorem(thm, lo, hi, jobs=jobs)
            assert got.violations == want.violations
            assert got.pairs_checked == want.pairs_checked


def test_float_margin_matches_full_recheck():
    # every gap decided at 50 digits gives the same violations as the float
    # prescreen, which rechecks only thin margins
    lo, hi = 58837, 150_000
    p, q = sieve_upto(hi).gap_arrays(lo, hi)
    for thm in (CUSTOM_WEAK, GapTheorem("custom", 58837, Fraction("0.5"), 3)):
        want = [
            (int(a), int(b))
            for a, b in zip(p, q)
            if not thm.threshold_exceeds(max(int(a), lo), int(b))
        ]
        got = verify_theorem(thm, lo, hi).violations
        assert [(a, b) for a, b, _ in got] == want
        assert want


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
        # log^271 x overflows a float past x = 9e5: the threshold read x
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


def _assert_streams_like_stored_table(thm, lo, hi, jobs):
    # the pairs of a table sieved to hi, scanned as one slice
    p, q = sieve_upto(hi).gap_arrays(lo, hi)
    report = verify_theorem(thm, lo, hi, jobs=jobs)
    assert report.violations == verify_mod._scan_chunk(thm, p, q, lo)
    assert report.pairs_checked == len(p)


@settings(max_examples=30, deadline=None)
@given(
    thm=st.sampled_from(MIXED),
    odds=st.sampled_from([1, 8, 56, 1000]),
    jobs=st.sampled_from([1, 3]),
    ends=st.lists(st.integers(3, 20_000), min_size=2, max_size=2),
)
def test_streaming_matches_stored_table(thm, odds, jobs, ends):
    with mock.patch.object(primes_mod, "_SEGMENT_ODDS", odds):
        _assert_streams_like_stored_table(thm, *sorted(ends), jobs)


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
    ],
)
@pytest.mark.parametrize("jobs", [1, 3])
def test_streaming_edges(lo, hi, odds, jobs, monkeypatch):
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", odds)
    for thm in MIXED:
        _assert_streams_like_stored_table(thm, lo, hi, jobs)


@pytest.mark.parametrize("jobs", [1, 3])
def test_streaming_empty_last_segment(jobs, monkeypatch):
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 56)
    assert primes_mod.segments(1359)[-1]().size == 0  # [1347, 1359]
    for thm in MIXED:
        _assert_streams_like_stored_table(thm, 100, 1359, jobs)


def test_streaming_memory_is_per_segment():
    # a table to 5*10^7 alone is 24 MB of int64 primes
    tracemalloc.start()
    try:
        report = verify_theorem(AXLER, AXLER.x0, 5 * 10**7, jobs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 16 * 2**20


def test_scan_chunk_accepts_zero_pairs():
    empty = np.empty(0, dtype=np.int64)
    assert verify_mod._scan_chunk(AXLER, empty, empty, AXLER.x0) == []


def test_primes_fit_the_int32_gap_difference():
    # _scan_chunk takes q - p in int32, which needs every prime below 2^31
    assert primes_mod.DEFAULT_SIEVE_BUDGET < 2**31


def _float_path_only(monkeypatch):
    # a floor below every gap sends each slice to the float prescreen
    monkeypatch.setattr(GapTheorem, "gap_floor", lambda self, xa, xb: -1)


def _reports(cases, jobs):
    return [
        (r.violations, r.pairs_checked)
        for r in (verify_theorem(thm, lo, hi, jobs=jobs) for thm, lo, hi in cases)
    ]


def test_floor_matches_float_path_on_builtins(monkeypatch):
    cases = [(thm, thm.x0, 10**7) for thm in BUILTIN_THEOREMS.values()]
    want = {jobs: _reports(cases, jobs) for jobs in (1, 2, 3)}
    _float_path_only(monkeypatch)
    for jobs in (1, 2, 3):
        assert _reports(cases, jobs) == want[jobs]


# the shapes of perfbench's param-search candidates, with a small hi, and one
# whose threshold falls up to e^8 ~ 2981, where a floor from a slice's first q
# instead of its last would pass violations
PARAM_SHAPES = [
    (GapTheorem("custom", 58837, Fraction("0.049"), 3), 58837, 3 * 10**5),
    (GapTheorem("custom", 2, Fraction("0.009"), 2), 3, 3 * 10**5),
    (GapTheorem("custom", 2, Fraction("1.19"), 3), 3, 3 * 10**5),
    (GapTheorem("custom", 2, Fraction(10**5), 8), 3, 3 * 10**5),
]


@pytest.mark.parametrize("scan_pairs", [verify_mod._SCAN_PAIRS, 1000, 7])
def test_floor_matches_float_path_on_param_shapes(scan_pairs, monkeypatch):
    monkeypatch.setattr(verify_mod, "_SCAN_PAIRS", scan_pairs)
    want = _reports(PARAM_SHAPES, 1)
    assert all(violations for violations, _ in want)
    _float_path_only(monkeypatch)
    assert _reports(PARAM_SHAPES, 1) == want


@pytest.mark.parametrize("thm,slices", [(AXLER, 1), (DUSART, 1), (TRUDGIAN, 2)])
def test_slices_reaching_the_float_path(thm, slices, monkeypatch):
    # of the 13-18 scan_chunk calls to 10^7, the exact floor passes all but
    # these; a weaker floor sends more slices to the prescreen
    prescreen = mock.Mock(wraps=verify_mod._prescreen)
    monkeypatch.setattr(verify_mod, "_prescreen", prescreen)
    assert verify_theorem(thm, thm.x0, 10**7).ok
    assert prescreen.call_count == slices


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
