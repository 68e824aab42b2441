import math
from fractions import Fraction

import pytest

import kramanujan.verify as verify_mod
from kramanujan import (
    AXLER,
    DUSART,
    DomainError,
    GapTheorem,
    RangeError,
    verify_theorem,
)

CUSTOM_WEAK = GapTheorem("custom", 58837, Fraction("0.05"), 3)


def largest_violation(c, e, lo, hi, store):
    """Largest prime p in [lo, hi] whose gap breaks q <= p(1 + c/log^e p),
    or None.  A hit means the candidate parameters (c, e) only hold from
    some x0 > p.  The store's gap_arrays checks the range."""
    probe = GapTheorem("candidate", 2, c, e)
    p, q = store.gap_arrays(lo, hi)
    inside = p >= lo  # threshold is taken at x = p, so straddle is excluded
    hits = verify_mod._scan_chunk(probe, p[inside], q[inside], lo=2)  # ascending
    return hits[-1][:2] if hits else None


def test_axler_holds_to_10m(store_10m):
    report = verify_theorem(AXLER, 58837, 10**7, store_10m)
    assert report.ok
    assert report.pairs_checked > 600_000


def test_dusart_holds_to_10m(store_10m):
    report = verify_theorem(DUSART, 396738, 10**7, store_10m)
    assert report.ok


def test_weak_candidate_fails(store_10m):
    report = verify_theorem(CUSTOM_WEAK, 58837, 10**6, store_10m)
    assert not report.ok
    p, q, thr = report.violations[0]
    assert q > thr
    # the gap 58831 -> 58889 already exceeds the tiny allowance
    assert (58831, 58889) in {(v[0], v[1]) for v in report.violations}


def test_straddling_gap_checked_at_lo(store_10m):
    # lo = 58837 falls inside the gap (58831, 58889); the check runs at
    # x = 58837 and the interval reaches past 58889
    report = verify_theorem(AXLER, 58837, 58890, store_10m)
    assert report.ok
    assert report.pairs_checked == 2


def test_below_validity_threshold_rejected(store_10m):
    with pytest.raises(DomainError):
        verify_theorem(AXLER, 1000, 10**6, store_10m)


def test_range_errors(store_10m):
    with pytest.raises(RangeError):
        verify_theorem(AXLER, 10**6, 10**5, store_10m)
    with pytest.raises(RangeError):
        verify_theorem(AXLER, 58837, store_10m.limit + 1, store_10m)


def test_determinism_and_jobs_merge(store_10m, monkeypatch):
    # the store reaches past 10^6, so the pair 999983 -> 1000003 counts too
    cases = [(CUSTOM_WEAK, 58837, 10**6, 36_276), (AXLER, AXLER.x0, 10**7, 0)]
    expected = [verify_theorem(t, lo, hi, store_10m) for t, lo, hi, _ in cases]
    # small slices put seams inside both ranges
    monkeypatch.setattr(verify_mod, "_SCAN_PAIRS", 1000)
    for (thm, lo, hi, count), want in zip(cases, expected):
        assert len(want.violations) == count
        assert want.violations == sorted(want.violations)
        for jobs in (1, 2, 3):
            got = verify_theorem(thm, lo, hi, store_10m, jobs=jobs)
            assert got.violations == want.violations
            assert got.pairs_checked == want.pairs_checked


def test_float_margin_matches_full_recheck(store_10m):
    # every gap decided at 50 digits gives the same violations as the float
    # prescreen, which rechecks only thin margins
    lo, hi = 58837, 150_000
    p, q = store_10m.gap_arrays(lo, hi)
    for thm in (CUSTOM_WEAK, GapTheorem("custom", 58837, Fraction("0.5"), 3)):
        want = [
            (int(a), int(b))
            for a, b in zip(p, q)
            if not thm.threshold_exceeds(max(int(a), lo), int(b))
        ]
        got = verify_theorem(thm, lo, hi, store_10m).violations
        assert [(a, b) for a, b, _ in got] == want
        assert want


def test_weaker_theorem_never_worse(store_10m):
    # same exponent, larger allowance: violation set can only shrink
    weak = verify_theorem(CUSTOM_WEAK, 58837, 10**6, store_10m)
    stronger_c = GapTheorem("custom", 58837, Fraction("0.02"), 3)
    strong = verify_theorem(stronger_c, 58837, 10**6, store_10m)
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
