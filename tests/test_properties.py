"""Property-based checks tying the fast paths to their definitions."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kramanujan import (
    BUILTIN_THEOREMS,
    ResourceLimitError,
    breakpoints,
    certified_bound,
    cor_bound,
    first_k_ramanujan,
)
from kramanujan import core
from kramanujan import primes as primes_mod

from reference import critical_point_R, reference_breakpoints

# certified bound for every k >= 1.0008968291 (the paper's horizon)
FAST_BOUND = 58890

# exact rationals in (1.001, 5/3), the cheap fast-path region
ks = st.fractions(
    min_value=Fraction("1.001"), max_value=Fraction(5, 3), max_denominator=10**6
)


@settings(max_examples=60, deadline=None)
@given(ks)
def test_oracle_equivalence(store_10m, k):
    answer = first_k_ramanujan(k)
    got = critical_point_R(k, 1, 2 * FAST_BOUND, store_10m)
    assert got == (answer.prime, answer.index)


@settings(max_examples=60, deadline=None)
@given(ks, ks)
def test_monotone_in_k(k1, k2):
    if k1 > k2:
        k1, k2 = k2, k1
    assert first_k_ramanujan(k1).prime >= first_k_ramanujan(k2).prime


@settings(max_examples=60, deadline=None)
@given(k=ks)
def test_characterization_closure(store_60k, k):
    # p_m/p_{m-1} > k (vacuous for m = 1), and no later ratio exceeds k
    ps = store_60k.primes.tolist()
    m = first_k_ramanujan(k).index
    above = [
        a
        for a in range(2, len(ps) + 1)
        if ps[a - 1] * k.denominator > k.numerator * ps[a - 2]
    ]
    assert max(above, default=1) == m


@settings(max_examples=40, deadline=None)
@given(ks)
def test_bound_soundness(k):
    prime = first_k_ramanujan(k).prime
    for thm in BUILTIN_THEOREMS.values():
        if thm.admits(k):
            assert prime <= cor_bound(k, thm)
    assert prime <= certified_bound(k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_coherence(store_60k, data):
    rows = breakpoints(Fraction("1.0008968291"), 5950, store_60k)
    i = data.draw(st.integers(min_value=0, max_value=len(rows) - 2))
    lo, hi = rows[i + 1].ratio, rows[i].ratio
    # any k in [next ratio, this ratio) lands on this row's prime
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    k = lo + (hi - lo) * t
    if k >= hi:
        k = lo
    assert first_k_ramanujan(k).prime == rows[i].prime


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=2, max_value=50_000, max_denominator=10**4),
    st.fractions(min_value=2, max_value=50_000, max_denominator=10**4),
)
def test_prime_count_monotone(store_60k, x1, x2):
    if x1 > x2:
        x1, x2 = x2, x1
    assert store_60k.prime_count(x1) <= store_60k.prime_count(x2)


@settings(max_examples=50, deadline=None)
@given(st.fractions(min_value=2, max_value=50_000, max_denominator=10**6))
def test_prime_count_floor_reduction(store_60k, x):
    floor = x.numerator // x.denominator
    assert store_60k.prime_count(x) == store_60k.prime_count(floor)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_per_gap_reduction_soundness(store_10m, data):
    """A gap passing its single left-endpoint check passes at every real x.

    The theorem interval at any rational x inside the gap must contain a
    prime; with the left endpoint certified this follows from monotonicity
    of the threshold, and we spot-check it directly.
    """
    from kramanujan import AXLER, verify_theorem

    report = verify_theorem(AXLER, 58837, 70_000)
    assert report.ok
    ps, qs = store_10m.gap_arrays(58837, 70_000)
    j = data.draw(st.integers(min_value=0, max_value=len(ps) - 1))
    p, q = int(ps[j]), int(qs[j])
    lo = max(p, 58837)
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=997))
    x = lo + (q - 1 - lo) * t  # rational point in [lo, q)
    thr = float(x) * (1 + float(AXLER.c) / math.log(x) ** AXLER.e)
    # the next prime q lies inside (x, x(1 + c/log^3 x)]
    assert float(x) < q <= thr


def test_failing_property_does_not_abort_the_session(tmp_path):
    # Hypothesis's failure report imports libcst, which warns on import;
    # the repo's warning filters must not turn that into an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(config),
         "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def _k_min_within_the_table(data, rows):
    # k_min - 1 log-uniform in [2e-5, 1], where the bound is at most 2e9, or a
    # ratio of the records above the floor there, or next to it
    if data.draw(st.booleans()):
        t = data.draw(st.floats(min_value=math.log(2e-5), max_value=0.0))
        return 1 + Fraction(math.exp(t))
    ratios = [r.ratio for r in rows]
    r = data.draw(st.sampled_from([r for r in ratios if r >= Fraction("1.00002")]))
    return r + data.draw(st.sampled_from([0, 1, -1])) * Fraction(1, 10**15)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_rows_from_the_record_table(store_21m, floor_rows, data):
    # no gap ratio past the last record a* above k_min exceeds it, so for every
    # N >= a* the walk gives the records above the floor that exceed k_min
    k_min = _k_min_within_the_table(data, floor_rows)
    assert certified_bound(k_min) <= 2 * 10**9
    rows = [r for r in floor_rows if r.ratio > k_min]
    a_star = rows[-1].index if rows else 1
    n = data.draw(st.one_of(
        st.sampled_from([max(a_star, 2), a_star + 1]),
        st.integers(min_value=max(a_star, 2), max_value=store_21m.count),
    ))
    with mock.patch.object(core, "shared_store", None):  # nothing sieves
        assert core.table_rows(k_min, n) == rows
    assert rows == breakpoints(k_min, n, store_21m)
    if a_star > 2:  # one index short of a*, row a* is out of range
        below = breakpoints(k_min, a_star - 1, store_21m)
        assert core.table_rows(k_min, a_star - 1) == below != rows


def _k_min_near_one(data, store):
    # k_min - 1 log-uniform in [1e-7, 0.1], or a gap ratio of the store (all
    # within 1.1 from p_32/p_31 = 131/127 on), or just below one
    if data.draw(st.booleans()):
        t = data.draw(st.floats(min_value=math.log(1e-7), max_value=math.log(0.1)))
        return 1 + min(Fraction(math.exp(t)), Fraction(1, 10))  # exp(log 0.1) > 0.1
    a = data.draw(st.integers(min_value=32, max_value=store.count))
    r = Fraction(store.nth_prime(a), store.nth_prime(a - 1))
    return r - data.draw(st.sampled_from([0, 1])) * Fraction(1, 10**18)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_table_rows_sieve_only_the_prefix(store_21m, data):
    # for k_min in (1, 1.1] and N <= pi(2e7), the walk sieves no segment past
    # min(p_N, record_prefix), and its rows are the records on the whole sieve
    n_max = store_21m.prime_count(2 * 10**7)
    k_min = _k_min_near_one(data, store_21m)
    assert 1 < k_min <= Fraction(11, 10)
    t = data.draw(st.floats(min_value=math.log(2), max_value=math.log(n_max)))
    n = max(2, min(round(math.exp(t)), n_max))
    lows, segment = [], primes_mod._segment

    def spy(start, low, *rest):
        lows.append(low)
        return segment(start, low, *rest)

    with mock.patch.object(primes_mod, "_segment", spy):
        rows = core.table_rows(k_min, n)
    top = min(store_21m.nth_prime(n), primes_mod.record_prefix(2 * 10**9, k_min))
    assert 0 < len(lows) and max(lows) <= top
    assert rows == reference_breakpoints(k_min, n, store_21m)


# pi(60,000), the horizon of the small_tables fixture
PI_SMALL = 6057


def _small_walk_case(data, store):
    """A k_min in [0, 1.1], often a gap ratio or next to one, and an N in
    2..pi(60,000) + 1, often the index of a segment's first or last prime."""
    if data.draw(st.booleans()):
        k_min = data.draw(st.fractions(0, Fraction(11, 10), max_denominator=10**6))
    else:
        a = data.draw(st.integers(min_value=2, max_value=PI_SMALL))
        k_min = Fraction(store.nth_prime(a), store.nth_prime(a - 1))
        k_min += data.draw(st.sampled_from([-1, 0, 1])) * Fraction(1, 10**12)
    if data.draw(st.booleans()):
        return k_min, data.draw(st.integers(min_value=2, max_value=PI_SMALL + 1))
    seg = data.draw(st.sampled_from([*primes_mod.segments(60_000)]))
    low, high = seg.args[1:3]
    edges = [store.prime_count(low - 1) + 1, store.prime_count(high - 1)]
    return k_min, max(2, data.draw(st.sampled_from(edges)))


def _assert_walk_matches_the_reference(k_min, n, store):
    if n <= PI_SMALL:
        assert core.table_rows(k_min, n) == reference_breakpoints(k_min, n, store)
    elif k_min > 1 and certified_bound(k_min) <= 60_000:  # N stands for pi(60,000)
        want = reference_breakpoints(k_min, PI_SMALL, store)
        assert core.table_rows(k_min, n) == want
    else:
        with pytest.raises(ResourceLimitError, match="budget"):
            core.table_rows(k_min, n)


@settings(max_examples=60, deadline=None)
@given(odds=st.sampled_from([1, 8, 56, 1000]), data=st.data())
def test_walk_matches_the_reference_on_small_tables(
    store_60k, small_tables, odds, data
):
    # segments.csv as the generator writes it to 60,000 at small segment
    # sizes: one odd (mostly empty segments), 8, 56 and 1000
    with mock.patch.object(primes_mod, "_SEGMENT_ODDS", odds), \
            mock.patch.object(primes_mod, "DEFAULT_SIEVE_BUDGET", 60_000), \
            mock.patch.object(primes_mod, "_table", small_tables):
        k_min, n = _small_walk_case(data, store_60k)
        _assert_walk_matches_the_reference(k_min, n, store_60k)


@pytest.mark.parametrize(
    "k_min",
    [Fraction(0), Fraction(1), Fraction("1.0001"), Fraction("1.001"), Fraction(2)],
)
@pytest.mark.parametrize("odds", [1, 56])
def test_walk_past_the_small_horizon(store_60k, small_tables, k_min, odds):
    # N = pi(60,000) + 1 exits 5 unless k_min's certified bound is within the
    # horizon: not for k_min <= 1 nor for 1.0001 (2,898,360), but for 1.001
    # and 2 (58,890), where it stands for pi(60,000)
    with mock.patch.object(primes_mod, "_SEGMENT_ODDS", odds), \
            mock.patch.object(primes_mod, "DEFAULT_SIEVE_BUDGET", 60_000), \
            mock.patch.object(primes_mod, "_table", small_tables):
        _assert_walk_matches_the_reference(k_min, PI_SMALL + 1, store_60k)


@pytest.mark.parametrize("scan_odds", [1, 3, 1000, 1 << 16])
def test_walk_scan_slices_are_semantically_invisible(store_60k, monkeypatch, scan_odds):
    # slices of one odd put a slice edge inside every gap
    cases = [
        (Fraction(0), 3000), (Fraction(1), 5000), (Fraction("1.0008968291"), 10**6)
    ]
    want = [core.table_rows(k_min, n) for k_min, n in cases]
    assert want[0] == reference_breakpoints(Fraction(0), 3000, store_60k)
    monkeypatch.setattr(primes_mod, "_SCAN_ODDS", scan_odds)
    assert [core.table_rows(k_min, n) for k_min, n in cases] == want


@pytest.mark.parametrize("odds", [40_000, 1000])
def test_walk_checks_each_row_against_its_segment(store_60k, monkeypatch, odds):
    # at other segment sizes no segments.csv row but by chance the first's low
    # matches a segment, so the walk to k_min = 0's prefix, all of 2e9, counts
    # each segment by sieving it up to p_3000's and builds no segment past it
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", odds)
    want = reference_breakpoints(Fraction(0), 3000, store_60k)
    assert core.table_rows(Fraction(0), 3000) == want
