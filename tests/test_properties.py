"""Property-based checks tying the fast paths to their definitions."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kramanujan import (
    BUILTIN_THEOREMS,
    breakpoints,
    brute_force_R,
    certified_bound,
    cor_bound,
    first_k_ramanujan,
)
from kramanujan.core import shared_store

# certified bound for every k >= 1.0008968291 (the paper's horizon)
FAST_BOUND = 58890

# exact rationals in (1.001, 5/3), the cheap fast-path region
ks = st.fractions(
    min_value=Fraction("1.001"), max_value=Fraction(5, 3), max_denominator=10**6
)


@settings(max_examples=60, deadline=None)
@given(ks)
def test_oracle_equivalence(k):
    prime, index = first_k_ramanujan(k)
    assert brute_force_R(k, 1, 2 * FAST_BOUND) == prime
    store = shared_store(2 * FAST_BOUND)
    assert store.nth_prime(index) == prime


@settings(max_examples=60, deadline=None)
@given(ks, ks)
def test_monotone_in_k(k1, k2):
    if k1 > k2:
        k1, k2 = k2, k1
    assert first_k_ramanujan(k1)[0] >= first_k_ramanujan(k2)[0]


@settings(max_examples=60, deadline=None)
@given(k=ks)
def test_characterization_closure(store_60k, k):
    # p_m/p_{m-1} > k (vacuous for m = 1), and no later ratio exceeds k
    ps = store_60k.primes.tolist()
    _, m = first_k_ramanujan(k)
    above = [
        a
        for a in range(2, len(ps) + 1)
        if ps[a - 1] * k.denominator > k.numerator * ps[a - 2]
    ]
    assert max(above, default=1) == m


@settings(max_examples=40, deadline=None)
@given(ks)
def test_bound_soundness(k):
    prime, _ = first_k_ramanujan(k)
    for thm in BUILTIN_THEOREMS.values():
        if thm.admits(k):
            assert prime <= cor_bound(k, thm)
    assert prime <= certified_bound(k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_coherence(data):
    store = shared_store(FAST_BOUND)
    rows = breakpoints(Fraction("1.0008968291"), 5950, store)
    i = data.draw(st.integers(min_value=0, max_value=len(rows) - 2))
    lo, hi = rows[i + 1].ratio, rows[i].ratio
    # any k in [next ratio, this ratio) lands on this row's prime
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    k = lo + (hi - lo) * t
    if k >= hi:
        k = lo
    assert first_k_ramanujan(k)[0] == rows[i].prime


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=2, max_value=50_000, max_denominator=10**4),
    st.fractions(min_value=2, max_value=50_000, max_denominator=10**4),
)
def test_prime_count_monotone(x1, x2):
    store = shared_store(60_000)
    if x1 > x2:
        x1, x2 = x2, x1
    assert store.prime_count(x1) <= store.prime_count(x2)


@settings(max_examples=50, deadline=None)
@given(st.fractions(min_value=2, max_value=50_000, max_denominator=10**6))
def test_prime_count_floor_reduction(x):
    store = shared_store(60_000)
    assert store.prime_count(x) == store.prime_count(x.numerator // x.denominator)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_per_gap_reduction_soundness(data):
    """A gap passing its single left-endpoint check passes at every real x.

    The theorem interval at any rational x inside the gap must contain a
    prime; with the left endpoint certified this follows from monotonicity
    of the threshold, and we spot-check it directly.
    """
    from kramanujan import AXLER, verify_theorem

    store = shared_store(200_000)
    report = verify_theorem(AXLER, 58837, 70_000, store)
    assert report.ok
    ps, qs = store.gap_arrays(58837, 70_000)
    j = data.draw(st.integers(min_value=0, max_value=len(ps) - 1))
    p, q = int(ps[j]), int(qs[j])
    lo = max(p, 58837)
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=997))
    x = lo + (q - 1 - lo) * t  # rational point in [lo, q)
    thr = float(x) * (1 + float(AXLER.c) / math.log(x) ** AXLER.e)
    # the next prime q lies inside (x, x(1 + c/log^3 x)]
    assert float(x) < q <= thr
