"""Property-based checks tying the fast paths to their definitions."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from kramanujan import (
    BUILTIN_THEOREMS,
    breakpoints,
    certified_bound,
    cor_bound,
    first_k_ramanujan,
)
from kramanujan import cli, core
from kramanujan.core import shared_store

from reference import critical_point_R

# certified bound for every k >= 1.0008968291 (the paper's horizon)
FAST_BOUND = 58890

# exact rationals in (1.001, 5/3), the cheap fast-path region
ks = st.fractions(
    min_value=Fraction("1.001"), max_value=Fraction(5, 3), max_denominator=10**6
)


@settings(max_examples=60, deadline=None)
@given(ks)
def test_oracle_equivalence(k):
    answer = first_k_ramanujan(k)
    prime, index = answer.prime, answer.index
    assert critical_point_R(k, 1, 2 * FAST_BOUND) == prime
    store = shared_store(2 * FAST_BOUND)
    assert store.nth_prime(index) == prime


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
    assert first_k_ramanujan(k).prime == rows[i].prime


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
    report = verify_theorem(AXLER, 58837, 70_000)
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


def _k_min_within_the_table(data):
    # k_min - 1 log-uniform in [2e-5, 1], where the bound is at most 2e9, or a
    # record ratio of records.csv there, or next to it
    if data.draw(st.booleans()):
        t = data.draw(st.floats(min_value=math.log(2e-5), max_value=0.0))
        return 1 + Fraction(math.exp(t))
    ratios = [Fraction(p, q) for _, p, q in core._records()[1]]
    r = data.draw(st.sampled_from([r for r in ratios if r >= Fraction("1.00002")]))
    return r + data.draw(st.sampled_from([0, 1, -1])) * Fraction(1, 10**15)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_rows_from_the_record_table(store_21m, data):
    # no gap ratio past the last row a* above k_min exceeds it, so for every
    # N >= a* the table is the record table's rows above k_min, with no sieve
    k_min = _k_min_within_the_table(data)
    bound, rows = core.records_above(k_min)
    assert bound <= 2 * 10**9
    a_star = rows[-1].index if rows else 1
    n = data.draw(st.one_of(
        st.sampled_from([max(a_star, 2), a_star + 1]),
        st.integers(min_value=max(a_star, 2), max_value=store_21m.count),
    ))
    with mock.patch.object(core, "shared_store", None):  # nothing sieves
        assert cli._table_rows(k_min, n) == rows
    assert rows == breakpoints(k_min, n, store_21m)
    if a_star > 2:  # one index short of a*, row a* is out of range: the table sieves
        below = breakpoints(k_min, a_star - 1, store_21m)
        assert cli._table_rows(k_min, a_star - 1) == below != rows
