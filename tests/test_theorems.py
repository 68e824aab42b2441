"""The rigorous arithmetic path: interval enclosures against 60-digit
references, thread safety, the single float prescreen guard, the single
owner of the sieve budget, and the exit code each error type carries."""

import decimal
import math
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kramanujan
from kramanujan import (
    AXLER,
    DUSART,
    TRUDGIAN,
    DomainError,
    GapTheorem,
    InconclusiveError,
    KRamanujanError,
    RangeError,
    ResourceLimitError,
    UnsupportedRangeError,
    certified_bound,
    cor_bound,
    verify_theorem,
)
from kramanujan import core
from kramanujan.theorems import _corollary, _log_pow

REF_DPS = 60
WEAK = GapTheorem("custom", 58837, Fraction("0.05"), 3)

theorems = st.builds(
    GapTheorem,
    st.just("custom"),
    st.integers(min_value=2, max_value=10**6),
    st.fractions(min_value=Fraction(1, 1000), max_value=2, max_denominator=1000),
    st.integers(min_value=1, max_value=4),
)
# k - 1, log-uniform in [1e-6, 1]
k_minus_one = st.floats(min_value=math.log(1e-6), max_value=0.0).map(
    lambda u: Fraction(math.exp(u))
)


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _exact(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@settings(max_examples=200, deadline=None)
@given(theorems, k_minus_one, st.sampled_from([64, 128]))
def test_enclosures_contain_reference(thm, d, prec):
    k = 1 + d
    with mpmath.workdps(REF_DPS):
        log_pow = mpmath.log(thm.x0) ** thm.e
        k_max = 1 + _mpf(thm.c) / log_pow
        value = _mpf(k) * mpmath.exp(mpmath.root(_mpf(thm.c / d), thm.e))
        overflows = value >= mpmath.mpf(2) ** 1024
        ceiling = int(mpmath.ceil(value)) if value < 10**45 else None
    lo, hi = _log_pow(thm.x0, thm.e, prec)
    assert lo <= _exact(log_pow) <= hi
    lo, hi = thm.k_max(prec)
    assert lo <= _exact(k_max) <= hi
    assert thm.admits(k) == (k <= _exact(k_max))
    if overflows:
        with pytest.raises(UnsupportedRangeError):
            thm.corollary_bound(k)
        return
    lo, hi = _corollary(k, thm.c, thm.e, prec)
    assert lo <= _exact(value) <= hi
    if thm.admits(k) and ceiling is not None:
        assert cor_bound(k, thm) == ceiling


@settings(max_examples=300, deadline=None)
@given(theorems, st.integers(min_value=2, max_value=10**12), st.integers(-2, 2))
def test_threshold_exceeds_matches_reference(thm, x, delta):
    # q is drawn next to the threshold, where a decision is hardest
    with mpmath.workdps(REF_DPS):
        threshold = x * (1 + _mpf(thm.c) / mpmath.log(x) ** thm.e)
        q = int(mpmath.floor(threshold)) + delta
        want = threshold >= q
    assert thm.threshold_exceeds(x, q) == want


def test_no_global_precision_writes_from_threads(monkeypatch):
    calls = [
        (certified_bound, (Fraction("1.0008968291"),)),
        (certified_bound, (Fraction("1.00002"),)),
        (cor_bound, (Fraction("1.00002"), AXLER)),
        (cor_bound, (Fraction("1.000896829113357"), AXLER)),
        (AXLER.admits, (Fraction("1.000896829113357"),)),
        (DUSART.admits, (Fraction("1.0003"),)),
        (TRUDGIAN.k_max_bound, ()),
        # the two thin-margin gaps of WEAK on [58837, 1e6]
        (WEAK.threshold_exceeds, (935603, 935621)),
        (WEAK.threshold_exceeds, (935621, 935639)),
        (AXLER.threshold_exceeds, (58837, 58889)),
    ]
    want = [f(*args) for f, args in calls]
    report = verify_theorem(WEAK, 58837, 10**6)

    # every worker thread holds a decimal context that would round, flag or
    # raise on any operation the package let read it
    hostile = {}

    def set_hostile_context():
        hostile[threading.get_ident()] = ctx = decimal.Context(
            prec=3,
            rounding=decimal.ROUND_UP,
            traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
        )
        decimal.setcontext(ctx)

    def call(fa):
        result = fa[0](*fa[1])
        ctx = decimal.getcontext()
        assert ctx is hostile[threading.get_ident()]
        assert not any(ctx.flags.values()), ctx.flags
        return result

    writes = []
    ctx_type = type(mpmath.mp)
    for name in ("prec", "dps"):
        prop = getattr(ctx_type, name)

        def record(ctx, value, prop=prop, name=name):
            writes.append((name, value))
            prop.fset(ctx, value)

        monkeypatch.setattr(ctx_type, name, property(prop.fget, record))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8, initializer=set_hostile_context) as pool:
            got = list(pool.map(call, calls * 20))
        jobs4 = verify_theorem(WEAK, 58837, 10**6, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    assert writes == []
    assert got == want * 20
    assert hostile
    assert jobs4.violations == report.violations
    assert jobs4.pairs_checked == report.pairs_checked


@pytest.mark.parametrize("e", [10**6, 10**7])
def test_huge_exponent_decisions(e):
    # log^e x is exp(e*log(log(x))): the cost follows the digits of e, and
    # no end of size 10^(10^6) or more is ever made a Fraction
    thm = GapTheorem("custom", 58837, Fraction(1), e)
    start = time.perf_counter()
    assert thm.admits(Fraction(3, 2)) is False
    assert thm.threshold_exceeds(58889, 58897) is False
    assert thm.corollary_bound(Fraction(3, 2)) == 5
    assert time.perf_counter() - start < 0.5


# c from 1e-12 to 10^400, as exact Fractions
gap_c = st.builds(
    lambda m, t: Fraction(m) * Fraction(10) ** t,
    st.integers(1, 10**6),
    st.integers(-18, 394),
).filter(lambda c: Fraction(1, 10**12) <= c <= 10**400)


@settings(max_examples=300, deadline=None)
@given(
    gap_c,
    st.integers(1, 8),
    st.lists(st.integers(2, 2 * 10**9), min_size=2, max_size=2),
)
def test_gap_floor_below_the_allowance(c, e, ends):
    # gap_floor(xa, xb) <= c*x/log^e x on [xa, xb], and it gives away no more
    # than log x < u <= 1.01 log xb + 1.7 costs
    xa, xb = sorted(ends)
    floor = GapTheorem("custom", 2, c, e).gap_floor(xa, xb)
    with mpmath.workdps(REF_DPS):
        for x in (xa, xb):
            assert 0 <= floor <= _mpf(c) * x / mpmath.log(x) ** e
        assert floor >= _mpf(c) * xa / (1.01 * mpmath.log(xb) + 1.7) ** e - 1


def test_gap_floor_builds_no_huge_power():
    # u^e with e = 10^400 could never be built; the bit lengths decide first
    thm = GapTheorem("custom", 3, Fraction(10**400), 10**400)
    assert thm.gap_floor(3, 10**6) == 0


def test_one_float_guard_literal():
    src = Path(kramanujan.__file__).parent
    literals = [
        f"{path.name}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"\de-\d", line)
    ]
    assert literals == ["verify.py: PRESCREEN_GUARD = 1e-9"]


def test_one_sieve_budget_owner():
    # sieve_upto alone refuses a table past the budget, before sieving
    src = Path(kramanujan.__file__).parent
    owners = [
        path.name
        for path in sorted(src.glob("*.py"))
        if "DEFAULT_SIEVE_BUDGET" in path.read_text()
    ]
    assert owners == ["primes.py"]
    before = core._shared
    with pytest.raises(ResourceLimitError, match="budget"):
        core.first_k_ramanujan(Fraction("1.00001"))
    assert core._shared is before


def test_error_types_carry_their_exit_codes():
    # cli.main returns e.exit_code for every package error
    errors = [
        KRamanujanError,
        DomainError,
        RangeError,
        UnsupportedRangeError,
        InconclusiveError,
        ResourceLimitError,
    ]
    assert [cls.exit_code for cls in errors] == [2, 2, 2, 2, 4, 5]
