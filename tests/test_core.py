import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kramanujan import (
    AXLER,
    TRUDGIAN,
    BreakpointEntry,
    DomainError,
    InconclusiveError,
    RangeError,
    ResourceLimitError,
    UnsupportedRangeError,
    breakpoints,
    brute_force_R,
    certified_bound,
    cor_bound,
    first_k_ramanujan,
    parse_k,
)
from kramanujan.core import k_equals_gap_ratio


def reference_breakpoints(k_min, index_limit, store):
    """Exact right-to-left record loop over every index, no prescreen."""
    primes = store.primes[:index_limit].tolist()
    out = []
    best_num, best_den = k_min.numerator, k_min.denominator  # ratio to beat
    for a in range(index_limit, 1, -1):
        pa, pa_prev = primes[a - 1], primes[a - 2]
        if pa * best_den > best_num * pa_prev:
            out.append(BreakpointEntry(a, pa, pa_prev, Fraction(pa, pa_prev)))
            best_num, best_den = pa, pa_prev
    out.reverse()
    return out


def characterizes(m, k, store):
    """p_m/p_{m-1} > k (vacuous for m = 1) and no later ratio in the store
    exceeds k, by exact cross-multiplication."""
    ps = store.primes.tolist()

    def exceeds(a):
        return ps[a - 1] * k.denominator > k.numerator * ps[a - 2]

    return (m == 1 or exceeds(m)) and not any(
        exceeds(a) for a in range(m + 1, len(ps) + 1)
    )


class TestParseK:
    def test_decimal(self):
        assert parse_k("1.0008968291") == Fraction(10008968291, 10**10)

    def test_fraction(self):
        assert parse_k("5/3") == Fraction(5, 3)

    def test_integer(self):
        assert parse_k("2") == Fraction(2)

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            parse_k("0.9")
        with pytest.raises(DomainError):
            parse_k("1")

    @pytest.mark.parametrize(
        "text", ["", "abc", "1.2e3", "-1.5", "1.1234567890123456", "3/0", "1/000"]
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_k(text)


class TestCorBound:
    def test_paper_value(self):
        assert cor_bound(Fraction("1.0008968291"), AXLER) == 58890

    def test_matches_high_precision_oracle(self):
        # independent 50-digit recomputation of k*exp((c/(k-1))^(1/3))
        k = Fraction("1.0004")
        with mpmath.workdps(50):
            t = AXLER.c / (k - 1)
            hp = (
                mpmath.mpf(k.numerator)
                / k.denominator
                * mpmath.exp(mpmath.cbrt(mpmath.mpf(t.numerator) / t.denominator))
            )
            expected = int(mpmath.ceil(hp))
        assert expected == 1749184
        assert cor_bound(k, AXLER) == expected

    def test_near_k_max_collapses_to_x0(self):
        # k_max(axler) = 1.00089682911335702...; a 15-digit truncation sits
        # within relative 1e-14 of it, so the bound is essentially ceil(k*x0)
        k = Fraction("1.000896829113357")
        assert cor_bound(k, AXLER) == 58890  # ceil(k * 58837)

    def test_hypothesis_violation(self):
        with pytest.raises(DomainError):
            cor_bound(Fraction(3, 2), AXLER)

    def test_k_at_most_one(self):
        with pytest.raises(DomainError):
            cor_bound(Fraction(1), AXLER)

    def test_overflow_is_unsupported_range(self):
        with pytest.raises(UnsupportedRangeError):
            cor_bound(Fraction("1.000000000000001"), TRUDGIAN)


class TestCertifiedBound:
    @pytest.mark.parametrize(
        "k,expected",
        [
            # past each theorem's k_max its bound is ceil(k_max * x0)
            (Fraction(2), 58890),  # axler
            (Fraction("1.0003"), 396834),  # dusart
            (Fraction("1.0001"), 2898360),  # trudgian
            # admitted: the corollary's value
            (Fraction("1.0008968291"), 58890),
            (Fraction("1.00002"), 1_649_664_876),
        ],
    )
    def test_minimum_over_theorems(self, k, expected):
        assert certified_bound(k) == expected

    def test_past_sieve_budget(self):
        # ~1.08e13 under trudgian: a bound past the budget is still a bound
        assert certified_bound(Fraction("1.00001")) == 10848210585662

    def test_skips_an_overflowing_theorem(self):
        # dusart's corollary overflows here; axler's 125 digits are the minimum
        k = Fraction("1.00000005")
        assert certified_bound(k) == cor_bound(k, AXLER)


class TestFirstKRamanujan:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (Fraction(5, 3), (2, 1)),
            (Fraction("1.7"), (2, 1)),
            (Fraction("1.0008968291"), (58889, 5950)),
            (Fraction("1.1"), (127, 31)),
            (Fraction(3, 2), (11, 5)),
        ],
    )
    def test_known_values(self, k, expected):
        assert first_k_ramanujan(k) == expected

    def test_theorem_path_agrees_with_oracle(self):
        for text in ("1.0005", "1.0003"):
            k = parse_k(text)
            bound = certified_bound(k)
            prime, index = first_k_ramanujan(k)
            assert prime <= bound
            assert brute_force_R(k, 1, 2 * bound) == prime

    def test_unsupported_range(self):
        # the bound 10848210585662 is past the sieve budget
        with pytest.raises(ResourceLimitError):
            first_k_ramanujan(Fraction("1.00001"))

    def test_k_at_most_one(self):
        with pytest.raises(DomainError):
            first_k_ramanujan(Fraction(1, 2))

    def test_oracle_cross_check_near_trudgian(self):
        rng = random.Random(407)
        lo, hi = math.log(0.0000407), math.log(0.001)
        for _ in range(12):
            k = 1 + Fraction(math.exp(rng.uniform(lo, hi))).limit_denominator(10**12)
            bound = certified_bound(k)
            prime, _ = first_k_ramanujan(k)
            assert prime <= bound
            assert brute_force_R(k, 1, 2 * bound) == prime, f"k = {k}"


class TestBruteForce:
    def test_remark_a_case(self):
        assert brute_force_R(Fraction(2), 1, 1000) == 2

    def test_second_ramanujan_prime(self):
        assert brute_force_R(Fraction(2), 2, 1000) == 11

    def test_classical_ramanujan_primes(self):
        # k = 2 reproduces the classical sequence (OEIS A104272)
        got = [brute_force_R(Fraction(2), n, 10_000) for n in range(1, 11)]
        assert got == [2, 11, 17, 29, 41, 47, 59, 67, 71, 97]

    def test_paper_value(self):
        assert brute_force_R(parse_k("1.0008968291"), 1, 200_000) == 58889

    def test_three_halves(self):
        assert brute_force_R(Fraction(3, 2), 1, 1000) == 11
        assert first_k_ramanujan(Fraction(3, 2))[0] == 11

    def test_inconclusive_tail(self):
        # last failure near 58888 is above 80000/2
        with pytest.raises(InconclusiveError):
            brute_force_R(parse_k("1.0008968291"), 1, 80_000)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            brute_force_R(Fraction(2), 0, 1000)


class TestCharacterization:
    def test_paper_index(self, store_60k):
        k = parse_k("1.0008968291")
        assert characterizes(5950, k, store_60k)
        assert first_k_ramanujan(k) == (58889, 5950)

    def test_off_by_one_fails(self, store_60k):
        assert not characterizes(5949, parse_k("1.0008968291"), store_60k)

    def test_condition_b_fails(self, store_60k):
        # p_3/p_2 = 5/3 < 1.7
        assert not characterizes(3, parse_k("1.7"), store_60k)

    def test_index_one_vacuous(self, store_60k):
        assert characterizes(1, Fraction(2), store_60k)
        assert first_k_ramanujan(Fraction(2)) == (2, 1)


class TestBreakpoints:
    def test_first_rows(self, store_60k):
        rows = breakpoints(parse_k("1.0008968291"), 16, store_60k)
        assert [(r.index, r.prime) for r in rows] == [
            (3, 5),
            (5, 11),
            (7, 17),
            (10, 29),
            (12, 37),
            (16, 53),
        ]

    def test_ratios_strictly_decrease(self, store_60k):
        rows = breakpoints(parse_k("1.0008968291"), 5950, store_60k)
        assert all(a.ratio > b.ratio for a, b in zip(rows, rows[1:]))
        assert all(a.index < b.index for a, b in zip(rows, rows[1:]))

    def test_strictness_at_k_min(self, store_60k):
        assert breakpoints(Fraction(5, 3), 5950, store_60k) == []
        assert breakpoints(Fraction(10**400), 5950, store_60k) == []  # > 1e308

    def test_range_error(self, store_60k):
        with pytest.raises(RangeError):
            breakpoints(Fraction(2), store_60k.count + 1, store_60k)

    def test_float_cut_at_the_last_row(self, store_60k):
        # k rounds to the same float as the 44th row's ratio 58889/58831,
        # yet lies below it, so the unguarded float cut must keep that row
        last = Fraction(58889, 58831)
        below = last - Fraction(1, 10**18)
        assert float(below) == float(last)
        assert len(breakpoints(below, 5950, store_60k)) == 44
        assert len(breakpoints(last, 5950, store_60k)) == 43


def _record_k_min(data, store):
    way = data.draw(st.sampled_from(["near_one", "gap_ratio", "no_rows"]))
    if way == "near_one":  # float near-ties among the ratios close to 1
        t = data.draw(st.floats(min_value=math.log(1e-9), max_value=0.0))
        return 1 + Fraction(math.exp(t))
    if way == "gap_ratio":  # the closed end of a breakpoint interval
        n = data.draw(st.integers(min_value=2, max_value=store.count))
        return Fraction(store.nth_prime(n), store.nth_prime(n - 1))
    return data.draw(st.fractions(min_value=Fraction(5, 3), max_value=3))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_breakpoints_match_reference(store_10m, data):
    k_min = _record_k_min(data, store_10m)
    index_limit = data.draw(st.integers(min_value=2, max_value=store_10m.count))
    assert breakpoints(k_min, index_limit, store_10m) == reference_breakpoints(
        k_min, index_limit, store_10m
    )


def test_k_equals_gap_ratio_flag(store_60k):
    assert k_equals_gap_ratio(Fraction(127, 113), store_60k)
    assert not k_equals_gap_ratio(Fraction("1.1"), store_60k)
