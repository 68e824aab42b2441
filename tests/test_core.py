import math
import random
from bisect import bisect_left
import tracemalloc
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kramanujan import (
    AXLER,
    TRUDGIAN,
    BreakpointEntry,
    DomainError,
    GapTheorem,
    InconclusiveError,
    RangeError,
    ResourceLimitError,
    UnsupportedRangeError,
    breakpoints,
    brute_force_R,
    certified_bound,
    cor_bound,
    core,
    first_k_ramanujan,
    parse_rational,
    sieve_upto,
    verify_theorem,
)
from kramanujan import BUILTIN_THEOREMS, DUSART, cli
from kramanujan import primes as primes_mod
from kramanujan.core import k_equals_gap_ratio
from kramanujan.primes import DEFAULT_SIEVE_BUDGET, MAX_GAP
from kramanujan.primes import record_prefix

from reference import FLOOR, critical_point_R, reference_breakpoints

PAPER_K = Fraction("1.0008968291")


def store_gap_ratio(k, store):
    """True when k's lowest terms are p_n over p_{n-1} for two primes of the store."""
    j = bisect_left(store.primes, k.denominator)
    return store.primes[j : j + 2].tolist() == [k.denominator, k.numerator]


def sieve_first_k_ramanujan(k, store):
    """R_1^(k) from the primes of a store up to the certified bound: (prime,
    index, flag)."""
    bound = certified_bound(k)
    rows = breakpoints(k, store.prime_count(bound), store)
    prime, index = (rows[-1].prime, rows[-1].index) if rows else (2, 1)
    return prime, index, k.numerator <= bound and store_gap_ratio(k, store)


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
        assert parse_rational("1.0008968291") == Fraction(10008968291, 10**10)

    def test_fraction(self):
        assert parse_rational("5/3") == Fraction(5, 3)

    def test_integer(self):
        assert parse_rational("2") == Fraction(2)

    def test_below_one_rejected(self):
        # parsing checks no domain; the layers that use k reject k <= 1
        assert parse_rational("0.9") == Fraction(9, 10)
        for k in (Fraction(9, 10), Fraction(1)):
            with pytest.raises(DomainError):
                first_k_ramanujan(k)
            with pytest.raises(DomainError):
                brute_force_R(k, 1, 1000)

    @pytest.mark.parametrize(
        "text", ["", "abc", "1.2e3", "-1.5", "1.1234567890123456", "3/0", "1/000"]
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


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
        answer = first_k_ramanujan(k)
        assert (answer.prime, answer.index) == expected

    def test_theorem_path_agrees_with_oracle(self, store_10m):
        for text in ("1.0005", "1.0003"):
            k = parse_rational(text)
            bound = certified_bound(k)
            answer = first_k_ramanujan(k)
            assert answer.prime <= bound
            got = critical_point_R(k, 1, 2 * bound, store_10m)
            assert got == (answer.prime, answer.index)

    def test_unsupported_range(self):
        # the bound 10848210585662 is past the sieve budget
        with pytest.raises(ResourceLimitError):
            first_k_ramanujan(Fraction("1.00001"))

    def test_k_at_most_one(self):
        with pytest.raises(DomainError):
            first_k_ramanujan(Fraction(1, 2))

    def test_oracle_cross_check_near_trudgian(self, store_10m):
        rng = random.Random(407)
        lo, hi = math.log(0.0000407), math.log(0.001)
        for _ in range(12):
            k = 1 + Fraction(math.exp(rng.uniform(lo, hi))).limit_denominator(10**12)
            bound = certified_bound(k)
            answer = first_k_ramanujan(k)
            assert answer.prime <= bound
            got = critical_point_R(k, 1, 2 * bound, store_10m)
            assert got == (answer.prime, answer.index), f"k = {k}"


class TestBruteForce:
    def test_remark_a_case(self):
        assert brute_force_R(Fraction(2), 1, 1000) == (2, 1)

    def test_second_ramanujan_prime(self):
        assert brute_force_R(Fraction(2), 2, 1000) == (11, 5)

    def test_classical_ramanujan_primes(self):
        # k = 2 reproduces the classical sequence (OEIS A104272)
        got = [brute_force_R(Fraction(2), n, 10_000) for n in range(1, 11)]
        assert got == [(2, 1), (11, 5), (17, 7), (29, 10), (41, 13), (47, 15),
                       (59, 17), (67, 19), (71, 20), (97, 25)]

    def test_paper_value(self):
        k = parse_rational("1.0008968291")
        assert brute_force_R(k, 1, 200_000) == (58889, 5950)

    def test_three_halves(self):
        assert brute_force_R(Fraction(3, 2), 1, 1000) == (11, 5)
        assert first_k_ramanujan(Fraction(3, 2)).prime == 11

    def test_inconclusive_tail(self):
        # last failure near 58888 is above 80000/2
        with pytest.raises(InconclusiveError):
            brute_force_R(parse_rational("1.0008968291"), 1, 80_000)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            brute_force_R(Fraction(2), 0, 1000)


def _outcome(f, *args):
    """f's value, or the type and message of the package error it raises."""
    try:
        return f(*args)
    except (DomainError, InconclusiveError, RangeError) as e:
        return type(e), str(e)


@settings(max_examples=120, deadline=None)
@given(
    t=st.floats(min_value=math.log(1e-5), max_value=math.log(10)),
    n=st.one_of(st.integers(1, 20), st.integers(1, 3000)),
    scan_limit=st.integers(4, 2_000_000),
)
def test_brute_force_matches_the_critical_point_scan(store_10m, t, n, scan_limit):
    # brute_force_R sieves its own prefix, often short of scan_limit; the
    # reference scans every critical point up to scan_limit
    k = 1 + Fraction(math.exp(t))
    assert _outcome(brute_force_R, k, n, scan_limit) == _outcome(
        critical_point_R, k, n, scan_limit, store_10m
    )


def test_one_sieve_per_record_search(capsys, monkeypatch):
    # the oracle sieves its prefix once, and compute reads its index off the
    # same search; a table walks the segment masks and builds no store
    limits = []
    monkeypatch.setattr(core, "sieve_upto", lambda n: limits.append(n) or sieve_upto(n))
    assert cli.main(["compute", "--k", "2", "--n", "9", "--method", "oracle",
                     "--scan-limit", "1000"]) == 0
    assert '"prime": 71,\n  "index": 20,' in capsys.readouterr().out
    assert limits == [record_prefix(1000, Fraction(2), 9)] == [1000]
    assert cli.main(["table", "--k-min", "1", "--index-limit", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "32,1000,7919,7907,7919,7907"
    assert limits == [1000]


class TestCharacterization:
    def test_paper_index(self, store_60k):
        k = parse_rational("1.0008968291")
        assert characterizes(5950, k, store_60k)
        answer = first_k_ramanujan(k)
        assert (answer.prime, answer.index) == (58889, 5950)

    def test_off_by_one_fails(self, store_60k):
        assert not characterizes(5949, parse_rational("1.0008968291"), store_60k)

    def test_condition_b_fails(self, store_60k):
        # p_3/p_2 = 5/3 < 1.7
        assert not characterizes(3, parse_rational("1.7"), store_60k)

    def test_index_one_vacuous(self, store_60k):
        assert characterizes(1, Fraction(2), store_60k)
        answer = first_k_ramanujan(Fraction(2))
        assert (answer.prime, answer.index) == (2, 1)


class TestBreakpoints:
    def test_first_rows(self, store_60k):
        rows = breakpoints(parse_rational("1.0008968291"), 16, store_60k)
        assert [(r.index, r.prime) for r in rows] == [
            (3, 5),
            (5, 11),
            (7, 17),
            (10, 29),
            (12, 37),
            (16, 53),
        ]

    def test_ratios_strictly_decrease(self, store_60k):
        rows = breakpoints(parse_rational("1.0008968291"), 5950, store_60k)
        assert all(a.ratio > b.ratio for a, b in zip(rows, rows[1:]))
        assert all(a.index < b.index for a, b in zip(rows, rows[1:]))

    def test_strictness_at_k_min(self, store_60k):
        assert breakpoints(Fraction(5, 3), 5950, store_60k) == []
        assert breakpoints(Fraction(10**400), 5950, store_60k) == []  # > 1e308
        assert breakpoints(Fraction(10**400), 5950, store_60k, 3) == []

    def test_range_error(self, store_60k):
        with pytest.raises(RangeError):
            breakpoints(Fraction(2), store_60k.count + 1, store_60k)
        with pytest.raises(RangeError):
            breakpoints(Fraction(2), 3, store_60k, 3)  # no ratio p_a/p_{a-3}

    def test_stride_two_first_ratio(self, store_60k):
        # p_3/p_1 = 5/2 is past 2, which bounds every gap ratio (Bertrand)
        top = BreakpointEntry(3, 5, 2, Fraction(5, 2))
        assert breakpoints(Fraction(2), 3, store_60k, 2) == [top]
        assert breakpoints(Fraction(12, 5), 5950, store_60k, 2)[0] == top
        assert breakpoints(Fraction(5, 2), 5950, store_60k, 2) == []

    def test_float_cut_at_the_last_row(self, store_60k):
        # k rounds to the same float as the 44th row's ratio 58889/58831,
        # yet lies below it, so the exact cut must keep that row
        last = Fraction(58889, 58831)
        below = last - Fraction(1, 10**18)
        assert float(below) == float(last)
        assert len(breakpoints(below, 5950, store_60k)) == 44
        assert len(breakpoints(last, 5950, store_60k)) == 43


@pytest.mark.parametrize("chunk", [1, 2, 7, 1000])
def test_breakpoints_independent_of_ratio_chunk(chunk, store_60k, monkeypatch):
    # chunk seams fall between a record and the later ratios it must beat,
    # and inside the n primes that consecutive chunks share for stride n
    monkeypatch.setattr(core, "_RATIO_CHUNK", chunk)
    for n in (1, 2, 3, 9):
        k_mins = (1, PAPER_K, Fraction(3, 2), Fraction(5, 3), 2, Fraction(5, 2), n)
        for k_min in map(Fraction, k_mins):
            for index_limit in (n + 1, n + 2, 1001, 5950, store_60k.count):
                want = reference_breakpoints(k_min, index_limit, store_60k, n)
                assert breakpoints(k_min, index_limit, store_60k, n) == want


def test_breakpoints_peak_is_a_fraction_of_the_store(store_21m):
    # k_min = 1 passes every ratio of the last chunk through the cut
    tracemalloc.start()
    try:
        rows = breakpoints(Fraction(1), store_21m.count, store_21m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0] == BreakpointEntry(3, 5, 3, Fraction(5, 3))
    assert store_21m.count > 1_300_000
    assert peak < store_21m.primes.nbytes / 2


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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stride_breakpoints_match_reference(store_60k, data):
    n = data.draw(st.sampled_from([1, 2, 3, 9]))
    index_limit = data.draw(st.integers(min_value=n + 1, max_value=store_60k.count))
    a = data.draw(st.integers(min_value=n + 1, max_value=index_limit))
    ratio = Fraction(store_60k.nth_prime(a), store_60k.nth_prime(a - n))
    # a stride-n ratio, just below it, or any value up to past the largest
    k_min = data.draw(
        st.sampled_from([ratio, ratio - Fraction(1, 10**18)])
        | st.fractions(min_value=1, max_value=30, max_denominator=10**6)
    )
    assert breakpoints(k_min, index_limit, store_60k, n) == reference_breakpoints(
        k_min, index_limit, store_60k, n
    )


def test_k_equals_gap_ratio_flag():
    assert k_equals_gap_ratio(Fraction(127, 113), 58890)
    assert not k_equals_gap_ratio(Fraction(127, 113), 126)  # p_n past the bound
    assert not k_equals_gap_ratio(Fraction("1.1"), 58890)


def test_trial_division_flag_matches_the_store(store_60k):
    # every gap ratio below 60,000, every ratio that skips a prime, and
    # non-ratios: 2 = 2/1, 1.1 = 11/10 and 9/7 (7 is prime, 9 is not)
    ps = store_60k.primes.tolist()
    ks = [Fraction(q, p) for p, q in zip(ps, ps[1:])]
    ks += [Fraction(r, p) for p, r in zip(ps, ps[2:])]
    ks += [Fraction(2), Fraction("1.1"), Fraction(9, 7)]
    got = [k_equals_gap_ratio(k, 60_000) for k in ks]
    assert got == [store_gap_ratio(k, store_60k) for k in ks]
    assert sum(got) == len(ps) - 1


@pytest.mark.parametrize(
    "k",
    [
        Fraction(127, 113),
        Fraction(5, 3),
        Fraction(3, 2),
        Fraction(58889, 58831),
        Fraction("1.1"),
        Fraction("1.0008968291"),
    ],
)
def test_answer_flag_agrees_with_the_store(store_60k, k):
    # the bound 58890 decides the flag as a 60k store does
    assert first_k_ramanujan(k).k_equals_gap_ratio == store_gap_ratio(k, store_60k)


class TestRecordTable:
    """The gap-ratio records above FLOOR, which the walk finds to the horizon."""

    def test_rows_are_the_records_above_the_floor(self, walk_rows, floor_rows):
        # the walk stops at record_prefix(2e9, FLOOR) = 292 * 10^5 + 292 and
        # finds no row past 20831533 = p_1319946 below it
        assert record_prefix(DEFAULT_SIEVE_BUDGET, FLOOR) == 29_200_292
        assert walk_rows == floor_rows
        assert len(walk_rows) == 92 and walk_rows[-1][:2] == (1319946, 20831533)

    def test_paper_rows(self, walk_rows, store_60k):
        above = [r for r in walk_rows if r.ratio > PAPER_K]
        assert above == breakpoints(PAPER_K, 5950, store_60k)
        assert len(above) == 44 and above[-1][:3] == (5950, 58889, 58831)


@pytest.fixture(scope="module")
def walk_rows():
    """The walk's 92 gap-ratio records above FLOOR, to pi(2e9)."""
    return core.table_rows(FLOOR, 98_222_287)


def _bound(thm, k):
    """thm's bound on R_1^(k): its corollary where it admits k, else k_max * x0's."""
    return thm.corollary_bound(k) if thm.admits(k) else thm.k_max_bound()


def _audit(bound, rows):
    """The rows (a, p, q) whose ratio k = p/q has bound(k) < p.  R_1^(k') = p for
    k' in (the next row's ratio, k), and each bound is the ceiling of a value
    continuous in k and irrational at a rational k, so it is the same at k as
    just below it: a sound one has bound(k) >= p."""
    return [r for r in rows if bound(r.ratio) < r.prime]


@pytest.mark.parametrize("name", [*BUILTIN_THEOREMS, "certified_bound"])
def test_bound_audit(walk_rows, name):
    # the floor's bound is past the horizon, so the rows above the floor are
    # every row at which a bound within the horizon can be checked
    assert certified_bound(FLOOR) == 10848210585662 > DEFAULT_SIEVE_BUDGET
    thm = BUILTIN_THEOREMS.get(name)
    assert _audit(partial(_bound, thm) if thm else certified_bound, walk_rows) == []


@pytest.mark.parametrize(
    "thm, p, q", [(AXLER, 58889, 58831), (DUSART, 396833, 396733),
                  (TRUDGIAN, 2898359, 2898239)],
)
def test_bound_audit_is_tight_at_each_x0_record(walk_rows, thm, p, q):
    # the first record past each theorem's x0: its bound there is R_1 + 1
    k = Fraction(p, q)
    assert k in [r.ratio for r in walk_rows]
    assert _bound(thm, k) == p + 1


def test_bound_audit_refutes_trudgians_old_x0(walk_rows):
    # x0 = 2,898,239 gives k_max * x0 = 2,898,357 at k = 2898359/2898239,
    # below R_1 = 2,898,359 just under that k
    old = GapTheorem("trudgian", 2898239, Fraction(1, 111), 2)
    failed = _audit(partial(_bound, old), walk_rows)
    assert [(r.prime, _bound(old, r.ratio)) for r in failed] == [(2898359, 2898357)]


def test_a_gap_past_max_gap_raises(records_script, monkeypatch):
    # with MAX_GAP = 2 the mask of the segment [35, 51) starts at 33, and
    # [33, 35) holds no prime: each scan of it raises instead of miscounting
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 8)
    monkeypatch.setattr(primes_mod, "MAX_GAP", 2)
    for scan in (
        lambda: sieve_upto(100),
        lambda: verify_theorem(GapTheorem("custom", 3, Fraction(1), 1), 3, 100),
        lambda: records_script.segment_rows(100),
    ):
        with pytest.raises(RuntimeError, match=r"no prime in \[33, 35\)"):
            scan()


# the bound does not increase with k, so every k >= K_LOW has a certified
# bound <= 9,283,354, which the 10^7 sieve holds: the walk answers from
# record_prefix(2e9, K_LOW) = 8,343,149 down
K_LOW = Fraction("1.000035")
K_LOW_BOUND = 9_283_354


def _k_within_trudgian(data, store, rows):
    way = data.draw(st.sampled_from(["log_uniform", "gap_ratio", "row", "large"]))
    if way == "log_uniform":
        t = data.draw(st.floats(min_value=math.log(3.5e-5), max_value=0.0))
        return max(K_LOW, 1 + Fraction(math.exp(t)))
    if way == "gap_ratio":  # p_n <= 57,000 keeps p_n/p_{n-1} above 1.000035
        n = data.draw(st.integers(min_value=2, max_value=store.prime_count(57_000)))
        return Fraction(store.nth_prime(n), store.nth_prime(n - 1))
    if way == "row":  # a record ratio, or next to it
        ratios = [r.ratio for r in rows]
        r = data.draw(st.sampled_from([r for r in ratios if r > K_LOW + 1e-15]))
        return r + data.draw(st.sampled_from([0, 1, -1])) * Fraction(1, 10**15)
    return data.draw(st.fractions(min_value=2, max_value=10**6, max_denominator=10**6))


def _assert_table_matches_the_sieve(k, store):
    assert certified_bound(k) <= K_LOW_BOUND <= store.limit
    answer = first_k_ramanujan(k)
    assert (answer.prime, answer.index, answer.k_equals_gap_ratio) == (
        sieve_first_k_ramanujan(k, store)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_matches_the_sieve(store_10m, floor_rows, data):
    k = _k_within_trudgian(data, store_10m, floor_rows)
    assert k >= K_LOW
    _assert_table_matches_the_sieve(k, store_10m)


@pytest.mark.parametrize(
    "k", [K_LOW, Fraction(2898359, 2898239), Fraction(5, 3), Fraction(3, 2)]
)
def test_table_matches_the_sieve_at(store_10m, k):
    assert certified_bound(K_LOW) == K_LOW_BOUND
    _assert_table_matches_the_sieve(k, store_10m)


@pytest.mark.parametrize("n", [27_000, 28_080, 28_081, 30_000])
def test_table_p_n_in_the_segment_the_prefix_truncates(store_10m, n):
    # the paper's record prefix, 325,883 = p_28080, truncates its segment
    # [262147, 393219), so the primes of the mask from low are not known: p_N
    # is found from low when it is within the prefix, and the walk starts at
    # the prefix when p_N is past it
    prefix = record_prefix(DEFAULT_SIEVE_BUDGET, PAPER_K)
    assert prefix == store_10m.nth_prime(28_080) == 325_883
    want = reference_breakpoints(PAPER_K, n, store_10m)
    assert core.table_rows(PAPER_K, n) == want
