"""End-to-end acceptance suite.

Each test checks one exit criterion at its stated tolerance and prints a
single PASS line (run with `pytest -s tests/test_acceptance.py` to see
them; a FAIL surfaces as an ordinary assertion error).
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from kramanujan import (
    AXLER,
    DUSART,
    breakpoints,
    brute_force_R,
    certified_bound,
    cor_bound,
    first_k_ramanujan,
    sieve_upto,
    verify_theorem,
)
from kramanujan.cli import main

# (n, a(n), p_{a(n)}) rows of the reference breakpoint table
TABLE_A = [
    3, 5, 7, 10, 12, 16, 31, 35, 47, 48, 63,
    67, 100, 218, 264, 298, 328, 368, 430, 463, 591, 651,
    739, 758, 782, 843, 891, 929, 1060, 1184, 1230, 1316, 1410,
    1832, 2226, 3386, 3645, 3794, 3796, 4523, 4613, 4755, 5009, 5950,
]
TABLE_P = [
    5, 11, 17, 29, 37, 53, 127, 149, 211, 223, 307,
    331, 541, 1361, 1693, 1973, 2203, 2503, 2999, 3299, 4327, 4861,
    5623, 5779, 5981, 6521, 6947, 7283, 8501, 9587, 10007, 10831, 11777,
    15727, 19661, 31469, 34123, 35671, 35729, 43391, 44351, 45943, 48731, 58889,
]


def report(n, desc):
    print(f"\nACCEPTANCE {n}: PASS - {desc}")


def test_criterion_1_first_k_ramanujan_paper_value(capsys):
    start = time.perf_counter()
    code = main(["compute", "--k", "1.0008968291"])
    elapsed = time.perf_counter() - start
    rec = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rec["prime"] == 58889
    assert rec["index"] == 5950
    assert elapsed < 1.0
    report(1, f"compute --k 1.0008968291 -> 58889 = p_5950 in {elapsed:.3f}s")


def test_criterion_2_full_breakpoint_table(store_60k):
    start = time.perf_counter()
    rows = breakpoints(Fraction("1.0008968291"), 5950, store_60k)
    elapsed = time.perf_counter() - start
    assert [(r.index, r.prime) for r in rows] == list(zip(TABLE_A, TABLE_P))
    assert len(rows) == 44
    assert elapsed < 1.0
    report(2, f"all 44 breakpoint rows match in {elapsed:.3f}s")


def test_criterion_3_bound_value():
    assert cor_bound(Fraction("1.0008968291"), AXLER) == 58890
    report(3, "cor_bound(1.0008968291, axler) = 58890")


def test_criterion_4_oracle_vs_characterization():
    rng = random.Random(20260826)
    start = time.perf_counter()
    for _ in range(200):
        # exact rational k uniformly in (1.001, 1.7)
        k = Fraction(1) + Fraction(rng.randint(1_001, 699_999), 1_000_000)
        scan = 2 * certified_bound(k)
        assert brute_force_R(k, 1, scan) == first_k_ramanujan(k).prime, f"k = {k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(4, f"200 oracle/fast-path agreements in {elapsed:.1f}s")


def test_criterion_5_theorem_verification_to_1e8():
    r1 = verify_theorem(AXLER, 58837, 10**8)
    assert r1.ok and r1.elapsed < 180
    r2 = verify_theorem(DUSART, 396738, 10**8)
    assert r2.ok and r2.elapsed < 180
    report(
        5,
        f"axler ({r1.pairs_checked} gaps, {r1.elapsed:.1f}s) and "
        f"dusart ({r2.pairs_checked} gaps, {r2.elapsed:.1f}s) hold to 1e8",
    )


def test_criterion_6_remark_a():
    for k in (Fraction(5, 3), Fraction("1.7"), Fraction(2), Fraction(10)):
        answer = first_k_ramanujan(k)
        assert (answer.prime, answer.index) == (2, 1), f"k = {k}"
    report(6, "R_1 = 2 for k in {5/3, 1.7, 2, 10}")


def test_criterion_7_prime_engine_sanity(store_60k):
    store = sieve_upto(10**6)
    assert store.count == 78498
    # independent recomputation by trial division (divisibility tests only)
    small = [p for p in range(2, 1001) if all(p % d for d in range(2, p))]
    n = np.arange(3, 10**6 + 1, 2, dtype=np.int64)
    composite = np.zeros(len(n), dtype=bool)
    for p in small[1:]:
        composite |= (n % p == 0) & (n != p)
    assert 1 + int(np.count_nonzero(~composite)) == 78498
    assert store_60k.prime_count(58888) == 5949
    x = Fraction(58888 * 10**10, 10008968291)  # 58888 / 1.0008968291
    assert store_60k.prime_count(58888) - store_60k.prime_count(x) == 0
    report(7, "pi(1e6) = 78498 (trial-division verified); pi(58888) = 5949")


def test_criterion_8_monotonicity():
    rng = random.Random(58889)
    for _ in range(100):
        a = Fraction(1) + Fraction(rng.randint(1_001, 699_999), 1_000_000)
        b = Fraction(1) + Fraction(rng.randint(1_001, 699_999), 1_000_000)
        k1, k2 = min(a, b), max(a, b)
        r1, r2 = first_k_ramanujan(k1).prime, first_k_ramanujan(k2).prime
        assert r1 >= r2, f"{k1} vs {k2}"
    report(8, "R_1 monotone non-increasing over 100 random pairs")
