"""Seeded, stratified workloads for the `kramanujan` CLI and their references.

Each workload is a fixed sequence of CLI calls drawn from a seed.  Every draw
comes from a stratum chosen so that each seed covers every regime, with a
cost that does not depend on where in the stratum the draw lands; totals
then stay comparable across seeds.  Every call carries the exit code it
should give and a check of its stdout against a reference computed here,
before anything is timed.  The references stand on their own: their primes
come from a plain sieve here, checked against published prime counts, and
not from the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from kramanujan import BUILTIN_THEOREMS

# The paper's outputs: R_1 for k = 1.0008968291 is 58889 = p_5950, Axler's
# bound for that k is 58890, and the breakpoint table has these 44 (a, p_a).
PAPER_K = "1.0008968291"
PAPER_PRIME, PAPER_INDEX, PAPER_BOUND = 58889, 5950, 58890
PAPER_ROWS = list(
    zip(
        [3, 5, 7, 10, 12, 16, 31, 35, 47, 48, 63, 67, 100, 218, 264, 298, 328,
         368, 430, 463, 591, 651, 739, 758, 782, 843, 891, 929, 1060, 1184, 1230,
         1316, 1410, 1832, 2226, 3386, 3645, 3794, 3796, 4523, 4613, 4755, 5009, 5950],
        [5, 11, 17, 29, 37, 53, 127, 149, 211, 223, 307, 331, 541, 1361, 1693,
         1973, 2203, 2503, 2999, 3299, 4327, 4861, 5623, 5779, 5981, 6521, 6947,
         7283, 8501, 9587, 10007, 10831, 11777, 15727, 19661, 31469, 34123, 35671,
         35729, 43391, 44351, 45943, 48731, 58889],
    )
)

# Trudgian (2016): for x >= 2898242 there is a prime in (x, x(1 + 1/(111
# log^2 x))].  For k above that interval's width every gap ratio past
# 2898242 is at most k, so R_1^(k) <= 2898359, the next prime; records up
# to that prime decide R_1 for every k this benchmark draws.
RECORD_HORIZON = 2_898_359
# Reference primes: past the horizon, past p_300000 for the largest drawn
# table, and past every oracle scan limit.
REF_LIMIT = 5_000_000
REF_DPS = 60
# Published values of pi(x), each checked whenever the reference sieve
# reaches x.
PUBLISHED_PI = {10**4: 1229, 10**5: 9592, 10**6: 78498, 5 * 10**6: 348513,
                10**7: 664579, 10**8: 5761455, 2 * 10**8: 11078937, 3 * 10**8: 16252325}

# compute --k strata, as ranges of k-1 drawn log-uniformly.  Each range
# keeps one certified-bound regime and sieve size (the CLI sieves a
# power-of-two bucket over the bound), so the cost of a call does not
# depend on the draw.
K_STRATA = [
    ("closed_form", 0.7, 7.0),  # k >= 5/3: R_1 = 2
    ("fixed_horizon", 9.0e-4, 2.5e-2),  # k >= 1.0008968291: the 58890 horizon
    ("fixed_horizon", 2.5e-2, 0.65),
    ("axler", 4.5e-4, 8.9e-4),  # only Axler admits k; sieve <= 2^21
    ("axler", 2.5e-4, 4.5e-4),  # sieve <= 2^25
    ("dusart", 1.6e-4, 2.35e-4),  # Dusart's bound; sieve <= 2^23
    ("big_sieve", 1.0e-4, 1.06e-4),  # Dusart's bound in [2^28, 2^29)
]
# k-1 in (4.07e-5, ~9e-5) is left out: there the CLI exits 2, since Dusart's
# bound is past its sieve budget (ROADMAP item 2).

# k ranges of compute --method oracle draws, all with --n 1: for n >= 2 the
# CLI's oracle can stop short of R_n (README, "What the checks find").  Scan
# limits are drawn log-uniformly in ORACLE_SCAN and a draw whose scan would
# be inconclusive (exit 4) is rejected and drawn again.
ORACLE_STRATA = [(1.05, 1.3), (1.3, 2.0), (2.0, 4.0)]
ORACLE_SCAN = (1e4, 1e6)
# --index-limit strata of the drawn tables: inside the paper's 5950, and past
# it, where the records of a truncated range differ.
TABLE_STRATA = [(16, 5950, "json"), (6000, 300_000, "csv")]

# verify-range: each built-in theorem from its x0 to an upper end; the three
# ends are a permutation of these narrow strata, so the set of range sizes,
# and with it cost and memory, is the same for every seed.
VERIFY_ENDS = [(0.99e8, 1.01e8), (1.98e8, 2.02e8), (2.97e8, 3.0e8)]

# param-search: (label, c range, e, x0, from, to range, --jobs values).
# "deep" sits deep in violation territory (~36k violations to 1e6, MBs of
# JSON); the "edge" draws take the constant of a real theorem (Axler 1.188,
# Trudgian 1/111) but start at x0 = 2, below the theorem's own threshold.
# Narrow ranges keep violation counts, and so cost, alike across seeds.  Two
# calls of each heavy draw put the median call on a class sampled twice a
# round.
PARAM_STRATA = [
    ("deep", (0.049, 0.051), 3, 58837, 58837, (0.99e6, 1.01e6), (1, 2)),
    ("trudgian_edge", (0.0089, 0.0091), 2, 2, 3, (2.94e6, 3.06e6), (1, 2)),
    ("axler_edge", (1.18, 1.20), 3, 2, 3, (0.98e7, 1.02e7), (1,)),
]


@dataclass
class Call:
    """One CLI invocation: arguments, expected exit code, stdout check."""

    argv: list[str]
    regime: str
    expected_exit: int
    check: Callable[[str], str | None]  # stdout -> problem, or None
    pairs: int = 0  # gaps the call verifies (pairs_checked)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _admits(thm, k: Fraction) -> bool:
    """k <= 1 + c/log^e(x0), at REF_DPS digits."""
    with mpmath.workdps(REF_DPS):
        return _mpf(k) <= 1 + _mpf(thm.c) / mpmath.log(thm.x0) ** thm.e


def _bound_envelope(k: Fraction, thm) -> tuple[int, int]:
    """Range of acceptable certified bounds: the ceiling of the true value
    k*exp((c/(k-1))^(1/e)), up to a relative 1e-11 of upward slack."""
    with mpmath.workdps(REF_DPS):
        value = _mpf(k) * mpmath.exp(mpmath.root(_mpf(thm.c / (k - 1)), thm.e))
        return int(mpmath.ceil(value)), int(mpmath.ceil(value * (1 + mpmath.mpf("1e-11"))))


def _mismatch(record: dict, want: dict) -> str | None:
    for key, value in want.items():
        if record.get(key) != value:
            return f"{key} = {record.get(key)!r}, expected {value!r}"
    return None


def reference_primes(limit: int) -> np.ndarray:
    """All primes <= limit, by a whole-range odd-only Eratosthenes sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] <-> 2i + 1 <= limit
    odd[0] = False
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    idx = np.flatnonzero(odd)
    del odd
    primes = np.empty(len(idx) + 1, dtype=np.int64)
    primes[0] = 2
    np.multiply(idx, 2, out=primes[1:])
    primes[1:] += 1
    return primes


class Primes:
    """Reference primes as a sorted int64 array plus Python-int helpers."""

    def __init__(self, limit: int):
        self.limit = limit
        self.array = reference_primes(limit)
        for x, count in PUBLISHED_PI.items():
            if x <= limit and self.pi(x) != count:
                raise RuntimeError(f"reference sieve gives pi({x}) = {self.pi(x)}, not {count}")

    def pi(self, x: int) -> int:
        return int(np.searchsorted(self.array, x, side="right"))

    def is_gap_ratio(self, k: Fraction) -> bool:
        """k equals some p_n/p_{n-1}: in lowest terms, consecutive primes."""
        num, den = k.numerator, k.denominator
        if num > self.limit:
            return False
        i = self.pi(num)
        return i >= 2 and int(self.array[i - 1]) == num and int(self.array[i - 2]) == den


# --- answers --------------------------------------------------------------


def _compute_call(kstr: str, regime: str, answer: tuple[int, int], gap_ratio: bool) -> Call:
    k = Fraction(kstr)
    prime, index = answer

    def check(text: str) -> str | None:
        rec = json.loads(text)
        problem = _mismatch(
            rec,
            {"schema": "compute", "k": _frac_str(k), "k_decimal": float(k), "n": 1,
             "method": "table", "prime": prime, "index": index},
        )
        if problem:
            return problem
        bound = rec.get("certified_bound")
        if not isinstance(bound, int) or bound < prime:
            return f"certified_bound {bound!r} is below the answer {prime}"
        if rec.get("k_equals_gap_ratio", False) != gap_ratio:
            return f"k_equals_gap_ratio = {rec.get('k_equals_gap_ratio')!r}, expected {gap_ratio}"
        return None

    return Call(["compute", "--k", kstr], f"compute.{regime}", 0, check)


def _bound_call(kstr: str, thm, exact: int | None = None) -> Call:
    k = Fraction(kstr)
    lo, hi = (exact, exact) if exact is not None else _bound_envelope(k, thm)

    def check(text: str) -> str | None:
        rec = json.loads(text)
        problem = _mismatch(rec, {"schema": "bound", "k": _frac_str(k)})
        if problem:
            return problem
        if rec.get("theorem", {}).get("name") != thm.name:
            return f"theorem {rec.get('theorem')!r}, expected {thm.name}"
        if not lo <= rec.get("bound", -1) <= hi:
            return f"bound {rec.get('bound')!r} outside [{lo}, {hi}]"
        return None

    return Call(["bound", "--k", kstr, "--theorem", thm.name], f"bound.{thm.name}", 0, check)


def record_rows(primes: list[int], k_min: Fraction, index_limit: int) -> list[tuple[int, int, int]]:
    """Right-to-left strict record ratios p_a/p_{a-1} > k_min, a <= index_limit."""
    best_num, best_den = k_min.numerator, k_min.denominator
    rows = []
    for a in range(index_limit, 1, -1):
        p, q = primes[a - 1], primes[a - 2]
        if p * best_den > best_num * q:
            rows.append((a, p, q))
            best_num, best_den = p, q
    rows.reverse()
    return rows


def _table_call(index_limit: int | None, fmt: str, rows: list[tuple[int, int, int]]) -> Call:
    argv = ["table"]
    if index_limit is not None:
        argv += ["--index-limit", str(index_limit)]
    if fmt != "csv":
        argv += ["--format", fmt]
    want = [
        (n, a, p, q, Fraction(p, q).numerator, Fraction(p, q).denominator)
        for n, (a, p, q) in enumerate(rows, start=1)
    ]

    def check(text: str) -> str | None:
        if fmt == "csv":
            lines = list(csv.reader(io.StringIO(text)))
            if not lines or lines[0] != ["n", "a", "prime", "prev_prime", "ratio_num", "ratio_den"]:
                return "missing CSV header"
            got = [tuple(int(v) for v in line) for line in lines[1:]]
        else:
            rec = json.loads(text)
            got = []
            for r in rec.get("rows", []):
                num, den = (int(v) for v in r["ratio"].split("/"))
                got.append((r["n"], r["a"], r["prime"], r["prev_prime"], num, den))
        if got != want:
            return f"{len(got)} table rows differ from the {len(want)} reference rows"
        return None

    regime = "table.paper" if index_limit is None else f"table.{fmt}"
    return Call(argv, regime, 0, check)


def oracle_reference(primes: np.ndarray, k: Fraction, n: int, scan: int) -> int | None:
    """R_n^(k) from the definition, over critical points k*p <= scan.

    D(x) = pi(x) - pi(x/k) is smallest on [k p_j, k p_{j+1}) at x = k p_j,
    and fails there (D < n) up to the prime p_{n+j}; the answer is p_{n+j}
    for the last failing j, and never below p_n.  Returns None when the scan
    is inconclusive the way the CLI defines it: fewer than n primes below
    the scan limit, or a last failing point above scan/2.
    """
    num, den = k.numerator, k.denominator
    if n > int(np.searchsorted(primes, scan, side="right")):
        return None
    count = int(np.searchsorted(primes, scan * den // num, side="right"))
    ps = primes[:count].tolist()
    floors = np.array([num * p // den for p in ps], dtype=np.int64)
    deficiency = np.searchsorted(primes, floors, side="right") - np.arange(1, count + 1)
    failing = np.flatnonzero(deficiency < n)
    answer = int(primes[n - 1])
    if len(failing):
        j = int(failing[-1])  # 0-based: the failing prime is p_{j+1}
        if 2 * num * ps[j] > scan * den:
            return None
        answer = max(answer, int(primes[n + j]))
    return answer


def _oracle_call(kstr: str, n: int, scan: int, prime: int, index: int) -> Call:
    def check(text: str) -> str | None:
        return _mismatch(
            json.loads(text),
            {"schema": "compute", "method": "oracle", "n": n, "prime": prime, "index": index},
        )

    argv = ["compute", "--k", kstr, "--n", str(n), "--method", "oracle", "--scan-limit", str(scan)]
    return Call(argv, "compute.oracle", 0, check)


def answers(rng, log=lambda msg: print(msg, file=sys.stderr)) -> list[Call]:
    """Interactive queries: compute, bound, table and oracle calls."""
    ref = Primes(REF_LIMIT)
    prime_list = ref.array.tolist()
    draws = [(f"{1 + _log_uniform(rng, lo, hi):.12f}", regime) for regime, lo, hi in K_STRATA]
    # k equal to a paper gap ratio exercises the closed end of an interval.
    # The first row, 5/3, is left out: there the CLI omits its
    # k_equals_gap_ratio flag (README, "What the checks find").
    a, p = PAPER_ROWS[rng.randrange(1, len(PAPER_ROWS))]
    draws.append((f"{p}/{prime_list[a - 2]}", "gap_ratio"))
    draws.append((PAPER_K, "paper"))

    # One record scan at the smallest drawn k answers every k: R_1^(k) is
    # p_a for the highest record row whose ratio exceeds k.
    k_low = min(Fraction(k) for k, _ in draws)
    rows = record_rows(prime_list, k_low, ref.pi(RECORD_HORIZON))

    def first(k: Fraction) -> tuple[int, int]:
        above = [(a, p) for a, p, q in rows if p * k.denominator > k.numerator * q]
        return (above[-1][1], above[-1][0]) if above else (2, 1)

    calls = []
    for kstr, regime in draws:
        k = Fraction(kstr)
        answer = first(k)
        if regime == "paper" and answer != (PAPER_PRIME, PAPER_INDEX):
            raise RuntimeError(f"reference R_1 for k = {PAPER_K} is {answer}")
        calls.append(_compute_call(kstr, regime, answer, ref.is_gap_ratio(k)))
        for thm in BUILTIN_THEOREMS.values():
            if regime != "paper" and _admits(thm, k):
                calls.append(_bound_call(kstr, thm))
    calls.append(_bound_call(PAPER_K, BUILTIN_THEOREMS["axler"], exact=PAPER_BOUND))

    paper_rows = record_rows(prime_list, Fraction(PAPER_K), PAPER_INDEX)
    if [(a, p) for a, p, _ in paper_rows] != PAPER_ROWS:
        raise RuntimeError("reference breakpoint table differs from the paper's 44 rows")
    calls.append(_table_call(None, "csv", paper_rows))
    for lo, hi, fmt in TABLE_STRATA:
        limit = int(_log_uniform(rng, lo, hi))
        calls.append(_table_call(limit, fmt, record_rows(prime_list, Fraction(PAPER_K), limit)))

    for k_lo, k_hi in ORACLE_STRATA:
        while True:
            kstr = f"{rng.uniform(k_lo, k_hi):.4f}"
            scan = int(_log_uniform(rng, *ORACLE_SCAN))
            prime = oracle_reference(ref.array, Fraction(kstr), 1, scan)
            if prime is not None:
                break
            log(f"oracle draw k={kstr} scan={scan} rejected: "
                "the scan is inconclusive there (exit 4)")
        calls.append(_oracle_call(kstr, 1, scan, prime, ref.pi(prime)))
    return calls


# --- verify-range and param-search ----------------------------------------


def violations_reference(
    primes: np.ndarray, c: Fraction, e: int, lo: int, hi: int
) -> dict[tuple[int, int], float]:
    """Independent recheck of every gap (p, q) the CLI scans for [lo, hi]:
    pairs from the largest prime <= lo to the largest prime <= hi, checked
    at x = max(p, lo).  A gap within a relative 1e-6 of the threshold is
    decided at REF_DPS digits.  Maps each violating pair to its threshold."""
    i0 = int(np.searchsorted(primes, lo, side="right")) - 1
    i1 = int(np.searchsorted(primes, hi, side="right")) - 1
    cf = float(c)
    out = {}
    chunk = 1 << 22
    for s in range(i0, i1, chunk):
        t = min(s + chunk, i1)
        p, q = primes[s:t], primes[s + 1 : t + 1]
        x = np.maximum(p, lo).astype(np.float64)
        thr = x * (1.0 + cf / np.log(x) ** e)
        rel = (thr - q) / thr
        for j in np.flatnonzero(rel < 1e-6).tolist():
            xi, qi = max(int(p[j]), lo), int(q[j])
            if rel[j] > -1e-6:
                with mpmath.workdps(REF_DPS):
                    if xi * (1 + _mpf(c) / mpmath.log(xi) ** e) >= qi:
                        continue
            out[(int(p[j]), qi)] = float(thr[j])
    return out


def verify_check(record: dict, lo: int, hi: int, pairs: int, violations: dict):
    """Check of a verify report against its pair count and violation set."""

    def check(text: str) -> str | None:
        rec = json.loads(text)
        problem = _mismatch(rec, {"schema": "verify", "theorem": record, "from": lo, "to": hi,
                                  "pairs_checked": pairs})
        if problem:
            return problem
        got = rec.get("violations", [])
        if len(got) != len(violations):
            return f"{len(got)} violations, expected {len(violations)}"
        for v in got:
            thr = violations.get((v["p"], v["next_p"]))
            if thr is None:
                return f"gap ({v['p']}, {v['next_p']}) is not a violation"
            if abs(v["threshold"] - thr) > 1e-9 * thr:
                return f"threshold {v['threshold']} at p = {v['p']}, expected {thr}"
        return None

    return check


def _verify_calls(ref: Primes, regime: str, theorem_args: list[str], record: dict,
                  lo: int, hi: int, jobs: tuple[int, ...]) -> list[Call]:
    c, e = Fraction(record["c"]), record["e"]
    pairs = ref.pi(hi) - ref.pi(lo)
    violations = violations_reference(ref.array, c, e, lo, hi)
    check = verify_check(record, lo, hi, pairs, violations)
    return [
        Call(["verify", *theorem_args, "--from", str(lo), "--to", str(hi), "--jobs", str(j)],
             regime, 3 if violations else 0, check, pairs)
        for j in jobs
    ]


def plan_verify_range(rng) -> list[tuple[str, int, int]]:
    """(theorem, from, to): each built-in theorem from its x0 to an end
    drawn from its own stratum."""
    ends = rng.sample(VERIFY_ENDS, len(VERIFY_ENDS))
    return [
        (thm.name, thm.x0, int(rng.uniform(*end)))
        for thm, end in zip(BUILTIN_THEOREMS.values(), ends)
    ]


def verify_range(rng) -> list[Call]:
    """Each built-in theorem verified once with --jobs 1 and once with --jobs 2."""
    plan = plan_verify_range(rng)
    ref = Primes(max(hi for _, _, hi in plan))
    calls = []
    for name, lo, hi in plan:
        thm = BUILTIN_THEOREMS[name]
        record = {"name": name, "x0": thm.x0, "c": _frac_str(thm.c), "e": thm.e}
        calls += _verify_calls(ref, f"verify.{name}", ["--theorem", name], record, lo, hi, (1, 2))
    return calls


def plan_param_search(rng) -> list[tuple]:
    """(label, c, e, x0, from, to, jobs) candidate parameters, one per stratum."""
    return [
        (label, f"{rng.uniform(*c):.5f}", e, x0, lo, int(rng.uniform(*to)), jobs)
        for label, c, e, x0, lo, to, jobs in PARAM_STRATA
    ]


def param_search(rng) -> list[Call]:
    """verify --theorem custom on candidate parameters."""
    plan = plan_param_search(rng)
    ref = Primes(max(p[5] for p in plan))
    calls = []
    for label, c, e, x0, lo, hi, jobs in plan:
        record = {"name": "custom", "x0": x0, "c": _frac_str(Fraction(c)), "e": e}
        args = ["--theorem", "custom", "--x0", str(x0), "--c", c, "--e", str(e)]
        calls += _verify_calls(ref, f"param.{label}", args, record, lo, hi, jobs)
    return calls


WORKLOADS = {"answers": answers, "verify-range": verify_range, "param-search": param_search}
