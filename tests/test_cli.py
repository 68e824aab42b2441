import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kramanujan import GapTheorem, ResourceLimitError, breakpoints, cli, core
from kramanujan import primes as primes_mod
from kramanujan.cli import main
from kramanujan.primes import DEFAULT_SIEVE_BUDGET
from kramanujan.verify import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def frac(s):
    return Fraction(*map(int, s.split("/")))


def test_compute_paper_value(capsys):
    code, rec = run_json(capsys, "compute", "--k", "1.0008968291")
    assert code == 0
    assert rec["prime"] == 58889
    assert rec["index"] == 5950
    assert rec["method"] == "table"
    assert rec["certified_bound"] == 58890
    assert frac(rec["k"]) == Fraction("1.0008968291")


def test_compute_remark_a(capsys):
    code, rec = run_json(capsys, "compute", "--k", "1.7")
    assert code == 0
    assert (rec["prime"], rec["index"]) == (2, 1)


def test_compute_oracle(capsys):
    code, rec = run_json(
        capsys, "compute", "--k", "2", "--n", "2", "--method", "oracle",
        "--scan-limit", "1000",
    )
    assert code == 0
    assert rec["prime"] == 11
    assert "scan limit 1000" in rec["caveat"]
    code, rec = run_json(
        capsys, "compute", "--k", "2", "--n", "9", "--method", "oracle",
        "--scan-limit", "1000",
    )
    assert (code, rec["prime"], rec["index"]) == (0, 71, 20)  # R_9^(2) = p_20


def test_compute_boundary_k_flagged(capsys):
    # k exactly equal to a gap ratio sits on a closed interval end; the
    # strict ratio comparison lands on the next record's prime
    code, rec = run_json(capsys, "compute", "--k", "127/113")
    assert code == 0
    assert rec["prime"] == 53
    assert rec.get("k_equals_gap_ratio") is True


def test_compute_five_thirds_flagged(capsys):
    # 5/3 = p_3/p_2; the store behind the certified bound 58890 reaches 5
    code, rec = run_json(capsys, "compute", "--k", "5/3")
    assert code == 0
    assert (rec["prime"], rec["index"]) == (2, 1)
    assert rec["certified_bound"] == 58890
    assert rec.get("k_equals_gap_ratio") is True


def test_compute_trudgian_x0(capsys):
    # the gap 2898239 -> 2898359 straddles trudgian's x0 = 2898242
    code, rec = run_json(capsys, "compute", "--k", "1.000041")
    assert code == 0
    assert (rec["prime"], rec["index"]) == (2898359, 209990)
    assert rec["certified_bound"] == 2898360


def test_compute_past_the_old_sieve_memory(capsys):
    # Trudgian's bound 1.65e9 needed a 1.36 GB sieve; the walk down from
    # record_prefix(2e9, 1.00002) = 14,600,292 answers
    code, rec = run_json(capsys, "compute", "--k", "1.00002")
    assert code == 0
    assert (rec["prime"], rec["index"]) == (7230479, 491238)
    assert rec["certified_bound"] == 1649664876


@pytest.mark.parametrize(
    "k,exit_code,cause",
    [
        # the bound 10848210585662 is past the sieve budget
        pytest.param("1.00001", 5, "budget", id="1.00001"),
        # every theorem's bound overflows double precision
        pytest.param("1.000000000000001", 2, "overflow", id="1.000000000000001"),
    ],
)
def test_compute_k_too_close_to_one(capsys, k, exit_code, cause):
    code, out, err = run(capsys, "compute", "--k", k)
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert cause in err


def test_bound_overflow_exit(capsys):
    code, out, err = run(
        capsys, "bound", "--k", "1.000000000000001", "--theorem", "trudgian"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_compute_domain_exit(capsys):
    assert run(capsys, "compute", "--k", "0.9")[0] == 2
    # a RangeError: a scan limit below 4 is too small to scan
    assert run(
        capsys, "compute", "--k", "1.5", "--method", "oracle", "--scan-limit", "3"
    )[0] == 2


def test_compute_table_rejects_scan_limit(capsys):
    code, out, err = run(capsys, "compute", "--k", "1.0001", "--scan-limit", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--scan-limit" in err


def test_compute_usage_exits(capsys):
    assert run(capsys, "compute", "--k", "not-a-number")[0] == 1
    assert run(capsys, "compute", "--k", "1.5", "--n", "2")[0] == 1  # no scan limit
    assert run(capsys, "compute")[0] == 1
    for argv in (
        ["--method", "table"],
        ["--method", "auto"],
        ["--method", "oracle"],  # the oracle needs --scan-limit
    ):
        code, out, _ = run(capsys, "compute", "--k", "1.5", *argv)
        assert (code, out) == (1, "")


def test_compute_inconclusive_exit(capsys):
    code, _, err = run(
        capsys, "compute", "--k", "1.0008968291", "--method", "oracle",
        "--scan-limit", "80000",
    )
    assert code == 4
    code, out, err = run(
        capsys, "compute", "--k", "2", "--n", "200", "--scan-limit", "1000"
    )
    assert (code, out) == (4, "")
    assert "fewer than 200 primes" in err


def test_bound_paper_value(capsys):
    code, rec = run_json(capsys, "bound", "--k", "1.0008968291", "--theorem", "axler")
    assert code == 0
    assert rec["bound"] == 58890
    assert rec["theorem"]["x0"] == 58837
    assert frac(rec["theorem"]["c"]) == Fraction("1.188")


def test_bound_hypothesis_violation_exit(capsys):
    assert run(capsys, "bound", "--k", "1.5", "--theorem", "axler")[0] == 2


def test_bound_near_k_max(capsys):
    code, rec = run_json(
        capsys, "bound", "--k", "1.000896829113357", "--theorem", "axler"
    )
    assert code == 0
    assert rec["bound"] == 58890  # ceil(k * 58837): the exponential is ~x0


def test_bound_exact_ceiling_past_float(capsys):
    # the exact ceiling; a float evaluation gives 88145337128316032
    code, rec = run_json(capsys, "bound", "--k", "1.00002", "--theorem", "axler")
    assert code == 0
    assert rec["bound"] == 88145337128228639


def test_bound_custom_theorem(capsys):
    code, rec = run_json(
        capsys, "bound", "--k", "1.0008968291", "--theorem", "custom",
        "--x0", "58837", "--c", "1.188", "--e", "3",
    )
    assert code == 0
    assert rec["bound"] == 58890


def test_table_default_reproduces_44_rows(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a,prime,prev_prime,ratio_num,ratio_den"
    assert len(lines) == 45
    assert lines[1] == "1,3,5,3,5,3"
    assert lines[-1].startswith("44,5950,58889,58831,")


@pytest.mark.parametrize(
    "index_limit", ["98222287", "1" + "0" * 400], ids=["pi(2e9)", "1e400"]
)
def test_table_past_the_sieve_budget_reads_the_record_table(
    capsys, monkeypatch, index_limit
):
    # no gap ratio past p_5950 exceeds the paper's k_min, so every index limit
    # from 5950 on, up to pi(2e9) and past it, gives the paper's rows: the walk
    # starts at the paper's record prefix, and the certified bound, 58890, rules
    # out a later row
    paper = run(capsys, "table")
    monkeypatch.setattr(core, "shared_store", None)  # nothing sieves
    assert run(capsys, "table", "--index-limit", index_limit) == paper
    assert paper[0] == 0 and len(paper[1].splitlines()) == 45


def test_table_walk_from_a_prefix_ending_on_a_row(capsys):
    # the prefix 292 * 1453168142 / 292 + 292 = 1,453,168,434 ends on
    # p_72507381 = 1,453,168,433, the upper prime of the 292 gap: the walk's
    # first prime is the last row
    code, out, _ = run(
        capsys, "table", "--k-min", "1453168434/1453168142", "--index-limit", "98222287"
    )
    lines = out.splitlines()
    assert code == 0 and len(lines) == 160
    assert lines[-1] == "159,72507381,1453168433,1453168141,1453168433,1453168141"


@pytest.mark.parametrize(
    "n, p_n",
    # published primes: p_2..p_5, p_10^6, p_10^7 and p_pi(2e9), the last prime
    # below 2e9 (pi(2e9) = 98,222,287)
    [(2, 3), (3, 5), (4, 7), (5, 11), (10**6, 15_485_863), (10**7, 179_424_673),
     (98_222_287, 1_999_999_973)],
)
def test_table_sieve_limit_reaches_p_n(n, p_n):
    # the walk starts at p_n, found by the cumulative prime counts of
    # segments.csv and then in its segment's mask; at k_min = 0 the last row is
    # always the ratio p_n/p_(n-1)
    assert core.table_rows(Fraction(0), n)[-1][:2] == (n, p_n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=1_300_000))
@example(12_251)  # the last prime of the first segment, the mask's last one
@example(12_252)  # the first of the second segment, [131075, 262147)
# r = N - pi(131074) of its 10,749 primes: the 5,374th, found from low, and
# the 5,375th, the 5,375th from the top
@example(17_625)
@example(17_626)
def test_table_p_n_is_the_nth_prime(store_21m, n):
    # p_N's segment is the first whose cumulative segments.csv count reaches
    # N, and its byte is found by per-slice counts from the nearer end of the
    # mask; at k_min = 0 the last row is p_N/p_(N-1)
    p, q = store_21m.nth_prime(n), store_21m.nth_prime(n - 1)
    assert core.table_rows(Fraction(0), n)[-1][:3] == (n, p, q)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=98_222_288))
@example(12_251)  # p_n is the last prime of the first segment
@example(12_252)  # and the first prime of the second
@example(155_611)  # the last prime below the seam 2,097,155
@example(155_612)  # and the first past it
@example(98_222_287)
@example(98_222_288)
def test_table_sieve_limit_within_the_budget_up_to_pi_of_it(n):
    # k_min = 1.00001 has a certified bound past the horizon, so no ratio past
    # 2e9 is ruled out: every index limit up to pi(2e9) walks within the
    # budget, and past it the table exits 5
    k_min = Fraction("1.00001")
    assert core.certified_bound(k_min) > DEFAULT_SIEVE_BUDGET
    if n <= 98_222_287:
        assert 2 <= core.table_rows(k_min, n)[-1].index <= n
    else:
        with pytest.raises(ResourceLimitError, match="budget"):
            core.table_rows(k_min, n)


@pytest.mark.parametrize("k_min", [Fraction(1), Fraction("1.00001")])
def test_table_past_pi_of_the_budget_builds_no_segment(k_min, monkeypatch):
    # k_min <= 1 has no certified bound and 1.00001's is past the horizon, so
    # p_(pi(2e9) + 1) exits 5, decided from segments.csv's counts alone
    def no_segments(limit):
        raise AssertionError(f"segments({limit}) was called")

    monkeypatch.setattr(primes_mod, "segments", no_segments)
    with pytest.raises(ResourceLimitError, match="budget"):
        core.table_rows(k_min, 98_222_288)


def test_table_small_limit(capsys):
    code, out, _ = run(capsys, "table", "--index-limit", "16")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [3, 5, 7, 10, 12, 16]


def test_table_empty(capsys):
    code, out, _ = run(capsys, "table", "--k-min", "5/3")
    assert code == 0
    assert out.strip().splitlines() == ["n,a,prime,prev_prime,ratio_num,ratio_den"]


def test_table_json_round_trip(capsys):
    code, rec = run_json(capsys, "table", "--format", "json", "--index-limit", "16")
    assert code == 0
    row = rec["rows"][0]
    assert frac(row["ratio"]) == Fraction(row["prime"], row["prev_prime"])
    assert frac(rec["k_min"]) == Fraction("1.0008968291")


@pytest.mark.parametrize("index_limit", [2, 3, 4, 5, 6])
def test_table_small_index_limits(capsys, store_60k, index_limit):
    # the sieve limit for these is the same formula as for n >= 6
    code, rec = run_json(
        capsys, "table", "--index-limit", str(index_limit), "--format", "json"
    )
    assert code == 0
    expected = breakpoints(Fraction("1.0008968291"), index_limit, store_60k)
    assert [(r["a"], r["prime"], r["prev_prime"]) for r in rec["rows"]] == [
        (e.index, e.prime, e.prev_prime) for e in expected
    ]


def test_compute_evaluates_the_bound_once(capsys, monkeypatch):
    calls = []
    bound = core.certified_bound

    def counting(k):
        calls.append(k)
        return bound(k)

    monkeypatch.setattr(core, "certified_bound", counting)
    code, rec = run_json(capsys, "compute", "--k", "1.0001")
    assert code == 0
    assert rec["certified_bound"] == 2898360
    assert calls == [Fraction("1.0001")]


@pytest.mark.parametrize(
    "k,text",
    [
        (
            "1.0008968291",
            "{\n"
            '  "schema": "compute",\n'
            '  "k": "10008968291/10000000000",\n'
            '  "k_decimal": 1.0008968291,\n'
            '  "n": 1,\n'
            '  "method": "table",\n'
            '  "prime": 58889,\n'
            '  "index": 5950,\n'
            '  "certified_bound": 58890\n'
            "}\n",
        ),
        (
            "5/3",
            "{\n"
            '  "schema": "compute",\n'
            '  "k": "5/3",\n'
            '  "k_decimal": 1.6666666666666667,\n'
            '  "n": 1,\n'
            '  "method": "table",\n'
            '  "prime": 2,\n'
            '  "index": 1,\n'
            '  "certified_bound": 58890,\n'
            '  "k_equals_gap_ratio": true\n'
            "}\n",
        ),
    ],
)
def test_compute_output_bytes(capsys, k, text):
    # the stdout contract: key order, indent 2, the flag only when true
    assert run(capsys, "compute", "--k", k) == (0, text, "")


TABLE_16_CSV = """\
n,a,prime,prev_prime,ratio_num,ratio_den
1,3,5,3,5,3
2,5,11,7,11,7
3,7,17,13,17,13
4,10,29,23,29,23
5,12,37,31,37,31
6,16,53,47,53,47
"""

TABLE_16_JSON = """\
{
  "schema": "table",
  "k_min": "10008968291/10000000000",
  "index_limit": 16,
  "rows": [
    {
      "n": 1,
      "a": 3,
      "prime": 5,
      "prev_prime": 3,
      "ratio": "5/3"
    },
    {
      "n": 2,
      "a": 5,
      "prime": 11,
      "prev_prime": 7,
      "ratio": "11/7"
    },
    {
      "n": 3,
      "a": 7,
      "prime": 17,
      "prev_prime": 13,
      "ratio": "17/13"
    },
    {
      "n": 4,
      "a": 10,
      "prime": 29,
      "prev_prime": 23,
      "ratio": "29/23"
    },
    {
      "n": 5,
      "a": 12,
      "prime": 37,
      "prev_prime": 31,
      "ratio": "37/31"
    },
    {
      "n": 6,
      "a": 16,
      "prime": 53,
      "prev_prime": 47,
      "ratio": "53/47"
    }
  ]
}
"""

BOUND_AXLER = """\
{
  "schema": "bound",
  "k": "10008968291/10000000000",
  "k_decimal": 1.0008968291,
  "theorem": {
    "name": "axler",
    "x0": 58837,
    "c": "297/250",
    "e": 3
  },
  "bound": 58890
}
"""


@pytest.mark.parametrize(
    "argv,text",
    [
        (["table", "--index-limit", "16"], TABLE_16_CSV),
        (["table", "--index-limit", "16", "--format", "json"], TABLE_16_JSON),
        (["bound", "--k", "1.0008968291", "--theorem", "axler"], BOUND_AXLER),
    ],
    ids=["table-csv", "table-json", "bound"],
)
def test_table_and_bound_output_bytes(capsys, argv, text):
    # integers and k_decimal only: no libm-dependent float is pinned
    assert run(capsys, *argv) == (0, text, "")


def test_table_output_bit_stable(capsys):
    a = run(capsys, "table")[1]
    b = run(capsys, "table")[1]
    assert a == b


def test_verify_clean_run(capsys):
    code, rec = run_json(
        capsys, "verify", "--theorem", "axler", "--from", "58837", "--to", "1000000"
    )
    assert code == 0
    assert rec["violations"] == []
    assert rec["pairs_checked"] > 0


def test_verify_violations_exit_3(capsys):
    code, rec = run_json(
        capsys, "verify", "--theorem", "custom", "--x0", "58837", "--c", "0.05",
        "--e", "3", "--from", "58837", "--to", "1000000",
    )
    assert code == 3
    assert rec["violations"]
    first = rec["violations"][0]
    assert first["next_p"] > first["threshold"]


def test_verify_usage_exit(capsys):
    code, _, err = run(
        capsys, "verify", "--theorem", "axler", "--from", "100", "--to", "10"
    )
    assert code == 1


def test_verify_jobs_flag(capsys):
    one = run(capsys, "verify", "--theorem", "axler", "--from", "58837",
              "--to", "500000", "--jobs", "1")
    four = run(capsys, "verify", "--theorem", "axler", "--from", "58837",
               "--to", "500000", "--jobs", "4")
    assert one[0] == four[0] == 0
    a, b = json.loads(one[1]), json.loads(four[1])
    assert a["pairs_checked"] == b["pairs_checked"]
    assert a["violations"] == b["violations"]


def test_verify_jobs_2_stdout_is_jobs_1_stdout(capsys, monkeypatch):
    # --jobs has no effect: segments of 10^5 integers match no row of
    # segments.csv, so all ten are sieved at either setting
    monkeypatch.setattr(primes_mod, "_SEGMENT_ODDS", 50_000)
    args = ["verify", "--theorem", "custom", "--x0", "58837", "--c", "0.05",
            "--e", "3", "--from", "58837", "--to", "1000000"]
    (code, one, _), (code2, two, _) = (run(capsys, *args, "--jobs", j) for j in "12")
    assert code == code2 == 3
    assert len(json.loads(one)["violations"]) == 36_275
    elapsed = re.compile(r'"elapsed_seconds": .*')
    assert elapsed.sub("", one) == elapsed.sub("", two)


def test_verify_jobs_below_one_exit(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "axler", "--from", "58837",
                         "--to", "60000", "--jobs", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_start_below_three_names_three(capsys):
    # x0 = 2 admits a start of 2, but every scan starts at 3 or later
    code, out, err = run(
        capsys, "verify", "--theorem", "custom", "--x0", "2", "--c", "1", "--e", "1",
        "--from", "2", "--to", "10",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: scan start 2 is below 3, the larger of the theorem's validity "
        "threshold 2 and 3\n"
    )


def test_verify_custom_missing_params_exit(capsys):
    code, _, _ = run(
        capsys, "verify", "--theorem", "custom", "--from", "100", "--to", "1000"
    )
    assert code == 1


def test_verify_custom_c_zero_domain_exit(capsys):
    # c > 0 is GapTheorem's own check
    code, out, err = run(
        capsys, "verify", "--theorem", "custom", "--x0", "58837", "--c", "0",
        "--e", "3", "--from", "58837", "--to", "60000",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid theorem parameters GapTheorem(")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "axler", "--from", "58837", "--to", "3000000000"],
        ["compute", "--k", "2", "--n", "2", "--scan-limit", "3000000000"],
        ["compute", "--k", "1.00000005"],  # axler's 125-digit bound
        # past the float range, at a k_min whose bound is past the horizon
        ["table", "--k-min", "1.00001", "--index-limit", "1" + "0" * 400],
        # one past pi(2e9) and past the budget by one: each prefix (29,200,292
        # and 2,920,292) is within the budget, but the full limit decides
        ["table", "--k-min", "1.00001", "--index-limit", "98222288"],
        ["compute", "--k", "1.0001", "--method", "oracle", "--scan-limit",
         str(DEFAULT_SIEVE_BUDGET + 1)],
    ],
)
def test_sieve_budget_exit_5(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_unknown_subcommand_usage(capsys):
    assert run(capsys, "frobnicate")[0] == 1


HUGE_K = "1" + "0" * 309  # past the largest float, about 1.8e308


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--k", HUGE_K],
        ["bound", "--k", HUGE_K, "--theorem", "axler"],
        ["table", "--k-min", HUGE_K],
        ["bound", "--k", "1.5", "--theorem", "custom", "--x0", "2", "--c", HUGE_K,
         "--e", "1"],
        ["verify", "--theorem", "custom", "--x0", "3", "--c", HUGE_K, "--e", "1",
         "--from", "3", "--to", "100"],
    ],
)
def test_k_past_float_range_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("c", ["1e-3", "-1", "+0.5", ".5", "1_000"])
def test_custom_c_same_syntax_as_k(capsys, c):
    # --c reads a decimal or p/q, like --k; wider float syntax is a usage error
    code, out, err = run(
        capsys, "bound", "--k", "1.5", "--theorem", "custom", "--x0", "2",
        f"--c={c}", "--e", "1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_table_k_min_at_one(capsys, store_60k):
    # the breakpoint table is defined for any k_min, 1 and below included
    code, rec = run_json(
        capsys, "table", "--k-min", "1", "--index-limit", "100", "--format", "json"
    )
    assert code == 0
    expected = breakpoints(Fraction(1), 100, store_60k)
    assert [(r["a"], r["prime"], r["prev_prime"], frac(r["ratio"]))
            for r in rec["rows"]] == [
        (e.index, e.prime, e.prev_prime, e.ratio) for e in expected
    ]


def test_domain_checked_after_parsing(capsys):
    # parsing checks no domain: k <= 1 reaches the layer that owns the check
    for argv in (
        ["compute", "--k", "1"],
        ["compute", "--k", "0.9", "--method", "oracle", "--scan-limit", "100"],
        ["bound", "--k", "0.9", "--theorem", "axler"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ")
    assert "(1, k_max]" in err


def test_verify_exponent_past_float_range(capsys):
    # log^e x overflows a float for every x: each gap is decided exactly
    code, out, err = run(
        capsys, "verify", "--theorem", "custom", "--x0", "3", "--c", "1",
        "--e", "1" + "0" * 400, "--from", "3", "--to", "1000",
    )
    assert (code, err) == (3, "")
    rec = json.loads(out)
    assert len(rec["violations"]) == rec["pairs_checked"] == 166


def test_verify_c_below_one_exponent_past_float_range(capsys):
    # as above with c < 1: log^e x overflows a float while c does not
    code, out, err = run(
        capsys, "verify", "--theorem", "custom", "--x0", "3", "--c", "0.5",
        "--e", "1000", "--from", "3", "--to", "1000",
    )
    assert (code, err) == (3, "")
    rec = json.loads(out)
    assert len(rec["violations"]) == rec["pairs_checked"] == 166


VIOLATING_VERIFY = [
    "verify", "--theorem", "custom", "--x0", "58837", "--c", "0.05",
    "--e", "3", "--from", "58837", "--to", "1000000",
]


def mask_elapsed(text):
    return re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": 0', text)


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []  # each write's length

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


class WriteSizes(io.TextIOBase):
    """A stdout that keeps each write's length and drops its text."""

    def __init__(self):
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return len(s)


def capped_writes(chunks, cap):
    """The write lengths of _write's rule: one write each time the buffered
    text reaches cap, then the tail."""
    sizes, size = [], 0
    for n in chunks:
        size += n
        if size >= cap:
            sizes.append(size)
            size = 0
    return [*sizes, size]


def old_verify_record(report):
    """The verify record as one dict: written whole by JSONEncoder(indent=2),
    the reference for the CLI's template rows."""
    return {
        "schema": "verify",
        "theorem": cli._theorem_record(report.theorem),
        "from": report.lo,
        "to": report.hi,
        "pairs_checked": report.pairs_checked,
        "violations": [
            {"p": p, "next_p": q, "threshold": thr}
            for p, q, thr in report.violations
        ],
        "elapsed_seconds": round(report.elapsed, 3),
    }


THRESHOLDS = st.floats(allow_nan=False) | st.sampled_from(
    [5e-324, 1e-7, 1e16, 1e22, 0.1, math.inf, -math.inf, math.nan]
)
VIOLATION = st.tuples(st.integers(2, 2**31), st.integers(2, 2**31), THRESHOLDS)


@settings(max_examples=300, deadline=None)
@given(
    violations=st.one_of(
        st.just([]), st.lists(VIOLATION, min_size=1, max_size=1), st.lists(VIOLATION)
    ),
    pairs=st.integers(0, 2**31),
    elapsed=st.floats(0, 1e5),
    batch=st.sampled_from([1, 2, 7, cli._ROW_BATCH]),
)
@example(
    violations=[(2**31 - 1, 2**31, 1e22)] * 9000, pairs=9000, elapsed=0.0,
    batch=cli._ROW_BATCH,
)
@example(
    violations=[(7, 11, math.inf), (13, 17, -math.inf), (19, 23, 0.1)] * 3,
    pairs=9, elapsed=0.0, batch=2,
)
def test_verify_rows_match_the_json_encoder(violations, pairs, elapsed, batch):
    # the hand-written rows and separators are byte for byte what
    # JSONEncoder(indent=2) writes, across row batch and write seams too,
    # non-finite thresholds included
    thm = GapTheorem("custom", 58837, Fraction("0.05"), 3)
    report = VerificationReport(thm, 58837, 10**6, pairs, violations, elapsed)
    out = io.StringIO()
    with mock.patch.object(cli, "scan_theorem", lambda *a: (pairs, iter(violations))):
        with mock.patch.object(cli, "_ROW_BATCH", batch), \
                contextlib.redirect_stdout(out):
            assert main(VIOLATING_VERIFY) == (3 if violations else 0)
    want = json.JSONEncoder(indent=2).encode(old_verify_record(report)) + "\n"
    assert mask_elapsed(out.getvalue()) == mask_elapsed(want)


VERIFY_884 = """\
{
  "schema": "verify",
  "theorem": {
    "name": "custom",
    "x0": 3,
    "c": "221/250",
    "e": 3
  },
  "from": 3,
  "to": 10,
  "pairs_checked": 2,
  "violations": [
    {
      "p": 5,
      "next_p": 7,
      "threshold": 6.060228774787496
    }
  ],
  "elapsed_seconds": 0
}
"""


def test_verify_output_bytes(capsys):
    # the full stdout of a violating verify; its threshold, 5(1 + 0.884/ln^3 5)
    # in float64, is the one libm-dependent value pinned here
    code, out, err = run(
        capsys, "verify", "--theorem", "custom", "--x0", "3", "--c", "0.884",
        "--e", "3", "--from", "3", "--to", "10",
    )
    assert (code, mask_elapsed(out), err) == (3, VERIFY_884, "")


@pytest.mark.parametrize(
    "argv,exit_code", [(VIOLATING_VERIFY, 3), (["table"], 0)], ids=["verify", "table"]
)
def test_stdout_writes_are_batched(monkeypatch, argv, exit_code):
    # 36,275 violations are 3.4 MB of text, and the CSV table was two prints
    # per row; each write is a syscall when stdout is unbuffered.  A cap of 1
    # writes each chunk alone, so its writes give the chunks' lengths.
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    default, runs = cli._WRITE_SIZE, {}
    for cap in (1, 7, default):
        monkeypatch.setattr(cli, "_WRITE_SIZE", cap)
        out = CountingStdout()
        with contextlib.redirect_stdout(out):
            assert main(argv) == exit_code
        runs[cap] = (out.getvalue(), out.sizes)
    text, sizes = runs[1]
    chunks = sizes[:-1]  # and the tail, empty
    assert sizes[-1] == 0 and all(chunks)
    for cap, (other, sizes) in runs.items():
        # cap seams do not show, and a write is one crossing of the cap or the tail
        assert other == text
        assert sizes == capped_writes(chunks, cap)
    assert len(runs[default][1]) <= math.ceil(len(text) / default) + 1
    if argv[0] == "verify":
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert len(json.loads(text)["violations"]) == 36275


def test_violating_verify_holds_one_mask_and_small_writes():
    # 36,275 rows, 3.4 MB of text, stream through one 64 KiB segment mask, a
    # scan slice of pairs, a batch of rows and a buffer of about _WRITE_SIZE
    with contextlib.redirect_stdout(WriteSizes()):  # the modules it imports lazily
        assert main(["verify", "--theorem", "axler", "--from", "58837", "--to", "60000"]) == 0
    sink = WriteSizes()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(VIOLATING_VERIFY) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the longest row: 10-digit primes and a 24-character threshold
    batch = cli._ROW_BATCH * len(cli._ROW % (2**31, 2**31, -2.2250738585072014e-308))
    assert sum(sink.sizes) > 3 * 10**6
    assert max(sink.sizes) < cli._WRITE_SIZE + batch
    assert peak < 1.25 * 2**20


REPO = Path(__file__).resolve().parents[1]


def fresh_env():
    # a fresh interpreter's environment, with the package on PYTHONPATH
    path = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    return dict(os.environ, PYTHONPATH=path)


def run_fresh(*argv, env=None):
    return subprocess.run(
        argv,
        cwd=REPO,
        env=env or fresh_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def stdout_env(unbuffered):
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize(
    "argv,exit_code",
    [(VIOLATING_VERIFY, 3), (["table"], 0)],
    ids=["verify", "table"],
)
def test_stdout_does_not_depend_on_pythonunbuffered(argv, exit_code):
    outs = []
    for unbuffered in (True, False):
        proc = run_fresh(
            sys.executable, "-m", "kramanujan.cli", *argv,
            env=stdout_env(unbuffered),
        )
        assert (proc.returncode, proc.stderr) == (exit_code, "")
        outs.append(mask_elapsed(proc.stdout))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("unbuffered", [True, False])
def test_reader_that_closes_early_gets_exit_0(unbuffered):
    # 3.4 MB cannot fit in the pipe, so a write meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "kramanujan.cli", *VIOLATING_VERIFY],
        cwd=REPO,
        env=stdout_env(unbuffered),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def run_module_entry_point(prefix):
    # the CLI as a fresh interpreter runs it
    proc = run_fresh(
        *prefix, "-m", "kramanujan.cli", "compute", "--k", "1.0008968291"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["prime"] == 58889


def test_module_entry_point_subprocess():
    run_module_entry_point([sys.executable])


def test_module_entry_point_under_cprofile(tmp_path):
    # layer-by-layer timings run the CLI under cProfile
    run_module_entry_point(
        [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "cli.prof")]
    )


def test_cli_imports_no_mpmath():
    # the package needs only the standard library; decimal encloses every real
    code = (
        "import sys, kramanujan.cli;"
        "print([m for m in sys.modules if 'mpmath' in m])"
    )
    proc = run_fresh(sys.executable, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_starts_without_numpy():
    # compute and table walk the masks, bound is exact decimal arithmetic, the
    # oracle reads an array of the masks, and verify scans the masks: no call
    # loads numpy or a pool
    code = "\n".join([
        "import sys",
        "from kramanujan.cli import main",
        "heavy = ['numpy', 'multiprocessing', 'concurrent.futures']",
        "assert main(['compute', '--k', '1.0008968291']) == 0",
        "assert main(['bound', '--k', '1.0001', '--theorem', 'dusart']) == 0",
        "assert main(['table']) == 0",
        "assert main(['table', '--index-limit', '98222287']) == 0",
        "print([m for m in heavy if m in sys.modules], file=sys.stderr)",
        "assert main(['compute', '--k', '2', '--n', '9', '--method', 'oracle',"
        " '--scan-limit', '1000']) == 0",
        "print([m for m in heavy if m in sys.modules], file=sys.stderr)",
        "assert main(['table', '--index-limit', '27', '--format', 'json']) == 0",
        "print([m for m in heavy if m in sys.modules], file=sys.stderr)",
        "assert main(['table', '--k-min', '1', '--index-limit', '1000']) == 0",
        "print([m for m in heavy if m in sys.modules], file=sys.stderr)",
        "assert main(['verify', '--theorem', 'axler', '--from', '58837',"
        " '--to', '5000000', '--jobs', '2']) == 0",
        "print([m for m in heavy if m in sys.modules], file=sys.stderr)",
        "assert main(['verify', '--theorem', 'custom', '--x0', '58837', '--c',"
        " '0.05', '--e', '3', '--from', '58837', '--to', '1000000']) == 3",
        "print([m for m in heavy if m in sys.modules], file=sys.stderr)",
    ])
    proc = run_fresh(sys.executable, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n" * 6


def test_no_module_imports_numpy():
    src = Path(cli.__file__).parent
    imports = [
        f"{path.name}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"^\s*(import|from)\s+numpy\b", line)
    ]
    assert imports == []


def test_cli_imports_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at every start
    code = (
        "import sys; before = set(sys.modules); import kramanujan.cli;"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = run_fresh(sys.executable, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--k", "3/0"],
        ["table", "--k-min", "1/0"],
        ["bound", "--k", "1.5", "--theorem", "custom", "--x0", "58837",
         "--c", "1/0", "--e", "3"],
        ["verify", "--theorem", "custom", "--x0", "58837", "--c", "1/0",
         "--e", "3", "--from", "58837", "--to", "60000"],
    ],
)
def test_zero_denominator_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_trace_targets_resolve():
    # perfbench/trace_cli.py wraps these names; a missing one makes every
    # traced benchmark call fail
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("trace_cli", path)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    assert trace_cli.TARGETS
    for _, module_name, attr in trace_cli.TARGETS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)
