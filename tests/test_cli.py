import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kramanujan import breakpoints
from kramanujan.cli import main


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


def test_verify_custom_missing_params_exit(capsys):
    code, _, _ = run(
        capsys, "verify", "--theorem", "custom", "--from", "100", "--to", "1000"
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "axler", "--from", "58837", "--to", "3000000000"],
        ["compute", "--k", "2", "--n", "2", "--scan-limit", "3000000000"],
        ["compute", "--k", "1.00000005"],  # axler's 125-digit bound
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
    ],
)
def test_k_past_float_range_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "float range" in err
    assert "Traceback" not in err


def run_fresh(*argv):
    # a fresh interpreter, with the package on PYTHONPATH
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        argv,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


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
    # numpy is the only runtime dependency; decimal encloses every real
    code = (
        "import sys, kramanujan.cli;"
        "print([m for m in sys.modules if 'mpmath' in m])"
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
