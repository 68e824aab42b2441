"""Tests of the benchmark itself: tracer coverage, workload draws, checks.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import run
import trace_cli
import workloads

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# Small calls that together reach every wrapped function.
KNOWN_CALLS = [
    ["compute", "--k", "1.0003"],
    ["compute", "--k", "2", "--n", "2", "--method", "oracle", "--scan-limit", "1000"],
    ["table", "--index-limit", "16"],
    ["verify", "--theorem", "custom", "--x0", "2", "--c", "1.188", "--e", "3",
     "--from", "3", "--to", "100000", "--jobs", "2"],
]


def _cli(argv, tmp_path, traced):
    spans = tmp_path / "spans.json"
    prefix = [str(run.TRACE_CLI), str(spans), "7", "--"] if traced else ["-m", "kramanujan.cli"]
    proc = subprocess.run([sys.executable, *prefix, *argv], env=ENV, cwd=ROOT,
                          capture_output=True, timeout=120)
    return proc, (json.loads(spans.read_text()) if traced else None)


def test_every_wrapped_function_produces_a_span(tmp_path):
    seen = set()
    for argv in KNOWN_CALLS:
        plain, _ = _cli(argv, tmp_path, traced=False)
        traced, recorded = _cli(argv, tmp_path, traced=True)
        assert traced.returncode == plain.returncode
        # The trace leaves stdout byte-identical, apart from verify's own timing.
        elapsed = re.compile(rb'"elapsed_seconds": [0-9.]+')
        assert elapsed.sub(b"", traced.stdout) == elapsed.sub(b"", plain.stdout)
        assert all(s["call"] == 7 for s in recorded["spans"])
        seen |= {s["name"] for s in recorded["spans"]}
    assert seen == {name for name, _, _ in trace_cli.TARGETS}


def test_from_import_bindings_are_wrapped():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import trace_cli, kramanujan, kramanujan.cli, "
        "kramanujan.core as core, kramanujan.primes as primes;"
        "t = trace_cli.Tracer(0); trace_cli.install(t);"
        "fns = [core.sieve_upto, kramanujan.cli.sieve_upto, kramanujan.cli.verify_theorem,"
        " kramanujan.sieve_upto, kramanujan.breakpoints, primes.sieve_upto];"
        "[f(10**4) if f.__name__ == 'sieve_upto' else None for f in fns];"
        "assert all(f.__wrapped__ for f in fns), fns;"
        "assert len([s for s in t.spans if s['name'] == 'primes.sieve_upto']) == 4"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT, capture_output=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_worker_thread_spans_hang_under_the_open_main_span(tmp_path):
    argv = KNOWN_CALLS[-1]
    _, recorded = _cli(argv, tmp_path, traced=True)
    spans = {s["id"]: s for s in recorded["spans"]}
    verify = next(s for s in spans.values() if s["name"] == "verify.verify_theorem")
    rechecks = [s for s in spans.values() if s["name"] == "theorems.threshold_exceeds"]
    assert rechecks and all(s["parent"] == verify["id"] for s in rechecks)


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 0, "parent": None, "call": 0, "name": "verify.verify_theorem", "start": 0.0,
         "end": 10.0, "enter": 0.0, "exit": 10.0, "pairs": 5, "violations": 1, "jobs": 2,
         "range": ["a", 1, 2], "c": 1.188, "e": 3},
        # 100(1 + 1.188/log^3 100) = 101.21...: the float verdict for q = 102
        # is "below"; the first recheck reverses it, the second agrees.
        {"id": 1, "parent": 0, "call": 0, "name": "theorems.threshold_exceeds", "start": 1.0,
         "end": 4.0, "enter": 1.0, "exit": 4.0, "x": 100, "q": 102, "exceeds": True},
        {"id": 2, "parent": 0, "call": 0, "name": "theorems.threshold_exceeds", "start": 3.0,
         "end": 6.0, "enter": 3.0, "exit": 6.0, "x": 100, "q": 102, "exceeds": False},
        # The tracer's work around a child (7.0-7.5, 8.5-9.0) is charged to no span.
        {"id": 3, "parent": 0, "call": 0, "name": "theorems.threshold_exceeds", "start": 7.5,
         "end": 8.5, "enter": 7.0, "exit": 9.0, "x": 100, "q": 101, "exceeds": True},
    ]
    m = run.layer_metrics(spans, [])
    assert m["verify.verify_theorem.self_s"] == pytest.approx(3.0)
    assert m["theorems.threshold_exceeds.self_s"] == pytest.approx(7.0)
    assert m["theorems.threshold_exceeds.reversed_ratio"] == pytest.approx(1 / 3)


def test_layer_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(run.layer_metrics([], [])) | {"trace_overhead"}
    assert produced == {m["name"] for m in declared["per_layer"]}
    assert set(run.E2E_UNITS) == {m["name"] for m in declared["end_to_end"]}
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def answer_draws():
    return {seed: workloads.answers(random.Random(seed), log=lambda msg: None) for seed in (1, 2, 3)}


def test_answers_cover_every_regime_with_the_same_shape(answer_draws):
    regimes = {seed: [c.regime for c in calls] for seed, calls in answer_draws.items()}
    required = {f"compute.{r}" for r, _, _ in workloads.K_STRATA} | {
        "compute.gap_ratio", "compute.paper", "compute.oracle", "bound.axler", "bound.dusart",
        "table.paper", "table.csv", "table.json"}
    for seed, names in regimes.items():
        assert required <= set(names), seed
        assert names == regimes[1]  # identical call shape for every seed


def test_answers_draws_stay_in_their_cost_regime(answer_draws):
    from kramanujan import certified_bound

    for calls in answer_draws.values():
        for call in calls:
            if call.regime == "compute.big_sieve":
                assert certified_bound(Fraction(call.argv[2])).bit_length() == 29
            if call.regime == "compute.gap_ratio":
                assert call.argv[2] != "5/3"
            if call.regime == "compute.oracle":
                assert call.argv[call.argv.index("--n") + 1] == "1"


def test_reference_sieve_is_independent_and_pinned(monkeypatch):
    for limit in range(60):
        want = [n for n in range(2, limit + 1) if all(n % d for d in range(2, n))]
        assert workloads.reference_primes(limit).tolist() == want
    assert workloads.Primes(10**6).pi(10**6) == 78498
    monkeypatch.setitem(workloads.PUBLISHED_PI, 10**5, 9591)
    with pytest.raises(RuntimeError, match="pi"):
        workloads.Primes(10**6)


def test_unexpected_exit_and_wrong_output_fail_a_call(tmp_path):
    # k - 1 = 5e-5: the CLI exits 2 (sieve budget) before sieving.
    exits = workloads.Call(["compute", "--k", "1.00005"], "compute", 0, lambda text: None)
    wrong = workloads.Call(["compute", "--k", "2"], "compute", 0, lambda text: "wrong")
    ok = workloads.Call(["compute", "--k", "2"], "compute", 0, lambda text: None)
    with run.Spawner(ENV) as spawner:
        outcomes, _ = run.run_round([exits, wrong, ok], spawner, tmp_path, traced=False)
    assert [o.status for o in outcomes] == ["exit", "wrong", "ok"]


def test_call_rss_leaves_out_the_harness(tmp_path):
    ballast = np.ones(400 * 2**20 // 8)  # 400 MB resident in this process
    with run.Spawner(ENV) as spawner:
        _, rss_mb, code = spawner.spawn([sys.executable, "-c", "pass"], tmp_path / "out",
                                        tmp_path / "err")
    assert code == 0 and rss_mb < 50 < ballast.nbytes / 2**20


def test_inconclusive_oracle_draws_are_rejected():
    primes = workloads.Primes(10**5).array
    # R_1^(1.1) = 127: its last failing point 1.1 * 113 is above 200/2.
    assert workloads.oracle_reference(primes, Fraction("1.1"), 1, 200) is None
    assert workloads.oracle_reference(primes, Fraction("1.1"), 1, 1000) == 127
    assert workloads.oracle_reference(primes, Fraction(2), 9, 1000) == 71  # Ramanujan prime R_9


def test_checks_reject_wrong_outputs(answer_draws):
    calls = answer_draws[1]
    paper = next(c for c in calls if c.regime == "compute.paper")
    good = {"schema": "compute", "k": "10008968291/10000000000", "k_decimal": 1.0008968291,
            "n": 1, "method": "table", "prime": 58889, "index": 5950, "certified_bound": 58890}
    assert paper.check(json.dumps(good)) is None
    assert paper.check(json.dumps({**good, "prime": 58897})) is not None
    assert paper.check(json.dumps({**good, "certified_bound": 58888})) is not None
    table = next(c for c in calls if c.regime == "table.paper")
    csv_rows = ["n,a,prime,prev_prime,ratio_num,ratio_den"] + [
        f"{n},{a},{p},{q},{p},{q}" for n, (a, p, q) in enumerate(
            workloads.record_rows(workloads.Primes(60000).array.tolist(),
                                  Fraction(workloads.PAPER_K), 5950), start=1)]
    assert table.check("\n".join(csv_rows) + "\n") is None
    assert table.check("\n".join(csv_rows[:-1]) + "\n") is not None


def test_violation_check_matches_reference_sets():
    primes = workloads.Primes(10**6).array
    deep = workloads.violations_reference(primes, Fraction("0.05"), 3, 58837, 10**6)
    assert len(deep) == 36275
    ref = workloads.violations_reference(primes, Fraction("1.188"), 3, 3, 10**5)
    assert max(ref) == (58831, 58889)  # largest Axler violation, just below x0
    record = {"name": "custom", "x0": 2, "c": "297/250", "e": 3}
    check = workloads.verify_check(record, 3, 100000, 9589, ref)
    out = {"schema": "verify", "theorem": record, "from": 3, "to": 100000, "pairs_checked": 9589,
           "violations": [{"p": p, "next_p": q, "threshold": t} for (p, q), t in ref.items()]}
    assert check(json.dumps(out)) is None
    out["violations"] = out["violations"][1:]
    assert check(json.dumps(out)) is not None


def test_verify_plans_are_stratified():
    for seed in range(5):
        plan = workloads.plan_verify_range(random.Random(seed))
        assert [name for name, _, _ in plan] == ["axler", "dusart", "trudgian"]
        assert 5.7e8 <= sum(hi for _, _, hi in plan) <= 6.15e8
        params = workloads.plan_param_search(random.Random(seed))
        assert [p[0] for p in params] == [s[0] for s in workloads.PARAM_STRATA]


def test_missing_package_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "answers", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
