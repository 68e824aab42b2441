"""End-to-end and per-layer benchmark of the `kramanujan` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload answers --seed 1 --seconds 30 --trace 0

Each call is a fresh `python -m kramanujan.cli ...` subprocess against the
working tree (PYTHONPATH=src, nothing installed), timed from spawn to reap,
with its peak RSS taken from os.wait4 on that child alone.  Calls are
spawned by perfbench/spawner.py, a small process of its own, so that this
process's memory is not counted in theirs (see spawner.py).  The load is a
closed loop: one client, one call at a time.  A run repeats the workload's
fixed call sequence (a round) until --seconds have passed and reports
medians over rounds.  Every call's exit code and stdout are checked against
references computed before the timed loop.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
rounds with rounds in which each call runs under perfbench/trace_cli.py,
and prints the per-layer metrics taken from its spans.  Human-readable
lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CLI = Path(__file__).resolve().parent / "trace_cli.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"
CALL_TIMEOUT_S = 60.0
# The host's speed drifts over a few seconds, so setup samples are spread
# over the whole run: one fresh import after a call once this long has
# passed since the last sample.
SETUP_EVERY_S = 2.0
E2E_UNITS = {"wall_s": "s", "call_p50_s": "s", "peak_rss_mb": "MB", "rss_p50_mb": "MB", "setup_s": "s"}


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    stdout_bytes: int
    # "ok"; "exit" (an unexpected exit code, or a timeout); "wrong" (output
    # fails its check)
    status: str
    problem: str = ""


class Spawner:
    """The spawner.py process: started on entry, stopped and reaped on exit.

    Its children inherit env and run in the repository root.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def spawn(self, argv: list[str], stdout_path: Path, stderr_path: Path):
        """Run argv to completion; returns (wall seconds, max RSS in MB, exit code).

        A call that outlives CALL_TIMEOUT_S is killed and reported as exit -9.
        """
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path),
                   "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner.py exited with {self.proc.wait()}")
        reply = json.loads(reply)
        return reply["seconds"], reply["rss_mb"], reply["exit"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_round(calls, spawner: Spawner, work: Path, traced: bool, after_call=lambda: None):
    """One pass over the call sequence; returns (outcomes, spans)."""
    outcomes, spans = [], []
    out_path, err_path, spans_path = work / "stdout", work / "stderr", work / "spans.json"
    for i, call in enumerate(calls):
        if traced:
            argv = [sys.executable, str(TRACE_CLI), str(spans_path), str(i), "--", *call.argv]
        else:
            argv = [sys.executable, "-m", "kramanujan.cli", *call.argv]
        seconds, rss_mb, code = spawner.spawn(argv, out_path, err_path)
        text = out_path.read_text()
        status, problem = "ok", ""
        if code != call.expected_exit:
            status = "exit"
            stderr = err_path.read_text().strip().splitlines()
            problem = f"exit {code}, expected {call.expected_exit}" + (f": {stderr[-1]}" if stderr else "")
        else:
            try:
                problem = call.check(text) or ""
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problem = f"unreadable output: {exc!r}"
            status = "wrong" if problem else "ok"
        outcomes.append(Outcome(seconds, rss_mb, out_path.stat().st_size, status, problem))
        if traced and spans_path.exists():
            spans.extend(json.loads(spans_path.read_text())["spans"])
            spans_path.unlink()
        after_call()
    return outcomes, spans


class SetupSampler:
    """Wall times of fresh `import kramanujan.cli` runs, spread over the run."""

    def __init__(self, spawner: Spawner, work: Path):
        self.spawner, self.work = spawner, work
        self.times: list[float] = []
        self.last = float("-inf")

    def __call__(self) -> None:
        if time.perf_counter() - self.last < SETUP_EVERY_S:
            return
        argv = [sys.executable, "-c", "import kramanujan.cli"]
        seconds, _, code = self.spawner.spawn(argv, self.work / "stdout", self.work / "stderr")
        if code != 0:
            raise RuntimeError("`import kramanujan.cli` failed: " + (self.work / "stderr").read_text())
        self.times.append(seconds)
        self.last = time.perf_counter()


# --- per-layer metrics from spans -------------------------------------------


def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list[dict], outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer counts and times of one traced round.

    Self time is a span's duration minus the time its child spans cover,
    the tracer's own work around each child included (children on worker
    threads overlap; their union counts once).
    """
    children: dict[tuple, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["call"], s["parent"]), []).append(s)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        kids = children.get((s["call"], s["id"]), [])
        clipped = [(max(k["enter"], s["start"]), min(k["exit"], s["end"])) for k in kids]
        s["self"] = (s["end"] - s["start"]) - _covered([c for c in clipped if c[1] > c[0]])
        s["sieved"] = any(k["name"] == "primes.sieve_upto" and "error" not in k for k in kids)
        by_name.setdefault(s["name"], []).append(s)

    def group(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(s.get(key, 0) for s in group(name))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("primes.sieve_upto", "primes.query", "core.certified_bound", "core.cor_bound",
                 "core.first_k_ramanujan", "core.brute_force_R", "core.breakpoints",
                 "theorems.admits", "theorems.threshold_exceeds", "verify.verify_theorem"):
        m[f"{name}.calls"] = len(group(name))
        m[f"{name}.self_s"] = total(name, "self")
    m["core.k_equals_gap_ratio.self_s"] = total("core.k_equals_gap_ratio", "self")
    m["core.shared_store.calls"] = len(group("core.shared_store"))
    m["theorems.k_max.calls"] = len(group("theorems.k_max"))

    sieve_s = m["primes.sieve_upto.self_s"]
    m["primes.sieve_upto.limit_sum"] = total("primes.sieve_upto", "limit")
    m["primes.sieve_upto.primes_out"] = total("primes.sieve_upto", "primes_out")
    m["primes.sieve_upto.table_mb"] = max(
        (s.get("table_bytes", 0) / 1e6 for s in group("primes.sieve_upto")), default=0.0)
    m["primes.sieve_upto.ints_per_s"] = ratio(m["primes.sieve_upto.limit_sum"], sieve_s)

    sieving = [s for s in group("core.shared_store") if s["sieved"]]
    m["core.shared_store.sieves"] = len(sieving)
    m["core.shared_store.overshoot_ratio"] = ratio(
        sum(s["store_limit"] for s in sieving), sum(s["requested"] for s in sieving))

    m["core.breakpoints.rows"] = total("core.breakpoints", "rows")
    # A recheck reverses the float prescreen when its exact verdict differs
    # from the double-precision one for the theorem of its verify span.
    verify_by_id = {(s["call"], s["id"]): s for s in group("verify.verify_theorem")}
    reversed_count = 0
    for s in group("theorems.threshold_exceeds"):
        thm = verify_by_id.get((s["call"], s["parent"]))
        if thm is not None and "c" in thm and "exceeds" in s:
            x, q = s["x"], s["q"]
            reversed_count += s["exceeds"] != (x * (1.0 + thm["c"] / math.log(x) ** thm["e"]) >= q)
    m["theorems.threshold_exceeds.reversed_ratio"] = ratio(
        reversed_count, m["theorems.threshold_exceeds.calls"])

    verifies = group("verify.verify_theorem")
    verify_time = sum(s["end"] - s["start"] for s in verifies)
    m["verify.verify_theorem.pairs"] = total("verify.verify_theorem", "pairs")
    m["verify.verify_theorem.pairs_per_s"] = ratio(m["verify.verify_theorem.pairs"], verify_time)
    m["verify.verify_theorem.violations"] = total("verify.verify_theorem", "violations")
    # jobs=1 time over jobs=2 time, on ranges run both ways.
    by_range: dict[str, dict[int, float]] = {}
    for s in verifies:
        if "range" in s:
            times = by_range.setdefault(json.dumps(s["range"]), {})
            times[s["jobs"]] = times.get(s["jobs"], 0.0) + s["end"] - s["start"]
    paired = [t for t in by_range.values() if 1 in t and 2 in t]
    m["verify.jobs2_speedup"] = ratio(sum(t[1] for t in paired), sum(t[2] for t in paired))

    m["cli.main.total_s"] = sum(s["end"] - s["start"] for s in group("cli.main"))
    m["cli.main.self_s"] = total("cli.main", "self")
    m["cli.stdout_bytes"] = sum(o.stdout_bytes for o in outcomes)
    return m


# --- the run ------------------------------------------------------------------


def environment() -> str:
    import mpmath
    import numpy

    mem_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"mpmath {mpmath.__version__}, nproc {os.cpu_count()}, memory {mem_gib:.1f} GiB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kramanujan" / "cli.py").is_file():
        print(f"error: no kramanujan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}; "
          f"{environment()}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp, \
            Spawner(env) as spawner:
        work = Path(tmp)
        setup = SetupSampler(spawner, work)
        setup()
        calls = workloads.WORKLOADS[args.workload](random.Random(args.seed))
        untraced, traced = [], []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < args.seconds:
            untraced.append(run_round(calls, spawner, work, traced=False, after_call=setup)[0])
            if args.trace:
                traced.append(run_round(calls, spawner, work, traced=True))

    rounds = untraced + [outcomes for outcomes, _ in traced]
    attempted = sum(len(r) for r in rounds)
    failures = [(c, o) for r in rounds for c, o in zip(calls, r) if o.status != "ok"]
    for line in dict.fromkeys(
            f"# FAIL {c.regime}: kramanujan {' '.join(c.argv)} -> {o.problem}" for c, o in failures):
        print(line)

    walls = [sum(o.seconds for o in r) for r in untraced]
    per_call = [o.seconds for r in untraced for o in r]
    rss = [o.rss_mb for r in untraced for o in r]
    wall_s = statistics.median(walls)
    pairs = sum(c.pairs for c in calls)
    e2e = {
        "wall_s": wall_s,
        "call_p50_s": statistics.median(per_call),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in r) for r in untraced),
        "rss_p50_mb": statistics.median(rss),
        "setup_s": statistics.median(setup.times),
    }
    notes = {
        "wall_s": f"median of {len(walls)} rounds of {len(calls)} calls",
        "call_p50_s": f"n={len(per_call)} calls",
        "peak_rss_mb": "largest call per round, median over rounds",
        "rss_p50_mb": f"n={len(rss)} calls",
        "setup_s": f"median of {len(setup.times)} fresh imports",
    }
    for name, value in e2e.items():
        print(f"{name:<14} {value:12.4f} {E2E_UNITS[name]:<6} {notes[name]}")
    print(f"{'error_rate':<14} {len(failures) / attempted:12.4f} {'ratio':<6} "
          f"{len(failures)} of {attempted} calls failed")
    if pairs:
        print(f"{'gaps_per_s':<14} {pairs / wall_s:12.0f} {'1/s':<6} {pairs} pairs_checked per round")

    if args.trace:
        layers = [layer_metrics(spans, outcomes) for outcomes, spans in traced]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace_overhead"] = (
            statistics.median(sum(o.seconds for o in outcomes) for outcomes, _ in traced) / wall_s)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
        for name, metric in result.items():
            print(f"{name:<44} {metric['value']:16.6g} {metric['unit']}")
    else:
        result = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
