"""Run one `kramanujan` CLI call with spans recorded around its layers.

Usage (from the repository root, with the package importable)::

    PYTHONPATH=src python perfbench/trace_cli.py SPANS_JSON CALL_ID -- <cli args>

The wrapped functions are the public entry points of each module.  A wrapper
replaces every binding of the function inside the package, including the
copies that ``from .x import y`` made in other modules, and methods are
patched on their class; a target the package lacks is an error.  Spans stay
in memory and are written to SPANS_JSON when the call returns; stdout stays
exactly the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# (layer name, module, attribute); a class method is "Class.method".
TARGETS = [
    ("cli.main", "kramanujan.cli", "main"),
    ("primes.sieve_upto", "kramanujan.primes", "sieve_upto"),
    ("primes.query", "kramanujan.primes", "PrimeStore.prime_count"),
    ("primes.query", "kramanujan.primes", "PrimeStore.nth_prime"),
    ("primes.query", "kramanujan.primes", "PrimeStore.gap_arrays"),
    ("core.shared_store", "kramanujan.core", "shared_store"),
    ("core.certified_bound", "kramanujan.core", "certified_bound"),
    ("core.cor_bound", "kramanujan.core", "cor_bound"),
    ("core.first_k_ramanujan", "kramanujan.core", "first_k_ramanujan"),
    ("core.k_equals_gap_ratio", "kramanujan.core", "k_equals_gap_ratio"),
    ("core.brute_force_R", "kramanujan.core", "brute_force_R"),
    ("core.breakpoints", "kramanujan.core", "breakpoints"),
    ("theorems.admits", "kramanujan.theorems", "GapTheorem.admits"),
    ("theorems.k_max", "kramanujan.theorems", "GapTheorem.k_max"),
    ("theorems.threshold_exceeds", "kramanujan.theorems", "GapTheorem.threshold_exceeds"),
    ("verify.verify_theorem", "kramanujan.verify", "verify_theorem"),
]


class Tracer:
    """Collects spans of one call: name, start, end, parent span, call id."""

    def __init__(self, call_id: int):
        self.call_id = call_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        # Innermost open span of the main thread.  A span opened on a worker
        # thread with nothing open there (verify's --jobs pool) takes it as
        # its parent, since the main thread is blocked inside that span.
        self._main_top: int | None = None
        self._ids = iter(range(1 << 62))
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(args, kwargs, result)
        returns extra counters for the span.  start..end times fn alone;
        enter..exit also covers the wrapper's own work, which is then
        charged to neither the span nor its parent."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            stack = self._stack()
            is_main = threading.current_thread() is self._main
            parent = stack[-1] if stack else (None if is_main else self._main_top)
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            if is_main:
                self._main_top = span_id
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_main:
                    self._main_top = stack[-1] if stack else None
                span = {
                    "id": span_id,
                    "parent": parent,
                    "call": self.call_id,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                if error is not None:
                    span["error"] = error
                elif attrs is not None:
                    span.update(attrs(args, kwargs, result))
                span["enter"] = enter
                span["exit"] = time.perf_counter()
                self.spans.append(span)

        return traced


def _sieve_attrs(args, kwargs, store):
    limit = kwargs.get("limit", args[0] if args else 0)
    return {"limit": int(limit), "primes_out": store.count, "table_bytes": store.primes.nbytes}


def _shared_store_attrs(args, kwargs, store):
    return {"requested": int(args[0]), "store_limit": store.limit}


def _breakpoints_attrs(args, kwargs, rows):
    return {"rows": len(rows)}


def _threshold_attrs(args, kwargs, exceeds):
    # Raw arguments only: work done here is charged to the parent span.
    _, x, q = args
    return {"x": int(x), "q": int(q), "exceeds": bool(exceeds)}


def _verify_attrs(args, kwargs, report):
    jobs = kwargs.get("jobs", args[4] if len(args) > 4 else 1)
    return {
        "pairs": report.pairs_checked,
        "violations": len(report.violations),
        "jobs": int(jobs),
        "range": [report.theorem.name, report.lo, report.hi],
        "c": float(report.theorem.c),
        "e": report.theorem.e,
    }


ATTRS = {
    "primes.sieve_upto": _sieve_attrs,
    "core.shared_store": _shared_store_attrs,
    "core.breakpoints": _breakpoints_attrs,
    "theorems.threshold_exceeds": _threshold_attrs,
    "verify.verify_theorem": _verify_attrs,
}


def install(tracer: Tracer) -> None:
    """Wrap every target; raises AttributeError if the package lacks one."""
    modules = [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "kramanujan" or n.startswith("kramanujan."))
    ]
    for name, module_name, attr in TARGETS:
        owner_name, _, method = attr.rpartition(".")
        module = sys.modules[module_name]
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, method)
        wrapper = tracer.wrap(name, original, ATTRS.get(name))
        if owner_name:
            setattr(owner, method, wrapper)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def main(argv: list[str]) -> int:
    spans_path, call_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS_JSON CALL_ID -- <cli args>")
    import kramanujan  # noqa: F401  (loads every submodule)
    import kramanujan.cli

    tracer = Tracer(int(call_id))
    install(tracer)
    try:
        code = kramanujan.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
