"""Command-line front end: compute / bound / table / verify.

stdout carries data (JSON, or CSV for `table --format csv`); diagnostics go
to stderr.  Exit codes: 0 success, 1 usage, 2 domain error, 3 violations
found, 4 inconclusive oracle, 5 sieve past its memory budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from itertools import chain, islice

from . import core
from .errors import KRamanujanError
from .primes import sieve_upto  # noqa: F401  (perfbench wraps this binding)
from .theorems import BUILTIN_THEOREMS, GapTheorem
from .verify import scan_theorem
from .verify import verify_theorem  # noqa: F401  (perfbench wraps this binding)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 3
# stdout takes one write once this many characters are buffered, not one per
# chunk (a JSON encoder token, a CSV row or a batch of this many verify rows).
# Semantically invisible: stdout is identical for any positive values (tested).
_WRITE_SIZE, _ROW_BATCH = 1 << 16, 256
# One verify violation, after its separator, and the record's last key; json
# writes a finite float as float.__repr__, which is also its str.
_ROW = ',\n    {\n      "p": %d,\n      "next_p": %d,\n      "threshold": %s\n    }'
_TAIL = ',\n  "elapsed_seconds": %r\n}\n'


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for domain.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _theorem_record(thm: GapTheorem) -> dict:
    return {"name": thm.name, "x0": thm.x0, "c": _frac_str(thm.c), "e": thm.e}


def _resolve_theorem(args) -> GapTheorem:
    if args.theorem != "custom":
        return BUILTIN_THEOREMS[args.theorem]
    if args.x0 is None or args.c is None or args.e is None:
        raise ValueError("custom theorem requires --x0, --c and --e")
    return GapTheorem("custom", args.x0, core.parse_rational(args.c), args.e)


def _write(chunks) -> None:
    buffered, size = [], 0
    for chunk in chunks:
        buffered.append(chunk)
        size += len(chunk)
        if size >= _WRITE_SIZE:
            sys.stdout.write("".join(buffered))
            buffered, size = [], 0
    sys.stdout.write("".join(buffered))  # the tail, under the cap


def _emit(record: dict) -> None:
    _write(chain(json.JSONEncoder(indent=2).iterencode(record), "\n"))


def cmd_compute(args) -> int:
    k = core.parse_rational(args.k)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    method = "oracle" if args.method == "oracle" or args.n > 1 else "table"
    if (method == "oracle") != (args.scan_limit is not None):
        raise ValueError(
            "--scan-limit goes with, and only with, --method oracle or --n >= 2"
        )

    record = {"schema": "compute", "k": _frac_str(k), "k_decimal": float(k),
              "n": args.n, "method": method}
    if method == "table":
        answer = core.first_k_ramanujan(k)
        record["prime"] = answer.prime
        record["index"] = answer.index
        record["certified_bound"] = answer.bound
        if answer.k_equals_gap_ratio:
            record["k_equals_gap_ratio"] = True
    else:
        prime_index = core.brute_force_R(k, args.n, args.scan_limit)
        record["prime"], record["index"] = prime_index
        record["caveat"] = f"oracle result; verified up to scan limit {args.scan_limit}"
    _emit(record)
    return EXIT_OK


def cmd_bound(args) -> int:
    k = core.parse_rational(args.k)
    thm = _resolve_theorem(args)
    bound = core.cor_bound(k, thm)
    _emit({"schema": "bound", "k": _frac_str(k), "k_decimal": float(k),
           "theorem": _theorem_record(thm), "bound": bound})
    return EXIT_OK


def cmd_table(args) -> int:
    k_min = core.parse_rational(args.k_min)
    if args.index_limit < 2:
        raise ValueError("--index-limit must be >= 2")
    rows = core.table_rows(k_min, args.index_limit)
    if args.format == "csv":
        _write(chain(["n,a,prime,prev_prime,ratio_num,ratio_den\n"], (
            f"{n},{r.index},{r.prime},{r.prev_prime},"
            f"{r.ratio.numerator},{r.ratio.denominator}\n"
            for n, r in enumerate(rows, start=1)
        )))
    else:
        _emit(
            {
                "schema": "table",
                "k_min": _frac_str(k_min),
                "index_limit": args.index_limit,
                "rows": [
                    {
                        "n": n,
                        "a": r.index,
                        "prime": r.prime,
                        "prev_prime": r.prev_prime,
                        "ratio": _frac_str(r.ratio),
                    }
                    for n, r in enumerate(rows, start=1)
                ],
            }
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    thm = _resolve_theorem(args)
    if args.frm > args.to:
        raise ValueError(f"--from {args.frm} exceeds --to {args.to}")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    began = time.perf_counter()
    pairs, violations = scan_theorem(thm, args.frm, args.to)
    record = {"schema": "verify", "theorem": _theorem_record(thm), "from": args.frm,
              "to": args.to, "pairs_checked": pairs, "violations": []}
    # the record's one list; its rows are streamed as indent=2 would write them
    head = json.JSONEncoder(indent=2).encode(record).partition("[]")[0]
    # one % per batch of rows; json spells inf, -inf and nan as below, and no
    # other word of a row holds "inf" or "nan", so only a batch whose
    # thresholds do not sum to a finite float is searched for them
    rows = (text if math.isfinite(sum(v[2] for v in b))
            else text.replace("inf", "Infinity").replace("nan", "NaN")
            for b in iter(lambda: [*islice(violations, _ROW_BATCH)], [])
            for text in [_ROW * len(b) % tuple(chain.from_iterable(b))])
    first = next(rows, "").replace(",", "[", 1)  # a row opens the list, and exit 3
    # taken when pulled: after the scan and every write but the tail's
    seconds = (round(time.perf_counter() - began, 3) for _ in "_")
    end = "\n  ]" if first else "[]"
    _write(chain([head, first], rows, [end], map(_TAIL.__mod__, seconds)))
    return EXIT_VIOLATIONS if first else EXIT_OK


def _add_theorem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--theorem",
        choices=[*BUILTIN_THEOREMS, "custom"],
        required=True,
        help="built-in short-interval theorem, or 'custom' with --x0/--c/--e",
    )
    p.add_argument("--x0", type=int, help="custom validity threshold")
    p.add_argument("--c", help="custom numerator constant (decimal or p/q)")
    p.add_argument("--e", type=int, help="custom log exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kramanujan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute R_n^(k) exactly")
    p.add_argument("--k", required=True, help="threshold k (decimal or p/q), k > 1")
    p.add_argument("--n", type=int, default=1, help="Ramanujan index (default 1)")
    p.add_argument("--method", choices=["oracle"])
    p.add_argument("--scan-limit", type=int, dest="scan_limit")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("bound", help="evaluate the certified upper bound")
    p.add_argument("--k", required=True, help="threshold k (decimal or p/q), k > 1")
    _add_theorem_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table", help="breakpoint table of record gap ratios")
    p.add_argument("--k-min", default="1.0008968291", dest="k_min")
    p.add_argument("--index-limit", type=int, default=5950, dest="index_limit")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="empirically verify a theorem over a range")
    _add_theorem_flags(p)
    p.add_argument("--from", type=int, required=True, dest="frm")
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except KRamanujanError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
