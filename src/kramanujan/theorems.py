"""Short-interval prime theorems of the form: for x >= x0 there is a prime
in (x, x(1 + c/log^e x)].

Exact decisions and nothing else: each real number is a chain of increasing
steps (ln, exp, multiply, divide) that a decimal context rounds correctly, so
each true value lies strictly between the next_minus and the next_plus of its
Decimal result, and a Decimal compares exactly with a Fraction.  Contexts are
made here and passed explicitly, never read from or set on a thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import partial

from .errors import DomainError, UnsupportedRangeError


def _decide(enclose, verdict):
    """verdict(v), monotone in v, for the real v that enclose(prec) encloses.

    The precision doubles from 64 bits until both ends give one verdict.
    That terminates because no v here is rational, and the verdicts only
    change at rationals: by Lindemann-Weierstrass, log x for an integer
    x >= 2 and exp(a) for an algebraic a != 0 are transcendental.
    """
    prec = 64
    while verdict((ends := enclose(prec))[0]) != verdict(ends[1]):
        prec *= 2
    return verdict(ends[0])


def _enclose(start: int, prec: int, *steps) -> tuple[Decimal, Decimal]:
    """Ends around what the steps (op, *args), each v -> op(ctx, v, *args), make
    of start, at prec // 3 digits (at least prec bits) and any exponent."""
    ctx = Context(prec // 3, ROUND_HALF_EVEN, MIN_EMIN, MAX_EMAX, traps=[])
    (op, *args), *rest = steps
    v = op(ctx, start, *args)
    lo, hi = ctx.next_minus(v), ctx.next_plus(v)
    for op, *args in rest:
        lo, hi = ctx.next_minus(op(ctx, lo, *args)), ctx.next_plus(op(ctx, hi, *args))
    return lo, hi


def _log_pow(x: int, e: int, prec: int) -> tuple[Decimal, Decimal]:
    """Enclosure of log(x)^e = exp(e*log(log(x))) for an integer x >= 2."""
    ln = (Context.ln,)
    return _enclose(x, prec, ln, ln, (Context.multiply, e), (Context.exp,))


def _corollary(k: Fraction, c: Fraction, e: int, prec: int) -> tuple:
    """Enclosure of k*exp((c/(k-1))^(1/e)) = k*exp(exp(log(c/(k-1))/e)), k > 1.
    Raises UnsupportedRangeError from 2^1024 on, before an end meets math.ceil."""
    t, exp, div = c / (k - 1), (Context.exp,), Context.divide
    lo, hi = _enclose(t.numerator, prec, (div, t.denominator), (Context.ln,), (div, e),
                      exp, exp, (Context.multiply, k.numerator), (div, k.denominator))
    if lo >= 2**1024:
        raise UnsupportedRangeError(f"bound for k = {k} overflows double precision")
    return lo, hi


@dataclass(frozen=True)
class GapTheorem:
    name: str
    x0: int
    c: Fraction
    e: int

    def __post_init__(self):
        if self.x0 < 2 or self.c <= 0 or self.e < 1:
            raise DomainError(f"invalid theorem parameters {self!r}")

    def k_max(self, prec: int) -> tuple[Fraction, Fraction]:
        """Enclosure of k_max = 1 + c/log^e(x0), the largest k certified."""
        lo, hi = map(Fraction, _log_pow(self.x0, self.e, prec))
        return 1 + self.c / hi, 1 + self.c / lo

    def admits(self, k: Fraction) -> bool:
        """Whether k is in (1, k_max], i.e. k > 1 and log^e(x0) <= c/(k - 1)."""
        log_pow = partial(_log_pow, self.x0, self.e)
        return k > 1 and _decide(log_pow, lambda v: v <= self.c / (k - 1))

    def threshold_exceeds(self, x: int, q: int) -> bool:
        """Whether x(1 + c/log^e x) >= q, i.e. q <= x or log^e(x) <= c*x/(q - x)."""
        log_pow = partial(_log_pow, x, self.e)
        return q <= x or _decide(log_pow, lambda v: v <= self.c * x / (q - x))

    def corollary_bound(self, k: Fraction) -> int:
        """The exact ceiling of k*exp((c/(k-1))^(1/e)), for k > 1."""
        return _decide(partial(_corollary, k, self.c, self.e), math.ceil)

    def k_max_bound(self) -> int:
        """The exact ceiling of k_max * x0."""
        return _decide(self.k_max, lambda v: math.ceil(v * self.x0))


AXLER = GapTheorem("axler", 58837, Fraction("1.188"), 3)
DUSART = GapTheorem("dusart", 396738, Fraction(1, 25), 2)
TRUDGIAN = GapTheorem("trudgian", 2898242, Fraction(1, 111), 2)

BUILTIN_THEOREMS = {t.name: t for t in (AXLER, DUSART, TRUDGIAN)}
