"""Short-interval prime theorems of the form: for x >= x0 there is a prime
in (x, x(1 + c/log^e x)].

The only module that evaluates real numbers.  Each is enclosed between exact
Fractions by mpmath's directed-rounding interval primitives at an explicit
precision.  mpmath's global precision is never read or set, so worker
threads can call everything here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from mpmath.libmp import from_int, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_pow_int
from mpmath.libmp import to_rational

from .errors import DomainError, UnsupportedRangeError

# Relative guard of verify's float64 prescreen of x(1 + c/log^e x), its only
# user: a float comparison decides only outside it.  For integers below 2^53
# the float64 error of that logarithmic threshold is under 10^-13.
PRESCREEN_GUARD = 1e-9


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


def _fractions(interval) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(*to_rational(end)) for end in interval)


def _interval(x: Fraction | int, prec: int) -> tuple:
    num, den = ((from_int(n),) * 2 for n in Fraction(x).as_integer_ratio())
    return mpi_div(num, den, prec)


def _log_pow(x: int, e: int, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of log(x)^e for an integer x >= 1."""
    return _fractions(mpi_pow_int(mpi_log(_interval(x, prec), prec), e, prec))


def _corollary(k: Fraction, c: Fraction, e: int, prec: int) -> tuple:
    """Enclosure of k*exp((c/(k-1))^(1/e)), for k > 1.

    Raises UnsupportedRangeError past the double range, before the ends are
    made exact (exp(1e21) cannot be held exactly).
    """
    log_t = mpi_log(_interval(c / (k - 1), prec), prec)
    root = mpi_exp(mpi_div(log_t, _interval(e, prec), prec), prec)
    lo, hi = mpi_mul(_interval(k, prec), mpi_exp(root, prec), prec)
    if lo[2] + lo[3] > 1024:  # lo >= 2^1024
        raise UnsupportedRangeError(f"bound for k = {k} overflows double precision")
    return _fractions((lo, hi))


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
        lo, hi = _log_pow(self.x0, self.e, prec)
        return 1 + self.c / hi, 1 + self.c / lo

    def admits(self, k: Fraction) -> bool:
        """Whether k satisfies the hypothesis k in (1, k_max]."""
        return k > 1 and _decide(self.k_max, lambda v: k <= v)

    def threshold_exceeds(self, x: int, q: int) -> bool:
        """Whether x(1 + c/log^e x) >= q, i.e. log^e(x)*(q - x) <= c*x."""
        cx = self.c * x
        return _decide(partial(_log_pow, x, self.e), lambda v: v * (q - x) <= cx)

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
