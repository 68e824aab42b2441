"""Short-interval prime theorems of the form: for x >= x0 there is a prime
in (x, x(1 + c/log^e x)]."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DomainError

HIGH_PRECISION_DPS = 50


@dataclass(frozen=True)
class GapTheorem:
    name: str
    x0: int
    c: Fraction
    e: int

    def __post_init__(self):
        if self.x0 < 2 or self.c <= 0 or self.e < 1:
            raise DomainError(f"invalid theorem parameters {self!r}")

    def k_max(self) -> mpmath.mpf:
        """1 + c/log^e(x0), the largest threshold k the theorem certifies.

        Evaluated at 50 significant digits; the value is irrational, so a
        rational k never equals it exactly and the comparison is safe.
        """
        with mpmath.workdps(HIGH_PRECISION_DPS):
            c = mpmath.mpf(self.c.numerator) / self.c.denominator
            return 1 + c / mpmath.log(self.x0) ** self.e

    def admits(self, k: Fraction) -> bool:
        """Whether k satisfies the hypothesis k in (1, k_max]."""
        if k <= 1:
            return False
        with mpmath.workdps(HIGH_PRECISION_DPS):
            return mpmath.mpf(k.numerator) / k.denominator <= self.k_max()

    def threshold(self, x: float) -> float:
        """x(1 + c/log^e x) in double precision."""
        import math

        return x * (1.0 + float(self.c) / math.log(x) ** self.e)

    def threshold_exceeds(self, x: int, q: int) -> bool:
        """Exact-direction check that x(1 + c/log^e x) >= q at 50 digits.

        Used to reclassify pairs whose double-precision margin is too thin.
        """
        with mpmath.workdps(HIGH_PRECISION_DPS):
            c = mpmath.mpf(self.c.numerator) / self.c.denominator
            return x * (1 + c / mpmath.log(x) ** self.e) >= q


AXLER = GapTheorem("axler", 58837, Fraction("1.188"), 3)
DUSART = GapTheorem("dusart", 396738, Fraction(1, 25), 2)
TRUDGIAN = GapTheorem("trudgian", 2898242, Fraction(1, 111), 2)

BUILTIN_THEOREMS = {t.name: t for t in (AXLER, DUSART, TRUDGIAN)}

