"""Reference computations for the benchmark's output checks.

Nothing in this module imports or calls ``cutproject``.  A field is
Q(xi) with xi = p + q*sqrt(d); one of its values is a pair (a, b) of
Fractions standing for a + b*xi, exactly as the benchmark built it.

The orbit recount works in 64-bit fixed point: frac(x + k*xi) is
approximated by (X + k*XI) mod 2^64, where X and XI are the floors of
2^64*frac(x) and 2^64*frac(xi).  NumPy's uint64 arithmetic wraps
modulo 2^64, which is exactly the reduction mod 1.  The error after k
steps is below (|k| + 2) units of 2^-64, so every k whose recounted
coordinate lies within that distance of a window endpoint is settled
again with mpmath at high precision, and an exact coincidence is
decided on the Fraction components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from inputs import Field, Pair

ONE = 1 << 64
DPS = 120
_TIE = mpmath.mpf(10) ** -90


class Unresolved(ArithmeticError):
    """A comparison that high precision could not settle and that is no tie."""


def mp_xi(f: Field) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        return _mp(f.p) + _mp(f.q) * mpmath.sqrt(f.d)


def mp(f: Field, v: Pair) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        return _mp(v[0]) + _mp(v[1]) * mp_xi(f)


def fixed(f: Field, v: Pair) -> int:
    """floor(2^64 * frac(v)) as a Python int in [0, 2^64)."""
    with mpmath.workdps(DPS):
        x = mp(f, v)
        return int(mpmath.floor((x - mpmath.floor(x)) * ONE)) % ONE


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def congruent(x: Pair, k: int, e: Pair) -> bool:
    """Exactly whether x + k*xi and e differ by an integer."""
    return x[1] + k == e[1] and (x[0] - e[0]).denominator == 1


# -- orbit recount ------------------------------------------------------------


def orbit_fixed(f: Field, x: Pair, k0: int, k1: int) -> np.ndarray:
    """uint64 fixed-point coordinates of frac(x + k*xi) for k0 <= k <= k1."""
    ks = np.arange(k0, k1 + 1, dtype=np.int64).astype(np.uint64)
    return np.uint64(fixed(f, x)) + ks * np.uint64(fixed(f, (Fraction(0), Fraction(1))))


def _settle(f: Field, x: Pair, k: int, intervals) -> int:
    """Index (1-based) of the interval holding frac(x + k*xi), or 0; exact."""
    with mpmath.workdps(DPS):
        v = mp(f, x) + k * mp_xi(f)
        c = v - mpmath.floor(v)
        if c < _TIE or 1 - c < _TIE:
            if not congruent(x, k, (Fraction(0), Fraction(0))):
                raise Unresolved(f"orbit point k={k} within 1e-90 of an integer")
            c = mpmath.mpf(0)
        for i, (lo, hi) in enumerate(intervals, 1):
            if _ge(f, x, k, c, lo) and not _ge(f, x, k, c, hi):
                return i
    return 0


def _ge(f: Field, x: Pair, k: int, c: mpmath.mpf, e: Pair) -> bool:
    """c >= e for c = frac(x + k*xi) and an endpoint e in [0, 1]."""
    if e == (1, 0):
        return False
    diff = c - mp(f, e)
    if abs(diff) < _TIE:
        if congruent(x, k, e):
            return True
        raise Unresolved(f"orbit point k={k} within 1e-90 of endpoint {e}")
    return diff > 0


def classify(f: Field, x: Pair, intervals, k0: int, k1: int) -> np.ndarray:
    """For each k in [k0, k1]: 1-based index of the interval holding
    frac(x + k*xi), or 0.  Intervals are half-open, sorted and disjoint."""
    pos = orbit_fixed(f, x, k0, k1)
    out = np.zeros(pos.shape, dtype=np.int8)
    tol = np.uint64(2 * (max(abs(k0), abs(k1)) + 4))
    amb = np.zeros(pos.shape, dtype=bool)
    for i, (lo, hi) in enumerate(intervals, 1):
        lo_f = np.uint64(fixed(f, lo))
        inside = pos >= lo_f
        if hi != (1, 0):
            hi_f = np.uint64(fixed(f, hi))
            inside &= pos < hi_f
            amb |= _near(pos, hi_f, tol)
        else:
            amb |= _near(pos, np.uint64(0), tol)
        amb |= _near(pos, lo_f, tol)
        out[inside] = i
    for j in np.nonzero(amb)[0]:
        out[j] = _settle(f, x, k0 + int(j), intervals)
    return out


def _near(pos: np.ndarray, e: np.uint64, tol: np.uint64) -> np.ndarray:
    diff = pos - e  # wraps modulo 2^64: a circular distance
    return (diff <= tol) | ((np.uint64(0) - diff) <= tol)


# -- exact arithmetic over sqrt(d) ------------------------------------------


@dataclass(frozen=True)
class Surd:
    """A + B*sqrt(d) with Fraction A, B: a second, independent Q(xi)."""

    A: Fraction
    B: Fraction
    d: int

    @classmethod
    def of(cls, f: Field, v: Pair) -> "Surd":
        return cls(Fraction(v[0]) + Fraction(v[1]) * f.p, Fraction(v[1]) * f.q, f.d)

    def to_pair(self, f: Field) -> Pair:
        b = self.B / f.q
        return (self.A - b * f.p, b)

    def __add__(self, o):
        o = self._lift(o)
        return Surd(self.A + o.A, self.B + o.B, self.d)

    def __sub__(self, o):
        o = self._lift(o)
        return Surd(self.A - o.A, self.B - o.B, self.d)

    def __neg__(self):
        return Surd(-self.A, -self.B, self.d)

    def __mul__(self, o):
        o = self._lift(o)
        return Surd(
            self.A * o.A + self.B * o.B * self.d, self.A * o.B + self.B * o.A, self.d
        )

    def __truediv__(self, o):
        o = self._lift(o)
        n = o.A * o.A - o.B * o.B * self.d
        return self * Surd(o.A / n, -o.B / n, self.d)

    def _lift(self, o) -> "Surd":
        return o if isinstance(o, Surd) else Surd(Fraction(o), Fraction(0), self.d)

    def sign(self) -> int:
        A, B = self.A, self.B
        sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        return sa if A * A > B * B * self.d else sb

    def __float__(self) -> float:
        return float(self.A) + float(self.B) * self.d**0.5


def smax(u: Surd, v: Surd) -> Surd:
    return u if (u - v).sign() >= 0 else v
