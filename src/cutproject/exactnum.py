"""Exact arithmetic in a real quadratic field Q(xi).

Every coordinate in this package is an element ``a + b*xi`` of Q(xi),
where ``xi = p + q*sqrt(d)`` is a fixed quadratic irrational (p, q
rational, q != 0, d a squarefree integer >= 2).  Restricting to
quadratic irrationals keeps every comparison, floor, and lattice
membership test exactly decidable with integer arithmetic; no floating
point enters any decision path.  Floats appear only in ``__float__``,
which exists for display purposes.

Because xi is irrational, the pair (a, b) of reduced fractions is a
unique representation of the real value, so structural equality equals
value equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm
from typing import Optional, Union

__all__ = [
    "XiMismatchError",
    "XiSpec",
    "XiReal",
    "pair_sign",
    "floor_pair",
    "decompose_Z_plus_Zxi",
    "parse_rational",
    "parse_xi",
    "parse_xireal",
]

Rational = Union[int, Fraction]


class XiMismatchError(ValueError):
    """Two XiReal values from different ambient fields were combined."""


RADICAND_LIMIT = 10**12  # trial division below stays under about 0.1 s


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (s, core) with n = s*s*core and core squarefree."""
    if n <= 0:
        raise ValueError(f"radicand must be positive, got {n}")
    if n > RADICAND_LIMIT:
        raise ValueError(f"radicand {n} exceeds the supported limit {RADICAND_LIMIT}")
    s, core = 1, 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                core *= f
        f += 1 if f == 2 else 2
    return s, core * n


def pair_sign(a: Rational, b: Rational, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rationals a, b and squarefree d >= 2.

    Every exact comparison in the package is this test (the per-hit loops
    of ``_scaled`` inline it).  Mixed signs compare a^2 against b^2*d, where
    a tie is impossible unless a = b = 0.
    """
    if a >= 0:
        if b >= 0:
            return 1 if a or b else 0
        return 1 if a * a > b * b * d else -1
    if b <= 0:
        return -1
    return 1 if b * b * d > a * a else -1


def floor_pair(a: int, b: int, m: int, d: int) -> int:
    """Exact floor of (a + b*sqrt(d)) / m for integers a, b and m > 0."""
    t = isqrt(b * b * d)  # b^2*d is never a perfect square for b != 0
    # a + b*sqrt(d) lies in [a + t, a + t + 1) or (a - t - 1, a - t), so its
    # floor over m is n0 or n0 + 1
    n0 = (a + t if b >= 0 else a - t - 1) // m
    return n0 + 1 if pair_sign(a - (n0 + 1) * m, b, d) >= 0 else n0


@dataclass(frozen=True)
class XiSpec:
    """The ambient quadratic irrational xi = p + q*sqrt(d).

    d is reduced to its squarefree core at construction (the extracted
    square factor is folded into q), so equal values always compare equal.
    """

    p: Fraction
    q: Fraction
    d: int

    def __post_init__(self) -> None:
        p = Fraction(self.p)
        q = Fraction(self.q)
        s, core = _squarefree_decompose(self.d)
        q *= s
        if q == 0:
            raise ValueError("q must be nonzero (xi must be irrational)")
        if core < 2:
            raise ValueError(f"sqrt({self.d}) is rational; xi must be irrational")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", core)

    @classmethod
    def sqrt(cls, d: int) -> "XiSpec":
        return cls(Fraction(0), Fraction(1), d)

    def real(self, a: Rational, b: Rational = 0) -> "XiReal":
        """The field element a + b*xi."""
        return XiReal(Fraction(a), Fraction(b), self)

    @property
    def zero(self) -> "XiReal":
        return self.real(0)

    @property
    def one(self) -> "XiReal":
        return self.real(1)

    @property
    def xi_real(self) -> "XiReal":
        """The value xi itself as a field element (0 + 1*xi)."""
        return self.real(0, 1)

    def __float__(self) -> float:
        return float(self.xi_real)

    def __str__(self) -> str:
        if self.p == 0 and self.q == 1:
            return f"sqrt({self.d})"
        parts = []
        if self.p:
            parts.append(str(self.p))
        sgn = "-" if self.q < 0 else ("+" if parts else "")
        parts.append(f"{sgn}{abs(self.q)}*sqrt({self.d})")
        return "(" + "".join(parts) + ")"


@total_ordering
@dataclass(frozen=True, eq=False)
class XiReal:
    """An exact element a + b*xi of Q(xi), with reduced-fraction components."""

    a: Fraction
    b: Fraction
    xi: XiSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    # -- internals ---------------------------------------------------------

    def _check(self, other: "XiReal") -> None:
        if self.xi != other.xi:
            raise XiMismatchError(f"ambient fields differ: {self.xi} vs {other.xi}")

    def _coerce(self, other: object) -> Optional["XiReal"]:
        if isinstance(other, XiReal):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return XiReal(Fraction(other), Fraction(0), self.xi)
        return None

    def radical_pair(self) -> tuple[Fraction, Fraction]:
        """Coefficients (A, B) of the value over the basis (1, sqrt(d))."""
        return self.a + self.b * self.xi.p, self.b * self.xi.q

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0 or +1."""
        A, B = self.radical_pair()
        return pair_sign(A, B, self.xi.d)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XiReal) and other.xi != self.xi:
            return False  # rational values of two fields share a hash; == must not raise
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        # a rational value equals its int/Fraction, so it must hash like one
        return hash((self.a, self.b, self.xi)) if self.b else hash(self.a)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: object) -> "XiReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return XiReal(self.a + o.a, self.b + o.b, self.xi)

    __radd__ = __add__

    def __neg__(self) -> "XiReal":
        return XiReal(-self.a, -self.b, self.xi)

    def __sub__(self, other: object) -> "XiReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return XiReal(self.a - o.a, self.b - o.b, self.xi)

    def __rsub__(self, other: object) -> "XiReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "XiReal":
        if isinstance(other, (int, Fraction)):
            return XiReal(self.a * other, self.b * other, self.xi)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # xi^2 = 2p*xi + (q^2 d - p^2)
        p, q, d = self.xi.p, self.xi.q, self.xi.d
        t = self.b * o.b
        return XiReal(
            self.a * o.a + t * (q * q * d - p * p),
            self.a * o.b + o.a * self.b + 2 * p * t,
            self.xi,
        )

    __rmul__ = __mul__

    def inverse(self) -> "XiReal":
        A, B = self.radical_pair()
        nrm = A * A - B * B * self.xi.d
        if nrm == 0:  # only when A = B = 0
            raise ZeroDivisionError("division by zero XiReal")
        # 1/(A + B sqrt d) = (A - B sqrt d)/nrm; back to the (1, xi) basis
        # via sqrt(d) = (xi - p)/q.
        X, Y = A / nrm, -B / nrm
        p, q = self.xi.p, self.xi.q
        return XiReal(X - Y * p / q, Y / q, self.xi)

    def __truediv__(self, other: object) -> "XiReal":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return XiReal(self.a / other, self.b / other, self.xi)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "XiReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __abs__(self) -> "XiReal":
        return -self if self.sign() < 0 else self

    # -- floor and friends ---------------------------------------------------

    def _cleared(self) -> tuple[int, int, int]:
        """Integers (a, b, m) with value (a + b*sqrt(d)) / m, m > 0."""
        A, B = self.radical_pair()
        m = lcm(A.denominator, B.denominator)
        return A.numerator * (m // A.denominator), B.numerator * (m // B.denominator), m

    def floor(self) -> int:
        """Exact floor, via integer square roots (no floating point)."""
        return floor_pair(*self._cleared(), self.xi.d)

    def fractional_part(self) -> tuple["XiReal", int]:
        """Split into (frac, floor) with value = floor + frac, 0 <= frac < 1."""
        n = self.floor()
        return self - n, n

    # -- rendering -----------------------------------------------------------

    def decimal(self, digits: int = 30) -> str:
        """Exact decimal rendering, truncated toward zero after `digits` places."""
        neg = self.sign() < 0
        u = -self if neg else self
        scaled = (u * 10**digits).floor()
        s = str(scaled).rjust(digits + 1, "0")
        out = f"{s[:-digits]}.{s[-digits:]}" if digits else s
        return "-" + out if neg else out

    def __float__(self) -> float:
        """The value within 1 ulp, from an exact floor of value * 2^s."""
        a, b, m = self._cleared()
        d = self.xi.d
        # |a + b*sqrt(d)| >= 1/(|a| + |b|*sqrt(d)) unless a = b = 0, so this s
        # makes |value * 2^s| >= 2^54 and the floor costs under 2^-54 relative
        s = 54 + m.bit_length() + (abs(a) + abs(b) * (isqrt(d) + 1)).bit_length()
        return floor_pair(a << s, b << s, m, d) / (1 << s)

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        head = str(self.a) if self.a else ""
        sgn = "-" if self.b < 0 else ("+" if head else "")
        return f"{head}{sgn}{abs(self.b)}*xi"

    def __repr__(self) -> str:
        return f"XiReal({self}, xi={self.xi})"


# -- lattice membership ---------------------------------------------------------


def decompose_Z_plus_Zxi(u: XiReal) -> Optional[tuple[int, int]]:
    """Return (k, m) with u = k*xi + m when both exist in Z, else None."""
    if u.a.denominator == 1 and u.b.denominator == 1:
        return int(u.b), int(u.a)
    return None


# -- parsing -------------------------------------------------------------------

_RAT = r"\d+(?:\s*/\s*\d+)?"
_TERM_XI = re.compile(
    rf"\s*(?P<sign>[+-])?\s*(?:(?P<coef>{_RAT})\s*(?:\*\s*(?P<xi>xi))?|(?P<xi2>xi))\s*"
)
_TERM_SQRT = re.compile(
    rf"\s*(?P<sign>[+-])?\s*(?:(?P<coef>{_RAT})\s*(?:\*\s*sqrt\(\s*(?P<d>\d+)\s*\))?"
    rf"|sqrt\(\s*(?P<d2>\d+)\s*\))\s*"
)


def parse_rational(text: str) -> Fraction:
    """Parse `p` or `p/q` (optional sign, arbitrary precision)."""
    try:
        return Fraction(text.replace(" ", ""))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def _scan_terms(text: str, term_re: re.Pattern) -> list[tuple[int, re.Match]]:
    out = []
    pos = 0
    while pos < len(text):
        m = term_re.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at position {pos}")
        if pos > 0 and not m.group("sign"):
            raise ValueError(f"missing +/- between terms in {text!r}")
        out.append((-1 if m.group("sign") == "-" else 1, m))
        pos = m.end()
    if not out:
        raise ValueError("empty expression")
    return out


def parse_xi(text: str) -> XiSpec:
    """Parse an xi description such as `sqrt(2)` or `1/2+1/2*sqrt(5)`."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    p = Fraction(0)
    q = Fraction(0)
    d: Optional[int] = None
    for sgn, m in _scan_terms(s, _TERM_SQRT):
        if m.group("d") or m.group("d2"):
            term_d = int(m.group("d") or m.group("d2"))
            coef = parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
            # normalize the radicand before checking consistency
            sq, core = _squarefree_decompose(term_d)
            if d is None:
                d = core
            elif d != core:
                raise ValueError(f"mixed radicands in {text!r}")
            q += sgn * coef * sq
        else:
            p += sgn * parse_rational(m.group("coef"))
    if d is None:
        raise ValueError(f"{text!r} has no sqrt term; xi must be irrational")
    return XiSpec(p, q, d)


def parse_xireal(text: str, xi: XiSpec) -> XiReal:
    """Parse `a+b*xi` (rationals as `p/q`), e.g. `-1+1*xi` or `17/3-4*xi`."""
    a = Fraction(0)
    b = Fraction(0)
    for sgn, m in _scan_terms(text.strip(), _TERM_XI):
        coef = parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("xi") or m.group("xi2"):
            b += sgn * coef
        else:
            a += sgn * coef
    return XiReal(a, b, xi)
