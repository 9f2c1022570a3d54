"""Exact arithmetic in a real quadratic field Q(xi).

Every coordinate in this package is an element ``a + b*xi`` of Q(xi),
where ``xi = p + q*sqrt(d)`` is a fixed quadratic irrational (p, q
rational, q != 0, d a squarefree integer >= 2).  Restricting to
quadratic irrationals keeps every comparison, floor, and lattice
membership test exactly decidable with integer arithmetic; no floating
point enters any decision path.  Floats appear only in ``__float__``,
which exists for display purposes.

An ``XiReal`` is the integer radical triple (A, B, D), standing for the
value (A + B*sqrt(d)) / D, with D > 0 and gcd(A, B, D) = 1; ``XiSpec``
keeps xi once as a triple (P, Q, R) of the same kind.  As sqrt(d) is
irrational, a value fixes the rationals A/D and B/D; D > 0 and the gcd
condition then make D their least common denominator, so the triple is
unique and structural equality is value equality.  A sign is one
``pair_sign`` on (A, B), a floor one ``isqrt`` (``floor_key``), and a sum,
product or inverse integer work followed by one gcd.  Points over one
modulus sort and bisect by their floor keys, with ``pair_sign`` only on
equal keys (``sort_pairs``, ``rank_pair``), and sums of fixed steps test
against fixed thresholds by an additive int key that settles every test
but an exact tie (``linear_key``).  ``coordinates`` reads a
value over the basis (1, xi), for ``a``, ``b``, ``coordinates_text`` (the
one spelling of ``str``, for values and witness rows: one gcd per
coefficient, no ``Fraction``) and ``lattice_split``, whose residue names
the value's class modulo Z + Z*xi.  ``decimal_text`` is the one decimal
spelling, of ``XiReal.decimal`` and of profile CSV rows, from the triple.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache, total_ordering
from math import gcd, isqrt
from operator import itemgetter
from typing import Optional, Union

__all__ = [
    "XiMismatchError",
    "XiSpec",
    "XiReal",
    "pair_sign",
    "floor_key",
    "decompose_Z_plus_Zxi",
    "lattice_split",
    "parse_rational",
    "parse_xi",
    "parse_xireal",
]

Rational = Union[int, Fraction]
Exact = Union[int, Fraction, "XiReal"]


def check_exact(name: str, *values: object, field: bool = False) -> None:
    """TypeError naming `name` unless each value is an int or a Fraction, or with
    field=True an XiReal: no float, Decimal or str silently becomes exact."""
    kinds = (int, Fraction, XiReal) if field else (int, Fraction)
    for value in values:
        if not isinstance(value, kinds):
            text = "an int, a Fraction or an XiReal" if field else "an int or a Fraction"
            raise TypeError(f"{name} must be {text}, got {value!r}")


def check_int(**values: object) -> None:
    """TypeError naming the argument unless each value is an int: no float, Fraction or
    str index is truncated, or fails later with an error that names no argument."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {value!r}")


class XiMismatchError(ValueError):
    """Two XiReal values from different ambient fields were combined."""


RADICAND_LIMIT = 10**12  # trial division below stays under about 0.1 s


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (s, core) with n = s*s*core and core squarefree."""
    if not isinstance(n, int):
        raise TypeError(f"radicand must be an int, got {n!r}")
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

    Every exact comparison in the package is this test.  Mixed signs
    compare a^2 against b^2*d, where a tie is impossible unless a = b = 0.
    """
    if a >= 0:
        if b >= 0:
            return 1 if a or b else 0
        return 1 if a * a > b * b * d else -1
    if b <= 0:
        return -1
    return 1 if b * b * d > a * a else -1


def floor_key(a: int, b: int, d: int) -> int:
    """Exact floor of a + b*sqrt(d) for integers a and b, by one ``isqrt``: d is squarefree,
    so b^2*d is no square for b != 0, and with t = isqrt(b^2*d) the value lies strictly
    inside (a + t, a + t + 1) for b > 0 and (a - t - 1, a - t) for b < 0.  The floor of
    (a + b*sqrt(d)) / m for m > 0 is ``floor_key(a, b, d) // m``, as floor(x / m) =
    floor(floor(x) / m): no sign test."""
    t = isqrt(b * b * d)
    return a + t if b >= 0 else a - t - 1


def linear_key(d: int, e: int) -> tuple[int, int]:
    """(one, r) with one = 2^s and r = isqrt(d << 2s) = floor(2^s*sqrt(d)), so that the
    additive key a*one + b*r of integers a, b lies within |b| of 2^s*(a + b*sqrt(d)), and
    exactly on it for b = 0.  2^s >= 2e(2e*(isqrt(d) + 1) + 1) for e >= 1: a value with
    b != 0 has |a + b*sqrt(d)| >= 1/(2|b|*sqrt(d) + 1) (the norm a^2 - b^2*d is a
    nonzero integer), so for |b| <= e a key of at most -e means a value below 0, one of
    at least e a value above 0, and one inside (-e, e) means a = b = 0."""
    s = (2 * e * (2 * e * (isqrt(d) + 1) + 1) - 1).bit_length()
    return 1 << s, isqrt(d << 2 * s)


def sort_pairs(items: list, d: int) -> list:
    """Items (floor_key(a, b, d), (a, b), ...) in the order of a + b*sqrt(d), equal values
    in input order: stably by key, then each run of equal keys stably by ``pair_sign``."""
    items = sorted(items, key=itemgetter(0))
    keys = [item[0] for item in items]
    by_value = cmp_to_key(lambda u, v: pair_sign(u[1][0] - v[1][0], u[1][1] - v[1][1], d))
    end = 0
    for i in [i for i in range(1, len(keys)) if keys[i] == keys[i - 1]]:
        if i > end:  # a run of equal keys from i - 1 on
            end = bisect_right(keys, keys[i], i)
            items[i - 1:end] = sorted(items[i - 1:end], key=by_value)
    return items


def rank_pair(keys: list[int], pts: list, key: int, x: tuple[int, int], d: int) -> int:
    """The number of pts <= x, for pts in ``sort_pairs`` order with floor keys `keys` and
    `key` that of x: a bisection on the keys, then ``pair_sign`` along x's run of them."""
    i = bisect_left(keys, key)
    while i < len(keys) and keys[i] == key and pair_sign(x[0] - pts[i][0], x[1] - pts[i][1], d) >= 0:
        i += 1
    return i


Triple = tuple[int, int, int]  # (A, B, D): the value (A + B*sqrt(d)) / D, D > 0


@dataclass(frozen=True)
class XiSpec:
    """The ambient quadratic irrational xi = p + q*sqrt(d).

    d is reduced to its squarefree core at construction (the extracted
    square factor is folded into q), so equal values always compare equal.
    ``triple`` holds xi once as integers (P, Q, R) with
    xi = (P + Q*sqrt(d)) / R, R > 0 and gcd(P, Q, R) = 1.
    """

    p: Fraction
    q: Fraction
    d: int
    triple: Triple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_exact("p", self.p)
        check_exact("q", self.q)
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
        pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
        g = gcd(pn * qd, qn * pd, pd * qd)
        object.__setattr__(self, "triple", (pn * qd // g, qn * pd // g, pd * qd // g))

    @classmethod
    def sqrt(cls, d: int) -> "XiSpec":
        return cls(Fraction(0), Fraction(1), d)

    def real(self, a: Rational, b: Rational = 0) -> "XiReal":
        """The field element a + b*xi."""
        return XiReal(a, b, self)

    @property
    def zero(self) -> "XiReal":
        return XiReal.from_triple(0, 0, 1, self)

    @property
    def one(self) -> "XiReal":
        return XiReal.from_triple(1, 0, 1, self)

    @property
    def xi_real(self) -> "XiReal":
        """The value xi itself as a field element (0 + 1*xi)."""
        return XiReal.from_triple(*self.triple, self)

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
class XiReal:
    """An exact element a + b*xi of Q(xi), stored as (A + B*sqrt(d)) / D.

    ``XiReal(a, b, xi)`` (or ``xi.real(a, b)``) builds it from rationals and
    ``from_triple`` from integers; ``a``, ``b`` and ``triple`` read it back.
    """

    __slots__ = ("_A", "_B", "_D", "_xi")

    def __init__(self, a: Rational, b: Rational, xi: XiSpec) -> None:
        check_exact("a", a)
        check_exact("b", b)
        a, b = Fraction(a), Fraction(b)
        P, Q, R = xi.triple
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        # a + b*(P + Q*sqrt(d))/R over the denominator ad*bd*R
        self._set(an * bd * R + bn * ad * P, bn * ad * Q, ad * bd * R, xi)

    def _set(self, A: int, B: int, D: int, xi: XiSpec) -> "XiReal":
        g = gcd(A, B, D) if D > 0 else -gcd(A, B, D)
        self._A, self._B, self._D, self._xi = A // g, B // g, D // g, xi
        return self

    @staticmethod
    def from_triple(A: int, B: int, D: int, xi: XiSpec) -> "XiReal":
        """The value (A + B*sqrt(d)) / D for integers A, B and D != 0."""
        return object.__new__(XiReal)._set(A, B, D, xi)

    def __reduce__(self) -> tuple:
        return XiReal.from_triple, (self._A, self._B, self._D, self._xi)

    @property
    def xi(self) -> XiSpec:
        return self._xi

    @property
    def triple(self) -> Triple:
        """(A, B, D) with value (A + B*sqrt(d)) / D, D > 0 and gcd(A, B, D) = 1."""
        return self._A, self._B, self._D

    def coordinates(self) -> tuple[int, int, int]:
        """(na, nb, den) with value (na + nb*xi)/den and den > 0, not reduced."""
        P, Q, R = self._xi.triple  # sqrt(d) = (R*xi - P)/Q
        if Q > 0:
            return self._A * Q - self._B * P, self._B * R, self._D * Q
        return self._B * P - self._A * Q, -self._B * R, -self._D * Q

    @property
    def a(self) -> Fraction:
        """The coefficient of 1 over the basis (1, xi)."""
        na, _, den = self.coordinates()
        return Fraction(na, den)

    @property
    def b(self) -> Fraction:
        """The coefficient of xi over the basis (1, xi)."""
        _, nb, den = self.coordinates()
        return Fraction(nb, den)

    def _coerce(self, other: object) -> Optional[Triple]:
        """The triple of a rational or of an XiReal of the same field, else None."""
        if isinstance(other, XiReal):
            if other._xi is not self._xi and other._xi != self._xi:
                raise XiMismatchError(f"ambient fields differ: {self._xi} vs {other._xi}")
            return other._A, other._B, other._D
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0 or +1."""
        return pair_sign(self._A, self._B, self._xi.d)

    def __bool__(self) -> bool:
        return bool(self._A or self._B)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XiReal):  # values of two fields may share a hash; == must not raise
            return (self._A, self._B, self._D) == (other._A, other._B, other._D) and (
                self._xi is other._xi or self._xi == other._xi
            )
        if isinstance(other, (int, Fraction)):
            return not self._B and self._A == other.numerator and self._D == other.denominator
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A, B, D = o  # the sign of self - other, with no XiReal built for it
        return pair_sign(self._A * D - A * self._D, self._B * D - B * self._D, self._xi.d) < 0

    def __hash__(self) -> int:
        # a rational value equals its int/Fraction, so it must hash like one
        return hash((self._A, self._B, self._D)) if self._B else hash(Fraction(self._A, self._D))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: object) -> "XiReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A, B, D = o
        sd = self._D
        if D == sd:
            return XiReal.from_triple(self._A + A, self._B + B, D, self._xi)
        return XiReal.from_triple(self._A * D + A * sd, self._B * D + B * sd, sd * D, self._xi)

    __radd__ = __add__

    def __neg__(self) -> "XiReal":
        return XiReal.from_triple(-self._A, -self._B, self._D, self._xi)

    def __sub__(self, other: object) -> "XiReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A, B, D = o
        sd = self._D
        if D == sd:
            return XiReal.from_triple(self._A - A, self._B - B, D, self._xi)
        return XiReal.from_triple(self._A * D - A * sd, self._B * D - B * sd, sd * D, self._xi)

    def __rsub__(self, other: object) -> "XiReal":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "XiReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A, B, D = o
        sa, sb, xi = self._A, self._B, self._xi
        return XiReal.from_triple(sa * A + xi.d * sb * B, sa * B + A * sb, self._D * D, xi)

    __rmul__ = __mul__

    def inverse(self) -> "XiReal":
        A, B, D = self._A, self._B, self._D
        # D/(A + B sqrt d) = D*(A - B sqrt d)/nrm, and nrm = 0 only for A = B = 0
        nrm = A * A - B * B * self._xi.d
        if nrm == 0:
            raise ZeroDivisionError("division by zero XiReal")
        return XiReal.from_triple(D * A, -D * B, nrm, self._xi)

    def __truediv__(self, other: object) -> "XiReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * XiReal.from_triple(*o, self._xi).inverse()

    def __rtruediv__(self, other: object) -> "XiReal":
        return self.inverse().__mul__(other)

    def __abs__(self) -> "XiReal":
        return -self if self.sign() < 0 else self

    # -- floor and friends ---------------------------------------------------

    def floor(self) -> int:
        """Exact floor, via integer square roots (no floating point)."""
        return floor_key(self._A, self._B, self._xi.d) // self._D

    __floor__ = floor  # math.floor is exact too: without it, it would round through a float

    def __ceil__(self) -> int:
        return -(floor_key(-self._A, -self._B, self._xi.d) // self._D)

    def fractional_part(self) -> tuple["XiReal", int]:
        """Split into (frac, floor) with value = floor + frac, 0 <= frac < 1."""
        n = self.floor()
        return XiReal.from_triple(self._A - n * self._D, self._B, self._D, self._xi), n

    # -- rendering -----------------------------------------------------------

    def decimal(self, digits: int = 30) -> str:
        """Exact decimal rendering, truncated toward zero after `digits` places."""
        check_int(digits=digits)
        if digits < 0:
            raise ValueError("digits must be >= 0")
        if 0 < sys.get_int_max_str_digits() <= digits:  # else a huge isqrt, then a failing str
            raise ValueError(f"digits must be below sys.get_int_max_str_digits(), got {digits}")
        return decimal_text(self._A, self._B, self._D, self._xi.d, digits, 10**digits)

    def __float__(self) -> float:
        """The value within 1 ulp, from an exact floor of value * 2^s."""
        a, b, m = self._A, self._B, self._D
        d = self._xi.d
        # |a + b*sqrt(d)| >= 1/(|a| + |b|*sqrt(d)) unless a = b = 0, so this s
        # makes |value * 2^s| >= 2^54 and the floor costs under 2^-54 relative
        s = 54 + m.bit_length() + (abs(a) + abs(b) * (isqrt(d) + 1)).bit_length()
        return floor_key(a << s, b << s, d) // m / (1 << s)

    def __str__(self) -> str:
        return coordinates_text(*self.coordinates())

    def __repr__(self) -> str:
        return f"XiReal({self}, xi={self.xi})"


def decimal_text(A: int, B: int, D: int, d: int, digits: int, scale: int) -> str:
    """The decimal of (A + B*sqrt(d)) / D, D > 0, truncated toward zero after `digits`
    places, with scale = 10**digits: ``XiReal.decimal`` less its checks of `digits`, which
    the caller makes."""
    A, B = A * scale, B * scale
    scaled = floor_key(A, B, d) // D  # its sign is the value's
    if neg := scaled < 0:  # truncate toward zero: the floor plus 1, unless the value is exact
        scaled = -scaled if not B and A % D == 0 else -scaled - 1
    s = str(scaled).rjust(digits + 1, "0")
    out = f"{s[:-digits]}.{s[-digits:]}" if digits else s
    return "-" + out if neg else out


def coordinates_text(na: int, nb: int, den: int) -> str:
    """The text of (na + nb*xi)/den, den > 0: ``str`` of the XiReal, int or Fraction."""
    if not nb:
        return _ratio_text(na, den)
    head = _ratio_text(na, den) if na else ""
    sgn = "-" if nb < 0 else ("+" if head else "")
    return f"{head}{sgn}{_ratio_text(abs(nb), den)}*xi"


def _ratio_text(n: int, m: int) -> str:
    """``str(Fraction(n, m))`` for m > 0, by one gcd and with no Fraction built."""
    g = gcd(n, m)
    return str(n // g) if m == g else f"{n // g}/{m // g}"


# -- lattice membership ---------------------------------------------------------


def lattice_split(u: XiReal) -> tuple[tuple[int, int, int], int, int]:
    """(residue, k, m) with u = residue + k*xi + m for integers k and m.

    The residue is the reduced triple (ra, rb, den), standing for
    (ra + rb*xi)/den with 0 <= ra, rb < den and gcd(ra, rb, den) = 1.  As
    xi is irrational it is unique, so it names u's class modulo Z + Z*xi.
    """
    na, nb, den = u.coordinates()
    m, ra = divmod(na, den)
    k, rb = divmod(nb, den)
    g = gcd(ra, rb, den)
    return (ra // g, rb // g, den // g), k, m


def decompose_Z_plus_Zxi(u: XiReal) -> Optional[tuple[int, int]]:
    """Return (k, m) with u = k*xi + m when both exist in Z, else None."""
    (ra, rb, _), k, m = lattice_split(u)
    return None if ra or rb else (k, m)


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


@lru_cache(maxsize=64)  # XiSpec is frozen: one parse per text, as each witness CSV header repeats it
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
