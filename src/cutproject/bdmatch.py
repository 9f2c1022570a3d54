"""Bounded-displacement matchings between point sets and reference lattices.

A point set of density delta is compared against the lattice
(1/delta)*Z: the monotone matching sends the i-th point (in sorted
order) to the lattice point (i + offset)/delta, with the integer offset
chosen to minimize the largest displacement.  On the line the monotone
matching is optimal for the sup cost among all bijections to the same
lattice points (uncrossing an inversion never increases the maximum),
which optimality_check verifies by brute force on small instances.

A witness is always relative to the finite range it was built from;
infinite boundedness claims come from the exact window criteria, never
from here.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd
from typing import IO, Iterable, Iterator, Optional, Union

from .exactnum import (Exact, XiMismatchError, XiReal, XiSpec, check_exact, check_int,
                       coordinates_text, linear_key, parse_xi, parse_xireal)
from .patterns import PointPattern

__all__ = ["EmptyPattern", "MatchingWitness", "build_witness", "optimality_check"]


class EmptyPattern(ValueError):
    """A matching witness needs at least two points."""


@dataclass(frozen=True)
class MatchingWitness:
    """Monotone matching y_i <-> (i + offset)/delta with its sup displacement.

    Needs at least two strictly increasing points and delta > 0; an int
    delta is kept as a Fraction, so that every division stays exact.
    """

    delta: Exact
    offset: int
    sup_displacement: Exact
    points: tuple[Exact, ...]

    def __post_init__(self) -> None:
        check_exact("delta", self.delta, field=True)
        check_int(offset=self.offset)
        pts = self.points
        if not self._int_points:
            check_exact("a point", *pts, field=True)
        if len(pts) < 2:
            raise EmptyPattern(f"need at least 2 points, got {len(pts)}")
        if not all(map(operator.lt, pts, islice(pts, 1, None))):
            raise ValueError("points must be strictly increasing")
        if isinstance(self.delta, int):
            object.__setattr__(self, "delta", Fraction(self.delta))
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if isinstance(self.sup_displacement, (type(None), float, complex, str)):
            raise TypeError(f"sup_displacement must be exact, got {self.sup_displacement!r}")

    @cached_property
    def _int_points(self) -> bool:
        """Whether every point is an int, as a ``PointPattern``'s are: one pass a witness."""
        return set(map(type, self.points)) <= {int}

    @cached_property
    def _spacing(self) -> Exact:
        return Fraction(1) / self.delta  # one exact inversion, not one per row

    def lattice_point(self, i: int) -> Exact:
        return (i + self.offset) * self._spacing

    def pairs(self) -> Iterator[tuple[Exact, Exact, Exact]]:
        """Yield (point, matched lattice point, signed displacement)."""
        for i, y in enumerate(self.points):
            lat = self.lattice_point(i)
            yield y, lat, y - lat

    def recompute_sup(self) -> Exact:
        """max |displacement|: the displacements are (r_i - offset)/delta (build_witness)."""
        r_lo, r_hi = _residue_extrema(self.points, self.delta, self._int_points)
        return max(r_hi - self.offset, self.offset - r_lo) / self.delta

    def to_csv(self, fp: IO[str]) -> None:
        """Rows spelled from the integer coordinates over (1, xi) of y, of i + offset and
        of 1/delta: no XiReal or Fraction is built per row.  The points of a ``PointPattern``
        are always ints, and int points take a loop of their own that spells as
        ``coordinates_text`` does: with 1/delta = (sa + sb*xi)/sd and k = i + offset, the
        lattice point is (la + lb*xi)/sd and the displacement (y*sd - la - lb*xi)/sd for
        la = k*sa and lb = k*sb, so they share gcd(la, sd) and, up to sign, the xi-part:
        two gcds a row, not five."""
        ints = self._int_points
        values = (self.delta, self.sup_displacement, *(() if ints else self.points))
        xis = {v.xi for v in values if isinstance(v, XiReal)}
        if len(xis) > 1:
            raise XiMismatchError(f"witness values from {len(xis)} fields: {', '.join(map(str, xis))}")
        lines = [f"# xi = {xi}" for xi in xis]
        lines += [f"# delta = {self.delta}", f"# offset = {self.offset}",
                  f"# sup_displacement = {self.sup_displacement}", "y,lattice_point,displacement"]
        sa, sb, sd = _coordinates(self._spacing)
        if ints:
            for k, y in enumerate(self.points, self.offset):
                la, lb = k * sa, k * sb  # the lattice point (la + lb*xi)/sd
                na = y * sd - la  # the displacement (na - lb*xi)/sd
                g = gcd(la, sd)  # = gcd(na, sd)
                den = "" if g == sd else f"/{sd // g}"
                lat, disp = f"{la // g}{den}", f"{na // g}{den}"
                if lb:  # the text of |lb|/sd serves both; as coordinates_text, no "+" leads
                    g = gcd(lb, sd)
                    tb = f"{abs(lb) // g}*xi" if g == sd else f"{abs(lb) // g}/{sd // g}*xi"
                    if lb > 0:
                        lat, disp = f"{lat}+{tb}" if la else tb, f"{disp}-{tb}" if na else f"-{tb}"
                    else:
                        lat, disp = f"{lat}-{tb}" if la else f"-{tb}", f"{disp}+{tb}" if na else tb
                lines.append(f"{y},{lat},{disp}")
        else:
            for k, y in enumerate(self.points, self.offset):
                ya, yb, yd = _coordinates(y)
                la, lb = k * sa, k * sb
                disp = coordinates_text(ya * sd - la * yd, yb * sd - lb * yd, yd * sd)
                lines.append(f"{coordinates_text(ya, yb, yd)},{coordinates_text(la, lb, sd)},{disp}")
        fp.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, fp: IO[str]) -> "MatchingWitness":
        """The witness of a ``to_csv`` text, refused unless its sup recomputes.  A y column
        of plain ints, as every ``PointPattern`` writes, is parsed by one ``int`` each."""
        header: dict[str, str] = {}
        ys: list[str] = []
        for line in map(str.strip, fp.readlines()):  # the lines iterating fp yields, in one call
            if not line or line == "y,lattice_point,displacement":
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = val.strip()
            else:
                ys.append(line.split(",", 1)[0])
        if not {"delta", "offset", "sup_displacement"} <= header.keys():
            raise ValueError("witness CSV is missing its header lines")
        xi = parse_xi(header["xi"]) if "xi" in header else None
        delta = _parse_exact(header["delta"], xi)
        offset = int(header["offset"])
        sup = _parse_exact(header["sup_displacement"], xi)
        if _INT_ROWS_RE.fullmatch("\n".join(ys)):  # each y matches _INT_RE: no y holds a "\n"
            points = tuple(map(int, ys))
        else:
            points = tuple(_parse_exact(y, xi) for y in ys)
        witness = cls(delta, offset, sup, points)
        if witness.recompute_sup() != witness.sup_displacement:
            raise ValueError("witness CSV sup_displacement does not recompute")
        return witness


_INT = r"[+-]?\d+"
_INT_RE = re.compile(_INT)
_INT_ROWS_RE = re.compile(rf"{_INT}(?:\n{_INT})*")


def _parse_exact(text: str, xi: Optional[XiSpec]) -> Exact:
    if _INT_RE.fullmatch(text):
        return int(text)
    if "xi" in text:
        if xi is None:
            raise ValueError(f"value {text!r} needs an `# xi = ...` header")
        return parse_xireal(text, xi)
    return Fraction(text)


def _coordinates(v: Exact) -> tuple[int, int, int]:
    """(na, nb, den) with v = (na + nb*xi)/den and den > 0."""
    return v.coordinates() if isinstance(v, XiReal) else (v.numerator, 0, v.denominator)


def _residue_extrema(
    points: tuple[Exact, ...], delta: Exact, all_int: bool
) -> tuple[Exact, Exact]:
    """Exact (min, max) of r_i = y_i*delta - i over the sorted points; `all_int` if all are ints.

    For int points and delta = (a + b*sqrt(d))/m, m*r_i is the pair (y_i*a - i*m, y_i*b),
    whose additive key (``linear_key``) is y_i*(a*one + b*r) - i*m*one.  Two residues differ
    by a pair whose sqrt(d) part is at most e = (max y - min y)*|b|, so for the keys of
    ``linear_key(d, max(1, e))`` a greater residue has a greater key, and equal keys mean
    equal residues: the extremes are the points of the least and the greatest key.
    """
    if all_int and isinstance(delta, XiReal):
        a, b, m = delta.triple
        one, r = linear_key(delta.xi.d, max(1, (points[-1] - points[0]) * abs(b)))
        ka, km = a * one + b * r, m * one  # the keys of (a, b) and (m, 0)
        keys = [y * ka - i * km for i, y in enumerate(points)]
        return tuple(XiReal.from_triple(points[i] * a - i * m, points[i] * b, m, delta.xi)
                     for i in (keys.index(min(keys)), keys.index(max(keys))))
    if all_int and isinstance(delta, (int, Fraction)):
        num, den = delta.numerator, delta.denominator
        cands = [y * num - i * den for i, y in enumerate(points)]
        return Fraction(min(cands), den), Fraction(max(cands), den)
    residues = [y * delta - i for i, y in enumerate(points)]
    return min(residues), max(residues)


def build_witness(
    points: Union[PointPattern, Iterable[Exact]], delta: Exact
) -> MatchingWitness:
    """Monotone matching to the lattice (1/delta)*Z with optimal integer offset.

    The displacement of point i is (r_i - offset)/delta with
    r_i = y_i*delta - i, so the optimal offset is an integer nearest to
    (min r + max r)/2, the lower on a tie: one exact ceiling of (min r + max r - 1)/2.
    """
    pts = points.points if isinstance(points, PointPattern) else tuple(points)
    witness = MatchingWitness(delta, 0, 0, pts)  # checks the points and delta, once
    r_lo, r_hi = _residue_extrema(pts, witness.delta, witness._int_points)
    c = math.ceil((r_lo + r_hi - 1) / 2)
    # set in place on the new witness: replace() would check every point again
    object.__setattr__(witness, "offset", c)
    object.__setattr__(witness, "sup_displacement", max(r_hi - c, c - r_lo) / witness.delta)
    return witness


def optimality_check(points: Union[PointPattern, Iterable[Exact]], delta: Exact) -> bool:
    """True iff no bijection to the same lattice points beats the monotone one.

    Brute force over permutations (depth-first with sup-cost pruning);
    capped at 12 points.
    """
    witness = build_witness(points, delta)
    n = len(witness.points)
    if n > 12:
        raise ValueError(f"optimality_check is capped at 12 points, got {n}")
    lattice = [witness.lattice_point(i) for i in range(n)]
    sup = witness.sup_displacement
    used = [False] * n

    def beats(i: int) -> bool:
        if i == n:
            return True
        y = witness.points[i]
        for j in range(n):
            if used[j]:
                continue
            if abs(y - lattice[j]) < sup:
                used[j] = True
                if beats(i + 1):
                    return True
                used[j] = False
        return False

    return not beats(0)
