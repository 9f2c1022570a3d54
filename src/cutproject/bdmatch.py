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
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import IO, Iterable, Iterator, Optional, Union

from .exactnum import XiReal, XiSpec, pair_sign, parse_xi, parse_xireal
from .patterns import PointPattern

__all__ = ["EmptyPattern", "MatchingWitness", "build_witness", "optimality_check"]

Exact = Union[int, Fraction, XiReal]


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
        if len(self.points) < 2:
            raise EmptyPattern(f"need at least 2 points, got {len(self.points)}")
        if not all(u < v for u, v in zip(self.points, self.points[1:])):
            raise ValueError("points must be strictly increasing")
        if isinstance(self.delta, int):
            object.__setattr__(self, "delta", Fraction(self.delta))
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if isinstance(self.sup_displacement, (type(None), float, complex, str)):
            raise TypeError(f"sup_displacement must be exact, got {self.sup_displacement!r}")

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
        r_lo, r_hi = _residue_extrema(self.points, self.delta)
        return max(r_hi - self.offset, self.offset - r_lo) / self.delta

    def to_csv(self, fp: IO[str]) -> None:
        if isinstance(self.delta, XiReal):
            fp.write(f"# xi = {self.delta.xi}\n")
        fp.write(f"# delta = {self.delta}\n")
        fp.write(f"# offset = {self.offset}\n")
        fp.write(f"# sup_displacement = {self.sup_displacement}\n")
        fp.write("y,lattice_point,displacement\n")
        for y, lat, disp in self.pairs():
            fp.write(f"{y},{lat},{disp}\n")

    @classmethod
    def from_csv(cls, fp: IO[str]) -> "MatchingWitness":
        header: dict[str, str] = {}
        ys: list[str] = []
        for line in fp:
            line = line.strip()
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
        witness = cls(
            delta=_parse_exact(header["delta"], xi),
            offset=int(header["offset"]),
            sup_displacement=_parse_exact(header["sup_displacement"], xi),
            points=tuple(_parse_exact(y, xi) for y in ys),
        )
        if witness.recompute_sup() != witness.sup_displacement:
            raise ValueError("witness CSV sup_displacement does not recompute")
        return witness


_INT_RE = re.compile(r"[+-]?\d+")


def _parse_exact(text: str, xi: Optional[XiSpec]) -> Exact:
    if _INT_RE.fullmatch(text):
        return int(text)
    if "xi" in text:
        if xi is None:
            raise ValueError(f"value {text!r} needs an `# xi = ...` header")
        return parse_xireal(text, xi)
    return Fraction(text)


def _residue_extrema(points: tuple[Exact, ...], delta: Exact) -> tuple[Exact, Exact]:
    """Exact (min, max) of r_i = y_i*delta - i over the sorted points."""
    all_int = all(isinstance(y, int) for y in points)
    if all_int and isinstance(delta, XiReal):
        a, b, m = delta.triple
        d = delta.xi.d
        lo = hi = (points[0] * a, points[0] * b)
        for i, y in enumerate(points[1:], 1):
            cand = (y * a - i * m, y * b)
            if pair_sign(cand[0] - hi[0], cand[1] - hi[1], d) > 0:
                hi = cand
            elif pair_sign(cand[0] - lo[0], cand[1] - lo[1], d) < 0:
                lo = cand
        return XiReal.from_triple(*lo, m, delta.xi), XiReal.from_triple(*hi, m, delta.xi)
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
    (min r + max r)/2; both rounding candidates are compared exactly.
    """
    pts = points.points if isinstance(points, PointPattern) else tuple(points)
    trial = MatchingWitness(delta, 0, 0, pts)  # checks the points and delta
    r_lo, r_hi = _residue_extrema(pts, trial.delta)
    c0 = math.floor((r_lo + r_hi) / 2)
    c = min((c0, c0 + 1), key=lambda o: max(r_hi - o, o - r_lo))  # c0 on a tie
    return replace(trial, offset=c, sup_displacement=max(r_hi - c, c - r_lo) / trial.delta)


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
