"""Seeded inputs for the three workloads, built apart from the program.

Every window is constructed from exact Fraction pairs (a, b) = a + b*xi
and ordered in floats, with spacings far above float error.  The
construction records what the checks need to know without asking
``cutproject``: the sorted endpoints, the boundary class of every
endpoint, the verdict and, for bounded windows, the integers k_l of an
Oren pairing b_sigma(l) - a_l = k_l*xi + m_l.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from math import floor, sqrt
from typing import Optional

Pair = tuple[Q, Q]


@dataclass(frozen=True)
class Field:
    """Q(xi) for xi = p + q*sqrt(d), d squarefree and >= 2."""

    p: Q
    q: Q
    d: int

    def float(self, v: Pair) -> float:
        """Float value of v = a + b*xi; used only to order and space inputs."""
        return float(v[0]) + float(v[1]) * (float(self.p) + float(self.q) * sqrt(self.d))


GOLDEN = Field(Q(1, 2), Q(1, 2), 5)
SQRT2 = Field(Q(0), Q(1), 2)
SQRT3 = Field(Q(0), Q(1), 3)
SEPT = Field(Q(-1, 3), Q(2, 3), 7)
FIELDS = (GOLDEN, SQRT2, SQRT3, SEPT)

N_SCAN = 10**6  # scan length of every scan-backed call (fixed by the roadmap)
ANCHOR_LO, ANCHOR_HI = 64, 4096  # pattern anchors and cochain ranges lie here
OFFSET_BOUND = 64
PRIMES = (1009, 2003, 3001, 4001, 5003, 6007, 7001, 8009, 9001, 9973)


@dataclass(frozen=True)
class SysSpec:
    """A rotation system as the benchmark built it."""

    name: str
    field: Field
    base: Pair
    intervals: tuple[tuple[Pair, Pair], ...]  # sorted, disjoint, not adjacent
    verdict: str  # "bounded" | "unbounded", known from the construction
    ks: Optional[tuple[int, ...]] = None  # Oren pairing integers, if bounded
    n_classes: int = 0

    def hull(self) -> tuple[tuple[Pair, Pair], ...]:
        return ((self.intervals[0][0], self.intervals[-1][1]),)

    def length(self) -> Pair:
        a = sum((hi[0] - lo[0] for lo, hi in self.intervals), Q(0))
        b = sum((hi[1] - lo[1] for lo, hi in self.intervals), Q(0))
        return (a, b)

    def endpoints(self) -> tuple[Pair, ...]:
        return tuple(e for iv in self.intervals for e in iv)


def program_system(spec: SysSpec):
    """The cutproject RotationSystem for a SysSpec."""
    from cutproject.exactnum import XiSpec
    from cutproject.patterns import RotationSystem

    xi = XiSpec(spec.field.p, spec.field.q, spec.field.d)
    return RotationSystem(xi, xi.real(*spec.base), program_window(xi, spec.intervals))


def program_window(xi, intervals):
    from cutproject.patterns import Window

    return Window([(xi.real(*lo), xi.real(*hi)) for lo, hi in intervals])


# -- helpers -------------------------------------------------------------------


def _frac(f: Field, v: Pair) -> Pair:
    """v reduced mod 1, for a small v that is not within 1e-9 of an integer."""
    x = f.float(v)
    n = floor(x)
    if min(x - n, n + 1 - x) < 1e-9:
        raise ValueError(f"{v} is too close to an integer to reduce in floats")
    return (v[0] - n, v[1])


def _rat(rng: random.Random, lo: float, hi: float, den: int) -> Q:
    return Q(rng.randrange(int(lo * den) + 1, int(hi * den)), den)


def _add(u: Pair, v: Pair) -> Pair:
    return (u[0] + v[0], u[1] + v[1])


# -- the scan systems (golden ratio) ----------------------------------------------
#
# The scanner's cost per index depends on where the window sits (a point
# below an interval fails one comparison, a point above it two), so the
# seed moves window positions within 0.01 or 0.02 only; the basepoints,
# which equidistribution makes irrelevant to the cost, vary freely.


def kesten(rng: random.Random, base: Optional[Pair] = None, name: str = "long") -> SysSpec:
    """[c, c + frac(xi)): length xi - 1, Kesten-bounded with k = 1."""
    c = _rat(rng, 0.10, 0.12, rng.choice(PRIMES))
    base = base or (_rat(rng, 0.0, 1.0, rng.choice(PRIMES)), Q(0))
    return SysSpec(
        name, GOLDEN, base, (((c, Q(0)), (c - 1, Q(1))),), "bounded", (1,), 1
    )


def three(rng: random.Random) -> SysSpec:
    """Three golden-ratio intervals with an Oren pairing that crosses.

    [a1, b1), [a2, b2), [a3, b3) with b2 - a1 = 4*xi - 6,
    b1 - a2 = -(5*xi - 8) and b3 - a3 = 2*xi - 3; total length xi - 1.
    """
    den = rng.choice(PRIMES)
    a1 = (_rat(rng, 0.04, 0.05, den), Q(0))
    b1 = _add(a1, (_rat(rng, 0.15, 0.16, den), Q(0)))
    a2 = _add(b1, (Q(-8), Q(5)))
    b2 = _add(a1, (Q(-6), Q(4)))
    a3 = _add(b2, (_rat(rng, 0.05, 0.06, den), Q(0)))
    b3 = _add(a3, (Q(-3), Q(2)))
    base = (_rat(rng, 0.0, 1.0, rng.choice(PRIMES)), Q(0))
    # a1 ~ b2 share a class, a2 ~ b1 another, a3 ~ b3 a third
    return SysSpec("three", GOLDEN, base, ((a1, b1), (a2, b2), (a3, b3)), "bounded", (4, -5, 2), 3)


def rational(rng: random.Random, length: Q, name: str) -> SysSpec:
    """[c, c + length) with a rational length: Kesten's condition fails."""
    c = _rat(rng, 0.30, 0.32, rng.choice(PRIMES))
    base = (_rat(rng, 0.0, 1.0, rng.choice(PRIMES)), Q(0))
    return SysSpec(name, GOLDEN, base, (((c, Q(0)), (c + length, Q(0))),), "unbounded", None, 2)


def big_base(rng: random.Random) -> Pair:
    """A basepoint whose components share a denominator of 60 digits."""
    den = rng.randrange(10**59, 10**60) | 1
    return (Q(rng.randrange(den), den), Q(rng.randrange(den), den))


def enumerate_systems(seed: int) -> list[SysSpec]:
    rng = random.Random(f"enumerate:{seed}")
    return [
        kesten(rng),
        three(rng),
        rational(rng, Q(1, 64), "short"),
        kesten(rng, big_base(rng), "big"),
    ]


def discrepancy_systems(seed: int) -> list[SysSpec]:
    rng = random.Random(f"discrepancy:{seed}")
    return [
        kesten(rng),
        three(rng),
        rational(rng, Q(1, 2), "unbounded"),
        kesten(rng, big_base(rng), "big"),
    ]


# -- windows with a known verdict ---------------------------------------------------


def class_window(rng: random.Random, f: Field, n_iv: int, bounded: bool) -> SysSpec:
    """A window of n_iv intervals whose endpoints come in built classes.

    Each class is a residue r = n/P mod 1 (distinct n, so no two classes
    are congruent modulo Z + Z*xi) holding the pair u = frac(r + s*xi),
    v = frac(u + k*xi); one class in three of a window with more than two
    intervals holds two such pairs.  The sorted endpoints alternate left
    and right, so the window is bounded exactly when every class holds as
    many left as right endpoints (Oren); draws are repeated until that
    agrees with `bounded`.
    """
    den = rng.choice(PRIMES)
    while True:
        n_pairs = n_iv
        residues = rng.sample(range(1, den), n_pairs)
        if n_iv > 2 and rng.random() < 1 / 3:
            residues[-1] = residues[0]
        points: list[tuple[float, Pair, int, int]] = []  # (value, pair, class, k)
        for r in residues:
            u = _frac(f, (Q(r, den), Q(rng.randrange(-3, 4))))
            k = rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6))
            v = _frac(f, (u[0], u[1] + k))
            points.append((f.float(u), u, r, k))
            points.append((f.float(v), v, r, -k))
        points.sort(key=lambda t: t[0])
        vals = [t[0] for t in points]
        if vals[0] < 1e-6 or vals[-1] > 1 - 1e-6:
            continue
        if min(b - a for a, b in zip(vals, vals[1:])) < 1e-6:
            continue
        balance: dict[int, int] = {}
        for i, (_, _, cls, _) in enumerate(points):
            balance[cls] = balance.get(cls, 0) + (1 if i % 2 == 0 else -1)
        if all(v == 0 for v in balance.values()) != bounded:
            continue
        ivs = tuple((points[i][1], points[i + 1][1]) for i in range(0, len(points), 2))
        return SysSpec(
            f"w{n_iv}",
            f,
            (Q(0), Q(0)),
            ivs,
            "bounded" if bounded else "unbounded",
            None,
            len(balance),
        )


# -- the exact workload -------------------------------------------------------------


@dataclass(frozen=True)
class PointSet:
    system: int  # index into the pattern systems
    field: Field
    density: Pair
    points: tuple[int, ...]


def exact_fixed(seed: int):
    """Inputs shared by every round: verdict windows, pattern systems, point sets.

    The pattern systems' windows, and with them the witness densities, do
    not depend on the seed: the cost of an acceptance domain or a witness
    row depends on their shape, and a seed should change the inputs, not
    the amount of work.  Basepoints, patterns, point jitter and the
    verdict windows come from the seed.
    """
    rng = random.Random(f"exact:{seed}")
    windows = []
    for f in FIELDS:
        for n_iv in (2, 3, 4, 5, 2, 3, 4, 5):
            for bounded in (True, False):
                windows.append(class_window(rng, f, n_iv, bounded))
    shapes = random.Random("exact:pattern-windows")
    systems = []
    for f in FIELDS:
        w = class_window(shapes, f, 3, True)
        base = (_rat(rng, 0.0, 1.0, rng.choice(PRIMES)), Q(rng.randrange(-2, 3)))
        systems.append(SysSpec(f"pat{f.d}", f, base, w.intervals, w.verdict, None, w.n_classes))
    point_sets = []
    for sys_i, spec in enumerate(systems):
        dens = spec.length()
        step = 1 / spec.field.float(dens)
        jitter = min(0.5, 0.9 * (step - 1))  # keeps the points strictly increasing
        for _ in range(WITNESS_SETS):
            pts = tuple(int(i * step + rng.random() * jitter) for i in range(WITNESS_POINTS))
            point_sets.append(PointSet(sys_i, spec.field, dens, pts))
    return windows, systems, point_sets


# Several small witnesses per system, so that each kind of call is timed
# several times per round.
WITNESS_SETS = 4
WITNESS_POINTS = 150
PATTERNS_PER_SYSTEM = 24
COCHAINS_PER_SYSTEM = 2


@dataclass(frozen=True)
class Pattern:
    system: int  # index into the pattern systems
    required: frozenset[int]
    forbidden: frozenset[int]


@dataclass(frozen=True)
class CochainSpec:
    system: int
    terms: tuple[tuple[Q, Pattern], ...]
    interval: tuple[Q, Q]


def _pattern(rng: random.Random, system: int) -> Pattern:
    """Four offsets besides the anchor, each required or forbidden."""
    offs = rng.sample([o for o in range(-OFFSET_BOUND, OFFSET_BOUND + 1) if o], 4)
    n_req = rng.randrange(0, len(offs) + 1)
    return Pattern(system, frozenset([0, *offs[:n_req]]), frozenset(offs[n_req:]))


def exact_round(seed: int, r: int, n_systems: int, seen: set) -> tuple[list, list]:
    """Round r's patterns and cochains; no (system, pattern) pair repeats in a run."""
    rng = random.Random(f"exact:{seed}:round:{r}")

    def fresh(system: int) -> Pattern:
        while True:
            p = _pattern(rng, system)
            if p not in seen:
                seen.add(p)
                return p

    patterns = [fresh(s) for s in range(n_systems) for _ in range(PATTERNS_PER_SYSTEM)]
    cochains = []
    for s in range(n_systems):
        for _ in range(COCHAINS_PER_SYSTEM):
            terms = tuple((Q(rng.randrange(-9, 10) or 1, rng.randrange(1, 5)), fresh(s)) for _ in range(2))
            x0 = Q(rng.randrange(ANCHOR_LO * 4, 2000 * 4), 4)
            cochains.append(CochainSpec(s, terms, (x0, x0 + rng.randrange(400, 1200))))
    return patterns, cochains
