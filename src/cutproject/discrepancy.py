"""Discrepancy measurement: interval counts vs. density, growth profiles.

The local discrepancy of a rotation system is D(N) = hits over
0 <= k <= N minus N*Length(window) (``patterns.local_discrepancy``).
A window with an Oren matching reads it off the Kesten/Oren coboundary,
D(N) = len + G(y_{-1}) - G(y_N), by floor sums over the |kappa_l| terms
of G; any other window counts its hits by floor sums over the N + 1
iterates.  A pattern or point set Y is measured against a density delta
by |#(Y in I) - delta*Length(I)|.
Profiles track |D| exactly over 0 <= N <= n_max, retaining the running
maxima at decade boundaries (N <= 10^j) plus a logarithmically spaced
trace.  A window with an Oren matching takes the closed form of the
Kesten/Oren coboundary and merges the orbit's record events near the
teeth of its transfer function; an empty or unbounded window takes the
block tables of a Rauzy induction, O(log n) table lookups per sample.
Neither steps the orbit, so every profile is exact at any n_max.  All
stored values are exact field elements compared by exact sign tests;
decimal output is rendering only.

The empirical boundedness verdict derived from a profile is evidence,
never proof: the exact verdict comes from the boundary-class criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import IO, Optional, Sequence, Union

from . import _scaled
from .acceptance import PatternSpec, acceptance_domain, pattern_density
from .exactnum import Exact, XiReal, check_exact, check_int, coordinates_text, decimal_text
from .patterns import PointPattern, RotationSystem

__all__ = [
    "TooFewPoints",
    "ProfileSample",
    "DiscrepancyProfile",
    "DensityEstimate",
    "Cochain",
    "profile",
    "disc",
    "estimate_density",
    "cochain_discrepancy",
]


class TooFewPoints(ValueError):
    """Not enough points for a meaningful density estimate."""


@dataclass(frozen=True)
class ProfileSample:
    n: int
    value: XiReal  # signed D(n)
    running_sup: XiReal  # max |D| over all N <= n


@dataclass(frozen=True)
class DiscrepancyProfile:
    """Evidence object for a boundedness scan of one rotation system."""

    system: RotationSystem
    n_max: int
    samples: tuple[ProfileSample, ...]
    decade_maxima: tuple[tuple[int, XiReal], ...]  # (10^j or n_max, sup |D|)
    sup_seen: XiReal

    def decade_values(self) -> list[XiReal]:
        """Maxima at true powers of ten, in increasing decade order."""
        return [v for n, v in self.decade_maxima if _is_pow10(n)]

    # Verdict thresholds (exact rationals, engineering choices).  A bounded
    # system's running sup usually keeps creeping toward a supremum it never
    # attains, so literal constancy of exact maxima is the wrong test; the
    # creep past N = 10^3 is tiny, while genuine unbounded growth adds a
    # macroscopic amount per decade.
    FLAT_SLACK = Fraction(1, 16)
    GROW_STEP = Fraction(1, 4)

    def verdict(self) -> str:
        """Heuristic growth classification of |D|.

        With m_j = sup |D| over N <= 10^j (j = 2..J):
          - "bounded-consistent"   if J >= 4 and m_J - m_3 < FLAT_SLACK,
          - "unbounded-consistent" if at least 2 of the last min(3, J-2)
            decade increments are >= GROW_STEP,
          - "inconclusive" otherwise.
        All comparisons are exact.  This is evidence, never proof; the
        exact verdict comes from the boundary-class criteria.
        """
        decs = self.decade_values()
        if len(decs) < 3:  # need at least 10^2..10^4
            return "inconclusive"
        if (decs[-1] - decs[1] - self.FLAT_SLACK).sign() < 0:
            return "bounded-consistent"
        window = min(3, len(decs) - 1)
        rises = sum(
            1
            for a, b in zip(decs[-window - 1 :], decs[-window:])
            if (b - a - self.GROW_STEP).sign() >= 0
        )
        if rises >= 2:
            return "unbounded-consistent"
        return "inconclusive"

    def to_csv(self, fp: IO[str]) -> None:
        """Write the header and one row per sample in one ``write``: each value spelled
        from its triple and coordinates as ``XiReal.decimal(30)`` and ``str`` do."""
        system = self.system
        d, scale = system.xi.d, 10**30
        lines = [
            f"# xi = {system.xi}\n# basepoint = {system.basepoint}\n# window = {system.window}\n"
            f"# n_max = {self.n_max}\nN,D_signed,absD,decade_max,D_signed_exact,decade_max_exact\n"
        ]
        sup = None
        for s in self.samples:
            if s.running_sup != sup:  # the running sup changes on few rows: spell it once
                sup = s.running_sup
                sup_dec = decimal_text(*sup.triple, d, 30, scale)
                sup_str = coordinates_text(*sup.coordinates())
            v = s.value
            dec = decimal_text(*v.triple, d, 30, scale)  # truncated toward zero: |D| drops the '-'
            v_str = coordinates_text(*v.coordinates())
            lines.append(f"{s.n},{dec},{dec.lstrip('-')},{sup_dec},{v_str},{sup_str}\n")
        fp.write("".join(lines))


def _is_pow10(n: int) -> bool:
    while n % 10 == 0 and n > 1:
        n //= 10
    return n == 1


@lru_cache(maxsize=8)  # smaller than a profile's rows: 8 take 1.7 MiB at the default trace, 10^100
def _record_points(n_max: int, trace_limit: int) -> tuple[int, ...]:
    """Deterministic sample schedule: decades, n_max, and a log-spaced walk."""
    mandatory = {0, n_max}
    j = 100
    while j <= n_max:
        mandatory.add(j)
        j *= 10
    shift = 6
    while True:
        recs = set(mandatory)
        n = 1
        # a walk past trace_limit is rejected: stop it there, unless it is the last
        while n < n_max and (len(recs) <= trace_limit or shift == 0):
            recs.add(n)
            n += max(1, n >> shift)
        if len(recs) <= trace_limit or shift == 0:
            return tuple(sorted(recs))
        shift -= 1


def profile(
    system: RotationSystem,
    n_max: int,
    *,
    trace_limit: int = 4096,
    workers: int = 1,
) -> DiscrepancyProfile:
    """Exact |D| profile over 0 <= N <= n_max, on one of two routes.

    A window with an Oren matching (``criteria.oren_condition``, read once
    per system as ``RotationSystem._oren_ks``) takes the closed form
    D(N) = C - G(y_N) and follows the records of the orbit near each tooth
    of G (``_scaled.closed_form_rows``).  An empty or
    unbounded window takes block tables: the rotation induced on the
    intervals of the Euclid walk, with the summary of each return block,
    and O(log n) lookups per sample (``_scaled.table_rows``).  Neither
    route scans, so the profile is exact at any n_max.  ``workers`` has no
    effect (kept for callers).  ``trace_limit`` >= 1 is soft: the decades,
    n_max and a doubling walk are always sampled.  The sample schedule is
    cached per (n_max, trace_limit).
    """
    check_int(n_max=n_max, trace_limit=trace_limit)
    if n_max < 100:
        raise ValueError("n_max must be >= 100")
    if trace_limit < 1:
        raise ValueError("trace_limit must be >= 1")
    system.guard_singular(0, n_max)
    ss = system._scaled
    records = _record_points(n_max, trace_limit)
    kappas = system._oren_ks
    if kappas is None:
        rows, levels = _scaled.table_rows(ss, records)
        _scaled.debug(
            __name__, "profile n_max=%d: block tables, %d levels, %d samples",
            n_max, levels, len(rows),
        )
    else:
        rows, teeth, chains, events = _scaled.closed_form_rows(ss, kappas, records)
        _scaled.debug(
            __name__,
            "profile n_max=%d: closed form, %d teeth, %d record chains, %d record events, "
            "%d samples",
            n_max, teeth, chains, events, len(rows),
        )

    samples = tuple(ProfileSample(*row) for row in rows)
    decade_maxima = tuple(
        (s.n, s.running_sup) for s in samples if _is_pow10(s.n) and s.n >= 100 or s.n == n_max
    )
    return DiscrepancyProfile(
        system=system,
        n_max=n_max,
        samples=samples,
        decade_maxima=decade_maxima,
        sup_seen=decade_maxima[-1][1],
    )


# -- interval discrepancy ------------------------------------------------------


def disc(
    points: Union[PointPattern, Sequence[int]],
    interval: tuple[Exact, Exact],
    delta: Exact,
    *,
    signed: bool = False,
) -> Exact:
    """|count of points in [x0, x1) - delta*(x1 - x0)|, all exact.

    With signed=True the absolute value is skipped.  x1 < x0 raises
    ValueError.
    """
    import bisect

    x0, x1 = interval
    check_exact("an interval endpoint", x0, x1, field=True)
    check_exact("delta", delta, field=True)
    if x1 < x0:
        raise ValueError(f"reversed interval [{x0}, {x1})")
    pts = (points if isinstance(points, PointPattern) else PointPattern(tuple(points))).points
    lo = math.ceil(x0)
    hi = math.ceil(x1)
    count = bisect.bisect_left(pts, hi) - bisect.bisect_left(pts, lo)
    value = count - delta * (x1 - x0)
    if signed:
        return value
    return abs(value)


@dataclass(frozen=True)
class DensityEstimate:
    value: Exact
    exact: bool
    sensitivity: Optional[Fraction]  # reported spread for empirical estimates


def estimate_density(
    points: Union[PointPattern, Sequence[int]],
    system: Optional[RotationSystem] = None,
) -> DensityEstimate:
    """Density of a point set.

    For cut-and-project input (system given) this is exactly the window
    length, by unique ergodicity.  For raw ingested points it is
    count/span, with the half-window spread reported as sensitivity.
    """
    pts = (points if isinstance(points, PointPattern) else PointPattern(tuple(points))).points
    if len(pts) < 100:
        raise TooFewPoints(f"need >= 100 points, got {len(pts)}")
    if system is not None:
        return DensityEstimate(system.window_length(), True, None)
    span = pts[-1] - pts[0]
    value = Fraction(len(pts), span)
    mid = len(pts) // 2
    halves = [pts[: mid + 1], pts[mid:]]
    spread = max(
        abs(Fraction(len(h), h[-1] - h[0]) - value) for h in halves if h[-1] > h[0]
    )
    return DensityEstimate(value, False, spread)


# -- cochain discrepancy ---------------------------------------------------------


@dataclass(frozen=True)
class Cochain:
    """Finite combination sum_j c_j * chi(P_j) plus a multiple of dx.

    chi(P) indicates occurrences of the pattern P; dx assigns each unit
    cell its length.  The dx part has zero discrepancy by definition, so
    it never enters cochain_discrepancy.
    """

    terms: tuple[tuple[Fraction, PatternSpec], ...]
    dx: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        check_exact("cochain coefficient", *(c for c, _ in self.terms))
        check_exact("dx", self.dx)
        object.__setattr__(
            self,
            "terms",
            tuple((Fraction(c), p) for c, p in self.terms),
        )
        pats = [p for _, p in self.terms]
        if len(set(pats)) != len(pats):
            raise ValueError("cochain patterns must be distinct")


def cochain_discrepancy(
    cochain: Cochain,
    system: RotationSystem,
    interval: tuple[Exact, Exact],
) -> XiReal:
    """sum_j c_j * (occurrences of P_j in [x0, x1) - density_j * length).

    Linear in the terms; densities are exact acceptance-window lengths
    and counts are floor sums on those windows (``_scaled.count_hits``).
    x1 < x0 raises ValueError.
    """
    x0, x1 = interval
    check_exact("an interval endpoint", x0, x1, field=True)
    if x1 < x0:
        raise ValueError(f"reversed interval [{x0}, {x1})")
    lo = math.ceil(x0)
    hi = math.ceil(x1) - 1
    length = x1 - x0
    total = system.xi.zero
    for coeff, pat in cochain.terms:
        dens = pattern_density(system, pat)
        domain = system.with_window(acceptance_domain(system, pat).window)
        domain.guard_singular(lo, hi)
        count = _scaled.count_hits(domain._scaled, lo, hi)
        total = total + coeff * (system.xi.real(count) - dens * length)
    return total
