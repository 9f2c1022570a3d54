"""Exact boundedness criteria and rank reports for windows.

A window's discrepancy is bounded precisely when its interval lengths
match up with the rotation lattice Z + Z*xi:

  - single interval (Kesten's condition): Length lies in Z + Z*xi;
  - several intervals (Oren's condition): some permutation sigma pairs
    every left endpoint a_l with a right endpoint b_sigma(l) such that
    b_sigma(l) - a_l lies in Z + Z*xi.

Geometrically, an endpoint e corresponds to the strip boundary line
y = xi*x + basepoint - e, and translating that line by an integer
vector (m', k') sends e to e - k'*xi + (terms in Z), so two boundary
lines are equivalent under integer translations exactly when their
endpoint values differ by an element of Z + Z*xi.  Boundary classes
are the equivalence classes of the 2L endpoint values under that
relation; with n classes the associated punctured-torus model has
first-cohomology rank n + 1, the bounded-discrepancy subspace always
has rank 2, and the unbounded quotient has dimension n - 1.  The
verdict is "bounded" iff every class contains as many left endpoints
as right endpoints, which happens iff the Oren matching exists.

One pass (``exactnum.lattice_split``) writes each endpoint as
r + k*xi + m, with r naming its class.  The matching is read off the
classes: in each, the i-th left endpoint a pairs with the i-th right
endpoint b counted from the end, and b - a = (k_b - k_a)*xi + m_b - m_a.
``tests/test_criteria.py::test_classes_and_matching_match_references``
checks this against the search-based references in ``tests/oracles.py``.

Ranks are consequences of those counting formulas; no simplicial or
cochain machinery is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactnum import XiReal, lattice_split
from .patterns import Window

__all__ = [
    "MultiIntervalWindow",
    "KestenWitness",
    "OrenWitness",
    "BoundaryClassReport",
    "CohomologyReport",
    "kesten_condition",
    "oren_condition",
    "boundary_classes",
    "bd_verdict",
]


class MultiIntervalWindow(ValueError):
    """kesten_condition applies to single-interval windows only."""


@dataclass(frozen=True)
class KestenWitness:
    """Length(I) = k*xi + m with integer k, m."""

    k: int
    m: int


@dataclass(frozen=True)
class OrenWitness:
    """Permutation sigma with b_sigma(l) - a_l = ks[l]*xi + ms[l] exactly.

    sigma is 0-indexed: interval l's left endpoint pairs with interval
    sigma[l]'s right endpoint.
    """

    sigma: tuple[int, ...]
    ks: tuple[int, ...]
    ms: tuple[int, ...]


@dataclass(frozen=True)
class BoundaryClassReport:
    """Partition of the 2L window endpoints modulo Z + Z*xi.

    Endpoints are indexed flat as (a_1, b_1, a_2, b_2, ...): even
    indices are left endpoints, odd are right.  balance[c] counts
    (left, right) endpoints in class c.
    """

    endpoints: tuple[XiReal, ...]
    classes: tuple[tuple[int, ...], ...]
    n: int
    left_right_balance: tuple[tuple[int, int], ...]

    def balanced(self) -> bool:
        return all(left == right for left, right in self.left_right_balance)


@dataclass(frozen=True)
class CohomologyReport:
    """Rank bookkeeping and the boundedness verdict for one window."""

    n: int
    h1_rank: int  # n + 1
    bounded_subspace_rank: int  # always 2
    h1_ud_dim: int  # n - 1
    verdict: str  # "bounded" | "unbounded"
    classes: BoundaryClassReport
    witness: Optional[OrenWitness]


def _classes(w: Window) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
    """(c, k, m) per endpoint, flat as in ``Window.endpoints``, with the endpoint
    r + k*xi + m and r the residue of class c, classes numbered by first appearance;
    and the flat endpoint indices of each class, in class order."""
    w._require_nonempty()
    number: dict[tuple[int, int, int], int] = {}
    cls: list[tuple[int, int, int]] = []
    members: list[list[int]] = []
    for i, e in enumerate(w.endpoints()):
        r, k, m = lattice_split(e)
        c = number.setdefault(r, len(number))
        if c == len(members):
            members.append([])
        members[c].append(i)
        cls.append((c, k, m))
    return cls, members


def _matching(cls: list[tuple[int, int, int]], members: list[list[int]]) -> Optional[OrenWitness]:
    """The Oren matching read off the classes, or None if a class is unbalanced."""
    sigma = [0] * (len(cls) // 2)
    for mem in members:  # the matching an augmenting-path search finds
        lefts = [i // 2 for i in mem if not i % 2]
        rights = [i // 2 for i in reversed(mem) if i % 2]
        if len(lefts) != len(rights):
            return None
        for left, right in zip(lefts, rights):
            sigma[left] = right
    return OrenWitness(
        sigma=tuple(sigma),
        ks=tuple(cls[2 * j + 1][1] - cls[2 * i][1] for i, j in enumerate(sigma)),
        ms=tuple(cls[2 * j + 1][2] - cls[2 * i][2] for i, j in enumerate(sigma)),
    )


def _read(w: Window) -> tuple[BoundaryClassReport, Optional[OrenWitness]]:
    """The boundary classes and the Oren matching (None if a class is unbalanced)."""
    cls, members = _classes(w)
    report = BoundaryClassReport(
        endpoints=w.endpoints(),
        classes=tuple(map(tuple, members)),
        n=len(members),
        left_right_balance=tuple(
            (sum(1 - i % 2 for i in mem), sum(i % 2 for i in mem)) for mem in members
        ),
    )
    return report, _matching(cls, members)


def kesten_condition(w: Window) -> Optional[KestenWitness]:
    """Witness that Length(I) lies in Z + Z*xi, for a single interval."""
    w._require_nonempty()
    if len(w) != 1:
        raise MultiIntervalWindow(
            f"window has {len(w)} intervals; use oren_condition"
        )
    witness = oren_condition(w)
    return None if witness is None else KestenWitness(k=witness.ks[0], m=witness.ms[0])


def oren_condition(w: Window) -> Optional[OrenWitness]:
    """Perfect matching of left to right endpoints with differences in Z + Z*xi.

    Read off the boundary classes, with no class report; reduces to
    kesten_condition when the window has a single interval.
    """
    return _matching(*_classes(w))


def boundary_classes(w: Window) -> BoundaryClassReport:
    """Group the endpoints by congruence modulo Z + Z*xi."""
    return _read(w)[0]


def bd_verdict(w: Window) -> CohomologyReport:
    """Boundedness verdict with rank report.

    bounded iff every boundary class has equal left and right endpoint
    counts, equivalently iff the Oren matching exists; both are read off
    one pass over the endpoints.
    """
    report, witness = _read(w)
    return CohomologyReport(
        n=report.n,
        h1_rank=report.n + 1,
        bounded_subspace_rank=2,
        h1_ud_dim=report.n - 1,
        verdict="unbounded" if witness is None else "bounded",
        classes=report,
        witness=witness,
    )
