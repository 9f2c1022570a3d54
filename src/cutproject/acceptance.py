"""Acceptance domains of finite local patterns.

A pattern demands that certain offsets around an anchor point be
occupied and others empty.  The anchor's internal coordinate then has
to fall in a sub-window: the intersection of backward-rotated copies of
the window (for required offsets) with complements of such copies (for
forbidden offsets).  The result is again a finite union of half-open
intervals, and every one of its endpoints differs from an endpoint of
the original window by an element of Z + Z*xi; the provenance records
that witness for each endpoint.

All circle arithmetic is exact: shifted windows that wrap are split at
1 into two half-open pieces, degenerate tangencies are resolved by the
half-open convention, and no epsilon appears anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .exactnum import XiReal, decompose_Z_plus_Zxi
from .patterns import PointPattern, RotationSystem, Window, orbit_hits

__all__ = [
    "DEFAULT_OFFSET_BOUND",
    "PatternSpec",
    "AcceptanceDomain",
    "acceptance_domain",
    "indicator_hits",
    "pattern_density",
    "match_pattern",
]

DEFAULT_OFFSET_BOUND = 64


@dataclass(frozen=True)
class PatternSpec:
    """Required and forbidden integer offsets around an anchor at 0."""

    required: frozenset[int]
    forbidden: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "required", frozenset(self.required))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if 0 not in self.required:
            raise ValueError("the anchor offset 0 must be required")
        if self.required & self.forbidden:
            raise ValueError("required and forbidden offsets must be disjoint")

    @classmethod
    def parse(cls, text: str) -> "PatternSpec":
        """Parse `require 0,2 forbid 1` (forbid part optional)."""
        m = re.fullmatch(
            r"\s*require\s+([-\d,\s]+?)(?:\s+forbid\s+([-\d,\s]+?))?\s*", text
        )
        if not m:
            raise ValueError(f"cannot parse pattern {text!r}")
        req = frozenset(int(t) for t in m.group(1).split(","))
        forb = frozenset(int(t) for t in m.group(2).split(",")) if m.group(2) else frozenset()
        return cls(req, forb)

    def offsets(self) -> frozenset[int]:
        return self.required | self.forbidden

    def __str__(self) -> str:
        out = "require " + ",".join(str(o) for o in sorted(self.required))
        if self.forbidden:
            out += " forbid " + ",".join(str(o) for o in sorted(self.forbidden))
        return out


@dataclass(frozen=True)
class AcceptanceDomain:
    """The sub-window of internal coordinates at which a pattern occurs.

    `provenance` parallels window.endpoints(): entry (j, k) states that
    the endpoint equals frac(w_j + k*xi) for endpoint j of the defining
    window, i.e. the two differ by an element of Z + Z*xi.
    """

    window: Window
    provenance: tuple[tuple[int, int], ...]

    def describe(self) -> str:
        if not self.window:
            return "(empty)"
        lines = []
        eps = self.window.endpoints()
        for i in range(0, len(eps), 2):
            ja, ka = self.provenance[i]
            jb, kb = self.provenance[i + 1]
            lines.append(
                f"[{eps[i]}, {eps[i + 1]})"
                f"  # endpoints = base endpoint {ja} shifted by {ka}*xi,"
                f" base endpoint {jb} shifted by {kb}*xi (mod 1)"
            )
        return "\n".join(lines)


def _check_offsets(pattern: PatternSpec) -> None:
    worst = max(abs(o) for o in pattern.offsets())
    if worst > DEFAULT_OFFSET_BOUND:
        raise ValueError(f"pattern offset {worst} exceeds the bound {DEFAULT_OFFSET_BOUND}")


@lru_cache(maxsize=512)
def _domain_window(system: RotationSystem, pattern: PatternSpec) -> Window:
    w = system.window
    if not w:
        return w
    xi_val = system.xi.xi_real
    dom: Window = w  # offset 0 is always required
    for r in sorted(pattern.required):
        if r == 0:
            continue
        dom = dom.intersect(w.shift_mod1(xi_val * (-r)))
        if not dom:
            return dom
    for f in sorted(pattern.forbidden):
        dom = dom.intersect(w.shift_mod1(xi_val * (-f)).complement())
        if not dom:
            return dom
    return dom


def _provenance(base: Window, endpoint: XiReal) -> tuple[int, int]:
    # several base endpoints may be congruent; report the smallest shift
    found: list[tuple[int, int, int]] = []
    for j, wj in enumerate(base.endpoints()):
        km = decompose_Z_plus_Zxi(endpoint - wj)
        if km is not None:
            found.append((abs(km[0]), j, km[0]))
    if not found:
        raise AssertionError(
            f"acceptance-domain endpoint {endpoint} not congruent to any window endpoint"
        )
    _, j, k = min(found)
    return j, k


def acceptance_domain(system: RotationSystem, pattern: PatternSpec) -> AcceptanceDomain:
    """Exact sub-window where the pattern occurs; possibly empty."""
    _check_offsets(pattern)
    win = _domain_window(system, pattern)
    prov = tuple(_provenance(system.window, e) for e in win.endpoints())
    return AcceptanceDomain(win, prov)


def indicator_hits(
    system: RotationSystem,
    pattern: PatternSpec,
    k_min: int,
    k_max: int,
) -> PointPattern:
    """The k in range whose internal coordinate lies in the acceptance domain."""
    _check_offsets(pattern)
    win = _domain_window(system, pattern)
    if not win:
        return PointPattern(())
    return orbit_hits(system.with_window(win), k_min, k_max)


def pattern_density(system: RotationSystem, pattern: PatternSpec) -> XiReal:
    """Total acceptance-window length: the pattern's occurrence density."""
    _check_offsets(pattern)
    win = _domain_window(system, pattern)
    return win.total_length() if win else system.xi.zero


def match_pattern(
    points: Union[PointPattern, Iterable[int]],
    pattern: PatternSpec,
    k_min: int,
    k_max: int,
) -> list[int]:
    """Direct sliding-window matching against an explicit point set.

    The caller must supply points covering [k_min + min(offsets),
    k_max + max(offsets)] so every membership probe is answerable.
    """
    pts = set(points.points if isinstance(points, PointPattern) else points)
    req = sorted(pattern.required)
    forb = sorted(pattern.forbidden)
    return [
        k
        for k in range(k_min, k_max + 1)
        if all(k + r in pts for r in req) and not any(k + f in pts for f in forb)
    ]
