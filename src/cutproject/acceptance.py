"""Acceptance domains of finite local patterns.

A pattern requires some offsets o around an anchor and forbids others.
With W the window and y_o(x) = frac(x + o*xi), the anchor's internal
coordinate x in [0, 1) must have y_o(x) in W for each required o and not
for each forbidden o: again a finite union of half-open intervals.

One sweep finds it (``acceptance_domain``).  As x runs over [0, 1), y_o(x)
enters W at x = frac(a_j - o*xi) for each left endpoint a_j and leaves at
x = frac(b_j - o*xi) for each right endpoint b_j: 2L events per offset, an
exact floor each on the system's scaled pairs.  They depend on the system and
o only, so they are computed once per (system, offset), with whether frac(o*xi)
lies in W, and cached (``_offset_events``): patterns of radius r on one system
share the 2r + 1 offsets of [-r, r].  One counter c holds the number of
offsets in the wrong state at x: the required ones with y_o(x) outside W and
the forbidden ones with y_o(x) inside, so x is in the domain iff c = 0.  A left
end (y_o enters W) takes 1 off c for a required o and adds 1 for a forbidden
one, and a right end the reverse.  c starts at x = 0 from whether frac(o*xi)
lies in W, so events at 0 are skipped.  As y_o(x) = a_j lies in [a_j, b_j)
and y_o(x) = b_j does not, membership just right of an event equals that
at it, once every event at that position is applied (a right and a left
end may meet there): c is read, and a cut taken, only at the last event at a
position.  The events are sorted once, stably, by one additive key
(``exactnum.linear_key``) per system, and the cuts are unscaled once,
into one Window made with no check (``Window._sorted``): they increase, no two
are equal (one per position, and the closing cut at 1 follows a frac < 1), they
lie in [0, 1], and they bound a part of W (offset 0 is required), whose length
is below 1, so ``Window.__init__`` could neither change nor refuse them.

A cut x = frac(e_j - o*xi) has origin (j, -o); a cut at 0 or 1 is an
endpoint of W (offset 0 is required), origin (j, 0).  If e_j' - e_j =
s*xi + n with integers s, n (e_j' in the boundary class of e_j; s is
unique as xi is irrational), then x = frac(e_j' + (-o - s)*xi), so the
provenance, the least (|k|, j, k) over all endpoints, is the least over
the class.  ``criteria`` writes each e_j as r + k_j*xi + m_j, r naming its
class, so s = k_j' - k_j, found once per window.  No epsilon appears.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Union

from .criteria import _classes
from .exactnum import XiReal, check_int, linear_key
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
        for offset in self.required | self.forbidden:
            check_int(offset=offset)
        if 0 not in self.required:
            raise ValueError("the anchor offset 0 must be required")
        if self.required & self.forbidden:
            raise ValueError("required and forbidden offsets must be disjoint")

    @classmethod
    def parse(cls, text: str) -> "PatternSpec":
        """Parse `require 0,2 forbid 1` (forbid part optional)."""
        ints = r"(-?\d+(?:\s*,\s*-?\d+)*)"
        m = re.fullmatch(rf"\s*require\s+{ints}(?:\s+forbid\s+{ints})?\s*", text)
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

    `provenance` parallels window.endpoints(): entry (j, k) states that the
    endpoint equals frac(w_j + k*xi) for endpoint j of the defining window,
    with the least (|k|, j) where several window endpoints are congruent.
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


@lru_cache(maxsize=64)
def _class_shifts(window: Window) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per endpoint e_j, the (j', s) with e_j' - e_j in s*xi + Z: its boundary class."""
    cls, members = _classes(window)
    return tuple(tuple((jj, cls[jj][1] - k) for jj in members[c]) for c, k, _ in cls)


@lru_cache(maxsize=1024)  # [-64, 64] on about 8 systems; an entry of 6 events, about 1.4 KiB
def _offset_events(system: RotationSystem, o: int) -> tuple[bool, tuple]:
    """Whether frac(o*xi) lies in W, and offset o's events (key, x, j, o) but those at 0: x =
    frac(e_j - o*xi) has b-part e_j's less o*step_b, so one ``linear_key`` scale for the system,
    e = 2*(max |end_b| + DEFAULT_OFFSET_BOUND*|step_b|), orders any pattern's events exactly."""
    ss = system._scaled
    sa, sb = ss.step
    one, r = linear_key(ss.d, 2 * (max(abs(e[1]) for e in ss.ends) + DEFAULT_OFFSET_BOUND * abs(sb)))
    events = []
    for j, (ea, eb) in enumerate(ss.ends):
        if (x := ss.frac(ea - o * sa, eb - o * sb)) != (0, 0):
            events.append((x[0] * one + x[1] * r, x, j, o))
    return ss.contains(*ss.frac(o * sa, o * sb)), tuple(events)


@lru_cache(maxsize=512)
def acceptance_domain(system: RotationSystem, pattern: PatternSpec) -> AcceptanceDomain:
    """Exact sub-window where the pattern occurs, possibly empty, by one sweep."""
    worst = max(abs(o) for o in pattern.offsets())
    if worst > DEFAULT_OFFSET_BOUND:
        raise ValueError(f"pattern offset {worst} exceeds the bound {DEFAULT_OFFSET_BOUND}")
    w = system.window
    if not w:
        return AcceptanceDomain(w, ())
    ss = system._scaled
    # c counts the offsets in the wrong state; step[o] is what y_o entering W adds to it
    step = dict.fromkeys(pattern.required, -1) | dict.fromkeys(pattern.forbidden, 1)
    c = len(pattern.required)
    events = []  # (key, x, j, o)
    for o in pattern.offsets():
        inside, evs = _offset_events(system, o)
        c += step[o] if inside else 0
        events += evs
    events.sort(key=itemgetter(0))  # stable: equal keys are equal points
    inside = c == 0  # x is in the domain; then len(cuts) is odd
    cuts = [((0, 0), 0, 0)] if inside else []
    last = len(events) - 1
    for i, (_, x, j, o) in enumerate(events):
        c += -step[o] if j % 2 else step[o]
        if (c == 0) is not inside and (i == last or events[i + 1][1] != x):
            cuts.append((x, j, o))
            inside = not inside
    if inside:
        cuts.append(((ss.m, 0), 2 * len(ss.ivals) - 1, 0))
    shifts = _class_shifts(w)
    return AcceptanceDomain(
        Window._sorted(
            tuple((ss.unscale(lo[0]), ss.unscale(hi[0])) for lo, hi in zip(cuts[::2], cuts[1::2]))
        ),
        tuple(min((abs(o + s), jj, -o - s) for jj, s in shifts[j])[1:] for _, j, o in cuts),
    )


def indicator_hits(
    system: RotationSystem,
    pattern: PatternSpec,
    k_min: int,
    k_max: int,
) -> PointPattern:
    """The k in range whose internal coordinate lies in the acceptance domain."""
    win = acceptance_domain(system, pattern).window
    if not win:
        return PointPattern(())
    return orbit_hits(system.with_window(win), k_min, k_max)


def pattern_density(system: RotationSystem, pattern: PatternSpec) -> XiReal:
    """Total acceptance-window length: the pattern's occurrence density."""
    win = acceptance_domain(system, pattern).window
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
    check_int(k_min=k_min, k_max=k_max)
    pts = set(points.points if isinstance(points, PointPattern) else points)
    req = sorted(pattern.required)
    forb = sorted(pattern.forbidden)
    return [
        k
        for k in range(k_min, k_max + 1)
        if all(k + r in pts for r in req) and not any(k + f in pts for f in forb)
    ]
