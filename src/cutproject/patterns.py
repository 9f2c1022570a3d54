"""Windows, rotation systems, and their point patterns.

A window is a finite disjoint union of half-open intervals [a, b) with
exact endpoints in [0, 1].  A rotation system couples a quadratic
irrational xi, a basepoint, and a window; its orbit hits are the k with
frac(basepoint + k*xi) in the window, and the same set arises as the
x-coordinates of the integer points of the strip
{(x, y) : basepoint + xi*x - y in W}, enumerated column by column.

Intervals are half-open.  An orbit point landing exactly on a window
endpoint is resolved by the half-open convention; systems built with
strict=True raise SingularOrbit instead, reporting the offending k.
"""

from __future__ import annotations

import operator
import re
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import IO, Iterable, Optional, Union

from . import _scaled
from .exactnum import XiReal, XiSpec, parse_xireal

__all__ = [
    "OMEGA",
    "SingularOrbit",
    "Window",
    "RotationSystem",
    "PointPattern",
    "orbit_hits",
    "strip_points",
    "colored_hits",
    "local_discrepancy",
    "parse_window",
    "dump_pattern",
    "load_pattern",
]

OMEGA = 0  # color label for hull points that fall in no window interval


class SingularOrbit(RuntimeError):
    """An orbit point coincides exactly with a window endpoint."""

    def __init__(self, k: int):
        super().__init__(f"orbit point at k={k} lies exactly on a window endpoint")
        self.k = k


def _require_field(*values: object) -> None:
    for v in values:
        if not isinstance(v, XiReal):
            raise TypeError(f"{v!r} is not a field element: build it with xi.real(...)")


@dataclass(frozen=True)
class Window:
    """Ordered disjoint union of half-open intervals with exact endpoints.

    Intervals are sorted, adjacent ones sharing an endpoint are merged,
    and the total length must stay below 1 (the full circle is not a
    window).  May be empty.
    """

    intervals: tuple[tuple[XiReal, XiReal], ...]

    def __init__(self, intervals: Iterable[tuple[XiReal, XiReal]]):
        ivs = list(intervals)
        for iv in ivs:
            _require_field(*iv)
        ivs.sort(key=lambda iv: iv[0])
        for lo, hi in ivs:
            if lo.xi != hi.xi or lo.xi != ivs[0][0].xi:
                raise ValueError("window endpoints live in different fields")
            if lo < 0 or hi > 1:
                raise ValueError(f"interval [{lo}, {hi}) leaves [0, 1]")
            if hi <= lo:
                raise ValueError(f"empty or reversed interval [{lo}, {hi})")
        merged: list[tuple[XiReal, XiReal]] = []
        for lo, hi in ivs:
            if merged:
                prev_lo, prev_hi = merged[-1]
                if lo < prev_hi:
                    raise ValueError(f"overlapping intervals at [{lo}, {hi})")
                if lo == prev_hi:
                    merged[-1] = (prev_lo, hi)
                    continue
            merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))
        if merged:
            if self.total_length() >= 1:
                raise ValueError("window must have total length < 1")

    @classmethod
    def single(cls, lo: XiReal, hi: XiReal) -> "Window":
        return cls([(lo, hi)])

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def _require_nonempty(self) -> None:
        if not self.intervals:
            raise ValueError("operation requires a nonempty window")

    @property
    def xi(self) -> XiSpec:
        self._require_nonempty()
        return self.intervals[0][0].xi

    def total_length(self) -> XiReal:
        return sum((hi - lo for lo, hi in self.intervals), self.xi.zero)

    def endpoints(self) -> tuple[XiReal, ...]:
        """Flat endpoint sequence (a1, b1, a2, b2, ...)."""
        return tuple(e for iv in self.intervals for e in iv)

    def contains(self, x: XiReal) -> bool:
        return any(lo <= x < hi for lo, hi in self.intervals)

    def hull(self) -> "Window":
        """Single interval from the least to the greatest endpoint."""
        self._require_nonempty()
        lo, hi = self.intervals[0][0], self.intervals[-1][1]
        if not lo and hi == 1:
            raise ValueError(f"the hull of {self} is the full circle [0, 1), which is no window")
        return Window.single(lo, hi)

    def shift_mod1(self, t: XiReal) -> "Window":
        """Translate by t on the circle; wrapping intervals split at 1."""
        pieces: list[tuple[XiReal, XiReal]] = []
        for lo, hi in self.intervals:
            lo2, _ = (lo + t).fractional_part()
            hi2 = lo2 + (hi - lo)
            pieces += [(lo2, hi2)] if hi2 <= 1 else [(lo2, lo2.xi.one), (lo2.xi.zero, hi2 - 1)]
        return Window(pieces)

    def complement(self) -> "Window":
        """Complement within [0, 1), again a union of half-open intervals:
        [0, a1), [b1, a2), ..., [bL, 1), the empty ones left out."""
        ends = (self.xi.zero, *self.endpoints(), self.xi.one)
        return Window([(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi])

    def intersect(self, other: "Window") -> "Window":
        a, b = self.intervals, other.intervals
        i = j = 0
        pieces: list[tuple[XiReal, XiReal]] = []
        while i < len(a) and j < len(b):
            lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
            if lo < hi:
                pieces.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return Window(pieces)

    def __str__(self) -> str:
        return " ".join(f"[{lo}, {hi})" for lo, hi in self.intervals)


_INTERVAL_RE = re.compile(r"\[([^,\[\)]+),([^,\[\)]+)\)")


def parse_window(text: str, xi: XiSpec) -> Window:
    """Parse one or more `[a, b)` intervals (whitespace separated)."""
    matches = list(_INTERVAL_RE.finditer(text))
    if not matches:
        raise ValueError(f"no [a, b) interval found in {text!r}")
    leftover = _INTERVAL_RE.sub("", text).replace(";", "").strip()
    if leftover:
        raise ValueError(f"unparsed window text {leftover!r} in {text!r}")
    return Window(
        [(parse_xireal(m.group(1), xi), parse_xireal(m.group(2), xi)) for m in matches]
    )


@dataclass(frozen=True)
class RotationSystem:
    """A rotation x -> x + xi on the circle, a basepoint, and a window.

    Equivalently: the strip {(x, y) : basepoint + xi*x - y in W} of slope
    xi.  The basepoint is reduced mod 1 at construction.  With
    strict=True, scans raise SingularOrbit when some orbit point in range
    equals a window endpoint exactly (checked lazily but exactly).
    """

    xi: XiSpec
    basepoint: XiReal
    window: Window
    strict: bool = False

    def __post_init__(self) -> None:
        _require_field(self.basepoint)
        if self.basepoint.xi != self.xi:
            raise ValueError("basepoint does not live in the system's field")
        if self.window and self.window.xi != self.xi:
            raise ValueError("window does not live in the system's field")
        frac, _ = self.basepoint.fractional_part()
        object.__setattr__(self, "basepoint", frac)

    @cached_property
    def _scaled(self) -> _scaled.ScaledSystem:
        return _scaled.scale_system(self.xi, self.basepoint, self.window.intervals)

    def with_window(self, window: Window, strict: Optional[bool] = None) -> "RotationSystem":
        return RotationSystem(
            self.xi, self.basepoint, window, self.strict if strict is None else strict
        )

    def find_singular(self, k_min: int, k_max: int) -> Optional[int]:
        """Smallest k in range hitting a window endpoint exactly, if any."""
        if k_min > k_max or not self.window:
            return None
        return _scaled.find_singular(self._scaled, k_min, k_max)

    def guard_singular(self, k_min: int, k_max: int) -> None:
        if self.strict:
            k = self.find_singular(k_min, k_max)
            if k is not None:
                raise SingularOrbit(k)

    def window_length(self) -> XiReal:
        return self.window.total_length() if self.window else self.xi.zero


@dataclass(frozen=True)
class PointPattern:
    """Strictly increasing integer points, optionally colored.

    Colors label which window interval (1-based) produced each hull
    point; OMEGA (= 0) marks hull points lying in no interval.  The
    constructor checks both, for user input.  ``orbit_hits`` and
    ``colored_hits`` build their patterns with ``_sorted``, which skips
    the checks (about 50 ns a point): the scanner's output increases by
    construction, and a tier-1 property holds it to the checks
    (tests/test_threegap.py).
    """

    points: tuple[int, ...]
    colors: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not all(map(operator.lt, pts, islice(pts, 1, None))):
            raise ValueError("points must be strictly increasing")
        if self.colors is not None:
            cols = tuple(self.colors)
            object.__setattr__(self, "colors", cols)
            if len(cols) != len(pts):
                raise ValueError("colors must parallel points")

    @classmethod
    def _sorted(
        cls, points: tuple[int, ...], colors: Optional[tuple[int, ...]] = None
    ) -> "PointPattern":
        """A pattern from scanner output, set without the checks of ``__init__``."""
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "points", points)
        object.__setattr__(pattern, "colors", colors)
        return pattern

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def gaps(self) -> tuple[int, ...]:
        return tuple(
            self.points[i + 1] - self.points[i] for i in range(len(self.points) - 1)
        )


# -- operations -----------------------------------------------------------------


def orbit_hits(system: RotationSystem, k_min: int, k_max: int) -> PointPattern:
    """Exactly the k in [k_min, k_max] with frac(basepoint + k*xi) in the window.

    An empty range yields an empty pattern.
    """
    if k_min > k_max:
        return PointPattern(())
    system.guard_singular(k_min, k_max)
    return PointPattern._sorted(_scaled.collect_hits(system._scaled, k_min, k_max)[0])


def strip_points(system: RotationSystem, k_min: int, k_max: int) -> PointPattern:
    """x-coordinates of the strip's integer points, one explicit floor per column.

    Computed independently of orbit_hits (no incremental state); the two
    agree exactly, which is the orbit/strip correspondence.
    """
    if k_min > k_max:
        return PointPattern(())
    system.guard_singular(k_min, k_max)
    return PointPattern(tuple(_scaled.collect_hits_direct(system._scaled, k_min, k_max)))


def colored_hits(system: RotationSystem, k_min: int, k_max: int) -> PointPattern:
    """Hits of the hull window, colored by originating interval.

    Color i in 1..L marks interval i (in sorted order); OMEGA marks points
    of the hull that lie in no interval.  A hull that is the full circle
    [0, 1), which ``Window.hull`` rejects, is handled: every k is a hit.
    """
    if k_min > k_max:
        return PointPattern((), ())
    system.guard_singular(k_min, k_max)
    return PointPattern._sorted(*_scaled.collect_hits(system._scaled, k_min, k_max, hull=True))


def local_discrepancy(system: RotationSystem, n: int) -> XiReal:
    """D(N) = hits over 0 <= k <= N, minus N * Length(window), exactly.

    The count runs over N + 1 iterates (k = 0 included) while the length
    term uses N, following the classical definition; the resulting
    off-by-one constant never affects boundedness.  For a multi-interval
    window this is automatically the sum of the per-interval values.
    The count is a floor-sum recursion, not a scan: exact for any N, at a
    cost of O(log N) exact floors.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    system.guard_singular(0, n)
    count = _scaled.count_hits(system._scaled, 0, n)
    return system.xi.real(count) - n * system.window_length()


# -- serialization ----------------------------------------------------------------


def dump_pattern(
    pattern: PointPattern,
    fp: Union[IO[str], str],
    system: Optional[RotationSystem] = None,
) -> None:
    """Line-oriented text: one `k[,color]` per line, `#` header comments."""
    with open(fp, "w") if isinstance(fp, str) else nullcontext(fp) as out:
        if system is not None:
            out.write(f"# xi = {system.xi}\n")
            out.write(f"# basepoint = {system.basepoint}\n")
            out.write(f"# window = {system.window}\n")
        if pattern.colors is None:
            for k in pattern.points:
                out.write(f"{k}\n")
        else:
            for k, c in zip(pattern.points, pattern.colors):
                out.write(f"{k},{'w' if c == OMEGA else c}\n")


def load_pattern(fp: Union[IO[str], str]) -> tuple[PointPattern, dict[str, str]]:
    """Inverse of dump_pattern; returns the pattern and the header fields."""
    header: dict[str, str] = {}
    points: list[int] = []
    colors: list[int] = []
    saw_color = False
    with open(fp) if isinstance(fp, str) else nullcontext(fp) as inp:
        for line in inp:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    key, _, val = line[1:].partition("=")
                    header[key.strip()] = val.strip()
                continue
            if "," in line:
                k_text, c_text = line.split(",", 1)
                saw_color = True
                points.append(int(k_text))
                colors.append(OMEGA if c_text.strip() == "w" else int(c_text))
            else:
                points.append(int(line))
    if saw_color and len(colors) != len(points):
        raise ValueError("mixed colored and uncolored lines")
    return PointPattern(tuple(points), tuple(colors) if saw_color else None), header
