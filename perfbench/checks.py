"""Output checks, computed apart from the program.

Every check takes a program output and the construction it came from
and returns a list of problems (empty when the output is right).  The
references come from ``oracle``: a fixed-point recount of the orbit,
mpmath at high precision near endpoints, and Fraction arithmetic on
the components.  Program values are read only through their data
(XiReal.a and .b, PointPattern.points and .colors, report fields and
CSV text), never through program arithmetic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as Q

import mpmath
import numpy as np

import oracle
from inputs import ANCHOR_HI, ANCHOR_LO, PointSet, SysSpec
from oracle import Surd, classify, congruent


def pair(v) -> tuple[Q, Q]:
    """Components (a, b) of a program XiReal, or of a rational."""
    if isinstance(v, (int, Q)):
        return (Q(v), Q(0))
    return (v.a, v.b)


class Reference:
    """Recounts of one system, made once per run and shared by its checks."""

    def __init__(self, spec: SysSpec, k1: int):
        self.spec = spec
        self.k1 = k1
        self.cls = classify(spec.field, spec.base, spec.intervals, 0, k1)
        self.member = self.cls > 0
        self._hull = None

    @property
    def hull(self) -> np.ndarray:
        if self._hull is None:
            s = self.spec
            self._hull = classify(s.field, s.base, s.hull(), 0, self.k1) > 0
        return self._hull


def _points(pattern) -> np.ndarray:
    return np.fromiter(pattern.points, dtype=np.int64, count=len(pattern.points))


def _same_points(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    if got.shape == want.shape and np.array_equal(got, want):
        return []
    if got.shape != want.shape:
        return [f"{what}: {got.size} points, recount has {want.size}"]
    i = int(np.nonzero(got != want)[0][0])
    return [f"{what}: point #{i} is {got[i]}, recount has {want[i]}"]


def slater(points: np.ndarray, what: str) -> list[str]:
    """Three-gap property of a single-interval hit list."""
    gaps = np.unique(np.diff(points))
    if len(gaps) > 3:
        return [f"{what}: {len(gaps)} distinct gaps {gaps[:6].tolist()}"]
    if len(gaps) == 3 and gaps[2] != gaps[0] + gaps[1]:
        return [f"{what}: gaps {gaps.tolist()} break g3 = g1 + g2"]
    return []


# -- enumerate -------------------------------------------------------------------


def check_orbit_hits(ref: Reference, k0: int, k1: int, pattern) -> list[str]:
    what = f"orbit_hits({ref.spec.name}, {k0}, {k1})"
    if pattern.colors is not None:
        return [f"{what}: unexpected colours"]
    got = _points(pattern)
    out = _same_points(got, k0 + np.nonzero(ref.member[k0 : k1 + 1])[0], what)
    if not out and len(ref.spec.intervals) == 1:
        out += slater(got, what)
    return out


def check_colored_hits(ref: Reference, k0: int, k1: int, pattern) -> list[str]:
    what = f"colored_hits({ref.spec.name}, {k0}, {k1})"
    got = _points(pattern)
    want = k0 + np.nonzero(ref.hull[k0 : k1 + 1])[0]
    out = _same_points(got, want, what)
    if out:
        return out
    if pattern.colors is None or len(pattern.colors) != got.size:
        return [f"{what}: colours missing or of the wrong length"]
    colors = np.fromiter(pattern.colors, dtype=np.int8, count=got.size)
    bad = np.nonzero(colors != ref.cls[want])[0]
    if bad.size:
        i = int(bad[0])
        return [f"{what}: colour of k={want[i]} is {colors[i]}, recount has {ref.cls[want[i]]}"]
    return slater(got, what)


# -- discrepancy -------------------------------------------------------------------


def _d_pair(spec: SysSpec, h: int, n: int) -> tuple[Q, Q]:
    la, lb = spec.length()
    return (h - n * la, -n * lb)


def check_local(ref: Reference, n: int, value) -> list[str]:
    h = int(np.count_nonzero(ref.member[: n + 1]))
    want = _d_pair(ref.spec, h, n)
    if pair(value) != want:
        return [f"local_discrepancy({ref.spec.name}, {n}) = {pair(value)}, recount gives {want}"]
    return []


def _abs(s: Surd) -> Surd:
    return -s if s.sign() < 0 else s


def running_sup(ref: Reference, n_max: int) -> tuple[np.ndarray, list[tuple[int, tuple[Q, Q]]]]:
    """Cumulative hit counts and the exact running sup of |D| as a step list.

    Float D(n) picks every n whose |D| comes within 1e-7 of the running
    maximum; the sup over any prefix is attained at one of those, and
    they are compared exactly.  Returns (H, [(n, sup over N <= n)]) with
    one entry per candidate at which the sup changes.
    """
    spec = ref.spec
    f = spec.field
    H = np.cumsum(ref.member[: n_max + 1], dtype=np.int64)
    ns = np.arange(n_max + 1, dtype=np.int64)
    length = spec.length()
    if length[1] == 0:
        # rational length P/Q: Q*D(n) is an integer
        P, Qd = length[0].numerator, length[0].denominator
        dq = np.abs(H * Qd - ns * P)
        rm = np.maximum.accumulate(dq)
        steps = np.nonzero(np.diff(rm, prepend=-1))[0]
        return H, [(int(k), (Q(int(rm[k]), Qd), Q(0))) for k in steps]
    lf = f.float(length)
    absd = np.abs(H - ns * lf)
    rm = np.maximum.accumulate(absd)
    cand = np.nonzero(absd >= rm - 1e-7)[0]
    steps: list[tuple[int, tuple[Q, Q]]] = []
    best = None
    for k in cand.tolist():
        v = _abs(Surd.of(f, _d_pair(spec, int(H[k]), k)))
        if best is None or (v - best).sign() > 0:
            best = v
            steps.append((k, v.to_pair(f)))
    return H, steps


def check_profile(ref: Reference, n_max: int, prof) -> list[str]:
    spec = ref.spec
    f = spec.field
    what = f"profile({spec.name})"
    H, steps = running_sup(ref, n_max)
    out: list[str] = []
    samples = prof.samples
    ns = [s.n for s in samples]
    if not ns or ns[-1] != n_max or any(a >= b for a, b in zip(ns, ns[1:])):
        return [f"{what}: sample points are not increasing up to {n_max}"]
    j = 0
    prev = None
    for s in samples:
        n = s.n
        want = _d_pair(spec, int(H[n]), n)
        if pair(s.value) != want:
            out.append(f"{what}: D({n}) = {pair(s.value)}, recount gives {want}")
        while j + 1 < len(steps) and steps[j + 1][0] <= n:
            j += 1
        if pair(s.running_sup) != steps[j][1]:
            out.append(f"{what}: running sup at {n} is {pair(s.running_sup)}, recount gives {steps[j][1]}")
        sup = Surd.of(f, pair(s.running_sup))
        if (sup - _abs(Surd.of(f, pair(s.value)))).sign() < 0:
            out.append(f"{what}: running sup at {n} is below |D({n})|")
        if prev is not None and (sup - prev).sign() < 0:
            out.append(f"{what}: running sup decreases at {n}")
        prev = sup
        if len(out) > 5:
            break
    by_n = {s.n: pair(s.running_sup) for s in samples}
    for n, v in prof.decade_maxima:
        if by_n.get(n) != pair(v):
            out.append(f"{what}: decade maximum at {n} is not the running sup there")
    if spec.ks is not None:
        bound = sum(abs(k) for k in spec.ks) + 1
        if (Surd.of(f, pair(prof.sup_seen)) - bound).sign() >= 0:
            out.append(f"{what}: sup |D| reaches the bound {bound} of a bounded window")
    return out


def _trunc_decimal(f, v: tuple[Q, Q], digits: int = 30) -> str:
    """Decimal of v truncated toward zero, as XiReal.decimal promises it."""
    scale = 10**digits
    if v[1] == 0:
        neg = v[0] < 0
        scaled = math.floor(abs(v[0]) * scale)
    else:
        with mpmath.workdps(oracle.DPS):
            x = oracle.mp(f, v)
            neg = x < 0
            y = abs(x) * scale
            scaled = int(mpmath.floor(y))
            if min(y - scaled, scaled + 1 - y) < mpmath.mpf(10) ** -40:
                raise oracle.Unresolved(f"decimal of {v} too close to a digit boundary")
    s = str(scaled).rjust(digits + 1, "0")
    out = f"{s[:-digits]}.{s[-digits:]}"
    return "-" + out if neg else out


_RAT = r"-?\d+(?:/\d+)?"
_XI_RE = re.compile(rf"(?:(?P<a>{_RAT})(?P<b>[+-]\d+(?:/\d+)?)|(?P<b2>{_RAT}))\*xi")


def parse_exact(text: str) -> tuple[Q, Q]:
    """Components of an exact value printed as `a`, `b*xi` or `a+b*xi`."""
    m = _XI_RE.fullmatch(text)
    if m is None:
        return (Q(text), Q(0))
    if m.group("b2") is not None:
        return (Q(0), Q(m.group("b2")))
    return (Q(m.group("a")), Q(m.group("b")))


def check_profile_csv(ref: Reference, prof, text: str) -> list[str]:
    f = ref.spec.field
    what = f"profile CSV({ref.spec.name})"
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    if len(comments) != 4 or len(rows) != len(prof.samples):
        return [f"{what}: {len(rows)} rows for {len(prof.samples)} samples"]
    for row, s in zip(rows, prof.samples):
        cells = row.split(",")
        v, sup = pair(s.value), pair(s.running_sup)
        d = _trunc_decimal(f, v)
        want = [str(s.n), d, d.lstrip("-"), _trunc_decimal(f, sup)]
        if cells[:4] != want:
            return [f"{what}: row {cells[:4]} should read {want}"]
        if len(cells) != 6 or parse_exact(cells[4]) != v or parse_exact(cells[5]) != sup:
            return [f"{what}: exact columns of row N={s.n} do not parse back"]
    return []


# -- exact -------------------------------------------------------------------------


def check_verdict(spec: SysSpec, report) -> list[str]:
    what = f"bd_verdict({spec.name}, d={spec.field.d})"
    out: list[str] = []
    if report.verdict != spec.verdict:
        out.append(f"{what}: verdict {report.verdict}, built {spec.verdict}")
    n = spec.n_classes
    if (report.n, report.h1_rank, report.bounded_subspace_rank, report.h1_ud_dim) != (
        n, n + 1, 2, n - 1,
    ):
        out.append(f"{what}: ranks {report.n}/{report.h1_rank}/{report.h1_ud_dim} for {n} built classes")
    eps = spec.endpoints()
    seen = sorted(i for cls in report.classes.classes for i in cls)
    if seen != list(range(len(eps))):
        out.append(f"{what}: classes do not partition the endpoints")
    for cls in report.classes.classes:
        if not all(_lattice(eps[cls[0]], eps[i]) for i in cls):
            out.append(f"{what}: class {cls} holds endpoints that are not congruent")
    w = report.witness
    if (w is not None) != (spec.verdict == "bounded"):
        out.append(f"{what}: witness present = {w is not None}")
    elif w is not None:
        if sorted(w.sigma) != list(range(len(spec.intervals))):
            out.append(f"{what}: sigma {w.sigma} is no permutation")
        else:
            for l, (lo, _) in enumerate(spec.intervals):
                hi = spec.intervals[w.sigma[l]][1]
                if (hi[1] - lo[1], hi[0] - lo[0]) != (w.ks[l], w.ms[l]):
                    out.append(f"{what}: b_sigma({l}) - a_{l} != {w.ks[l]}*xi + {w.ms[l]}")
    return out


def _lattice(u, v) -> bool:
    """u - v lies in Z + Z*xi."""
    return (u[0] - v[0]).denominator == 1 and (u[1] - v[1]).denominator == 1


def occurrences(ref: Reference, required, forbidden, k0: int, k1: int) -> np.ndarray:
    """Boolean array over k in [k0, k1]: the pattern occurs at k in the recount."""
    m = ref.member
    occ = np.ones(k1 - k0 + 1, dtype=bool)
    for r in required:
        occ &= m[k0 + r : k1 + r + 1]
    for r in forbidden:
        occ &= ~m[k0 + r : k1 + r + 1]
    return occ


def domain_intervals(domain) -> list[tuple[tuple[Q, Q], tuple[Q, Q]]]:
    return [(pair(lo), pair(hi)) for lo, hi in domain.window.intervals]


def domain_length(domain) -> tuple[Q, Q]:
    ivs = domain_intervals(domain)
    return (
        sum((hi[0] - lo[0] for lo, hi in ivs), Q(0)),
        sum((hi[1] - lo[1] for lo, hi in ivs), Q(0)),
    )


def check_density(domain, density) -> list[str]:
    """pattern_density against the length of the (separately checked) domain."""
    if pair(density) != domain_length(domain):
        return [f"pattern_density {pair(density)} is not the domain length {domain_length(domain)}"]
    return []


def check_domain(ref: Reference, pattern, domain) -> list[str]:
    spec = ref.spec
    f = spec.field
    what = f"acceptance_domain({spec.name}, {sorted(pattern.required)}/{sorted(pattern.forbidden)})"
    ivs = domain_intervals(domain)
    flat = [e for iv in ivs for e in iv]
    vals = [f.float(e) for e in flat]
    if any(b <= a for a, b in zip(vals, vals[1:])) or (vals and (vals[0] < 0 or vals[-1] > 1)):
        return [f"{what}: domain endpoints are not increasing inside [0, 1]"]
    out: list[str] = []
    base = spec.endpoints()
    if len(domain.provenance) != len(flat):
        out.append(f"{what}: {len(domain.provenance)} provenance entries for {len(flat)} endpoints")
    else:
        for e, (j, k) in zip(flat, domain.provenance):
            if not (0 <= j < len(base)) or not congruent(base[j], k, e):
                out.append(f"{what}: endpoint {e} is not frac(w_{j} + {k}*xi)")
                break
    k0, k1 = ANCHOR_LO, ANCHOR_HI - 1
    occ = occurrences(ref, pattern.required, pattern.forbidden, k0, k1)
    inside = classify(f, spec.base, ivs, k0, k1) > 0 if ivs else np.zeros_like(occ)
    bad = np.nonzero(occ != inside)[0]
    if bad.size:
        k = k0 + int(bad[0])
        out.append(f"{what}: at k={k} the pattern occurs={bool(occ[bad[0]])} but the domain says {bool(inside[bad[0]])}")
    return out


def check_cochain(ref: Reference, cochain_spec, densities, value) -> list[str]:
    """densities: the checked acceptance-domain length of each term's pattern."""
    x0, x1 = cochain_spec.interval
    lo, hi = math.ceil(x0), math.ceil(x1) - 1
    length = x1 - x0
    a, b = Q(0), Q(0)
    for (c, pat), dens in zip(cochain_spec.terms, densities):
        count = int(np.count_nonzero(occurrences(ref, pat.required, pat.forbidden, lo, hi)))
        a += c * (count - dens[0] * length)
        b -= c * dens[1] * length
    if pair(value) != (a, b):
        return [f"cochain_discrepancy({ref.spec.name}, {cochain_spec.interval}) = {pair(value)}, recount gives {(a, b)}"]
    return []


def _extremes(ys: np.ndarray, delta: Surd) -> tuple[Surd, Surd]:
    """Exact min and max of r_i = y_i*delta - i, candidates picked in floats."""
    r = ys * float(delta) - np.arange(ys.size)

    def pick(cands: np.ndarray, side: int) -> Surd:
        vals = [delta * int(ys[i]) - i for i in cands.tolist()]
        best = vals[0]
        for v in vals[1:]:
            if (v - best).sign() * side > 0:
                best = v
        return best

    return (
        pick(np.nonzero(r <= r.min() + 1e-6)[0], -1),
        pick(np.nonzero(r >= r.max() - 1e-6)[0], 1),
    )


def check_witness(ps: PointSet, witness) -> list[str]:
    f = ps.field
    what = f"build_witness(d={f.d}, {len(ps.points)} points)"
    if tuple(witness.points) != ps.points or pair(witness.delta) != ps.density:
        return [f"{what}: witness does not carry its input points and density"]
    delta = Surd.of(f, ps.density)
    ys = np.asarray(ps.points, dtype=np.int64)
    r_lo, r_hi = _extremes(ys, delta)

    def sup(c: int) -> Surd:
        return oracle.smax(r_hi - c, _lift(c, f) - r_lo) / delta

    c = witness.offset
    best = sup(c)
    out: list[str] = []
    if pair(witness.sup_displacement) != best.to_pair(f):
        out.append(f"{what}: sup displacement {pair(witness.sup_displacement)}, recomputed {best.to_pair(f)}")
    for c2 in (c - 1, c + 1):
        if (sup(c2) - best).sign() < 0:
            out.append(f"{what}: offset {c2} beats the chosen offset {c}")
    return out


def _lift(c: int, f) -> Surd:
    return Surd(Q(c), Q(0), f.d)


def check_witness_csv(ps: PointSet, witness, text: str, parsed) -> list[str]:
    """MatchingWitness.to_csv rows recomputed, and from_csv giving it back."""
    f = ps.field
    delta = Surd.of(f, ps.density)
    what = f"witness CSV(d={f.d})"
    lines = text.splitlines()
    rows = lines[5:]
    if len(lines) < 5 or not lines[4].startswith("y,") or len(rows) != len(ps.points):
        return [f"{what}: {len(rows)} rows for {len(ps.points)} points"]
    for i, row in enumerate(rows):
        y, lat, disp = row.split(",")
        want_lat = (_lift(i + witness.offset, f) / delta).to_pair(f)
        if int(y) != ps.points[i] or parse_exact(lat) != want_lat:
            return [f"{what}: row {i} reads {row}"]
        if parse_exact(disp) != (Q(ps.points[i]) - want_lat[0], -want_lat[1]):
            return [f"{what}: displacement of row {i} reads {disp}"]
    if (
        parsed.offset != witness.offset
        or tuple(parsed.points) != ps.points
        or pair(parsed.sup_displacement) != pair(witness.sup_displacement)
        or pair(parsed.delta) != ps.density
    ):
        return [f"{what}: from_csv does not give back the witness"]
    return []

