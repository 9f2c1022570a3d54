"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's decision paths:
values are re-derived with high-precision decimal arithmetic (mpmath)
or with brute-force enumeration over plain Fractions, so agreement is
meaningful evidence rather than a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import mpmath

from cutproject.exactnum import XiReal, XiSpec, pair_sign

DPS = 60


def mp_xi(xi: XiSpec, dps: int = DPS) -> mpmath.mpf:
    with mpmath.workdps(dps):
        return mpmath.mpf(xi.p.numerator) / xi.p.denominator + (
            mpmath.mpf(xi.q.numerator) / xi.q.denominator
        ) * mpmath.sqrt(xi.d)


def mp_value(u: XiReal, dps: int = DPS) -> mpmath.mpf:
    """Decimal evaluation of a + b*xi to dps digits (60 by default)."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(u.a.numerator) / u.a.denominator
        b = mpmath.mpf(u.b.numerator) / u.b.denominator
        return a + b * mp_xi(u.xi, dps)


def mp_sign(u: XiReal) -> int:
    """Sign via the decimal oracle; exact zero only when both parts vanish."""
    if u.a == 0 and u.b == 0:
        return 0
    v = mp_value(u)
    assert abs(v) > mpmath.mpf(10) ** (-(DPS - 10)), (
        "oracle resolution too small; enlarge DPS for this test"
    )
    return 1 if v > 0 else -1


def mp_frac(xi: XiSpec, basepoint: XiReal, k: int) -> mpmath.mpf:
    """Decimal value of frac(basepoint + k*xi)."""
    with mpmath.workdps(DPS):
        v = mp_value(basepoint) + k * mp_xi(xi)
        return v - mpmath.floor(v)


def decimal_orbit_hits(
    xi: XiSpec,
    basepoint: XiReal,
    intervals: list[tuple[XiReal, XiReal]],
    k_min: int,
    k_max: int,
) -> list[int]:
    """Orbit membership decided by 60-digit decimal comparison.

    Suitable for test systems whose orbit points stay farther than the
    oracle resolution from the window endpoints, except for exact hits,
    which are resolved half-open by comparing against the exact value.
    """
    eps = mpmath.mpf(10) ** (-(DPS - 10))
    ivals = [(mp_value(lo), mp_value(hi), lo, hi) for lo, hi in intervals]
    out = []
    for k in range(k_min, k_max + 1):
        c = mp_frac(xi, basepoint, k)
        for lo_f, hi_f, lo, hi in ivals:
            if abs(c - lo_f) < eps or abs(c - hi_f) < eps:
                # possible exact endpoint hit: resolve exactly
                frac, _ = (basepoint + k * xi.xi_real).fractional_part()
                if (frac - lo).sign() >= 0 and (frac - hi).sign() < 0:
                    out.append(k)
                break
            if lo_f < c < hi_f:
                out.append(k)
                break
    return out


def _pair_digits(a: Fraction, b: Fraction, d: int, m: int = 1) -> int:
    """Decimal digits that settle the sign and floor of (a + b*sqrt(d)) / m.

    Cleared of denominators the value is (A + B*sqrt(d)) / M, and
    |A + B*sqrt(d)| >= 1 / (|A| + |B|*sqrt(d)) unless A = B = 0; twice the
    digits of |A| + |B|*sqrt(d) suffice, and bit lengths bound them.
    """
    bits = max(abs(x.numerator).bit_length() + x.denominator.bit_length() for x in (a, b))
    return bits + m.bit_length() + d.bit_length() + 30  # 0.61 digits per bit would do


def _mp_pair(a: Fraction, b: Fraction, d: int) -> mpmath.mpf:
    v = mpmath.mpf(a.numerator) / a.denominator
    return v + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d)


def mp_pair_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for ints or Fractions a, b, via the decimal oracle."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        return 0
    with mpmath.workdps(_pair_digits(a, b, d)):
        v = _mp_pair(a, b, d)
    assert v != 0, "oracle resolution too small"
    return 1 if v > 0 else -1


def mp_floor_pair(a: int, b: int, m: int, d: int) -> int:
    """Floor of (a + b*sqrt(d)) / m via the decimal oracle."""
    a, b = Fraction(a), Fraction(b)
    with mpmath.workdps(_pair_digits(a, b, d, m)):
        return int(mpmath.floor(_mp_pair(a, b, d) / m))


def fraction_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def fraction_km(u: XiReal):
    """(k, m) with u = k*xi + m for integers k and m, else None: the Fractions of
    u = (A + B*sqrt(d))/D against xi = p + q*sqrt(d), with no library lattice test."""
    A, B, D = u.triple
    k = Fraction(B, D) / u.xi.q
    m = Fraction(A, D) - k * u.xi.p
    return (k.numerator, m.numerator) if k.denominator == m.denominator == 1 else None


def exhaustive_oren(window) -> "list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]":
    """All endpoint matchings (sigma, ks, ms) found by trying every permutation.

    Independent of the class-based matching and of the augmenting-path
    search; practical for <= 6 intervals.
    """
    from itertools import permutations

    lefts = [lo for lo, _ in window.intervals]
    rights = [hi for _, hi in window.intervals]
    out = []
    for sigma in permutations(range(len(lefts))):
        kms = [fraction_km(rights[sigma[i]] - lefts[i]) for i in range(len(lefts))]
        if all(km is not None for km in kms):
            out.append(
                (tuple(sigma), tuple(km[0] for km in kms), tuple(km[1] for km in kms))
            )
    return out


def augmenting_oren(window):
    """The Oren matching (sigma, ks, ms) by augmenting paths on the bipartite graph
    of left and right endpoints whose difference lies in Z + Z*xi, or None.

    Left l takes the first free right endpoint it can reach, moving earlier
    lefts along; the library reads the same matching off the boundary
    classes.
    """
    lefts = [lo for lo, _ in window.intervals]
    rights = [hi for _, hi in window.intervals]
    size = len(lefts)
    edges = [
        [fraction_km(rights[j] - lefts[i]) for j in range(size)]
        for i in range(size)
    ]
    match_right = [-1] * size  # right index -> left index

    def augment(i: int, seen: set[int]) -> bool:
        for j in range(size):
            if edges[i][j] is not None and j not in seen:
                seen.add(j)
                if match_right[j] == -1 or augment(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    for i in range(size):
        if not augment(i, set()):
            return None
    sigma = [0] * size
    for j, i in enumerate(match_right):
        sigma[i] = j
    ks = tuple(edges[i][sigma[i]][0] for i in range(size))
    ms = tuple(edges[i][sigma[i]][1] for i in range(size))
    return tuple(sigma), ks, ms


def scan_classes(window):
    """(classes, balance) of the flat endpoints (a_1, b_1, ...) modulo Z + Z*xi,
    by testing each endpoint against one representative of every class so far."""
    classes: list[list[int]] = []
    reps = []
    for idx, e in enumerate(window.endpoints()):
        for c, rep in enumerate(reps):
            if fraction_km(e - rep) is not None:
                classes[c].append(idx)
                break
        else:
            classes.append([idx])
            reps.append(e)
    balance = tuple(
        (sum(1 for i in cls if i % 2 == 0), sum(1 for i in cls if i % 2 == 1))
        for cls in classes
    )
    return tuple(tuple(cls) for cls in classes), balance


def grid_class_shifts(window):
    """Per endpoint e_j, the (j', s) with e_j' - e_j in s*xi + Z, over all pairs."""
    eps = window.endpoints()
    kms = [[fraction_km(f - e) for f in eps] for e in eps]
    return tuple(tuple((jj, km[0]) for jj, km in enumerate(row) if km is not None) for row in kms)


def exact_sup(system, ks) -> XiReal:
    """sup of |D(N)| over all N >= 0 for a window with an Oren matching whose
    xi-coefficients are ks, from the teeth alone (no orbit point is visited).

    D(N) = C - G(y_N), where G(y) is the signed sum of frac(y - e) over the
    teeth e = a_l + j*xi, 0 <= j < kappa_l (sign +1) or kappa_l <= j < 0
    (sign -1), with slope beta = sum(ks), and C = len + G(y_0 - xi).  The
    orbit is dense, so on each piece [p, p') between sorted teeth G(y_N)
    comes arbitrarily close to G(p) and to the left limit
    G(p) + beta*(p' - p), and G takes nothing beyond them there.
    """
    return _sup_and_meeting(system, ks)[0]


def sup_attained_at(system, ks) -> Optional[int]:
    """The least N >= 0 with |D(N)| = ``exact_sup``, or None if there is none.

    The orbit never reaches a left limit G(p'-), and inside a piece
    |C - G| is below its value at one end, so the sup is attained only at
    an N whose orbit point is a tooth p with |C - G(p)| equal to it:
    p - y_0 = N*xi + m for an integer m (``fraction_km``).
    """
    return _sup_and_meeting(system, ks)[1]


def _sup_and_meeting(system, ks):
    xi = system.xi.xi_real
    teeth = []
    for (lo, _), kappa in zip(system.window.intervals, ks):
        js = range(kappa) if kappa > 0 else range(kappa, 0)
        teeth += [((lo + j * xi).fractional_part()[0], 1 if kappa > 0 else -1) for j in js]

    def big_g(y: XiReal) -> XiReal:
        return sum((s * (y - e).fractional_part()[0] for e, s in teeth), system.xi.zero)

    c = system.window.total_length() + big_g(system.basepoint - xi)
    pts = sorted({e for e, _ in teeth})
    values = []
    for p, q in zip(pts, pts[1:] + [pts[0] + 1]):
        g = big_g(p)
        values += [g, g + sum(ks) * (q - p)]
    sup = max(c - min(values), max(values) - c)
    met = [fraction_km(p - system.basepoint) for p in pts if abs(c - big_g(p)) == sup]
    return sup, min((km[0] for km in met if km is not None and km[0] >= 0), default=None)


def brute_profile(system, n_max, checkpoints):
    """Running sup of |D(N)| at the given checkpoints, by direct enumeration.

    Membership is decided by the decimal oracle; the arithmetic on exact
    values uses plain XiReal operations (no incremental scan, no pair
    tricks).
    """
    hits = set(
        decimal_orbit_hits(
            system.xi, system.basepoint, list(system.window.intervals), 0, n_max
        )
    )
    length = system.window.total_length()
    sup = None
    h = 0
    out = {}
    for n in range(0, n_max + 1):
        if n in hits:
            h += 1
        d_abs = abs(system.xi.real(h) - n * length)
        if sup is None or (d_abs - sup).sign() > 0:
            sup = d_abs
        if n in checkpoints:
            out[n] = sup
    return out


def chain_domain(system, pattern):
    """The acceptance domain as a chain of Window set operations: the window,
    intersected with its copy rotated by -o*xi for each required offset o and
    with the complement of that copy for each forbidden one."""
    w = system.window
    if not w:
        return w
    xi = system.xi.xi_real
    dom = w
    for r in sorted(pattern.required - {0}):
        dom = dom.intersect(w.shift_mod1(xi * (-r)))
    for f in sorted(pattern.forbidden):
        dom = dom.intersect(w.shift_mod1(xi * (-f)).complement())
    return dom


def search_provenance(base, endpoint) -> tuple[int, int]:
    """(j, k) with endpoint = frac(e_j + k*xi) for the endpoints e_j of base, the
    least (|k|, j) among them, by one membership test per endpoint."""
    found = []
    for j, e in enumerate(base.endpoints()):
        km = fraction_km(endpoint - e)
        if km is not None:
            found.append((abs(km[0]), j, km[0]))
    assert found, f"{endpoint} is congruent to no window endpoint"
    _, j, k = min(found)
    return j, k


def sign_residue_extrema(points, delta: XiReal) -> tuple[XiReal, XiReal]:
    """(min, max) of r_i = y_i*delta - i for int points, by one ``pair_sign`` per comparison
    against the running extremes: how ``bdmatch`` ranked the residues before floor keys."""
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


def walk_first_run(d: int, m: int, step) -> list:
    """The first run (a, alpha, b, beta, alpha > beta) of the walk of frac(xi), step its
    radical pair scaled by m: a run as ``_scaled`` kept it before it kept its quotient."""
    return [(1, step, 1, (m - step[0], -step[1]), pair_sign(2 * step[0] - m, 2 * step[1], d) > 0)]


def single_steps(d: int, m: int, step):
    """(alpha > beta before the step, gaps after it) for each step of the walk of frac(xi)
    from (1, frac(xi), 1, 1 - frac(xi)), one ``pair_sign`` a step: how ``_scaled._plan``
    walked before it read the shared runs."""
    a, al, b, be = 1, step, 1, (m - step[0], -step[1])
    while True:
        left = pair_sign(al[0] - be[0], al[1] - be[1], d) > 0
        if left:
            a, al = a + b, (al[0] - be[0], al[1] - be[1])
        else:
            b, be = a + b, (be[0] - al[0], be[1] - al[1])
        yield left, (a, al, b, be)


def floor_ratio(d: int, x, y) -> int:
    """floor(x / y) for radical pairs over sqrt(d), y nonzero, by ``XiReal`` division."""
    root = XiSpec.sqrt(d)
    return (XiReal.from_triple(*x, 1, root) / XiReal.from_triple(*y, 1, root)).floor()


def walk_floor_every_time(d: int, runs: list, ell, i: int):
    """``_scaled._walk`` as it was before runs kept their quotients: an exact floor for each
    run it adds (appended to `runs`, from ``walk_first_run``) and one at every stop."""
    while True:
        a, alpha, b, beta, left = runs[i]
        big, small = (alpha, beta) if left else (beta, alpha)
        if pair_sign(small[0] - ell[0], small[1] - ell[1], d) < 0:
            break
        if i + 1 == len(runs):
            t = floor_ratio(d, big, small)
            rest = (big[0] - t * small[0], big[1] - t * small[1])
            runs.append((a + t * b, rest, b, beta, False) if left else (a, alpha, b + t * a, rest, True))
        i += 1
    t = floor_ratio(d, (big[0] - ell[0], big[1] - ell[1]), small) + 1
    rest = (big[0] - t * small[0], big[1] - t * small[1])
    return i, ((a + t * b, rest, b, beta) if left else (a, alpha, b + t * a, rest))
