"""Integer-scaled three-gap scanner for rotation orbits (internal).

Every quantity a scan touches lives in Q(xi) with a fixed quadratic
irrational xi = p + q*sqrt(d).  After clearing denominators by a common
modulus M, each value becomes an integer pair (A, B) standing for
(A + B*sqrt(d)) / M, so orbit points move by integer additions and every
comparison is an integer sign test that needs at most two
multiplications (compare A^2 against B^2*d; a tie there is impossible
for squarefree d unless both parts vanish, which is exactly value
equality).  No floating point anywhere.

Hits of one interval are enumerated by three-gap stepping
(``interval_hits``).  For [lo, hi) of length l, let a be the least k >= 1
with alpha = frac(k*xi) < l and b the least k >= 1 with beta =
1 - frac(k*xi) < l (``return_gaps``, a subtractive Euclid walk).  By
Slater's three-gap theorem the return times to the interval are a, b and
a + b: from a hit y at index k the next hit is k + a if y < hi - alpha,
else k + b if y >= lo + beta, else k + a + b.  The first hit is the first
record of v = frac(y_k - lo) (the orbit closer to lo from the right than
ever before) below l, read off the Euclid walk over the shrinking records
(``_records``, below): as xi has bounded partial quotients, it takes
O(log(a + b)) steps, so a call costs O(#hits + log(a + b)).  Its runs
depend on xi alone: they are computed once and shared (``_walk``).

Long ranges copy hits forward by blocks (``collect_hits``).  For a walk
time q, frac(q*xi) = alpha or 1 - beta, so y_{k+q} = y_k + eps (mod 1)
exactly with eps = alpha or -beta: k + q lies in k's piece (an interval,
or a gap of the hull) unless y_k lies on the crossing arc [c - eps, c)
or [c, c - eps) of an endpoint c, split at 0 if it wraps, and then in
the piece just past c (if it crosses two endpoints, it is stepped).  The
first q indices and the arcs are stepped.  A block is kept as the offsets
of its hits from its start, the gaps between them and their colours, which
stay the same from block to block but at the crossings: each patches them
at its offset (a delete merges two gaps and an insert splits one, or drops
or adds an end gap).  A block adds one bridge gap to the output and then
its gap and colour lists, copied by reference, so no bytecode runs per hit;
one ``accumulate`` over the output's gaps makes each hit's int at the end.
In stepped hits, a shift by q over N indices costs q*len for
the first block and C*N*E*|eps| for the crossings, with len the total
length of the pieces, E the number of their distinct endpoints and C the
cost of one crossing (its arc step, its sort and the patch of its block).
``_plan`` walks the times with 3q <= N one step at a time and keeps the
one of least cost, compared exactly on the scaled pairs; as |eps| = O(1/q)
for bounded partial quotients, that is O(sqrt(C*N*E*len)).  The range is
stepped whole where that costs less, N*len against the least cost plus a
fixed A per endpoint (the record walk to an arc's first point), or where
the window has fewer than 8 hits per crossing (length < 8*|eps| per
endpoint, as for an acceptance domain).  C = 2 and A = 96 were measured
with CPython 3.11.7 on 2 cores: over the walk times of the benchmark's
four golden-ratio windows at N = 5*10^4 a crossing cost 2.3-2.5 stepped
hits (whole rounds were flat for C from 2 to 6), and on windows of 1 and 3 intervals over sqrt(2), sqrt(3),
sqrt(101) and the golden ratio at N = 100 to 5,000 stepping whole won
wherever N*len exceeded the least cost by less than 72 stepped hits per
endpoint, the block shift wherever by more than 88.

Hit counts step over nothing (``count_hits``).  For 0 <= lo <= hi <= 1,
1[frac(y) in [lo, hi)] = floor(y - lo) - floor(y - hi), so the count over
N + 1 consecutive k is the difference of two floor sums
S(N, a, b) = sum_{k=0..N} floor(a*k + b) with a = frac(xi) (``floor_sum``).
S reduces by the reciprocity step of Euclid's algorithm.  Stripping the
integer parts adds floor(a)*N*(N + 1)/2 + floor(b)*(N + 1) and leaves
0 < a < 1, 0 <= b < 1; then, with M = floor(a*N + b), counting the
lattice points under the line row by row gives

    S(N, a, b) = M*N + sing - S(M - 1, 1/a, (1 - b)/a).

The singular correction sing is 1 if a*k + b is an integer for some k in
[1, N] and 0 otherwise; a is irrational, so at most one k qualifies, and
the vanishing of the sqrt(d) coefficient of a*k + b fixes it.  As
a*frac(1/a) < 1/2, N falls by half every two levels: a count costs
O(log N) exact floors for any N.

Profiles of windows with an Oren matching scan nothing either
(``closed_form_rows``).  Since 1[frac(y) in [lo, hi)] - (hi - lo) =
frac(y - hi) - frac(y - lo), a matching b_sigma(l) = a_l + kappa_l*xi + m_l
makes the sum over k telescope: with f_l(y) = frac(y - a_l) and
y_n = basepoint + n*xi, D(n) = C - G(y_n), where

    G(y) = sum_{kappa_l > 0} sum_{j=0..kappa_l-1} f_l(y - j*xi)
         - sum_{kappa_l < 0} sum_{j=1..|kappa_l|} f_l(y + j*xi)

and C = len + G(y_0 - xi).  G is piecewise linear with slope
beta = sum kappa_l, never 0 as len = beta*xi + integer, and jumps at its
teeth a_l + j*xi.  So max |D| over n <= N is the larger of
C - min G(y_n) and max G(y_n) - C, and on a piece [p, p') between sorted
teeth these extremes sit at the orbit points nearest each end.  Those
nearest p from the right are the records of v = frac(y_n - p), the chain
that finds a first hit: the next is at n + b with value v - beta, unless
the orbit meets p exactly before (at most once, at the k that the
sqrt(d) coefficient fixes, as for ``find_singular``), where v drops to 0
and the chain ends.  Those nearest p' from the left are the records of
u = p' - y_n in (0, 1], next at n + a with value u - alpha.  Both chains
are ``_records``, each reading the one Euclid walk of xi (``_walk``), and a
record counts once it lies in the piece.  For a quadratic xi the chains hold
O(teeth * log N) records, and the profile merges them with its samples
at one exact comparison each.

Profiles of other windows come from block tables (``table_rows``), a
Rauzy induction of the rotation onto the nested intervals
J_i = [-beta_i, alpha_i) that the walk of ``_walk`` passes through
(a_i, b_i its times).  In the signed coordinate x = y, or y - 1 for
y >= frac(xi), J_0 = [frac(xi) - 1, frac(xi)) is the circle, and the
return rule is exact: x in [-beta, 0) comes back to J after a steps, at
x + alpha, and x in [0, alpha) after b steps, at x - beta.  The table F_i
maps x in J_i to the summary (sum, max prefix, min prefix) of
f = chi_W - len over its return block, each an integer pair (h, k)
standing for h - k*len.  Summaries multiply as

    (s, hi, lo)(s', hi', lo') = (s + s', max(hi, s + hi'), min(lo, s + lo'))

at one sign test per max or min.  F_0 is (1, 1) or (0, 1) thrice, cut
at 0 and the endpoints.  One walk step with alpha > beta gives
J' = [-beta, alpha - beta), a' = a + b: a block from [-beta, 0) goes on
from x + alpha, outside J', so F'(x) = F(x) F(x + alpha) there, and F
is kept on [0, alpha - beta).  With beta > alpha it is the mirror image,
b' = a + b and F'(x) = F(x) F(x - beta) on [0, alpha).  The tower floors
of J_i cover the circle once and each endpoint lies in one floor, so
F_i has at most 2L + 2 pieces once equal neighbours merge.  The n steps
from x are a greedy climb: go up a level while x lies in the next J and
its block fits, else take F_i(x) if it fits, else go down; at most two
blocks a level, so O(log n) lookups as xi has bounded partial quotients,
times their size (a level is one subtraction): a profile of [1/7, 9/14)
to 10^6 at xi = sqrt(k^2 + 1) takes 160 times as long at k = 10^4 as at 10.
A profile multiplies the products from record to record: the prefix
(h, k) of steps 0..n gives D(n) = h - (k - 1)*len, and max |D| reads
max(hi, -lo) the same way.  Only the levels with a block of at most
records[-1] + 1 steps are read, and each is built once per window.

``collect_hits_direct`` is the independent route: ``state_at(k)`` (one
explicit floor per index, no carried state) and two sign tests per
interval, so the stepping core is checked against it (``strip_points``
and the tests).  Every sign test is ``exactnum.pair_sign`` and every
floor ``exactnum.floor_pair``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from itertools import accumulate, chain
from math import gcd, lcm
from operator import itemgetter, sub
from typing import Iterator, Optional, Sequence

from .exactnum import Triple, XiReal, XiSpec, floor_pair, pair_sign

Pair = tuple[int, int]
Interval = tuple[int, int, int, int]  # (lo_a, lo_b, hi_a, hi_b)


def debug(logger: str, msg: str, *args: object) -> None:
    """Log at DEBUG on ``logger`` if ``logging`` is loaded: the package never imports
    it (ms at start-up), and where nothing else has, the line has nowhere to go."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).debug(msg, *args)


@dataclass(frozen=True)
class ScaledSystem:
    d: int
    m: int
    base: tuple[int, int]  # reduced basepoint, scaled radical pair
    step: tuple[int, int]  # frac(xi), scaled radical pair: k*step = k*xi mod 1
    ivals: tuple[Interval, ...]
    length: tuple[int, int]  # total window length, scaled radical pair
    xi: XiSpec

    def frac(self, a: int, b: int) -> tuple[int, int]:
        """Scaled radical pair of frac((a + b*sqrt(d)) / m)."""
        return a - floor_pair(a, b, self.m, self.d) * self.m, b

    def contains(self, ya: int, yb: int) -> bool:
        """Whether the scaled radical pair of a point of [0, 1) lies in the window."""
        d = self.d
        for lo_a, lo_b, hi_a, hi_b in self.ivals:
            if pair_sign(ya - lo_a, yb - lo_b, d) >= 0 and pair_sign(ya - hi_a, yb - hi_b, d) < 0:
                return True
        return False

    def state_at(self, k: int) -> tuple[int, int]:
        """Scaled radical pair of frac(basepoint + k*xi)."""
        return self.frac(self.base[0] + k * self.step[0], self.base[1] + k * self.step[1])

    def unscale(self, pair: tuple[int, int]) -> XiReal:
        """The exact field element (A + B*sqrt(d)) / m of a scaled radical pair."""
        return XiReal.from_triple(pair[0], pair[1], self.m, self.xi)


def _floor_ratio(d: int, x: Pair, y: Pair) -> int:
    """Exact floor of x / y for radical pairs over sqrt(d), y nonzero."""
    den = y[0] * y[0] - y[1] * y[1] * d  # nonzero: d is squarefree
    na = x[0] * y[0] - x[1] * y[1] * d
    nb = x[1] * y[0] - x[0] * y[1]
    if den < 0:
        den, na, nb = -den, -na, -nb
    return floor_pair(na, nb, den, d)


def scale_system(
    xi: XiSpec, basepoint: XiReal, intervals: Sequence[tuple[XiReal, XiReal]]
) -> ScaledSystem:
    step_frac, _ = xi.xi_real.fractional_part()
    triples = [v.triple for v in (basepoint, step_frac, *chain(*intervals))]
    m = lcm(*(D for _, _, D in triples))
    scaled = [(A * (m // D), B * (m // D)) for A, B, D in triples]
    epairs = scaled[2:]
    ivals = tuple(
        (epairs[2 * i][0], epairs[2 * i][1], epairs[2 * i + 1][0], epairs[2 * i + 1][1])
        for i in range(len(intervals))
    )
    length = (
        sum(hi_a - lo_a for lo_a, _, hi_a, _ in ivals),
        sum(hi_b - lo_b for _, lo_b, _, hi_b in ivals),
    )
    return ScaledSystem(
        d=xi.d,
        m=m,
        base=scaled[0],
        step=scaled[1],
        ivals=ivals,
        length=length,
        xi=xi,
    )


def find_singular(ss: ScaledSystem, k_min: int, k_max: int) -> Optional[int]:
    """Smallest k in range whose orbit point equals a window endpoint exactly.

    The sqrt(d)-coefficient of frac(basepoint + k*xi) is base_b + k*q*M,
    strictly monotone in k, so each endpoint can be hit at most once; the
    candidate k solves a linear equation and is then verified exactly.
    """
    targets = set()
    for lo_a, lo_b, hi_a, hi_b in ss.ivals:
        targets.add((lo_a, lo_b))
        # the endpoint value 1 is the circle point 0
        targets.add((0, 0) if (hi_a, hi_b) == (ss.m, 0) else (hi_a, hi_b))
    ks = [_orbit_index(ss, t) for t in targets]
    return min((k for k in ks if k is not None and k_min <= k <= k_max), default=None)


def _orbit_index(ss: ScaledSystem, pair: Pair) -> Optional[int]:
    """The k with frac(basepoint + k*xi) equal to the reduced pair, if any."""
    k, r = divmod(pair[1] - ss.base[1], ss.step[1])
    return k if r == 0 and ss.state_at(k) == pair else None


# -- three-gap stepping ----------------------------------------------------------


Gaps = tuple[int, Pair, int, Pair]  # (a, alpha, b, beta)
Run = tuple[int, Pair, int, Pair, bool]  # the gaps at a run's start, and alpha > beta


@lru_cache(maxsize=1024)
def return_gaps(d: int, m: int, step: Pair, ell: Pair) -> Gaps:
    """Least return times (a, alpha, b, beta) to an interval of length ell.

    a is the least k >= 1 with alpha = frac(k*xi) < ell and b the least
    k >= 1 with beta = 1 - frac(k*xi) < ell; step is frac(xi), and every
    value is a radical pair scaled by m.  The subtractive Euclid walk
    starts from (1, frac(xi)) and (1, 1 - frac(xi)) (``_walk``).
    """
    if pair_sign(ell[0], ell[1], d) <= 0:
        raise ValueError("an interval of length <= 0 has no return times")
    return _walk(d, _runs(d, m, step), ell, 0)[1]


@lru_cache(maxsize=256)
def _runs(d: int, m: int, step: Pair) -> list[Run]:
    """The first run of the walk of frac(xi); ``_walk`` adds the later ones as it needs them."""
    return [(1, step, 1, (m - step[0], -step[1]), pair_sign(2 * step[0] - m, 2 * step[1], d) > 0)]


def _walk(d: int, runs: list[Run], ell: Pair, i: int) -> tuple[int, Gaps]:
    """(j, gaps): the first state of the subtractive Euclid walk with alpha, beta < ell,
    from run i of ``runs`` on.  A step subtracts the smaller value from the larger and
    adds the two times; run j takes the larger, v_j, down by v_{j+1} to v_j mod v_{j+1}.
    The states do not depend on ell: the walk stops in the run with v_{j+1} < ell <= v_j,
    at one exact floor.  Each run is computed once per (d, m, step) and stored
    idempotently, so threads that extend one list add it once."""
    while True:
        a, alpha, b, beta, left = runs[i]
        big, small = (alpha, beta) if left else (beta, alpha)
        if pair_sign(small[0] - ell[0], small[1] - ell[1], d) < 0:
            break
        if i + 1 == len(runs):
            t = _floor_ratio(d, big, small)
            rest = (big[0] - t * small[0], big[1] - t * small[1])
            nxt = (a + t * b, rest, b, beta, False) if left else (a, alpha, b + t * a, rest, True)
            runs[i + 1:i + 2] = [nxt]
        i += 1
    t = _floor_ratio(d, (big[0] - ell[0], big[1] - ell[1]), small) + 1
    rest = (big[0] - t * small[0], big[1] - t * small[1])
    return i, ((a + t * b, rest, b, beta) if left else (a, alpha, b + t * a, rest))


def _records(
    ss: ScaledSystem, p: Pair, k0: int, n_max: int, left: bool = True
) -> Iterator[tuple[int, Pair]]:
    """(n, v) at each strict record over 0 <= n <= n_max of v = frac(y_{k0+n} - p), or
    with left=False of u = p - y_{k0+n} in (0, 1]; p is reduced (module docstring)."""
    ya, yb = ss.state_at(k0)
    fa, fb = ss.frac(ya - p[0], yb - p[1])
    v = (fa, fb) if left else (ss.m - fa, -fb)
    k_hit = _orbit_index(ss, p) if left else None
    runs = _runs(ss.d, ss.m, ss.step)
    i = n = 0
    while n <= n_max:
        yield n, v
        if n == n_max or v == (0, 0):
            return
        i, (a, alpha, b, beta) = _walk(ss.d, runs, v, i)
        if not left:
            n, v = n + a, (v[0] - alpha[0], v[1] - alpha[1])
        elif k_hit is not None and n < k_hit - k0 < n + b:  # v drops to 0 exactly there
            n, v = k_hit - k0, (0, 0)
        else:
            n, v = n + b, (v[0] - beta[0], v[1] - beta[1])


def interval_hits(ss: ScaledSystem, iv: Interval, k_min: int, k_max: int) -> Iterator[int]:
    """Increasing k in [k_min, k_max] with frac(basepoint + k*xi) in [lo, hi): three-gap
    steps from the first record of frac(y_k - lo) below hi - lo (``_records``)."""
    d = ss.d
    lo_a, lo_b, hi_a, hi_b = iv
    la, lb = hi_a - lo_a, hi_b - lo_b
    ga, (al_a, al_b), gb, (be_a, be_b) = return_gaps(d, ss.m, ss.step, (la, lb))
    for n, (va, vb) in _records(ss, (lo_a, lo_b), k_min, k_max - k_min):
        if pair_sign(va - la, vb - lb, d) < 0:
            break
    else:
        return
    k = k_min + n
    ya, yb = lo_a + va, lo_b + vb
    t1_a, t1_b = hi_a - al_a, hi_b - al_b  # step by a below hi - alpha
    t2_a, t2_b = lo_a + be_a, lo_b + be_b  # else by b from lo + beta on
    gab = ga + gb
    ab_a, ab_b = al_a - be_a, al_b - be_b
    while True:
        yield k
        if pair_sign(ya - t1_a, yb - t1_b, d) < 0:  # y < hi - alpha
            k += ga
            ya += al_a
            yb += al_b
        elif pair_sign(ya - t2_a, yb - t2_b, d) >= 0:  # y >= lo + beta
            k += gb
            ya -= be_a
            yb -= be_b
        else:
            k += gab
            ya += ab_a
            yb += ab_b
        if k > k_max:
            return


# -- block shift (module docstring) --------------------------------------------------

Piece = tuple[Interval, int]  # an interval and its colour
Block = tuple[tuple[int, ...], tuple[int, ...]]  # hits and their colours


def _stepped(ss: ScaledSystem, pieces: list[Piece], k_min: int, k_max: int) -> Block:
    """Hits of the pieces in [k_min, k_max] and their colours, by three-gap stepping."""
    if len(pieces) == 1:
        ks = tuple(interval_hits(ss, pieces[0][0], k_min, k_max))
        return ks, (pieces[0][1],) * len(ks)
    hits = sorted((k, color) for iv, color in pieces for k in interval_hits(ss, iv, k_min, k_max))
    return tuple(map(itemgetter(0), hits)), tuple(map(itemgetter(1), hits))


CROSSING_COST = 2  # C: one crossing, in stepped hits (module docstring)
ARC_COST = 96  # A: the fixed cost of the block shift per endpoint, in stepped hits


@lru_cache(maxsize=256)
def _plan(d: int, m: int, step: Pair, ivals: tuple[Interval, ...], span: int, hull: bool) -> tuple:
    """(pieces, q, arcs): q the walk time with 3q <= span of least cost
    q*len + C*span*E*|eps|, by single steps, and q = 0 where stepping the span whole
    costs less (span*len against that cost plus A*E) or there are fewer than 8 hits
    per crossing (module docstring)."""
    pieces: list[Piece] = []
    for color, iv in enumerate(ivals, 1):
        if hull and pieces:
            pieces.append(((pieces[-1][0][2], pieces[-1][0][3], iv[0], iv[1]), 0))
        pieces.append((iv, color))
    ends = {e if e != (m, 0) else (0, 0) for iv, _ in pieces for e in (iv[:2], iv[2:])}  # 1 is 0
    la = sum(iv[2] - iv[0] for iv, _ in pieces)
    lb = sum(iv[3] - iv[1] for iv, _ in pieces)
    w = CROSSING_COST * span * len(ends)
    best = (span * la - ARC_COST * len(ends) * m, span * lb)  # a q must beat stepping whole, less A per endpoint
    q = 0
    a, al, b, be = 1, step, 1, (m - step[0], -step[1])
    while 3 * (a + b) <= span:
        if pair_sign(al[0] - be[0], al[1] - be[1], d) > 0:
            a, al = a + b, (al[0] - be[0], al[1] - be[1])
            t, eps, s = a, al, al  # eps = alpha
        else:
            b, be = a + b, (be[0] - al[0], be[1] - al[1])
            t, eps, s = b, be, (0, 0)  # eps = -beta
        cost = (t * la + w * eps[0], t * lb + w * eps[1])  # q*len + C*span*E*|eps|
        if pair_sign(cost[0] - best[0], cost[1] - best[1], d) < 0:
            q, (ea, eb), shift, best = t, eps, s, cost  # |eps|, max(eps, 0)
    if not q or pair_sign(la - 8 * len(ends) * ea, lb - 8 * len(ends) * eb, d) < 0:
        return pieces, 0, []
    side = slice(0, 2) if shift != (0, 0) else slice(2, 4)  # the colour past each endpoint by eps
    past = dict.fromkeys(ends) | {iv[side]: color for iv, color in pieces}
    past[0, 0] = past.pop((m, 0), past.get((0, 0)))
    arcs = []  # [c - eps, c) or [c, c - eps), split at 0 if it wraps: none empty
    for c in ends:
        sa, sb = c[0] - shift[0], c[1] - shift[1]
        sa += m if pair_sign(sa, sb, d) < 0 else 0
        ta, tb = sa + ea, sb + eb
        wraps = pair_sign(ta - m, tb, d) > 0
        parts = [(sa, sb, m, 0), (0, 0, ta - m, tb)] if wraps else [(sa, sb, ta, tb)]
        arcs += [(arc, past[c]) for arc in parts]
    return pieces, q, arcs


def collect_hits(ss: ScaledSystem, k_min: int, k_max: int, hull: bool = False) -> Block:
    """Increasing k in [k_min, k_max] whose orbit point lies in the window, and their
    colours: with hull=True the hits of the hull, coloured by interval index (1-based)
    or 0 when the point lies in none of the intervals, else of the intervals alone.

    On the block shift each block of q indices is the last one's offsets, gaps and
    colours patched at its crossings; the output is the first hit, then per block a
    bridge gap and the block's gaps, summed once by ``accumulate`` (module docstring)."""
    span = k_max - k_min + 1
    pieces, q, arcs = _plan(ss.d, ss.m, ss.step, ss.ivals, span, hull)
    if not q:
        debug(__name__, "hits %d..%d: three-gap stepping, %d pieces", k_min, k_max, len(pieces))
        return _stepped(ss, pieces, k_min, k_max)
    # the k whose point crosses an endpoint when moved on by q: those on its arc
    on_arcs = ((k, color) for arc, color in arcs for k in interval_hits(ss, arc, k_min, k_max - q))
    cross = sorted(on_arcs, key=itemgetter(0))
    debug(
        __name__, "hits %d..%d: block shift, q=%d, %d blocks, %d crossings",
        k_min, k_max, q, -(-span // q), len(cross),
    )
    ks, colors = _stepped(ss, pieces, k_min, k_min + q - 1)
    # a block: the offsets of its hits from its start, the gaps between them, their colours
    offs, colors = [k - k_min for k in ks], list(colors)
    gaps = list(map(sub, offs[1:], offs))
    out_gaps, out_colors = [], []  # out_gaps: the first hit, then each gap after it
    last = i = 0
    for start in range(k_min, k_max + 1, q):
        while i < len(cross) and cross[i][0] < start:  # the crossings of the last block
            k, color = cross[i]
            i += 1
            while i < len(cross) and cross[i][0] == k:  # it crosses several endpoints: step k + q
                i += 1
                color = (_stepped(ss, pieces, k + q, k + q)[1] or (None,))[0]
            o = k + q - start
            j = bisect_left(offs, o)
            hit = j < len(offs) and offs[j] == o
            if hit and color is not None:
                colors[j] = color
            elif hit:  # a delete merges two gaps, or drops an end gap
                del offs[j], colors[j]
                if 0 < j < len(offs):
                    gaps[j - 1] += gaps.pop(j)
                elif gaps:
                    gaps.pop(-1 if j else 0)
            elif color is not None:  # an insert splits a gap, or adds an end gap
                if 0 < j < len(offs):
                    gaps.insert(j, offs[j] - o)
                    gaps[j - 1] = o - offs[j - 1]
                elif j:
                    gaps.append(o - offs[-1])
                elif offs:
                    gaps.insert(0, offs[0] - o)
                offs.insert(j, o)
                colors.insert(j, color)
        if start + q - 1 > k_max:  # the last block ends at k_max
            j = bisect_right(offs, k_max - start)
            del offs[j:], colors[j:], gaps[max(j - 1, 0):]
        if offs:  # references to the block's gaps and colours, no work per hit
            out_gaps.append(start + offs[0] - last)
            out_gaps += gaps
            out_colors += colors
            last = start + offs[-1]
    return tuple(accumulate(out_gaps)), tuple(out_colors)


# -- floor sums -------------------------------------------------------------------


def floor_sum(n: int, a: Triple, b: Triple, d: int) -> int:
    """Exact sum of floor(a*k + b) over 0 <= k <= n (0 when n < 0).

    a must be irrational (B != 0); b is any radical triple.  Each level
    strips floor(a) and floor(b), adds M*n + sing with M = floor(a*n + b)
    and goes on with (M - 1, 1/a, (1 - b)/a) and the opposite sign (module
    docstring).  Both triples share one denominator, divided by the gcd of
    all five integers at each level.
    """
    A, B, da = a
    C, E, db = b
    D = lcm(da, db)
    A, B, C, E = A * (D // da), B * (D // da), C * (D // db), E * (D // db)
    total = 0
    sign = 1
    while n >= 0:
        fa = floor_pair(A, B, D, d)
        fb = floor_pair(C, E, D, d)
        A -= fa * D
        C -= fb * D
        big_m = floor_pair(A * n + C, B * n + E, D, d)
        # sing: some k in [1, n] makes a*k + b an integer; its sqrt(d) part
        # B*k + E must vanish, which fixes k
        k, r = divmod(-E, B)
        sing = 1 if r == 0 and 1 <= k <= n and (A * k + C) % D == 0 else 0
        total += sign * (fa * (n * (n + 1) // 2) + fb * (n + 1) + big_m * n + sing)
        # 1/a = D*(A - B*sqrt(d))/N and (1 - b)/a = (D - C - E*sqrt(d))*(A - B*sqrt(d))/N
        N = A * A - B * B * d
        A, B, C, E = D * A, -D * B, (D - C) * A + E * B * d, -(D - C) * B - E * A
        D = N
        if D < 0:
            A, B, C, E, D = -A, -B, -C, -E, -D
        g = gcd(A, B, C, E, D)
        A, B, C, E, D = A // g, B // g, C // g, E // g, D // g
        n = big_m - 1
        sign = -sign
    return total


def count_hits(ss: ScaledSystem, k_min: int, k_max: int) -> int:
    """Number of k in [k_min, k_max] whose orbit point lies in the window.

    Per interval [lo, hi): the floor sums of y_k - lo and y_k - hi over the
    range, y_k = basepoint + k*xi, differ by the hit count.  Stepping by
    frac(xi) in place of xi shifts both sums by the same integer.
    """
    n = k_max - k_min
    m = ss.m
    step = (ss.step[0], ss.step[1], m)
    ya = ss.base[0] + k_min * ss.step[0]
    yb = ss.base[1] + k_min * ss.step[1]
    return sum(
        floor_sum(n, step, (ya - lo_a, yb - lo_b, m), ss.d)
        - floor_sum(n, step, (ya - hi_a, yb - hi_b, m), ss.d)
        for lo_a, lo_b, hi_a, hi_b in ss.ivals
    )


def collect_hits_direct(ss: ScaledSystem, k_min: int, k_max: int) -> list[int]:
    """Lattice-line enumeration: an explicit floor per column x = k.

    Independent of the stepping core above (no carried state), so the two
    routes cross-check each other.
    """
    contains, state_at = ss.contains, ss.state_at
    return [k for k in range(k_min, k_max + 1) if contains(*state_at(k))]


# -- block tables (module docstring) --------------------------------------------------

Summary = tuple[int, int, int, int, int, int]  # (h, k) of the sum, the max and the min prefix
Level = tuple[int, Pair, int, Pair, list[Pair], list[Summary]]  # a, alpha, b, beta, table


@lru_cache(maxsize=8)  # a window's levels keep its call's peak: 3.4 MiB at sqrt(10^6 + 1) to 10^6
def _levels(d: int, m: int, step: Pair, ivals: tuple[Interval, ...]) -> list[Level]:
    return []  # the levels of the window's tables built so far; ``table_rows`` adds more


def table_rows(
    ss: ScaledSystem, records: Sequence[int]
) -> tuple[list[tuple[int, XiReal, XiReal]], int]:
    """Profile rows (n, D(n), max |D(N)| over N <= n) at each record, from the block
    tables of the levels whose blocks fit in 0..records[-1] (cached per window by
    ``_levels``, as they do not depend on the basepoint); `records` is increasing and
    nonempty.  Returns the rows and the number of those levels."""
    d = ss.d
    m = ss.m
    la, lb = ss.length

    def sign(a: int, b: int) -> int:
        return pair_sign(a, b, d)

    def inside(x: Pair, al: Pair, be: Pair) -> bool:  # x in J = [-beta, alpha)
        return sign(x[0] + be[0], x[1] + be[1]) >= 0 and sign(x[0] - al[0], x[1] - al[1]) < 0

    def mul(s: Summary, t: Summary) -> Summary:
        h, k, hh, hk, lh, lk = s
        th, tk, thh, thk, tlh, tlk = t
        ch, ck = h + thh, k + thk  # max(hi, s + hi'): the sign of (ch - ck*len) - (hh - hk*len)
        if sign((ch - hh) * m - (ck - hk) * la, (hk - ck) * lb) > 0:
            hh, hk = ch, ck
        ch, ck = h + tlh, k + tlk
        if sign((ch - lh) * m - (ck - lk) * la, (lk - ck) * lb) < 0:
            lh, lk = ch, ck
        return h + th, k + tk, hh, hk, lh, lk

    def find(cuts: list[Pair], x: Pair) -> int:  # the piece [cuts[j], cuts[j + 1]) holding x
        lo, hi = 0, len(cuts)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sign(x[0] - cuts[mid][0], x[1] - cuts[mid][1]) >= 0:
                lo = mid
            else:
                hi = mid
        return lo

    def ordered(pts: set[Pair]) -> list[Pair]:
        return sorted(pts, key=cmp_to_key(lambda u, v: sign(u[0] - v[0], u[1] - v[1])))

    def merged(cuts: list[Pair], vals: list[Summary]) -> tuple[list[Pair], list[Summary]]:
        keep = [j for j in range(len(vals)) if not j or vals[j] != vals[j - 1]]
        return [cuts[j] for j in keep], [vals[j] for j in keep]

    sa, sb = ss.step
    levels = _levels(d, m, ss.step, ss.ivals)
    if not levels:
        ends = {e if e != (m, 0) else (0, 0) for iv in ss.ivals for e in (iv[:2], iv[2:])}
        signed = {e if sign(e[0] - sa, e[1] - sb) < 0 else (e[0] - m, e[1]) for e in ends}
        cuts = ordered({(sa - m, sb), (0, 0)} | signed)  # J_0 = [frac(xi) - 1, frac(xi)), cut at 0
        vals = []
        for c in cuts:  # one step from the circle point of c
            hit = ss.contains(*(c if sign(*c) >= 0 else (c[0] + m, c[1])))
            vals.append((int(hit), 1) * 3)
        levels[:1] = [(1, ss.step, 1, (m - sa, -sb), *merged(cuts, vals))]
    while True:  # top: the last level whose blocks fit in 0..records[-1]
        top = bisect_right(levels, records[-1] + 1, key=lambda lv: min(lv[0], lv[2])) - 1
        if top < len(levels) - 1:
            break
        a, al, b, be, cuts, vals = levels[top]
        left = sign(al[0] - be[0], al[1] - be[1]) > 0
        if left:  # J' = [-beta, alpha - beta): a block from [-beta, 0) goes on from x + alpha
            nxt = (a + b, (al[0] - be[0], al[1] - be[1]), b, be)
            shift = al
        else:  # J' = [alpha - beta, alpha): a block from [0, alpha) goes on from x - beta
            nxt = (a, al, a + b, (be[0] - al[0], be[1] - al[1]))
            shift = (-be[0], -be[1])
        if min(nxt[0], nxt[2]) > records[-1] + 1:
            break
        _, al2, _, be2 = nxt
        # a cut of J outside J' comes back as its preimage, on the doubling side
        pts = {c if inside(c, al2, be2) else (c[0] - shift[0], c[1] - shift[1]) for c in cuts}
        new_cuts = ordered(pts | {(-be2[0], -be2[1]), (0, 0)})
        new_vals = []
        for c in new_cuts:
            v = vals[find(cuts, c)]
            if (sign(*c) < 0) == left:  # the block doubles
                v = mul(v, vals[find(cuts, (c[0] + shift[0], c[1] + shift[1]))])
            new_vals.append(v)
        levels[top + 1:top + 2] = [(*nxt, *merged(new_cuts, new_vals))]

    x = ss.base if sign(ss.base[0] - sa, ss.base[1] - sb) < 0 else (ss.base[0] - m, ss.base[1])
    neg = sign(*x) < 0
    acc: Optional[Summary] = None
    rows = []
    prev = -1
    for rec in records:
        n = rec - prev  # the steps prev + 1..rec: climb while the blocks fit, then go down
        prev = rec
        i = 0
        while n:
            if i < top:
                a, al, b, be, _, _ = levels[i + 1]
                if (a if neg else b) <= n and inside(x, al, be):
                    i += 1
                    continue
            a, al, b, be, cuts, vals = levels[i]
            r = a if neg else b
            if r > n:
                i -= 1
                continue
            v = vals[find(cuts, x)]
            acc = v if acc is None else mul(acc, v)
            x = (x[0] + al[0], x[1] + al[1]) if neg else (x[0] - be[0], x[1] - be[1])
            neg = sign(*x) < 0
            n -= r
        h, k, hh, hk, lh, lk = acc  # k = rec + 1 steps, so D(rec) = h - rec*len
        up = (hh * m - (hk - 1) * la, (1 - hk) * lb)  # max D
        down = ((lk - 1) * la - lh * m, (lk - 1) * lb)  # -min D
        sup = up if sign(up[0] - down[0], up[1] - down[1]) >= 0 else down
        rows.append((rec, ss.unscale((h * m - rec * la, -rec * lb)), ss.unscale(sup)))
    return rows, top + 1


# -- closed form for bounded windows (module docstring) ------------------------------


def closed_form_rows(
    ss: ScaledSystem, kappas: Sequence[int], records: Sequence[int]
) -> tuple[list[tuple[int, XiReal, XiReal]], int, int]:
    """Profile rows (n, D(n), max |D(N)| over N <= n) at each record, with no scan.

    kappas[l] is the xi-coefficient of b_sigma(l) - a_l in an Oren matching
    of the window.  Returns the rows, the number of distinct teeth of G and
    the number of record events merged.
    """
    d = ss.d
    frac = ss.frac
    xa, xb = ss.step  # xi mod 1: every use of G reduces mod 1
    teeth = []  # (e_a, e_b, s): G(y) = sum of s*frac(y - e)
    for (lo_a, lo_b, _, _), kappa in zip(ss.ivals, kappas):
        js = range(kappa) if kappa > 0 else range(-1, kappa - 1, -1)
        teeth += [(lo_a + j * xa, lo_b + j * xb, 1 if kappa > 0 else -1) for j in js]
    beta = sum(kappas)  # the slope of G: len = beta*xi + integer, never 0

    def big_g(ya: int, yb: int) -> Pair:
        ga = gb = 0
        for ea, eb, s in teeth:
            fa, fb = frac(ya - ea, yb - eb)
            ga += s * fa
            gb += s * fb
        return ga, gb

    ya, yb = ss.base
    ga, gb = big_g(ya - xa, yb - xb)
    ca, cb = ss.length[0] + ga, ss.length[1] + gb  # D(n) = C - G(y_n)

    n_max = records[-1]
    pts = sorted(
        {frac(ea, eb) for ea, eb, _ in teeth},
        key=cmp_to_key(lambda u, v: pair_sign(u[0] - v[0], u[1] - v[1], d)),
    )
    events = []  # (n, updates the min, candidate G(y_n))
    for i, (pa, pb) in enumerate(pts):
        qa, qb = pts[i + 1] if i + 1 < len(pts) else (pts[0][0] + ss.m, pts[0][1])
        la, lb = qa - pa, qb - pb  # the piece [p, p') of G
        g0a, g0b = big_g(pa, pb)
        # left chain: records of v = frac(y_n - p); G(y_n) = G(p) + beta*v
        for n, v in _records(ss, (pa, pb), 0, n_max):
            if pair_sign(v[0] - la, v[1] - lb, d) < 0:
                events.append((n, beta > 0, (g0a + beta * v[0], g0b + beta * v[1])))
        # right chain: records of u = p' - y_n in (0, 1]; G(y_n) = G(p) + beta*(l - u)
        for n, u in _records(ss, pts[(i + 1) % len(pts)], 0, n_max, left=False):
            if pair_sign(u[0] - la, u[1] - lb, d) <= 0:
                events.append((n, beta < 0, (g0a + beta * (la - u[0]), g0b + beta * (lb - u[1]))))
    events.sort(key=itemgetter(0))

    rows = []
    lo = hi = None  # running min and max of G(y_n); both events of y_0 set them
    i = 0
    for r in records:
        while i < len(events) and events[i][0] <= r:
            _, to_min, g = events[i]
            i += 1
            if to_min:
                if lo is None or pair_sign(g[0] - lo[0], g[1] - lo[1], d) < 0:
                    lo = g
            elif hi is None or pair_sign(g[0] - hi[0], g[1] - hi[1], d) > 0:
                hi = g
        ga, gb = big_g(ya + r * xa, yb + r * xb)
        up = (ca - lo[0], cb - lo[1])  # max of D
        down = (hi[0] - ca, hi[1] - cb)  # max of -D
        sup = up if pair_sign(up[0] - down[0], up[1] - down[1], d) >= 0 else down
        rows.append((r, ss.unscale((ca - ga, cb - gb)), ss.unscale(sup)))
    return rows, len(pts), len(events)
