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
else k + b if y >= lo + beta, else k + a + b.  The steps carry y as one
int, its additive key Y = A*2^s + B*r with r = floor(2^s*sqrt(d))
(``exactnum.linear_key``), and the thresholds and the three steps as keys,
so a step is one int addition and a test one int comparison.  The key
lies within |B| of 2^s*y, and y's sqrt(d) part B = base_b + k*step_b,
which no frac changes, is linear in k: e = max |B - B_t| at the range's
two ends bounds every test.  Y <= T - e means y < t and Y >= T + e means
y >= t; with 2^s chosen for e, a key inside (T - e, T + e) means y = t
exactly, where the orbit meets hi - alpha or lo + beta, and only there
is y read again by ``state_at`` and tested by ``pair_sign``.  The first
hit is the first record of v = frac(y_k - lo) (the orbit closer to lo
from the right than ever before) below l, read off the Euclid walk over
the shrinking records (``_records``, below): as xi has bounded partial
quotients, it takes O(log(a + b)) steps, so a call costs
O(#hits + log(a + b)).  Its runs
depend on xi alone: each is made once and shared with its number of steps
(``_run``); a walk stops inside a run at one sign test where the run has
one step, else one exact floor (``_walk``); ``_steps`` lists single steps.

Long ranges copy hits forward by blocks (``collect_hits``).  For a walk
time q, frac(q*xi) = alpha or 1 - beta, so y_{k+q} = y_k + eps (mod 1)
exactly with eps = alpha or -beta: k + q lies in k's piece (an interval,
or a gap of the hull) unless y_k lies on the crossing arc [c - eps, c)
or [c, c - eps) of an endpoint c, split at 0 if it wraps, and then in
the piece just past c (if it crosses two endpoints, it is stepped).  The
first q indices and the arcs are stepped.  A block is kept as the offsets
of its hits from its start, the gap before each hit (the first from the
block start, and one more from the last hit to the block end) and their
colours, which stay the same from block to block but at the crossings: each
patches them at its offset (a delete merges a gap into the next, an insert
splits one).  A block's gap and colour lists are copied to the output by
reference, its first gap raised by the bridge from the last hit output and
its end gap taken off as the next bridge, so no bytecode runs per hit; one
``accumulate`` over the output's gaps makes each hit's int at the end.
In stepped hits, a shift by q over N indices costs q*len for
the first block and C*N*E*|eps| for the crossings, with len the total
length of the pieces, E the number of their distinct endpoints and C the
cost of one crossing (its arc step, its sort and the patch of its block).
``_plan`` walks the times with 3q <= N by ``_steps`` and keeps the
one of least cost, compared exactly on the scaled pairs; as |eps| = O(1/q)
for bounded partial quotients, that is O(sqrt(C*N*E*len)).  The range is
stepped whole where that costs less, N*len against the least cost plus a
fixed A per endpoint (the record walk to an arc's first point), or where
the window has fewer than 8 hits per crossing (length < 8*|eps| per
endpoint, as for an acceptance domain).  C = 2 and A = 160 were measured
with CPython 3.11.7 on 2 cores, on stepped hits that carry keys: benchmark
rounds read slower at C = 1 and at C = 4 (lower in 0 of 6 pairs each), and
on windows of 1 and 3 intervals over sqrt(2), sqrt(3), sqrt(101) and the
golden ratio at N = 200 to 2,000 the rule's mean excess over the faster
route was least near A = 128 to 160 (10-13 %, 16-19 % at A = 96): 3
intervals broke even near 70-110 stepped hits per endpoint, 1 interval
near 200-450, and sqrt(101) with 1 interval not by N = 2,000.

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
O(log N) exact floors for any N.  A window with an Oren matching needs no
count (``telescoped_discrepancy``): D(N) = len + G(y_{-1}) - G(y_N), with
G as below, and each interval's part of G sums c = |kappa_l| fractional
parts along a progression, sum_{j<c} frac(z + j*t) = c*z + t*c(c - 1)/2
- S(c - 1, t, z), with t = -frac(xi) and z = y - a_l for kappa_l > 0, and
t = frac(xi) and z = y - a_l + frac(xi) for kappa_l < 0.  That is
O(L log |kappa|) floors for any N; ``patterns.local_discrepancy`` takes
it where no |kappa_l| exceeds N + 1, so it never sums more terms.

Profiles of windows with an Oren matching scan nothing either
(``closed_form_rows``).  Since 1[frac(y) in [lo, hi)] - (hi - lo) =
frac(y - hi) - frac(y - lo), a matching b_sigma(l) = a_l + kappa_l*xi + m_l
makes the sum over k telescope: with f_l(y) = frac(y - a_l) and
y_n = basepoint + n*xi, D(n) = C - G(y_n), where

    G(y) = sum_{kappa_l > 0} sum_{j=0..kappa_l-1} f_l(y - j*xi)
         - sum_{kappa_l < 0} sum_{j=1..|kappa_l|} f_l(y + j*xi)

and C = len + G(y_0 - xi).  G is piecewise linear with slope
beta = sum kappa_l, never 0 as len = beta*xi + integer, and jumps at its
teeth a_l + j*xi.  With y and the teeth reduced to [0, 1), frac(y - e) =
y - e + [e > y], so G(y) = beta*y - sum w_e*e + (sum of w_e over the
teeth above y), w_e the summed signs of the teeth at e: a sample costs one
floor, a bisection over the sorted teeth and a suffix sum built once per
call.  So max |D| over n <= N is the larger of
C - min G(y_n) and max G(y_n) - C, and on a piece [p, p') between sorted
teeth these extremes sit at the orbit points nearest each end.  Those
nearest p from the right are the records of v = frac(y_n - p), the chain
that finds a first hit: the next is at n + b with value v - beta, unless
the orbit meets p exactly before (at most once, at the k that the sqrt(d)
coefficient fixes, as for ``find_singular``), where v drops to 0 and the
chain ends.  Those nearest p' from the left are the records of u = p' - y_n
in (0, 1], next at n + a with value u - alpha; a record counts once it lies
in the piece.  The chains of tooth a_l + j*xi are those of f_l(y_k), or of
1 - f_l(y_k), from k = s = -j on.  For s < s', the records from s are those
over [s, s'), then the suffix of those from s' below their minimum: an
interval walks its chains once, from its latest s (``_records``), and each
earlier s pops the records it beats and pushes its own (``_chains``).  A
tooth's events are a slice of the stack found by two bisections: O(L log N)
walk steps and O(sum |kappa_l|) floors, then one exact comparison per record.

Profiles of other windows come from block tables (``table_rows``), a
Rauzy induction of the rotation onto the nested intervals
J_i = [-beta_i, alpha_i) that the walk passes through (``_steps``)
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
from x are a greedy climb from level 0: go up a level while x lies in the
next J and its block fits, else take F_i(x) if it fits, else go down.  x
carries its floor key, so its sign, the J tests and the piece lookup
compare ints with the keys a level keeps of its cuts, alpha and -beta,
and test signs only on equal keys.  At most two blocks a level, so
O(log n) lookups as xi has bounded partial quotients, times their size (a
level is one walk step): a profile of [1/7, 9/14) to 10^6 at
xi = sqrt(k^2 + 1) takes 4.7 s at k = 10^4, 160 times as long as at 10.
A profile multiplies the products from record to record: the prefix
(h, k) of steps 0..n gives D(n) = h - (k - 1)*len, and max |D| reads
max(hi, -lo) the same way.  Only the levels with a block of at most
records[-1] + 1 steps are read, and each is built once per window: a
level keeps where the walk stands after its step (run i, step t), a call
resumes the walk there, and levels are built up to the first whose blocks
do not fit, so a call with a bound no larger reads no run.

``collect_hits_direct`` is the independent route: ``state_at(k)`` (one
explicit floor per index, no carried state) and two sign tests per
interval, so the stepping core is checked against it (``strip_points``
and the tests).  Every sign test is ``exactnum.pair_sign`` and every floor
one ``isqrt`` (``floor_key``); sorts and bisections of points over M order
them by the floor of the numerator, an int key, and test signs only on
equal keys (``exactnum.sort_pairs``, ``rank_pair``), and the three-gap
steps compare additive keys and test signs only on exact meetings.
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

from .exactnum import (Triple, XiReal, XiSpec, floor_key, linear_key, pair_sign, rank_pair,
                       sort_pairs)

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
    ends: tuple[Pair, ...]  # lo, hi of each interval, as points of the circle [0, 1)
    length: tuple[int, int]  # total window length, scaled radical pair
    xi: XiSpec

    def frac(self, a: int, b: int) -> tuple[int, int]:
        """Scaled radical pair of frac((a + b*sqrt(d)) / m)."""
        return a - floor_key(a, b, self.d) // self.m * self.m, b

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
    return floor_key(na, nb, d) // den


def scale_system(
    xi: XiSpec, basepoint: XiReal, intervals: Sequence[tuple[XiReal, XiReal]]
) -> ScaledSystem:
    step_frac, _ = xi.xi_real.fractional_part()
    triples = [v.triple for v in (basepoint, step_frac, *chain(*intervals))]
    m = lcm(*(D for _, _, D in triples))
    scaled = [(A * (m // D), B * (m // D)) for A, B, D in triples]
    ivals = tuple(lo + hi for lo, hi in zip(scaled[2::2], scaled[3::2]))
    length = (
        sum(hi_a - lo_a for lo_a, _, hi_a, _ in ivals),
        sum(hi_b - lo_b for _, lo_b, _, hi_b in ivals),
    )
    ends = tuple((0, 0) if e == (m, 0) else e for e in scaled[2:])  # the endpoint 1 is 0
    return ScaledSystem(d=xi.d, m=m, base=scaled[0], step=scaled[1], ivals=ivals, ends=ends,
                        length=length, xi=xi)


def find_singular(ss: ScaledSystem, k_min: int, k_max: int) -> Optional[int]:
    """Smallest k in range whose orbit point equals a window endpoint exactly.

    The sqrt(d)-coefficient of frac(basepoint + k*xi) is base_b + k*q*M,
    strictly monotone in k, so each endpoint can be hit at most once; the
    candidate k solves a linear equation and is then verified exactly.
    """
    ks = [_orbit_index(ss, t) for t in ss.ends]
    return min((k for k in ks if k is not None and k_min <= k <= k_max), default=None)


def _orbit_index(ss: ScaledSystem, pair: Pair) -> Optional[int]:
    """The k with frac(basepoint + k*xi) equal to the reduced pair, if any."""
    k, r = divmod(pair[1] - ss.base[1], ss.step[1])
    return k if r == 0 and ss.state_at(k) == pair else None


# -- three-gap stepping ----------------------------------------------------------


Gaps = tuple[int, Pair, int, Pair]  # (a, alpha, b, beta)
# the gaps at a run's start, alpha > beta, and its quotient floor(big/small): its number of steps
Run = tuple[int, Pair, int, Pair, bool, int]


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
    """The first run of the walk of frac(xi); ``_run`` adds the later ones as they are read."""
    beta = (m - step[0], -step[1])
    left = pair_sign(2 * step[0] - m, 2 * step[1], d) > 0
    big, small = (step, beta) if left else (beta, step)
    return [(1, step, 1, beta, left, _floor_ratio(d, big, small))]


def _run(d: int, runs: list[Run], i: int) -> Run:
    """Run i of ``runs``, made from run i - 1 (callers read a run made before from the list):
    run j takes the larger value v_j down by v_{j+1} to v_j mod v_{j+1} in q_j = floor(v_j /
    v_{j+1}) steps, each taking the smaller value from the larger and adding the two times,
    and the next q is one exact floor.  Stored idempotently, so threads add each run once."""
    a, alpha, b, beta, left, q = runs[i - 1]
    big, small = (alpha, beta) if left else (beta, alpha)
    rest = (big[0] - q * small[0], big[1] - q * small[1])
    nxt = (a + q * b, rest, b, beta, False) if left else (a, alpha, b + q * a, rest, True)
    runs[i:i + 1] = [(*nxt, _floor_ratio(d, small, rest))]  # its q: small over rest
    return runs[i]


def _walk(d: int, runs: list[Run], ell: Pair, i: int) -> tuple[int, Gaps]:
    """(j, gaps): the first state of the subtractive Euclid walk with alpha, beta < ell, from
    run i of ``runs`` on (``_run``).  The states do not depend on ell: the walk stops in the
    run with v_{j+1} < ell <= v_j after floor((v_j - ell) / v_{j+1}) + 1 steps, at one sign
    test where the run has one step (then v_j - ell < v_{j+1}), else one exact floor."""
    while True:
        a, alpha, b, beta, left, q = runs[i] if i < len(runs) else _run(d, runs, i)
        big, small = (alpha, beta) if left else (beta, alpha)
        if pair_sign(small[0] - ell[0], small[1] - ell[1], d) < 0:
            break
        i += 1
    if q == 1 and pair_sign(big[0] - ell[0], big[1] - ell[1], d) >= 0:  # ell <= big: one step
        t = 1
    else:
        t = _floor_ratio(d, (big[0] - ell[0], big[1] - ell[1]), small) + 1
    rest = (big[0] - t * small[0], big[1] - t * small[1])
    return i, ((a + t * b, rest, b, beta) if left else (a, alpha, b + t * a, rest))


def _steps(d: int, m: int, step: Pair, at: tuple[int, int] = (0, 0)) -> Iterator[tuple]:
    """((i, t), alpha > beta before the step, gaps after it) for each single step of the
    walk after step t of run i, from the first with at = (0, 0): the q_i steps of run i all
    take its direction, so no sign test, and the runs before i are not read."""
    runs = _runs(d, m, step)
    i, start = at
    while True:
        a, al, b, be, left, q = runs[i] if i < len(runs) else _run(d, runs, i)
        for t in range(start + 1, q + 1):
            yield (i, t), left, ((a + t * b, (al[0] - t * be[0], al[1] - t * be[1]), b, be) if left
                                 else (a, al, b + t * a, (be[0] - t * al[0], be[1] - t * al[1])))
        i += 1
        start = 0


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


def _chains(ss: ScaledSystem, p: Pair, top: int, bottom: int, n_max: int) -> Iterator[tuple]:
    """For s = top, ..., bottom: s and the stacks (-k, value) of the left and right chains
    of p over s <= k <= top + n_max, increasing lists changed in place (module docstring)."""
    recs = [list(_records(ss, p, top, n_max, left))[::-1] for left in (True, False)]
    stacks = [([-top - n for n, _ in r], [v for _, v in r]) for r in recs]
    yield top, stacks
    for s in range(top - 1, bottom - 1, -1):
        fa, fb = ss.frac(ss.base[0] + s * ss.step[0] - p[0], ss.base[1] + s * ss.step[1] - p[1])
        for (ks, vs), v in zip(stacks, ((fa, fb), (ss.m - fa, -fb))):
            while vs and pair_sign(vs[-1][0] - v[0], vs[-1][1] - v[1], ss.d) >= 0:
                del ks[-1], vs[-1]
            ks.append(-s)
            vs.append(v)
        yield s, stacks


def interval_hits(ss: ScaledSystem, iv: Interval, k_min: int, k_max: int) -> list[int]:
    """Increasing k in [k_min, k_max] with frac(basepoint + k*xi) in [lo, hi): three-gap
    steps from the first record of frac(y_k - lo) below hi - lo (``_records``), on y's
    additive key (module docstring)."""
    d = ss.d
    lo_a, lo_b, hi_a, hi_b = iv
    la, lb = hi_a - lo_a, hi_b - lo_b
    ga, (al_a, al_b), gb, (be_a, be_b) = return_gaps(d, ss.m, ss.step, (la, lb))
    for n, (va, vb) in _records(ss, (lo_a, lo_b), k_min, k_max - k_min):
        if pair_sign(va - la, vb - lb, d) < 0:
            break
    else:
        return []
    k = k_min + n
    t1 = (hi_a - al_a, hi_b - al_b)  # step by a below hi - alpha
    t2 = (lo_a + be_a, lo_b + be_b)  # else by b from lo + beta on
    # y's sqrt(d) part runs linearly from yb to `end`: e bounds its distance from each
    # threshold's, so keys up to the threshold's less e lie below it, from its plus e above
    yb = lo_b + vb
    end = yb + (k_max - k) * ss.step[1]
    e = max(1, *(abs(y - t[1]) for y in (yb, end) for t in (t1, t2)))
    one, r = linear_key(d, e)
    y = (lo_a + va) * one + yb * r  # y's key, carried from hit to hit
    key1, key2 = (t[0] * one + t[1] * r for t in (t1, t2))
    below1, above1, below2, above2 = key1 - e, key1 + e, key2 - e, key2 + e
    sa = al_a * one + al_b * r
    sb = be_a * one + be_b * r
    sab = sa - sb
    gab = ga + gb

    def exact_below(k: int, t: Pair) -> bool:  # where the keys cannot tell: y = t exactly
        ya, yb = ss.state_at(k)
        return pair_sign(ya - t[0], yb - t[1], d) < 0

    out = []
    while True:
        out.append(k)
        if y <= below1 or y < above1 and exact_below(k, t1):  # y < hi - alpha
            k += ga
            y += sa
        elif y >= above2 or y > below2 and not exact_below(k, t2):  # y >= lo + beta
            k += gb
            y -= sb
        else:
            k += gab
            y += sab
        if k > k_max:
            return out


# -- block shift (module docstring) --------------------------------------------------

Piece = tuple[Interval, int]  # an interval and its colour
Block = tuple[tuple[int, ...], list[int]]  # hits and their colours


def _stepped(ss: ScaledSystem, pieces: list[Piece], k_min: int, k_max: int) -> Block:
    """Hits of the pieces in [k_min, k_max] and their colours, by three-gap stepping."""
    if len(pieces) == 1:
        ks = tuple(interval_hits(ss, pieces[0][0], k_min, k_max))
        return ks, [pieces[0][1]] * len(ks)
    hits = sorted((k, color) for iv, color in pieces for k in interval_hits(ss, iv, k_min, k_max))
    return tuple(map(itemgetter(0), hits)), list(map(itemgetter(1), hits))


CROSSING_COST = 2  # C: one crossing, in stepped hits (module docstring)
ARC_COST = 160  # A: the fixed cost of the block shift per endpoint, in stepped hits


@lru_cache(maxsize=256)
def _plan(d: int, m: int, step: Pair, ivals: tuple[Interval, ...], ends: tuple[Pair, ...],
          span: int, hull: bool) -> tuple:
    """(pieces, q, arcs): q the walk time with 3q <= span of least cost
    q*len + C*span*E*|eps|, by single steps (``_steps``), and q = 0 where stepping the
    span whole costs less (span*len against that cost plus A*E) or there are fewer than 8
    hits per crossing (module docstring); `ends` are those of ``ScaledSystem``."""
    pieces: list[Piece] = []
    for color, iv in enumerate(ivals, 1):
        if hull and pieces:
            pieces.append(((pieces[-1][0][2], pieces[-1][0][3], iv[0], iv[1]), 0))
        pieces.append((iv, color))
    la = sum(iv[2] - iv[0] for iv, _ in pieces)
    lb = sum(iv[3] - iv[1] for iv, _ in pieces)
    n_ends = len(set(ends))
    w = CROSSING_COST * span * n_ends
    best = (span * la - ARC_COST * n_ends * m, span * lb)  # a q must beat stepping whole, less A per endpoint
    q = 0
    for _, left, (a, al, b, be) in _steps(d, m, step):
        t, eps, s = (a, al, al) if left else (b, be, (0, 0))  # eps = alpha, or -beta
        if 3 * t > span:
            break
        cost = (t * la + w * eps[0], t * lb + w * eps[1])  # q*len + C*span*E*|eps|
        if pair_sign(cost[0] - best[0], cost[1] - best[1], d) < 0:
            q, (ea, eb), shift, best = t, eps, s, cost  # |eps|, max(eps, 0)
    if not q or pair_sign(la - 8 * n_ends * ea, lb - 8 * n_ends * eb, d) < 0:
        return pieces, 0, []
    # the colour past each endpoint by eps: of the piece that starts (eps > 0) or ends there
    r = 1 if hull else 2  # the hull's pieces run from each end to the next, else lo to hi
    side = ends[:-1:r] if shift != (0, 0) else ends[1::r]
    past = dict.fromkeys(ends) | dict(zip(side, map(itemgetter(1), pieces)))
    arcs = []  # [c - eps, c) or [c, c - eps), split at 0 if it wraps: none empty
    for c, color in past.items():
        sa, sb = c[0] - shift[0], c[1] - shift[1]
        sa += m if pair_sign(sa, sb, d) < 0 else 0
        ta, tb = sa + ea, sb + eb
        wraps = pair_sign(ta - m, tb, d) > 0
        parts = [(sa, sb, m, 0), (0, 0, ta - m, tb)] if wraps else [(sa, sb, ta, tb)]
        arcs += [(arc, color) for arc in parts]
    return pieces, q, arcs


def collect_hits(ss: ScaledSystem, k_min: int, k_max: int, hull: bool = False) -> Block:
    """Increasing k in [k_min, k_max] whose orbit point lies in the window, and their
    colours: with hull=True the hits of the hull, coloured by interval index (1-based)
    or 0 when the point lies in none of the intervals, else of the intervals alone.

    On the block shift each block of q indices is the last one's offsets, gaps and
    colours patched at its crossings; the output is the gap before each hit, the first
    block's first from 0, summed once by ``accumulate`` (module docstring)."""
    span = k_max - k_min + 1
    pieces, q, arcs = _plan(ss.d, ss.m, ss.step, ss.ivals, ss.ends, span, hull)
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
    # a block: the offsets of its hits from its start, then q; the gap before each offset
    # (the first from the block start); and the hits' colours
    offs = [k - k_min for k in ks] + [q]
    gaps = list(map(sub, offs, [0, *offs]))
    out_gaps, out_colors = [], []  # out_gaps: the gap before each hit, the first from 0
    bridge = k_min  # from the last hit output to the block start
    i = 0
    for start in range(k_min, k_max + 1, q):
        while i < len(cross) and cross[i][0] < start:  # the crossings of the last block
            k, color = cross[i]
            i += 1
            while i < len(cross) and cross[i][0] == k:  # it crosses several endpoints: step k + q
                i += 1
                color = (_stepped(ss, pieces, k + q, k + q)[1] or [None])[0]
            o = k + q - start
            j = bisect_left(offs, o)
            if offs[j] == o and color is not None:
                colors[j] = color
            elif offs[j] == o:  # a delete merges its gap into the next one
                gaps[j + 1] += gaps[j]
                del offs[j], colors[j], gaps[j]
            elif color is not None:  # an insert splits the gap before offs[j]
                gaps.insert(j + 1, offs[j] - o)
                gaps[j] -= offs[j] - o
                offs.insert(j, o)
                colors.insert(j, color)
        if start + q - 1 > k_max:  # the last block ends at k_max
            j = bisect_right(offs, k_max - start)
            del offs[j:], colors[j:], gaps[j + 1:]
        gaps[0] += bridge  # references to the block's gaps and colours, no work per hit
        out_gaps += gaps
        out_colors += colors
        gaps[0] -= bridge
        bridge = out_gaps.pop()  # the gap after the last hit, to the next block start
    return tuple(accumulate(out_gaps)), out_colors


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
        fa = floor_key(A, B, d) // D
        fb = floor_key(C, E, d) // D
        A -= fa * D
        C -= fb * D
        big_m = floor_key(A * n + C, B * n + E, d) // D
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


def telescoped_discrepancy(ss: ScaledSystem, kappas: Sequence[int], n: int) -> Pair:
    """Scaled pair of D(n) = len + G(y_{-1}) - G(y_n) for a window with an Oren
    matching, kappas as for ``closed_form_rows``: per interval, G is one floor sum
    over its |kappa_l| terms, by sum_{j<c} frac(z + j*t) = c*z + t*c(c - 1)/2 -
    floor_sum(c - 1, t, z) (module docstring)."""
    d, m = ss.d, ss.m
    (ba, bb), (xa, xb) = ss.base, ss.step
    da, db = ss.length
    for sign, ya, yb in ((1, ba - xa, bb - xb), (-1, ba + n * xa, bb + n * xb)):  # not reduced
        for (lo_a, lo_b, _, _), kappa in zip(ss.ivals, kappas):
            if kappa > 0:  # frac(y - a_l - j*xi), j = 0..kappa - 1
                s, ta, tb, za, zb = sign, -xa, -xb, ya - lo_a, yb - lo_b
            else:  # -frac(y - a_l + j*xi), j = 1..|kappa|
                s, ta, tb, za, zb = -sign, xa, xb, ya - lo_a + xa, yb - lo_b + xb
            c = abs(kappa)
            tri = c * (c - 1) // 2
            floors = floor_sum(c - 1, (ta, tb, m), (za, zb, m), d)
            da += s * (c * za + tri * ta - floors * m)
            db += s * (c * zb + tri * tb)
    return da, db


def collect_hits_direct(ss: ScaledSystem, k_min: int, k_max: int) -> list[int]:
    """Lattice-line enumeration: an explicit floor per column x = k.

    Independent of the stepping core above (no carried state), so the two
    routes cross-check each other.
    """
    contains, state_at = ss.contains, ss.state_at
    return [k for k in range(k_min, k_max + 1) if contains(*state_at(k))]


# -- block tables (module docstring) --------------------------------------------------

Summary = tuple[int, int, int, int, int, int]  # (h, k) of the sum, the max and the min prefix
# a, alpha, b, beta, the table's cuts, values and cut keys, the keys of alpha and -beta, and
# where the walk stands after the level's step: step t of run i, as (i, t) (``_steps``)
Level = tuple[int, Pair, int, Pair, list[Pair], list[Summary], list[int], int, int, tuple[int, int]]


@lru_cache(maxsize=8)  # a window's levels keep its call's peak: 4.1 MiB at sqrt(10^6 + 1) to 10^6
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

    def mul(s: Summary, t: Summary) -> Summary:
        h, k, hh, hk, lh, lk = s
        th, tk, thh, thk, tlh, tlk = t
        ch, ck = h + thh, k + thk  # max(hi, s + hi'): the sign of (ch - ck*len) - (hh - hk*len)
        if pair_sign((ch - hh) * m - (ck - hk) * la, (hk - ck) * lb, d) > 0:
            hh, hk = ch, ck
        ch, ck = h + tlh, k + tlk
        if pair_sign((ch - lh) * m - (ck - lk) * la, (lk - ck) * lb, d) < 0:
            lh, lk = ch, ck
        return h + th, k + tk, hh, hk, lh, lk

    def keyed(pts: set[Pair]) -> list[tuple[int, Pair]]:
        return sort_pairs([(floor_key(*c, d), c) for c in pts], d)

    def level(gaps: Gaps, cuts: list, vals: list[Summary], at: tuple[int, int]) -> Level:
        keep = [j for j in range(len(vals)) if not j or vals[j] != vals[j - 1]]  # merge equal neighbours
        cuts, keys = [cuts[j][1] for j in keep], [cuts[j][0] for j in keep]
        a, al, b, be = gaps
        ka, kb = floor_key(*al, d), floor_key(-be[0], -be[1], d)
        return a, al, b, be, cuts, [vals[j] for j in keep], keys, ka, kb, at

    sa, sb = ss.step
    levels = _levels(d, m, ss.step, ss.ivals)
    if not levels:
        signed = {e if pair_sign(e[0] - sa, e[1] - sb, d) < 0 else (e[0] - m, e[1]) for e in ss.ends}
        cuts = keyed({(sa - m, sb), (0, 0)} | signed)  # J_0 = [frac(xi) - 1, frac(xi)), cut at 0
        # one step from the circle point of each cut
        vals = [(int(ss.contains(*(c if k >= 0 else (c[0] + m, c[1])))), 1) * 3 for k, c in cuts]
        levels[:1] = [level(_runs(d, m, ss.step)[0][:4], cuts, vals, (0, 0))]
    top = bisect_right(levels, records[-1] + 1, key=lambda lv: min(lv[0], lv[2])) - 1
    # top: the last level whose blocks fit.  Where it is the last level built, build on from
    # where its walk stands up to one whose blocks do not fit, so that a call with a bound no
    # larger reads no run
    steps = _steps(d, m, ss.step, levels[top][9]) if top == len(levels) - 1 else ()
    i = top
    for at, left, nxt in steps:
        _, al, _, be, cuts, vals, keys, _, _, _ = levels[i]
        if left:  # J' = [-beta, alpha - beta): a block from [-beta, 0) goes on from x + alpha
            p, shift = nxt[1], al
        else:  # J' = [alpha - beta, alpha): a block from [0, alpha) goes on from x - beta
            p, shift = (-nxt[3][0], -nxt[3][1]), (-be[0], -be[1])
        # a cut of J outside J', on the far side of alpha - beta, comes back as its preimage
        pts = {(c[0] - shift[0], c[1] - shift[1])
               if (pair_sign(c[0] - p[0], c[1] - p[1], d) >= 0) == left else c for c in cuts}
        new_cuts = keyed(pts | {(-nxt[3][0], -nxt[3][1]), (0, 0)})
        new_vals = []
        for k, c in new_cuts:
            v = vals[rank_pair(keys, cuts, k, c, d) - 1]
            if (k < 0) == left:  # the block doubles
                c = (c[0] + shift[0], c[1] + shift[1])
                v = mul(v, vals[rank_pair(keys, cuts, floor_key(*c, d), c, d) - 1])
            new_vals.append(v)
        levels[i + 1:i + 2] = [level(nxt, new_cuts, new_vals, at)]
        i += 1
        if min(nxt[0], nxt[2]) > records[-1] + 1:
            top = i - 1
            break

    x = ss.base if pair_sign(ss.base[0] - sa, ss.base[1] - sb, d) < 0 else (ss.base[0] - m, ss.base[1])
    kx = floor_key(*x, d)  # x's key, carried from step to step
    neg = kx < 0
    acc: Optional[Summary] = None
    rows = []
    prev = -1
    last = None  # the last sup pair: it changes on few rows, so each is unscaled once
    for rec in records:
        n = rec - prev  # the steps prev + 1..rec: climb while the blocks fit, then go down
        prev = rec
        i = 0
        while n:
            if i < top:  # up while x lies in the next J = [-beta, alpha) and its block fits
                a, al, b, be, _, _, _, ka, kb, _ = levels[i + 1]
                if (a if neg else b) <= n and (
                        kb < kx or kb == kx and pair_sign(x[0] + be[0], x[1] + be[1], d) >= 0) and (
                        kx < ka or kx == ka and pair_sign(x[0] - al[0], x[1] - al[1], d) < 0):
                    i += 1
                    continue
            a, al, b, be, cuts, vals, keys, _, _, _ = levels[i]
            r = a if neg else b
            if r > n:
                i -= 1
                continue
            v = vals[rank_pair(keys, cuts, kx, x, d) - 1]  # the piece holding x
            acc = v if acc is None else mul(acc, v)
            x = (x[0] + al[0], x[1] + al[1]) if neg else (x[0] - be[0], x[1] - be[1])
            kx = floor_key(*x, d)
            neg = kx < 0
            n -= r
        h, k, hh, hk, lh, lk = acc  # k = rec + 1 steps, so D(rec) = h - rec*len
        up = (hh * m - (hk - 1) * la, (1 - hk) * lb)  # max D
        down = ((lk - 1) * la - lh * m, (lk - 1) * lb)  # -min D
        sup = up if pair_sign(up[0] - down[0], up[1] - down[1], d) >= 0 else down
        if sup != last:
            last, sup_x = sup, ss.unscale(sup)
        rows.append((rec, ss.unscale((h * m - rec * la, -rec * lb)), sup_x))
    return rows, top + 1


# -- closed form for bounded windows (module docstring) ------------------------------


def closed_form_rows(
    ss: ScaledSystem, kappas: Sequence[int], records: Sequence[int]
) -> tuple[list[tuple[int, XiReal, XiReal]], int, int, int]:
    """Profile rows (n, D(n), max |D(N)| over N <= n) at each record, with no scan.

    kappas[l] is the xi-coefficient of b_sigma(l) - a_l in an Oren matching
    of the window.  G at a sample takes one floor and a bisection; the |kappa_l|
    teeth of interval l share its two record chains (module docstring).  Returns
    the rows, the number of distinct teeth of G (one of net weight 0 too), of
    record chains walked and of record events merged.
    """
    d, m = ss.d, ss.m
    frac = ss.frac
    xa, xb = ss.step  # xi mod 1: every use of G reduces mod 1
    weight: dict[Pair, int] = {}  # tooth e mod 1 -> its summed signs w_e: G = sum w_e*frac(y - e)
    owner: dict[Pair, tuple[int, int]] = {}  # tooth e -> the first (l, j) on it: its chains
    for l, ((lo_a, lo_b, _, _), kappa) in enumerate(zip(ss.ivals, kappas)):
        for j in range(kappa) if kappa > 0 else range(kappa, 0):
            e = frac(lo_a + j * xa, lo_b + j * xb)
            weight[e] = weight.get(e, 0) + (1 if kappa > 0 else -1)
            owner.setdefault(e, (l, j))
    beta = sum(kappas)  # the slope of G: len = beta*xi + integer, never 0
    key = cmp_to_key(lambda u, v: pair_sign(u[0] - v[0], u[1] - v[1], d))
    teeth = sort_pairs([(floor_key(*e, d), e) for e in weight], d)  # weight 0 stays, with its chains
    tkeys, pts = [k for k, _ in teeth], [e for _, e in teeth]
    # G(y) = beta*y - sum w_e*e + above[i] for y in [0, 1) with i teeth at or below it (module
    # docstring): above[i] sums w_e over pts[i:]
    above = list(accumulate((weight[p] for p in reversed(pts)), initial=0))[::-1]
    ka = sum(w * e[0] for e, w in weight.items())
    kb = sum(w * e[1] for e, w in weight.items())

    def big_g(ya: int, yb: int) -> Pair:  # one floor key: y's frac and its key, then a rank
        n, k = divmod(floor_key(ya, yb, d), m)
        ya -= n * m
        return beta * ya - ka + above[rank_pair(tkeys, pts, k, (ya, yb), d)] * m, beta * yb - kb

    ya, yb = ss.base
    ga, gb = big_g(ya - xa, yb - xb)
    ca, cb = ss.length[0] + ga, ss.length[1] + gb  # D(n) = C - G(y_n)

    lens = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(pts, [*pts[1:], (pts[0][0] + m, pts[0][1])])]
    owned = {owner[e]: i for i, e in enumerate(pts)}
    events = []  # (n, updates the min, candidate G(y_n))
    for l, ((lo_a, lo_b, _, _), kappa) in enumerate(zip(ss.ivals, kappas)):
        if not kappa:
            continue
        # tooth a_l - s*xi reads the chains of frac(y_k - a_l) from k = s (module docstring)
        chains = _chains(ss, (lo_a, lo_b), max(-kappa, 0), min(1 - kappa, 1), records[-1])
        for s, ((lks, vs), (rks, us)) in chains:
            i = owned.get((l, -s))
            if i is None:
                continue
            (pa, pb), cut = pts[i], -s - records[-1]  # k - s <= N
            za, zb = beta * pa - ka + above[i + 1] * m, beta * pb - kb  # G(p): i + 1 teeth up to p
            # left chain: v = frac(y_n - p) < lens[i], G(y_n) = G(p) + beta*v
            for t in range(bisect_left(lks, cut), bisect_left(vs, key(lens[i]), key=key)):
                va, vb = vs[t]
                events.append((-lks[t] - s, beta > 0, (za + beta * va, zb + beta * vb)))
            # right chain: u = p - y_n in (0, 1] up to lens[i - 1], G(y_n) = G(p-) - beta*u
            za += weight[pts[i]] * m  # G(p-): the i teeth below p
            for t in range(bisect_left(rks, cut), bisect_right(us, key(lens[i - 1]), key=key)):
                ua, ub = us[t]
                events.append((-rks[t] - s, beta < 0, (za - beta * ua, zb - beta * ub)))
    events.sort(key=itemgetter(0))

    rows = []
    lo = hi = last = None  # running min and max of G(y_n), both set by y_0's events; last sup
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
        if sup != last:  # unscaled once per change, as in table_rows
            last, sup_x = sup, ss.unscale(sup)
        rows.append((r, ss.unscale((ca - ga, cb - gb)), sup_x))
    return rows, len(pts), 2 * sum(1 for kappa in kappas if kappa), len(events)
