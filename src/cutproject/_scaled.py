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
the shrinking records (``_records``, below) on keys of the same scale:
as xi has bounded partial quotients, it takes O(log(a + b)) steps, so a
call costs O(#hits + log(a + b)).  Its runs depend on xi alone: each is
made once and shared with its number of steps (``_run``).  A walk compares
ell's key with its runs' values, keyed at the caller's scale as first read,
and stops inside a run at one key comparison where the run has one step,
else one exact floor (``_walk``): as a*beta + b*alpha = 1, the values it
compares have times at most 1/ell (here < a + b; else ``walk_bound``).
``_steps`` lists single steps.

Long ranges copy hits forward by blocks (``collect_hits``).  For a walk
time q, frac(q*xi) = alpha or 1 - beta, so y_{k+q} = y_k + eps (mod 1)
exactly with eps = alpha or -beta: k + q lies in k's piece (an interval,
or a gap of the hull) unless y_k lies on the crossing arc [c - eps, c)
or [c, c - eps) of an endpoint c, split at 0 if it wraps, and then in
the piece just past c (if it crosses two endpoints, it is stepped).  The
first q indices and the arcs are stepped.  A block is kept as the offsets
of its hits from its start and the gap before each hit (the first from the
block start, and one more from the last hit to the block end), which stay
the same from block to block but at the crossings: each patches them at its
offset (a delete merges a gap into the next, an insert splits one).  A
block's gap list is copied to the output by reference, its first gap raised
by the bridge from the last hit output and its end gap taken off as the next
bridge, so no bytecode runs per hit; one ``accumulate`` over the output's
gaps makes each hit's int at the end.  Only a hull of several pieces keeps
its hits' colours per block, patched and copied alike: a one-piece hull's
are made once at the end, and the intervals alone (hull=False) have none.
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
tooth's events are a slice of the stack found by two bisections on its
keys: O(L log N) walk steps and O(sum |kappa_l|) floors, then one int
comparison per record.  One scale per call keys the teeth, G's samples
(whose floors read the key but within e of an integer), the chain values
and the walks' run values, G's events and the sup choice, for an e that
bounds every difference compared, the walks' by the norm of a chain value,
so the closed form tests no sign.

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

at one key comparison per max or min.  F_0 is (1, 1) or (0, 1) thrice, cut
at 0 and the endpoints.  One walk step with alpha > beta gives
J' = [-beta, alpha - beta), a' = a + b: a block from [-beta, 0) goes on
from x + alpha, outside J', so F'(x) = F(x) F(x + alpha) there, and F
is kept on [0, alpha - beta).  With beta > alpha it is the mirror image,
b' = a + b and F'(x) = F(x) F(x - beta) on [0, alpha).  The tower floors
of J_i cover the circle once and each endpoint lies in one floor, so
F_i has at most 2L + 2 pieces once equal neighbours merge.  The n steps
from x are a greedy climb from level 0: go up a level while x lies in the
next J and its block fits, else take F_i(x) if it fits, else go down.  It
carries x's additive key (``linear_key``) and reads the keys of each
level's cuts, alpha, -beta and summaries, so it compares ints and tests no
sign.  At most two blocks a level, so O(log n) lookups as xi has bounded
partial quotients, times their size (a level is one walk step): a cold
profile of [1/7, 9/14) to 10^6 at xi = sqrt(k^2 + 1) takes 3.4 s at
k = 10^4, 120 times as long as at 10.
A profile multiplies the products from record to record: the prefix
(h, k) of steps 0..n gives D(n) = h - (k - 1)*len, and max |D| reads
max(hi, -lo) the same way.  Only the levels with a block of at most
records[-1] + 1 steps are read, and each is built once per window: a
level keeps where the walk stands after its step (run i, step t), a call
resumes the walk there, and levels are built up to the first whose blocks
do not fit, so a call with a bound no larger reads no run.  The climb's
keys are kept in one view per window, for the largest bound read so far.

``collect_hits_direct`` is the independent route: ``state_at(k)`` (one
explicit floor per index, no carried state) and two sign tests per
interval, so the stepping core is checked against it (``strip_points``
and the tests).  Every sign test is ``exactnum.pair_sign`` and every floor
one ``isqrt`` (``floor_key``); every order of points over M (the three-gap
steps, the record walk, the tables' levels and climb, and the closed form's
teeth, samples, chains, events and sup choice) and every max or min of the
tables' summaries compares one additive int key (``exactnum.linear_key``)
for a bound on the sqrt(d) parts compared, and tests signs only on exact
meetings or not at all.  Sign tests are left to signs: the first run's
direction and a length's in ``return_gaps``, window membership
(``contains``), the basepoint's side of 0 in the tables and ``_plan``'s
costs and arcs, once per window and span.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from math import gcd, isqrt, lcm
from operator import itemgetter, sub
from typing import Iterator, Optional, Sequence

from .exactnum import Triple, XiReal, XiSpec, floor_key, linear_key, pair_sign

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
    starts from (1, frac(xi)) and (1, 1 - frac(xi)) (``_walk``), on keys for
    ``walk_bound`` of ell's sqrt(d) part.
    """
    if pair_sign(ell[0], ell[1], d) <= 0:
        raise ValueError("an interval of length <= 0 has no return times")
    one, r = linear_key(d, walk_bound(d, m, step[1], abs(ell[1])))
    return _walk(d, _runs(d, m, step), ell, ell[0] * one + ell[1] * r, 0, (one, r, {}))[1]


@lru_cache(maxsize=256)
def _runs(d: int, m: int, step: Pair) -> list[Run]:
    """The first run of the walk of frac(xi); ``_run`` adds the later ones as they are read."""
    beta = (m - step[0], -step[1])
    left = pair_sign(2 * step[0] - m, 2 * step[1], d) > 0
    big, small = (step, beta) if left else (beta, step)
    return [(1, step, 1, beta, left, _floor_ratio(d, big, small))]


def _run(d: int, runs: list[Run], i: int) -> Run:
    """Run i of ``runs``, made with those before it that the list lacks, each from the last:
    run j takes the larger value v_j down by v_{j+1} to v_j mod v_{j+1} in q_j = floor(v_j /
    v_{j+1}) steps, each taking the smaller value from the larger and adding the two times,
    and the next q is one exact floor.  Stored idempotently, so threads add each run once."""
    for j in range(len(runs), i + 1):  # a table level may resume the walk past a cold list's end
        a, alpha, b, beta, left, q = runs[j - 1]
        big, small = (alpha, beta) if left else (beta, alpha)
        rest = (big[0] - q * small[0], big[1] - q * small[1])
        nxt = (a + q * b, rest, b, beta, False) if left else (a, alpha, b + q * a, rest, True)
        runs[j:j + 1] = [(*nxt, _floor_ratio(d, small, rest))]  # its q: small over rest
    return runs[i]


# a linear_key scale (one, r) and the keys of each run's smaller and larger value, as first read
Scale = tuple[int, int, dict[int, tuple[int, int]]]


def walk_bound(d: int, m: int, step_b: int, v: int) -> int:
    """An e for the keys of walks to ells in (0, 1] with |sqrt(d) part| <= v (``_walk``):
    such an ell = (A + B*sqrt(d))/m has |A^2 - B^2*d| >= 1 and |A - B*sqrt(d)| <= m + 2v*sqrt(d),
    so 1/ell <= m*(m + 2v*(isqrt(d) + 1)) bounds the times compared, and a value of time k
    has sqrt(d) part +-k*step_b."""
    return m * (m + 2 * v * (isqrt(d) + 1)) * abs(step_b) + v


def _walk(d: int, runs: list[Run], ell: Pair, kl: int, i: int, scale: Scale) -> tuple[int, Gaps]:
    """(j, gaps): the first state of the subtractive Euclid walk with alpha, beta < ell, from
    run i of ``runs`` on (``_run``).  The states do not depend on ell: the walk stops in the
    run with v_{j+1} < ell <= v_j after floor((v_j - ell) / v_{j+1}) + 1 steps, at one key
    comparison where the run has one step (then v_j - ell < v_{j+1}), else one exact floor.

    kl is ell's additive key at ``scale``, whose keys of the runs' values it reads and adds.
    A state keeps a*beta + b*alpha = 1, so each value's time (a of alpha, b of beta) is at
    most 1 over the other value: run j's smaller value v_{j+1} has time <= 1/v_j, and its
    larger v_j (j >= 1), run j - 1's smaller, time <= 1/v_{j-1} < 1/v_j.  From run 0, or from
    a run with v_i >= ell, every value compared has time <= 1/ell, so the keys order them
    against ell for an e of ``walk_bound`` (or of any bound on 1/ell, as ``interval_hits``
    has).  ``_records`` resumes at its last stop j, for a smaller ell: j = 0, or v_j is at
    least the ell of the walk that stopped there, as a stop past the start has v_j >= ell."""
    one, r, keys = scale
    while True:
        a, alpha, b, beta, left, q = runs[i] if i < len(runs) else _run(d, runs, i)
        big, small = (alpha, beta) if left else (beta, alpha)
        if i not in keys:
            keys[i] = small[0] * one + small[1] * r, big[0] * one + big[1] * r
        ks, kb = keys[i]
        if ks < kl:
            break
        i += 1
    if q == 1 and kb >= kl:  # ell <= big: one step
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
    ss: ScaledSystem, p: Pair, k0: int, n_max: int, left: bool, scale: Scale
) -> Iterator[tuple[int, Pair, int]]:
    """(n, v, key) at each strict record over 0 <= n <= n_max of v = frac(y_{k0+n} - p), or
    with left=False of u = p - y_{k0+n} in (0, 1], and v's additive key at ``scale``, whose e
    bounds its walks (``_walk``); p is reduced (module docstring)."""
    one, r, _ = scale
    ya, yb = ss.state_at(k0)
    fa, fb = ss.frac(ya - p[0], yb - p[1])
    v = (fa, fb) if left else (ss.m - fa, -fb)
    k_hit = _orbit_index(ss, p) if left else None
    runs = _runs(ss.d, ss.m, ss.step)
    i = n = 0
    while n <= n_max:
        kv = v[0] * one + v[1] * r
        yield n, v, kv
        if n == n_max or v == (0, 0):
            return
        i, (a, alpha, b, beta) = _walk(ss.d, runs, v, kv, i, scale)
        if not left:
            n, v = n + a, (v[0] - alpha[0], v[1] - alpha[1])
        elif k_hit is not None and n < k_hit - k0 < n + b:  # v drops to 0 exactly there
            n, v = k_hit - k0, (0, 0)
        else:
            n, v = n + b, (v[0] - beta[0], v[1] - beta[1])


def _chains(ss: ScaledSystem, p: Pair, top: int, bottom: int, n_max: int,
            scale: Scale) -> Iterator[tuple]:
    """For s = top, ..., bottom: s and the stacks (-k, key, value) of the left and right chains
    of p over s <= k <= top + n_max, increasing lists changed in place (module docstring),
    with the values' keys at ``scale``, which order them and bound the walks of ``_records``."""
    one, r, _ = scale
    recs = [list(_records(ss, p, top, n_max, left, scale))[::-1] for left in (True, False)]
    stacks = [([-top - n for n, _, _ in rec], [kv for *_, kv in rec], [v for _, v, _ in rec]) for rec in recs]
    yield top, stacks
    for s in range(top - 1, bottom - 1, -1):
        fa, fb = ss.frac(ss.base[0] + s * ss.step[0] - p[0], ss.base[1] + s * ss.step[1] - p[1])
        kf = fa * one + fb * r
        for (ks, kvs, vs), v, kv in zip(stacks, ((fa, fb), (ss.m - fa, -fb)), (kf, ss.m * one - kf)):
            while kvs and kvs[-1] >= kv:
                del ks[-1], kvs[-1], vs[-1]
            ks.append(-s)
            kvs.append(kv)
            vs.append(v)
        yield s, stacks


def interval_hits(ss: ScaledSystem, iv: Interval, k_min: int, k_max: int) -> list[int]:
    """Increasing k in [k_min, k_max] with frac(basepoint + k*xi) in [lo, hi): three-gap
    steps from the first record of frac(y_k - lo) below hi - lo (``_records``), on y's
    additive key, at one scale for both (module docstring)."""
    d = ss.d
    lo_a, lo_b, hi_a, hi_b = iv
    la, lb = hi_a - lo_a, hi_b - lo_b
    ga, (al_a, al_b), gb, (be_a, be_b) = return_gaps(d, ss.m, ss.step, (la, lb))
    t1 = (hi_a - al_a, hi_b - al_b)  # step by a below hi - alpha
    t2 = (lo_a + be_a, lo_b + be_b)  # else by b from lo + beta on
    # y's sqrt(d) part runs linearly from y0 to y1: e bounds its distance from each threshold's,
    # so keys up to the threshold's less e lie below it, from its plus e above, and the records'
    # walks: each to a record v >= hi - lo compares values of time <= 1/v < a + b (``_walk``;
    # a*beta + b*alpha = 1 with alpha, beta < hi - lo), against v and v against hi - lo
    y0 = ss.base[1] + k_min * ss.step[1]
    y1 = y0 + (k_max - k_min) * ss.step[1]
    walks = (ga + gb) * abs(ss.step[1]) + max(abs(y0 - lo_b), abs(y1 - lo_b)) + abs(lb)
    e = max(walks, *(abs(y - t[1]) for y in (y0, y1) for t in (t1, t2)))
    one, r = linear_key(d, e)
    kl = la * one + lb * r
    for n, _, kv in _records(ss, (lo_a, lo_b), k_min, k_max - k_min, True, (one, r, {})):
        if kv < kl:
            break
    else:
        return []
    k = k_min + n
    y = lo_a * one + lo_b * r + kv  # y's key, carried from hit to hit
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
Block = tuple[tuple[int, ...], Optional[tuple[int, ...]]]  # hits and their colours, or None


def _stepped(ss: ScaledSystem, pieces: list[Piece], k_min: int, k_max: int, colored: bool) -> Block:
    """Hits of the pieces in [k_min, k_max] by three-gap stepping, and their colours or None."""
    if len(pieces) == 1:
        ks = tuple(interval_hits(ss, pieces[0][0], k_min, k_max))
        return ks, (pieces[0][1],) * len(ks) if colored else None
    if not colored:
        return tuple(sorted(k for iv, _ in pieces for k in interval_hits(ss, iv, k_min, k_max))), None
    hits = sorted((k, color) for iv, color in pieces for k in interval_hits(ss, iv, k_min, k_max))
    return tuple(map(itemgetter(0), hits)), tuple(map(itemgetter(1), hits))


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
    or 0 when the point lies in none of the intervals, else of the intervals alone and None.

    On the block shift each block of q indices is the last one's offsets, gaps and (for a
    hull of several pieces) colours patched at its crossings; the output is the gap before
    each hit, the first block's first from 0, summed once by ``accumulate`` (module docstring)."""
    span = k_max - k_min + 1
    pieces, q, arcs = _plan(ss.d, ss.m, ss.step, ss.ivals, ss.ends, span, hull)
    if not q:
        debug(__name__, "hits %d..%d: three-gap stepping, %d pieces", k_min, k_max, len(pieces))
        return _stepped(ss, pieces, k_min, k_max, hull)
    # the k whose point crosses an endpoint when moved on by q: those on its arc
    on_arcs = ((k, color) for arc, color in arcs for k in interval_hits(ss, arc, k_min, k_max - q))
    cross = sorted(on_arcs, key=itemgetter(0))
    debug(
        __name__, "hits %d..%d: block shift, q=%d, %d blocks, %d crossings",
        k_min, k_max, q, -(-span // q), len(cross),
    )
    track = hull and len(pieces) > 1  # the hits' colours can differ: keep them per block
    ks, colors = _stepped(ss, pieces, k_min, k_min + q - 1, track)
    # a block: the offsets of its hits from its start, then q; the gap before each offset
    # (the first from the block start); and, if tracked, the hits' colours
    offs = [k - k_min for k in ks] + [q]
    gaps = list(map(sub, offs, [0, *offs]))
    colors = list(colors or ())  # empty if not tracked
    out_gaps, out_colors = [], []  # out_gaps: the gap before each hit, the first from 0
    bridge = k_min  # from the last hit output to the block start
    i = 0
    for start in range(k_min, k_max + 1, q):
        while i < len(cross) and cross[i][0] < start:  # the crossings of the last block
            k, color = cross[i]  # the colour past the endpoint; None: a delete
            i += 1
            while i < len(cross) and cross[i][0] == k:  # it crosses several endpoints: step k + q
                i += 1
                color = (_stepped(ss, pieces, k + q, k + q, True)[1] or (None,))[0]
            o = k + q - start
            j = bisect_left(offs, o)
            if offs[j] == o and color is None:  # a delete merges its gap into the next one
                gaps[j + 1] += gaps[j]
                del offs[j], gaps[j]
                if track:
                    del colors[j]
            elif offs[j] == o and track:  # a recolour
                colors[j] = color
            elif offs[j] != o and color is not None:  # an insert splits the gap before offs[j]
                gaps.insert(j + 1, offs[j] - o)
                gaps[j] -= offs[j] - o
                offs.insert(j, o)
                if track:
                    colors.insert(j, color)
        if start + q - 1 > k_max:  # the last block ends at k_max
            j = bisect_right(offs, k_max - start)
            del offs[j:], colors[j:], gaps[j + 1:]
        gaps[0] += bridge  # references to the block's gaps and colours, no work per hit
        out_gaps += gaps
        out_colors += colors
        gaps[0] -= bridge
        bridge = out_gaps.pop()  # the gap after the last hit, to the next block start
    ks = tuple(accumulate(out_gaps))
    del out_gaps  # freed before the colours are made, which reuse its memory: less heap
    return ks, tuple(out_colors) if track else (pieces[0][1],) * len(ks) if hull else None


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
# a, alpha, b, beta, the table's cuts (increasing) and values, the largest |sqrt(d) part| of a
# cut, alpha or beta up to it, and where the walk stands after its step: step t of run i, as
# (i, t) (``_steps``)
Level = tuple[int, Pair, int, Pair, list[Pair], list[Summary], int, tuple[int, int]]


@lru_cache(maxsize=8)  # levels and one keyed view keep 9.3 MiB (levels 4.3) at sqrt(10^6 + 1) to 10^6
def _levels(d: int, m: int, step: Pair, ivals: tuple[Interval, ...]) -> list:
    return [[], (0, 0, [])]  # the window's levels and one keyed view (one, r, entries) of them


def table_rows(
    ss: ScaledSystem, records: Sequence[int]
) -> tuple[list[tuple[int, XiReal, XiReal]], int]:
    """Profile rows (n, D(n), max |D(N)| over N <= n) at each record, from the block
    tables of the levels whose blocks fit in 0..records[-1] = N (cached per window by
    ``_levels`` with one keyed view, as they do not depend on the basepoint); `records`
    is increasing and nonempty.  Returns the rows and the number of those levels.

    Each level is built on additive keys (``linear_key``) of one scale, for an e that bounds
    the sqrt(d) part (b-part) of every difference compared.  Level 0's, 2*max(|step_b|,
    |end_b|), bounds those of its cuts (frac(xi) - 1, 0 and the endpoints, less 1 from
    frac(xi) on) and of an endpoint and frac(xi).  To step from level i, of times a and b,
    let B = max(E, |alpha'_b|, |beta'_b|), E level i's (below): the old cuts, the shift
    (alpha or -beta) and alpha' - beta' have |b| <= B, a new cut (an old one, one less the
    shift, -beta' or 0) 2B and one plus the shift 3B; the summaries, multiplied on keys as
    in the climb, compare prefixes (h, k) of blocks of at most a + b steps, 1 <= k <= a + b,
    whose differences have b-part (k - k')*len_b.  So e = max(4B, (a + b)|len_b|).

    The climb compares additive keys (``linear_key``) for e = max(|b_0|, |b_0 + (N + 1)*
    step_b|) + E + 2(N + 1)|len_b|: x's sqrt(d) part is b_0 + j*step_b after j <= N + 1
    steps, E (kept per level) bounds a cut's, alpha's or beta's, and prefixes (h, k) of the
    product have 1 <= k <= N + 1, so two summaries differ by (k - k')*len_b and up - down by
    (2 - hk - lk)*len_b.  e bounds every difference compared, so keys order as values do.
    A scale made for e' is exact for every e <= e' (its 2^s only grows), so the window keeps
    one view, keyed for the largest e read so far, and keys it anew only for a larger one."""
    d, m = ss.d, ss.m
    la, lb = ss.length

    def keyed(vals: list[Summary], one: int, r: int) -> list[tuple]:
        # each summary as (h, k, K) thrice, with K the key of m*(h - k*len) at (one, r)
        mo, ell = m * one, la * one + lb * r
        return [(h, k, h * mo - k * ell, hh, hk, hh * mo - hk * ell, lh, lk, lh * mo - lk * ell)
                for h, k, hh, hk, lh, lk in vals]

    def keyed_mul(s: tuple, t: tuple) -> tuple:  # the product on keys: K + TKH > KH, not a sign test
        h, k, kk, hh, hk, kh, lh, lk, kl = s
        if kk + t[5] > kh:
            hh, hk, kh = h + t[3], k + t[4], kk + t[5]
        if kk + t[8] < kl:
            lh, lk, kl = h + t[6], k + t[7], kk + t[8]
        return h + t[0], k + t[1], kk + t[2], hh, hk, kh, lh, lk, kl

    def level(gaps: Gaps, cuts: list, vals: list[Summary], at: tuple[int, int], big: int) -> Level:
        keep = [j for j in range(len(vals)) if not j or vals[j] != vals[j - 1]]  # merge equal neighbours
        cuts = [cuts[j] for j in keep]
        a, al, b, be = gaps
        big = max(big, abs(al[1]), abs(be[1]), *(abs(c[1]) for c in cuts))
        return a, al, b, be, cuts, [vals[j] for j in keep], big, at

    sa, sb = ss.step
    store = _levels(d, m, ss.step, ss.ivals)
    levels = store[0]
    if not levels:  # J_0 = [frac(xi) - 1, frac(xi)), cut at 0 and the endpoints
        one, r = linear_key(d, 2 * max(abs(b) for _, b in (ss.step, *ss.ends)))
        signed = {e if e[0] * one + e[1] * r < sa * one + sb * r else (e[0] - m, e[1]) for e in ss.ends}
        cuts = sorted({(sa - m, sb), (0, 0)} | signed, key=lambda c: c[0] * one + c[1] * r)
        vals = [(int(ss.contains(*ss.frac(*c))), 1) * 3 for c in cuts]  # one step from each cut
        levels[:1] = [level(_runs(d, m, ss.step)[0][:4], cuts, vals, (0, 0), 0)]
    # top: the last level whose blocks fit, from one read of the list, which other threads may
    # extend meanwhile.  Where it is the last level read, build on from where its walk stands
    # up to one whose blocks do not fit, so that a call with a bound no larger reads no run
    built = len(levels)
    top = bisect_right(levels, records[-1] + 1, hi=built, key=lambda lv: min(lv[0], lv[2])) - 1
    steps = _steps(d, m, ss.step, levels[top][7]) if top == built - 1 else ()
    i = top
    summary = itemgetter(0, 1, 3, 4, 6, 7)  # a keyed summary's (h, k) thrice
    for at, left, nxt in steps:
        a, al, b, be, cuts, vals, big, _ = levels[i]
        nb = (-nxt[3][0], -nxt[3][1])  # -beta', a cut of J'
        if left:  # J' = [-beta, alpha - beta): a block from [-beta, 0) goes on from x + alpha
            p, shift = nxt[1], al
        else:  # J' = [alpha - beta, alpha): a block from [0, alpha) goes on from x - beta
            p, shift = nb, (-be[0], -be[1])
        one, r = linear_key(d, max(4 * max(big, abs(nxt[1][1]), abs(nb[1])), (a + b) * abs(lb)))
        keys = [c[0] * one + c[1] * r for c in cuts]
        kp, ks = p[0] * one + p[1] * r, shift[0] * one + shift[1] * r
        # a cut of J outside J', on the far side of alpha - beta, comes back as its preimage
        pts = {(k - ks, (c[0] - shift[0], c[1] - shift[1])) if (k >= kp) == left else (k, c)
               for k, c in zip(keys, cuts)}
        new_cuts = sorted(pts | {(nb[0] * one + nb[1] * r, nb), (0, (0, 0))})  # (key, cut)
        kv = keyed(vals, one, r)  # the step's summaries, keyed once at its scale
        new_vals = []
        for k, _ in new_cuts:
            j = bisect_right(keys, k) - 1
            if (k < 0) == left:  # the block doubles: its product on keys of this scale
                new_vals.append(summary(keyed_mul(kv[j], kv[bisect_right(keys, k + ks) - 1])))
            else:
                new_vals.append(vals[j])
        levels[i + 1:i + 2] = [level(nxt, [c for _, c in new_cuts], new_vals, at, big)]
        i += 1
        if min(nxt[0], nxt[2]) > records[-1] + 1:
            top = i - 1
            break

    x = ss.base if pair_sign(ss.base[0] - sa, ss.base[1] - sb, d) < 0 else (ss.base[0] - m, ss.base[1])
    n = records[-1] + 1
    need = linear_key(d, max(abs(x[1]), abs(x[1] + n * sb)) + levels[top][6] + 2 * n * abs(lb))
    one, r, views = store[1]  # one read: a thread that swaps the view meanwhile leaves this one whole
    if one < need[0]:  # too coarse for this bound: key the levels anew, for the store too
        store[1] = one, r, views = (*need, [])
    ell = la * one + lb * r  # the key of m*len
    # a, b, the keys of alpha, -beta and the cuts, and the keyed values, of the levels this view
    # lacks: stored from where it stood, so a thread that extended it gets the same again
    start = len(views)
    views[start:top + 1] = [
        (a, b, al[0] * one + al[1] * r, -be[0] * one - be[1] * r, [c[0] * one + c[1] * r for c in cuts],
         keyed(vals, one, r)) for a, al, b, be, cuts, vals, *_ in levels[start:top + 1]]

    kx = x[0] * one + x[1] * r  # x's key, carried from step to step
    acc: Optional[tuple] = None
    rows = []
    prev = -1
    last = None  # the last sup pair: it changes on few rows, so each is unscaled once
    for rec in records:
        n = rec - prev  # the steps prev + 1..rec: climb while the blocks fit, then go down
        prev = rec
        i = 0
        while n:
            neg = kx < 0
            if i < top:  # up while x lies in the next J = [-beta, alpha) and its block fits
                a, b, ka, kb, _, _ = views[i + 1]
                if (a if neg else b) <= n and kb <= kx < ka:
                    i += 1
                    continue
            a, b, ka, kb, keys, vals = views[i]
            t = a if neg else b
            if t > n:
                i -= 1
                continue
            v = vals[bisect_right(keys, kx) - 1]  # the piece holding x
            acc = v if acc is None else keyed_mul(acc, v)
            kx += ka if neg else kb  # x + alpha, or x - beta
            n -= t
        h, k, _, hh, hk, kh, lh, lk, kl = acc  # k = rec + 1 steps, so D(rec) = h - rec*len
        up = (hh * m - (hk - 1) * la, (1 - hk) * lb)  # max D, key kh + ell
        down = ((lk - 1) * la - lh * m, (lk - 1) * lb)  # -min D, key -kl - ell
        sup = up if kh + kl + 2 * ell >= 0 else down
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

    Every order compares one additive key (``linear_key``), for e = max(walk_bound(V),
    2N|beta||step_b|) with V = |base_b| + (N + K + 1)|step_b| + T, N = records[-1], K = max
    |kappa_l|, beta = sum kappa_l and T the largest |b| of a tooth; e bounds the b-part of
    each difference compared.  A chain value +-(y_k - a_l) (|k| <= N + K) has |b| <= V, as a
    tooth is a_l or a_l - xi mod 1: two of one chain differ by (k - k')step_b (the pops), and
    the walks of ``_records`` to it compare values of time <= 1/v against it (``_walk``),
    which ``walk_bound`` bounds by its norm.  That e is at least 3V: it covers a chain value
    against a piece length (2T), two teeth (2T) and G's y_n (-1 <= n <= N, |b| <= |base_b| +
    (N + 1)|step_b|) against a tooth.  G(y_n) has b-part beta*y_n,b - sum w_e*e_b, so two
    events differ by beta*(n - n')step_b, and 2C - min G - max G, whose sign picks the sup,
    by -beta*(n + n')step_b, as len_b = beta*step_b.  A sample's floor is its key's over
    m*one, unless the key lies within e of a multiple of m*one: then one ``floor_key``.
    """
    d, m = ss.d, ss.m
    xa, xb = ss.step  # xi mod 1: every use of G reduces mod 1
    weight: dict[Pair, int] = {}  # tooth e mod 1 -> its summed signs w_e: G = sum w_e*frac(y - e)
    owner: dict[Pair, tuple[int, int]] = {}  # tooth e -> the first (l, j) on it: its chains
    for l, ((lo_a, lo_b, _, _), kappa) in enumerate(zip(ss.ivals, kappas)):
        for j in range(kappa) if kappa > 0 else range(kappa, 0):
            tooth = ss.frac(lo_a + j * xa, lo_b + j * xb)
            weight[tooth] = weight.get(tooth, 0) + (1 if kappa > 0 else -1)
            owner.setdefault(tooth, (l, j))
    beta = sum(kappas)  # the slope of G: len = beta*xi + integer, never 0
    n_max = records[-1]
    chain_b = abs(ss.base[1]) + (n_max + max(map(abs, kappas)) + 1) * abs(xb) + max(abs(t[1]) for t in weight)
    e = max(walk_bound(d, m, xb, chain_b), 2 * n_max * abs(beta * xb))  # e of the docstring: V is chain_b
    one, root = linear_key(d, e)
    mo = m * one

    pts = sorted(weight, key=lambda v: v[0] * one + v[1] * root)  # weight 0 stays, with its chains
    tkeys = [a * one + b * root for a, b in pts]
    # G(y) = beta*y - sum w_e*e + above[i] for y in [0, 1) with i teeth at or below it (module
    # docstring): above[i] sums w_e over pts[i:]
    above = list(accumulate((weight[p] for p in reversed(pts)), initial=0))[::-1]
    ka = sum(w * t[0] for t, w in weight.items())
    kb = sum(w * t[1] for t, w in weight.items())
    kk = ka * one + kb * root

    def big_g(ya: int, yb: int) -> Pair:  # y's floor by its key, then a bisection on the key
        ky = ya * one + yb * root
        fl, rest = divmod(ky, mo)
        if rest < e or rest > mo - e:  # within e of an integer: the key cannot tell
            fl = floor_key(ya, yb, d) // m
        return beta * (ya - fl * m) - ka + above[bisect_right(tkeys, ky - fl * mo)] * m, beta * yb - kb

    ya, yb = ss.base
    ga, gb = big_g(ya - xa, yb - xb)
    ca, cb = ss.length[0] + ga, ss.length[1] + gb  # D(n) = C - G(y_n)
    kc = ca * one + cb * root

    lens = [q - p for p, q in zip(tkeys, [*tkeys[1:], tkeys[0] + mo])]  # the pieces' keys
    owned = {owner[t]: i for i, t in enumerate(pts)}
    scale: Scale = (one, root, {})  # shared by every chain's walks
    # (n, updates the min, the key of G(y_n), then z, c and v with G(y_n) = z + c*v): the pair
    # is made only for an event that a row's sup picks
    events = []
    for l, ((lo_a, lo_b, _, _), kappa) in enumerate(zip(ss.ivals, kappas)):
        if not kappa:
            continue
        # tooth a_l - s*xi reads the chains of frac(y_k - a_l) from k = s (module docstring)
        chains = _chains(ss, (lo_a, lo_b), max(-kappa, 0), min(1 - kappa, 1), n_max, scale)
        for s, ((lks, kvs, vs), (rks, kus, us)) in chains:
            i = owned.get((l, -s))
            if i is None:
                continue
            (pa, pb), cut = pts[i], -s - n_max  # k - s <= N
            z = beta * pa - ka + above[i + 1] * m, beta * pb - kb  # G(p): i + 1 teeth up to p
            kz = beta * tkeys[i] - kk + above[i + 1] * mo
            # left chain: v = frac(y_n - p) < lens[i], G(y_n) = G(p) + beta*v
            for t in range(bisect_left(lks, cut), bisect_left(kvs, lens[i])):
                events.append((-lks[t] - s, beta > 0, kz + beta * kvs[t], z, beta, vs[t]))
            # right chain: u = p - y_n in (0, 1] up to lens[i - 1], G(y_n) = G(p-) - beta*u
            z = z[0] + weight[pts[i]] * m, z[1]  # G(p-): the i teeth below p
            kz += weight[pts[i]] * mo
            for t in range(bisect_left(rks, cut), bisect_right(kus, lens[i - 1])):
                events.append((-rks[t] - s, beta < 0, kz - beta * kus[t], z, -beta, us[t]))
    events.sort(key=itemgetter(0))

    rows = []
    lo = hi = last = None  # events: the running min and max of G(y_n), set by y_0's, and the last sup
    i = 0
    for r in records:
        while i < len(events) and events[i][0] <= r:
            event = events[i]
            i += 1
            if event[1]:
                if lo is None or event[2] < lo[2]:
                    lo = event
            elif hi is None or event[2] > hi[2]:
                hi = event
        ga, gb = big_g(ya + r * xa, yb + r * xb)
        # max of D, C - min G, against max of -D, max G - C; unscaled once per change, as in table_rows
        pick = lo if 2 * kc >= lo[2] + hi[2] else hi
        if pick is not last:
            _, to_min, _, (za, zb), c, (va, vb) = last = pick
            g = za + c * va - ca, zb + c * vb - cb  # G(y_n) - C
            sup_x = ss.unscale((-g[0], -g[1]) if to_min else g)
        rows.append((r, ss.unscale((ca - ga, cb - gb)), sup_x))
    return rows, len(pts), 2 * sum(1 for kappa in kappas if kappa), len(events)
