"""Property tests of the three-gap stepping core, the record walk, the
block-shift hit stream, the floor-sum count, the block-table profile and
the closed-form profile of bounded windows in ``cutproject._scaled``.

Every fast route is compared with a route that shares none of its
stepping: ``collect_hits_direct`` (one explicit floor per index), plain
``XiReal`` arithmetic from ``exactnum``, or brute force over k.  The
block tables ``table_rows`` are checked against ``strip_rows`` (one
explicit floor per index) and are in turn the reference for the closed
form up to N = 10^30, where both stay below the exact supremum of a
bounded window (``oracles.exact_sup``).
"""

import logging
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from cutproject import _scaled
from cutproject.criteria import oren_condition
from cutproject.discrepancy import _record_points, profile
from cutproject.exactnum import XiSpec, pair_sign
from cutproject.patterns import (
    OMEGA,
    PointPattern,
    RotationSystem,
    Window,
    colored_hits,
    local_discrepancy,
    orbit_hits,
    parse_window,
    strip_points,
)
from oracles import exact_sup, sup_attained_at

FIELDS = [
    XiSpec(Fraction(1, 2), Fraction(1, 2), 5),
    XiSpec.sqrt(2),
    XiSpec.sqrt(3),
    XiSpec(Fraction(-1, 3), Fraction(2, 3), 7),
    XiSpec(Fraction(0), Fraction(1), 19),
]
XI101 = XiSpec.sqrt(101)  # [10; 20, 20, ...]: large partial quotients
XI10001 = XiSpec.sqrt(10001)  # [100; 200, 200, ...]: walks stop deep inside a run
LARGE_QUOTIENTS = [XI101, XI10001]

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def points(draw, xi):
    """A value in [0, 1]: a rational, an endpoint 0 or 1, or frac(a + b*xi)."""
    kind = draw(st.sampled_from(["rational", "end", "surd"]))
    if kind == "rational":
        den = draw(st.integers(1, 97))
        return xi.real(Fraction(draw(st.integers(0, den)), den))
    if kind == "end":
        return xi.real(draw(st.sampled_from([0, 1])))
    a = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 9)))
    return xi.real(a, draw(st.integers(-7, 7))).fractional_part()[0]


NEGATIVE_XI = XiSpec(-2, 1, 2)  # -2 + sqrt(2) < 0


@st.composite
def systems(draw, fields=FIELDS):
    xi = draw(st.sampled_from(fields))
    n_iv = draw(st.integers(1, 4))
    cuts = sorted(set(draw(st.lists(points(xi), min_size=2 * n_iv, max_size=2 * n_iv))))
    cuts = cuts[: len(cuts) // 2 * 2]
    assume(cuts and cuts[:2] != [xi.zero, xi.one])  # [0, 1) is no window
    window = Window([(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)])
    if draw(st.booleans()):
        base = draw(points(xi))
    else:  # singular: the orbit meets an endpoint exactly at k = j
        end = draw(st.sampled_from(window.endpoints()))
        base = end - draw(st.integers(-300, 300)) * xi.xi_real
    return RotationSystem(xi, base, window)


ranges = st.tuples(
    st.integers(-3000, 3000),
    st.sampled_from([0, 1, 2, 3, 7, 50, 400, 1500]),
)


@SETTINGS
@given(systems(), ranges)
def test_core_matches_strip_route(system, rng):
    k_min, span = rng
    k_max = k_min + span
    ss = system._scaled
    want = _scaled.collect_hits_direct(ss, k_min, k_max)
    assert list(_scaled.collect_hits(ss, k_min, k_max)[0]) == want
    assert _scaled.count_hits(ss, k_min, k_max) == len(want)
    per_interval = [
        list(_scaled.interval_hits(ss, iv, k_min, k_max)) for iv in ss.ivals
    ]
    assert sorted(k for ks in per_interval for k in ks) == want
    for ks in per_interval:
        assert ks == sorted(set(ks))


@SETTINGS
@given(st.sampled_from(FIELDS), st.integers(2, 150), st.integers(0, 149), st.booleans())
def test_return_gaps_are_least_returns(xi, den, num, surd):
    ell = xi.real(Fraction(num % den + 1, den + 1))
    if surd:  # an irrational length in (0, 1)
        ell = (ell + xi.xi_real).fractional_part()[0]
        if not ell:
            return
    ss = _scaled.scale_system(xi, xi.zero, [(xi.zero, ell)])
    a, alpha, b, beta = _scaled.return_gaps(ss.d, ss.m, ss.step, ss.length)

    def frac(k):
        return (k * xi.xi_real).fractional_part()[0]

    want_a = next(k for k in range(1, 10**4) if (frac(k) - ell).sign() < 0)
    want_b = next(k for k in range(1, 10**4) if (1 - frac(k) - ell).sign() < 0)
    assert (a, b) == (want_a, want_b)
    assert ss.unscale(alpha) == frac(a)
    assert ss.unscale(beta) == 1 - frac(b)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(), ranges.filter(lambda r: r[1] <= 400))
def test_colors_match_interval_membership(system, rng):
    k_min, span = rng
    intervals = system.window.intervals
    hull_lo, hull_hi = intervals[0][0], intervals[-1][1]
    want = {}
    for k in range(k_min, k_min + span + 1):
        y = (system.basepoint + k * system.xi.xi_real).fractional_part()[0]
        if (y - hull_lo).sign() >= 0 and (y - hull_hi).sign() < 0:
            inside = [i for i, iv in enumerate(intervals, 1) if Window([iv]).contains(y)]
            want[k] = inside[0] if inside else OMEGA
    pat = colored_hits(system, k_min, k_min + span)
    assert dict(zip(pat.points, pat.colors)) == want
    assert list(pat.points) == sorted(want)


def strict_records(ss, p, k0, n_max, left):
    """The strict records of frac(y_{k0+n} - p), or of p - y_{k0+n} in (0, 1],
    over 0 <= n <= n_max, by one explicit floor per index."""
    out = []
    for n in range(n_max + 1):
        ya, yb = ss.state_at(k0 + n)
        fa, fb = ss.frac(ya - p[0], yb - p[1])
        v = (fa, fb) if left else (ss.m - fa, -fb)
        if not out or pair_sign(v[0] - out[-1][1][0], v[1] - out[-1][1][1], ss.d) < 0:
            out.append((n, v))
    return out


@SETTINGS
@given(
    systems(FIELDS + [NEGATIVE_XI] + LARGE_QUOTIENTS),
    st.integers(-3000, 3000),
    st.integers(-1, 2000),
    st.data(),
)
def test_records_match_index_by_index(system, k0, n_max, data):
    xi = system.xi
    p = data.draw(st.sampled_from([xi.zero, *system.window.endpoints()])).fractional_part()[0]
    j = data.draw(st.one_of(st.none(), st.integers(0, 2100)))
    if j is not None:  # the orbit meets p exactly at n = j
        system = RotationSystem(xi, p - (k0 + j) * xi.xi_real, system.window)
    ss = system._scaled
    A, B, D = p.triple
    pair = (A * (ss.m // D), B * (ss.m // D))
    for left in (True, False):
        got = list(_scaled._records(ss, pair, k0, n_max, left))
        assert got == strict_records(ss, pair, k0, n_max, left)
        if left:
            event("meets p" if got and got[-1][1] == (0, 0) else "misses p")


def test_sparse_window_needs_no_search(monkeypatch):
    """No hit of [1/3, 1/3 + 10^-12) over 0..10^5: the first-hit record walk
    makes O(log) sign tests, where an index-by-index search made 266,855."""
    xi = FIELDS[0]
    lo = xi.real(Fraction(1, 3))
    system = RotationSystem(
        xi, xi.real(Fraction(1, 7)), Window.single(lo, lo + xi.real(Fraction(1, 10**12)))
    )
    want = _scaled.count_hits(system._scaled, 0, 10**5)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return pair_sign(*args)

    monkeypatch.setattr(_scaled, "pair_sign", counted)
    assert len(orbit_hits(system, 0, 10**5)) == want
    assert calls < 1000


def test_sparse_window_hits_to_1e7():
    """[1/3, 1/3 + 10^-6) over 0..10^7: N*len + D(N) hits, each on the strip route."""
    xi = FIELDS[0]
    sparse = RotationSystem(xi, xi.real(Fraction(1, 7)), parse_window("[1/3, 1/3 + 1/1000000)", xi))
    hits = orbit_hits(sparse, 0, 10**7)
    assert len(hits) == local_discrepancy(sparse, 10**7) + 10**7 * sparse.window_length() > 0
    assert all(strip_points(sparse, k, k) for k in hits)


KAPPAS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def bounded_systems(draw, fields=FIELDS + [NEGATIVE_XI]):
    """Windows with an Oren matching, 1-3 intervals, and their witness.

    Each class of endpoints is {frac(u), frac(u + kappa*xi)} with
    0 < |kappa| <= 3, sometimes in the class of the previous one (teeth of
    G may then coincide), or {0, 1}.  The window is bounded when every
    class falls one endpoint left and one right.  The basepoint is free,
    or puts the orbit point k, -300 <= k <= 300, exactly on a tooth.
    """
    xi = draw(st.sampled_from(fields))
    cuts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            cuts += [xi.zero, xi.one]
            continue
        if cuts and draw(st.booleans()):
            u = cuts[-1] + draw(KAPPAS) * xi.xi_real
        else:
            u = draw(points(xi))
        kappa = draw(KAPPAS)
        cuts += [u.fractional_part()[0], (u + kappa * xi.xi_real).fractional_part()[0]]
    assume(len(set(cuts)) == len(cuts))
    cuts.sort()
    assume(cuts[:2] != [xi.zero, xi.one])  # [0, 1) is no window
    window = Window([(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)])
    witness = oren_condition(window)
    assume(witness is not None)
    if draw(st.booleans()):
        base = draw(points(xi))
    else:  # G's teeth are a_l + j*xi, 0 <= j < kappa or kappa <= j < 0
        l = draw(st.integers(0, len(window) - 1))
        kappa = witness.ks[l]
        j = draw(st.sampled_from(list(range(min(kappa, 0), max(kappa, 0))) or [0]))
        k = draw(st.one_of(st.integers(-3, 3), st.integers(-300, 300)))
        base = window.intervals[l][0] + (j - k) * xi.xi_real
    return RotationSystem(xi, base, window), witness


def _case(xi, text, base):
    window = parse_window(text, xi)
    return RotationSystem(xi, base, window), oren_condition(window)


# y_0 sits on the right end of a piece of G, where G jumps up (kappa < 0)
ON_A_TOOTH = _case(
    FIELDS[1], "[11/31, 104/31-2*xi) [149/31-3*xi, 25/31)", FIELDS[1].real(Fraction(104, 31), -2)
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(ON_A_TOOTH, 100, 4096)
@given(
    bounded_systems(),
    st.sampled_from([100, 101, 997, 4096, 10**5, 10**12, 10**30]),
    st.sampled_from([1, 16, 64, 4096]),
)
def test_closed_form_rows_match_scan(case, n_max, trace_limit):
    """The closed form against the block tables, two routes that share no step."""
    system, witness = case
    ss = system._scaled
    records = _record_points(n_max, trace_limit)
    rows, _, _ = _scaled.closed_form_rows(ss, witness.ks, records)
    assert rows == _scaled.table_rows(ss, records)[0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(ON_A_TOOTH, 10**30, 64)
@given(
    bounded_systems(),
    st.sampled_from([100, 10**5, 10**12, 10**30]),
    st.sampled_from([1, 16, 64]),
)
def test_running_sups_stay_below_exact_sup(case, n_max, trace_limit):
    """No running sup of a bounded window exceeds sup |D(N)| over all N."""
    system, witness = case
    ss = system._scaled
    records = _record_points(n_max, trace_limit)
    bound = exact_sup(system, witness.ks)
    closed, _, _ = _scaled.closed_form_rows(ss, witness.ks, records)
    for rows in (closed, _scaled.table_rows(ss, records)[0]):
        assert all((sup - bound).sign() <= 0 for _, _, sup in rows), bound
    if n_max == 10**30:  # by then the orbit has come within about 10^-29 of every tooth
        assert (bound - closed[-1][2] - Fraction(1, 10**20)).sign() < 0, bound


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(ON_A_TOOTH, 100, 4096)
@given(
    bounded_systems(),
    st.sampled_from([100, 1000, 10**6]),
    st.sampled_from([1, 16, 64, 4096]),
)
def test_running_sup_reaches_exact_sup_on_a_tooth(case, n_max, trace_limit):
    """The running sup equals the exact sup from the first N whose orbit point is a
    tooth that attains it (the chain's exact meeting in ``_records``), and stays
    strictly below it before that N or where there is none."""
    system, witness = case
    bound = exact_sup(system, witness.ks)
    j = sup_attained_at(system, witness.ks)
    event("attained" if j is not None and j <= n_max else "not attained")
    records = _record_points(n_max, trace_limit)
    rows, _, _ = _scaled.closed_form_rows(system._scaled, witness.ks, records)
    for n, _, sup in rows:
        if j is not None and n >= j:
            assert sup == bound, (n, j)
        else:
            assert (sup - bound).sign() < 0, (n, j)


def strip_rows(system, n_max):
    """(D(n), max |D(N)| over N <= n) for every 0 <= n <= n_max, one floor per index."""
    hits = set(_scaled.collect_hits_direct(system._scaled, 0, n_max))
    length = system.window_length()
    out = {}
    h = 0
    sup = None
    for n in range(n_max + 1):
        h += n in hits
        value = system.xi.real(h) - n * length
        if sup is None or (abs(value) - sup).sign() > 0:
            sup = abs(value)
        out[n] = (value, sup)
    return out


def assert_profile_matches_strip_route(system, n_max):
    want = strip_rows(system, n_max)
    for s in profile(system, n_max, trace_limit=64).samples:
        assert (s.value, s.running_sup) == want[s.n]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(), st.integers(100, 400))
def test_profile_matches_direct_scan(system, n_max):
    assert_profile_matches_strip_route(system, n_max)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(ON_A_TOOTH, 100)
@given(bounded_systems(), st.integers(100, 400))
def test_closed_form_matches_strip_route(case, n_max):
    assert_profile_matches_strip_route(case[0], n_max)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    systems(FIELDS + [NEGATIVE_XI]),
    st.tuples(st.integers(-5000, 3000), st.sampled_from([-1, 0, 1, 2, 3, 13, 200, 1500, 4000])),
)
def test_floor_sum_count_matches_strip_route(system, rng):
    k_min, span = rng
    ss = system._scaled
    want = _scaled.collect_hits_direct(ss, k_min, k_min + span)
    assert _scaled.count_hits(ss, k_min, k_min + span) == len(want)


@SETTINGS
@given(
    st.sampled_from(FIELDS + [NEGATIVE_XI]),
    st.tuples(st.integers(-40, 40), st.integers(1, 9), st.integers(-5, 5).filter(bool)),
    st.tuples(st.integers(-40, 40), st.integers(1, 9), st.integers(-5, 5)),
    st.integers(-2, 200),
)
def test_floor_sum_matches_brute_force(xi, a, b, n):
    av = xi.real(Fraction(a[0], a[1]), a[2])  # irrational: nonzero xi part
    bv = xi.real(Fraction(b[0], b[1]), b[2])
    triples = [v.triple for v in (av, bv)]
    want = sum((av * k + bv).floor() for k in range(n + 1))
    assert _scaled.floor_sum(n, triples[0], triples[1], xi.d) == want


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(FIELDS + [NEGATIVE_XI]), st.integers(0, 10**30))
def test_count_is_additive_at_scale(system, j):
    n = 10**30 + 7
    ss = system._scaled
    whole = _scaled.count_hits(ss, 0, n)
    assert whole == _scaled.count_hits(ss, 0, j) + _scaled.count_hits(ss, j + 1, n)
    assert 0 <= whole <= n + 1


def test_kesten_bound_up_to_a_googol():
    """Windows of length frac(k*xi) have |D(N)| < |k| + 1 for every N (Kesten)."""
    golden, sqrt2 = FIELDS[0], FIELDS[1]
    cases = [
        (golden, 1, golden.real(Fraction(1, 7))),
        (golden, 1, golden.zero),
        (sqrt2, 3, sqrt2.real(0)),
    ]
    for xi, k, lo in cases:
        length = (k * xi.xi_real).fractional_part()[0]
        window = Window.single(lo, lo + length)
        for base in (xi.zero, xi.real(Fraction(2, 5), 1).fractional_part()[0]):
            system = RotationSystem(xi, base, window)
            for j in range(1, 101):
                value = local_discrepancy(system, 10**j)
                assert (abs(value) - (abs(k) + 1)).sign() < 0, (xi, j, value)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(FIELDS + [NEGATIVE_XI] + LARGE_QUOTIENTS), st.integers(0, 5000), st.data())
def test_table_rows_match_strip_route(system, n, data):
    """Each row: D at the record and the running max of |D| up to it.  At sqrt(10001)
    one run of the walk spans up to 200 levels of the tables."""
    records = sorted(set(data.draw(st.lists(st.integers(0, n), max_size=12))) | {n})
    want = strip_rows(system, n)
    rows, _ = _scaled.table_rows(system._scaled, records)
    assert rows == [(r, *want[r]) for r in records]


def test_table_rows_keep_prefix_extremes_apart():
    """Neighbouring pieces whose blocks have one sum but other prefix extremes stay two."""
    xi = FIELDS[0]
    lo = xi.real(Fraction(-10, 7), 1)
    system = RotationSystem(xi, lo, Window.single(lo, xi.real(Fraction(4, 7))))
    want = strip_rows(system, 15)
    for records in ([15], list(range(16))):  # one climb to the top, and one step at a time
        rows, _ = _scaled.table_rows(system._scaled, records)
        assert rows == [(r, *want[r]) for r in records]


# -- the block-shift stream ------------------------------------------------------------


@st.composite
def tiny(draw, xi):
    """A length below the crossing arc |eps| of spans over a few thousand:
    a small rational or a surd frac(a*xi) or 1 - frac(b*xi) below it."""
    ell = xi.real(Fraction(1, draw(st.integers(1500, 10**5))))
    if draw(st.booleans()):
        return ell
    ss = _scaled.scale_system(xi, xi.zero, [(xi.zero, ell)])
    _, alpha, _, beta = _scaled.return_gaps(ss.d, ss.m, ss.step, ss.length)
    return ss.unscale(draw(st.sampled_from([alpha, beta])))


@st.composite
def block_systems(draw):
    """Windows long enough for the block route, 1-4 intervals.

    Cuts come from ``points`` (so 0 and 1 and full-circle hulls occur) or
    sit a tiny length after the previous cut, which makes a piece or a gap
    shorter than |eps|: one point then crosses two endpoints in one
    block.  Half the basepoints put the orbit point of some k in the range
    exactly on an endpoint.  Returns the system and the range.
    """
    xi = draw(st.sampled_from(FIELDS + [NEGATIVE_XI]))
    cuts = []
    for _ in range(2 * draw(st.integers(1, 4))):
        if cuts and draw(st.integers(0, 2)) == 0:
            cuts.append((cuts[-1] + draw(tiny(xi))).fractional_part()[0])
        else:
            cuts.append(draw(points(xi)))
    cuts = sorted(set(cuts))
    cuts = cuts[: len(cuts) // 2 * 2]
    assume(cuts and cuts[:2] != [xi.zero, xi.one])
    window = Window([(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)])
    assume((3 * window.total_length() - 1).sign() > 0)
    k_min = draw(st.integers(-30000, 3000))
    span = draw(st.sampled_from([2000, 5000, 9000, 20000]))
    if draw(st.booleans()):
        base = draw(points(xi))
    else:
        end = draw(st.sampled_from(window.endpoints()))
        base = end - (k_min + draw(st.integers(0, span))) * xi.xi_real
    return RotationSystem(xi, base, window), k_min, k_min + span


def direct_colors(ss, k_min, k_max):
    """Colour of each k of the hull by its own explicit floor: interval i
    (from 1), OMEGA in a gap between intervals."""
    ivals = ss.ivals
    out = {}
    for k in range(k_min, k_max + 1):
        ya, yb = ss.state_at(k)
        below = [pair_sign(ya - iv[2], yb - iv[3], ss.d) < 0 for iv in ivals]
        above = [pair_sign(ya - iv[0], yb - iv[1], ss.d) >= 0 for iv in ivals]
        inside = [i for i, (b, a) in enumerate(zip(below, above), 1) if a and b]
        if inside:
            out[k] = inside[0]
        elif above[0] and below[-1]:
            out[k] = OMEGA
    return out


def route(caplog, call):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cutproject"):
        call()
    (record,) = caplog.records
    return record.getMessage()


def plan(case, hull=False):
    """The (pieces, q, arcs) that collect_hits takes for the case; q = 0 steps it whole."""
    system, k_min, k_max = case
    ss = system._scaled
    return _scaled._plan(ss.d, ss.m, ss.step, ss.ivals, k_max - k_min + 1, hull)


# eps = frac(q*xi) > 1/1000: the arc of the endpoint 1/1000 wraps
WRAPPED = (
    RotationSystem(FIELDS[0], FIELDS[0].zero, parse_window("[1/1000, 7/10)", FIELDS[0])),
    -5000,
    15000,
)

SQRT101 = RotationSystem(
    XI101, XI101.real(Fraction(1, 7)), parse_window("[1/10, 1/4) [1/3, 1/2) [3/5, 17/20)", XI101)
)


@pytest.mark.parametrize("hull", [False, True])
def test_wrapped_example_splits_an_arc_at_0(hull):
    _, q, arcs = plan(WRAPPED, hull)
    m = WRAPPED[0]._scaled.m
    assert q
    assert [arc[2:] for arc, _ in arcs].count((m, 0)) == 1  # [c - eps + 1, 1)
    assert [arc[:2] for arc, _ in arcs].count((0, 0)) == 1  # and [0, c)


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@example(WRAPPED)
@given(block_systems())
def test_block_stream_matches_strip_route(case):
    system, k_min, k_max = case
    ss = system._scaled
    event("block shift" if plan(case)[1] else "three-gap stepping")
    assert list(_scaled.collect_hits(ss, k_min, k_max)[0]) == _scaled.collect_hits_direct(ss, k_min, k_max)


@pytest.mark.parametrize("hull", [False, True])
def test_block_stream_large_partial_quotients(hull):
    """sqrt(101), 3 intervals, 5*10^4 indices: the block shift against one floor per index."""
    case = (SQRT101, 12345, 62344)
    assert plan(case, hull)[1]
    ks, colors = _scaled.collect_hits(SQRT101._scaled, 12345, 62344, hull)
    want = direct_colors(SQRT101._scaled, 12345, 62344)
    if hull:
        assert dict(zip(ks, colors)) == want
        assert list(ks) == sorted(want)
    else:
        assert list(ks) == _scaled.collect_hits_direct(SQRT101._scaled, 12345, 62344)


def end_moves(hits, k_min, k_max, q):
    """How the first and the last offset of a whole block move on to the next block:
    a first offset that falls or a last that rises is an insert at that end, a first
    that rises or a last that falls a delete there (crossings are patched in order of
    k, so nothing patched before it can sit beyond that end)."""
    blocks = [[] for _ in range((k_max - k_min + 1) // q)]
    for k in hits:
        block, offset = divmod(k - k_min, q)
        if block < len(blocks):  # the last block is cut short
            blocks[block].append(offset)
    moves = set()
    for old, new in zip(blocks, blocks[1:]):
        if new[0] != old[0]:
            moves.add("insert first" if new[0] < old[0] else "delete first")
        if new[-1] != old[-1]:
            moves.add("insert last" if new[-1] > old[-1] else "delete last")
    return moves


ALL_ENDS = {"insert first", "delete first", "insert last", "delete last"}


@pytest.mark.parametrize("hull", [False, True])
@pytest.mark.parametrize(
    "xi, text, base, k_min, k_max, moves",
    [
        (XiSpec.sqrt(3), "[2/13, 5/13)", Fraction(26, 31), -578, 1421, (ALL_ENDS, ALL_ENDS)),
        (XiSpec.sqrt(2), "[1/7, 5/7)", Fraction(22, 31), 833, 3832, (ALL_ENDS, ALL_ENDS)),
        (
            XiSpec.sqrt(3), "[2/13, 5/13) [7/13, 12/13)", Fraction(10, 31), 79, 3078,
            (ALL_ENDS, ALL_ENDS - {"insert last"}),
        ),
    ],
    ids=["sqrt3", "sqrt2", "sqrt3-2iv"],
)
def test_block_shift_patches_block_ends(xi, text, base, k_min, k_max, moves, hull):
    """Pinned ranges whose crossings insert and delete at a block's first and last hit,
    where a patch adds or drops an end gap, and whose last block is cut short."""
    system = RotationSystem(xi, xi.real(base), parse_window(text, xi))
    ss = system._scaled
    q = plan((system, k_min, k_max), hull)[1]
    assert q and (k_max - k_min + 1) % q
    want = direct_colors(ss, k_min, k_max)
    if not hull:
        want = {k: color for k, color in want.items() if color != OMEGA}
        assert sorted(want) == _scaled.collect_hits_direct(ss, k_min, k_max)
    assert end_moves(sorted(want), k_min, k_max, q) == moves[hull]
    ks, colors = _scaled.collect_hits(ss, k_min, k_max, hull)
    assert list(ks) == sorted(want)
    assert list(colors) == [want[k] for k in ks]


@settings(max_examples=30, deadline=None, suppress_health_check=list(HealthCheck))
@example(WRAPPED)
@given(block_systems())
def test_block_stream_colors_match_membership(case):
    system, k_min, k_max = case
    ks, colors = _scaled.collect_hits(system._scaled, k_min, k_max, hull=True)
    assert dict(zip(ks, colors)) == direct_colors(system._scaled, k_min, k_max)
    assert list(ks) == sorted(set(ks))


@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(block_systems(), st.booleans())
def test_scanner_output_passes_the_pattern_checks(case, short):
    """orbit_hits and colored_hits build their patterns without PointPattern's checks:
    the points strictly increase, the colours parallel them and name 0..L, and the
    checked constructor takes them back unchanged."""
    system, k_min, k_max = case
    if short:  # a span that is stepped whole
        k_max = k_min + 99
    hits = orbit_hits(system, k_min, k_max)
    hull = colored_hits(system, k_min, k_max)
    for p in (hits, hull):
        assert type(p.points) is tuple
        assert all(u < v for u, v in zip(p.points, p.points[1:]))
        assert PointPattern(p.points, p.colors) == p
    assert hits.colors is None
    assert type(hull.colors) is tuple and len(hull.colors) == len(hull.points)
    assert set(hull.colors) <= set(range(len(system.window) + 1))
    assert set(hits.points) <= set(hull.points)


FLAGSHIP = RotationSystem(
    FIELDS[1], FIELDS[1].zero, Window.single(FIELDS[1].zero, FIELDS[1].real(-1, 1))
)


@pytest.mark.parametrize("k_max", [10, 10**4])
def test_block_stream_flagship(k_max, caplog):
    """sqrt(2), basepoint 0 on the endpoint 0, window [0, xi - 1)."""
    message = route(caplog, lambda: orbit_hits(FLAGSHIP, 0, k_max))
    assert ("block shift" in message) == (k_max > 10)
    assert orbit_hits(FLAGSHIP, 0, k_max) == strip_points(FLAGSHIP, 0, k_max)
    ks, colors = _scaled.collect_hits(FLAGSHIP._scaled, 0, k_max, hull=True)
    assert dict(zip(ks, colors)) == direct_colors(FLAGSHIP._scaled, 0, k_max)


def test_route_is_logged(caplog):
    """One DEBUG line per call names the route: block shift or stepping."""
    xi = FIELDS[0]
    long = RotationSystem(xi, xi.zero, parse_window("[1/10, 7/10)", xi))
    short = long.with_window(parse_window("[1/10, 1/10 + 1/64)", xi))
    message = route(caplog, lambda: orbit_hits(long, -7, 49992))
    assert message.startswith("hits -7..49992: block shift, q=377, 133 blocks, ")
    assert message.endswith(" crossings")
    message = route(caplog, lambda: colored_hits(long, 0, 99))
    assert message == "hits 0..99: three-gap stepping, 1 pieces"
    message = route(caplog, lambda: colored_hits(short, 0, 1999))
    assert message == "hits 0..1999: three-gap stepping, 1 pieces"
    message = route(caplog, lambda: colored_hits(short, 0, 49999))
    assert message.startswith("hits 0..49999: block shift, q=2584, 20 blocks, ")


def test_zero_length_interval_fails_fast():
    ss = FLAGSHIP._scaled
    for ell in [(0, 0), (-ss.m, 0)]:
        with pytest.raises(ValueError, match="length <= 0"):
            _scaled.return_gaps(ss.d, ss.m, ss.step, ell)
    for iv in [(0, 0, 0, 0), (ss.m, 0, 0, 0)]:
        with pytest.raises(ValueError, match="length <= 0"):
            list(_scaled.interval_hits(ss, iv, 0, 10))


# -- the shared walk and table levels -------------------------------------------------

SHARED_WALK_CASES = [
    RotationSystem(
        XI10001,
        XI10001.real(Fraction(1, 7)),
        parse_window("[1/10, 1/4) [1/3, 1/2) [3/5, 17/20)", XI10001),
    ),
    RotationSystem(FIELDS[0], FIELDS[0].zero, parse_window("[1/7, 9/14)", FIELDS[0])),
]


def clear_walk_caches():
    for cache in (_scaled._runs, _scaled._levels, _scaled.return_gaps):
        cache.cache_clear()


def walk_outputs(system, n_max):
    """return_gaps of each interval (read from the run list, not its own cache), both
    record chains of the first endpoint, and the table rows and level count."""
    ss = system._scaled
    _scaled.return_gaps.cache_clear()
    gaps = [
        _scaled.return_gaps(ss.d, ss.m, ss.step, (hi_a - lo_a, hi_b - lo_b))
        for lo_a, lo_b, hi_a, hi_b in ss.ivals
    ]
    chains = [list(_scaled._records(ss, ss.ivals[0][:2], 0, n_max, left)) for left in (True, False)]
    return gaps, chains, _scaled.table_rows(ss, _record_points(n_max, 64))


@pytest.mark.parametrize("system", SHARED_WALK_CASES, ids=["sqrt10001", "golden"])
def test_walk_and_levels_do_not_depend_on_cache_state(system):
    """The same outputs from cold lists, after a longer call and after a shorter one.
    At sqrt(10001) every walk to the interval lengths stops inside a run of 200 steps."""
    ss = system._scaled

    def sizes():  # of the run list and of the table levels
        runs = _scaled._runs(ss.d, ss.m, ss.step)
        return len(runs), len(_scaled._levels(ss.d, ss.m, ss.step, ss.ivals))

    clear_walk_caches()
    cold = walk_outputs(system, 2000)
    runs, levels = sizes()
    walk_outputs(system, 10**6)
    assert all(now > then for now, then in zip(sizes(), (runs, levels)))
    assert walk_outputs(system, 2000) == cold
    clear_walk_caches()
    walk_outputs(system, 3)
    assert all(now < then for now, then in zip(sizes(), (runs, levels)))
    assert walk_outputs(system, 2000) == cold


# an interval of length 10^-30: the walk to its return times passes 143 runs
DEEP = RotationSystem(
    FIELDS[0],
    FIELDS[0].real(Fraction(1, 7)),
    parse_window(f"[1/3, 1/3 + 1/{10**30}) [1/2, 3/4)", FIELDS[0]),
)


def test_two_threads_extend_one_run_list():
    """Two threads that walk one cold run list get the serial hits and add each run
    once (20 tries; with a bare append about a third of them add some run twice)."""
    ss = DEEP._scaled
    clear_walk_caches()
    want = orbit_hits(DEEP, 0, 10**5)
    serial_runs = list(_scaled._runs(ss.d, ss.m, ss.step))
    got = [None, None]

    def work(i):
        got[i] = orbit_hits(DEEP, 0, 10**5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(20):
            clear_walk_caches()
            got[:] = [None, None]
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == [want, want]
            assert _scaled._runs(ss.d, ss.m, ss.step) == serial_runs
    finally:
        sys.setswitchinterval(interval)
