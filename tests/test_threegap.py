"""Property tests of the three-gap stepping core, the record walk, the
block-shift hit stream, the floor-sum count, the block-table profile and
the closed-form profile of bounded windows in ``cutproject._scaled``.

Every fast route is compared with a route that shares none of its
stepping: ``collect_hits_direct`` (one explicit floor per index), plain
``XiReal`` arithmetic from ``exactnum``, or brute force over k.  The
block tables ``table_rows`` are checked against ``strip_rows`` (one
explicit floor per index) and, far out, against the floor-sum count of
``local_discrepancy``, and are in turn the reference for the closed
form up to N = 10^30, where both stay below the exact supremum of a
bounded window (``oracles.exact_sup``).
"""

import logging
import sys
import threading
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from cutproject import _scaled, exactnum
from cutproject.criteria import oren_condition
from cutproject.discrepancy import _record_points, profile
from cutproject.exactnum import XiSpec, floor_key, pair_sign
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
from oracles import (exact_sup, floor_ratio, single_steps, sup_attained_at, walk_first_run,
                     walk_floor_every_time)

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
@example(FIELDS[3], 85, 48, True)  # the least b is 11,180
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

    want_a = next(k for k in count(1) if (frac(k) - ell).sign() < 0)
    want_b = next(k for k in count(1) if (1 - frac(k) - ell).sign() < 0)
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


def walk_scale(ss, v):
    """A ``_scaled.Scale`` for walks to ells with |sqrt(d) part| <= v (``walk_bound``)."""
    return (*exactnum.linear_key(ss.d, _scaled.walk_bound(ss.d, ss.m, ss.step[1], v)), {})


def chain_scale(ss, p, k_lo, k_hi):
    """The scale of the record chains of p over k_lo <= k <= k_hi: y_k - p has sqrt(d) part
    linear in k, so its largest |b| is at an end."""
    return walk_scale(ss, max(abs(ss.base[1] + k * ss.step[1] - p[1]) for k in (k_lo, k_hi)))


def keyed_records(ss, p, k0, n_max, left, scale):
    """``_records``' (n, v), each key checked against v's at the scale."""
    one, r, _ = scale
    got = list(_scaled._records(ss, p, k0, n_max, left, scale))
    assert all(kv == v[0] * one + v[1] * r for _, v, kv in got)
    return [(n, v) for n, v, _ in got]


@SETTINGS
@given(
    systems(FIELDS + [NEGATIVE_XI] + LARGE_QUOTIENTS),
    st.integers(-3000, 3000),
    st.integers(-1, 2000),
    st.data(),
)
def test_records_match_index_by_index(system, k0, n_max, data):
    """``_records`` against one explicit floor per index; the orbit may meet p in the range
    or before it (j < 0), where v_0 = frac(-j*xi) can equal a value of the walk exactly
    and the walk's key comparison ties."""
    xi = system.xi
    p = data.draw(st.sampled_from([xi.zero, *system.window.endpoints()])).fractional_part()[0]
    j = data.draw(st.one_of(st.none(), st.integers(0, 2100), st.integers(-2100, -1)))
    if j is not None:  # the orbit meets p exactly at n = j
        system = RotationSystem(xi, p - (k0 + j) * xi.xi_real, system.window)
        event("meets p before" if j < 0 else "meets p in range or after")
    ss = system._scaled
    A, B, D = p.triple
    pair = (A * (ss.m // D), B * (ss.m // D))
    scale = chain_scale(ss, pair, k0, k0 + max(n_max, 0))
    for left in (True, False):
        got = keyed_records(ss, pair, k0, n_max, left, scale)
        assert got == strict_records(ss, pair, k0, n_max, left)
        if left:
            event("meets p" if got and got[-1][1] == (0, 0) else "misses p")


@SETTINGS
@given(
    systems(FIELDS + [NEGATIVE_XI] + LARGE_QUOTIENTS),
    st.integers(-40, 40),
    st.integers(0, 80),
    st.one_of(st.integers(0, 2000), st.sampled_from([10**6, 10**30])),
    st.data(),
)
def test_shared_chains_match_records(system, top, width, n_max, data):
    """Each start s of ``_chains`` holds its own left and right ``_records`` chains,
    k - s <= n_max cut from the one stack with each value's key, and up to n_max = 2,000
    the records of one explicit floor per index; the orbit may meet p at, before (up to
    2,100 indices: the walk's key comparisons tie) or after the starts."""
    bottom = max(top - width, -40)
    xi = system.xi
    p = data.draw(st.sampled_from([xi.zero, *system.window.endpoints()])).fractional_part()[0]
    j = data.draw(st.one_of(st.none(), st.integers(bottom, top), st.integers(bottom - 3, top + 60),
                            st.integers(bottom - 2100, bottom - 1)))
    if j is not None:  # the orbit meets p exactly at k = j
        system = RotationSystem(xi, p - j * xi.xi_real, system.window)
        event("meets p before" if j < bottom else "at a start" if j <= top else "after them")
    ss = system._scaled
    A, B, D = p.triple
    pair = (A * (ss.m // D), B * (ss.m // D))
    scale = chain_scale(ss, pair, bottom, top + n_max)
    one, r, _ = scale
    starts = []
    for s, stacks in _scaled._chains(ss, pair, top, bottom, n_max, scale):
        starts.append(s)
        for (ks, kvs, vs), left in zip(stacks, (True, False)):
            assert kvs == [v[0] * one + v[1] * r for v in vs]
            got = [(-k - s, v) for k, v in zip(reversed(ks), reversed(vs)) if -k - s <= n_max]
            assert got == keyed_records(ss, pair, s, n_max, left, scale)
            if n_max <= 2000:
                assert got == strict_records(ss, pair, s, n_max, left)
    assert starts == list(range(top, bottom - 1, -1))


# sqrt(d) for squarefree d up to 10^12: large partial quotients, and d near RADICAND_LIMIT
BIG_RADICAND_FIELDS = [XiSpec.sqrt(d) for d in [101, 10001, 999999, 10**6 + 1, 999999999989,
                                                999999999998]]


@SETTINGS
@given(st.sampled_from(BIG_RADICAND_FIELDS), st.integers(-(10**12), 10**12),
       st.sampled_from([0, 1, 7, 50, 400]), st.data())
def test_interval_hits_match_direct_far_out(xi, k_min, span, data):
    """``interval_hits`` against one explicit floor per index at k_min up to +-10^12 over
    sqrt(d) with d up to 10^12, where y's sqrt(d) part and so the key's band are largest;
    half the basepoints put the orbit on an endpoint, hi - alpha or lo + beta in range."""
    lo, hi = sorted(data.draw(st.lists(points(xi), min_size=2, max_size=2, unique=True)))
    assume((lo, hi) != (xi.zero, xi.one))  # [0, 1) is no window
    system = RotationSystem(xi, xi.zero, Window.single(lo, hi))
    ss = system._scaled
    (iv,) = ss.ivals
    if data.draw(st.booleans()):
        base = data.draw(points(xi))
    else:  # y_k lands on an endpoint or a threshold of the three-gap step, k in range
        _, alpha, _, beta = _scaled.return_gaps(ss.d, ss.m, ss.step, ss.length)
        t = data.draw(st.sampled_from([(iv[0], iv[1]), (iv[2], iv[3]),
                                       (iv[2] - alpha[0], iv[3] - alpha[1]),
                                       (iv[0] + beta[0], iv[1] + beta[1])]))
        base = ss.unscale(t) - (k_min + data.draw(st.integers(0, span))) * xi.xi_real
    ss = RotationSystem(xi, base, system.window)._scaled
    (iv,) = ss.ivals
    assert _scaled.interval_hits(ss, iv, k_min, k_min + span) == _scaled.collect_hits_direct(
        ss, k_min, k_min + span)


@pytest.mark.parametrize("threshold", ["hi - alpha", "lo + beta"])
@pytest.mark.parametrize("xi", [FIELDS[0], FIELDS[1], XI101], ids=["golden", "sqrt2", "sqrt101"])
def test_stepping_meets_a_threshold_exactly(xi, threshold, monkeypatch):
    """A non-strict system whose orbit meets hi - alpha (or lo + beta) exactly at a hit
    k0 inside the range: the keys cannot order y and the threshold there, so the step
    reads y_k0 by ``state_at`` and tests its sign; the hits are those of the direct route."""
    window = parse_window("[1/10, 7/10)", xi)
    ss = RotationSystem(xi, xi.zero, window)._scaled
    (iv,) = ss.ivals
    _, alpha, _, beta = _scaled.return_gaps(ss.d, ss.m, ss.step, ss.length)
    t = (iv[2] - alpha[0], iv[3] - alpha[1]) if threshold == "hi - alpha" else (
        iv[0] + beta[0], iv[1] + beta[1])
    k0 = 537
    system = RotationSystem(xi, ss.unscale(t) - k0 * xi.xi_real, window)
    assert not system.strict
    t = ss.unscale(t)
    ss = system._scaled
    (iv,) = ss.ivals
    assert ss.unscale(ss.state_at(k0)) == t
    read = []
    state_at = _scaled.ScaledSystem.state_at
    monkeypatch.setattr(_scaled.ScaledSystem, "state_at",
                        lambda self, k: read.append(k) or state_at(self, k))
    hits = _scaled.interval_hits(ss, iv, 0, 2000)
    assert k0 in hits and k0 in read  # the exact fallback ran at k0
    monkeypatch.undo()
    assert hits == _scaled.collect_hits_direct(ss, 0, 2000)
    assert orbit_hits(system, 0, 2000) == strip_points(system, 0, 2000)


def test_stepping_makes_no_sign_test_per_hit(monkeypatch):
    """On a range where the orbit meets no threshold, the stepping loop tests no sign:
    from one k_min, 10^3 and 10^5 indices make the same sign tests (the first hit's)."""
    xi = FIELDS[0]
    system = RotationSystem(xi, xi.real(Fraction(1, 7)), parse_window("[1/10, 7/10)", xi))
    ss = system._scaled
    (iv,) = ss.ivals
    calls = []

    def counted(*args):
        calls.append(args)
        return pair_sign(*args)

    _scaled.interval_hits(ss, iv, 12345, 12345 + 10**3)  # the walk's runs and return times
    monkeypatch.setattr(_scaled, "pair_sign", counted)
    counts = []
    for span in (10**3, 10**5):
        calls.clear()
        hits = _scaled.interval_hits(ss, iv, 12345, 12345 + span)
        counts.append(len(calls))
    assert len(hits) > 50_000
    assert counts[0] == counts[1] < 20


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


def test_table_climb_makes_no_sign_test(monkeypatch):
    """The block tables' climb and level build order additive keys and multiply summaries
    on them: a profile of [1/7, 9/14) to 10^6 makes 9 sign tests on a cold call, the first
    run's direction, level 0's values (``ScaledSystem.contains``) and the side of 0 of the
    basepoint (161 when the level build multiplied summaries by sign tests, 722 when it
    also sorted floor keys with a tie pass, 21,836 when the climb did too, 39,215 with one
    test per comparison), and one on a warm call, the basepoint's; a floor makes none."""
    xi = FIELDS[0]
    system = RotationSystem(xi, xi.zero, parse_window("[1/7, 9/14)", xi))
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return pair_sign(*args)

    monkeypatch.setattr(_scaled, "pair_sign", counted)
    monkeypatch.setattr(exactnum, "pair_sign", counted)  # XiReal comparisons, if any
    assert system._oren_ks is None  # the tables' route
    clear_walk_caches()
    profile(system, 10**6)
    assert 0 < calls < 12
    calls = 0
    profile(system, 10**6)
    assert calls <= 1
    calls = 0
    t = 141421356237309504880  # floor(10^20*sqrt(2)): values just above and below integers
    cases = [(7, -4, 2, 5), (-t, 10**20, 1, 2), (t + 1, -(10**20), 3, 2), (-t, -(10**20), 1, 2)]
    assert [floor_key(a, b, d) // m for a, b, m, d in cases] == [-1, 0, 0, -2 * t - 1]
    assert calls == 0


def test_closed_form_makes_no_sign_test(monkeypatch):
    """The closed form orders teeth, samples, chain values, the walks' run values, G's
    events and the sup choice by additive keys: a warm profile of [11/100, -89/100 + xi)
    from 1/7 makes no sign test to 10^6 or to 10^30 (856 and 2,803 when the walk, the pops,
    the running min and max and the sup choice tested signs)."""
    xi = FIELDS[0]
    system = RotationSystem(xi, xi.real(Fraction(1, 7)), parse_window("[11/100, -89/100+1*xi)", xi))
    assert system._oren_ks is not None  # the closed form's route
    rows = {n: profile(system, n).samples for n in (10**6, 10**30)}
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return pair_sign(*args)

    monkeypatch.setattr(_scaled, "pair_sign", counted)
    monkeypatch.setattr(exactnum, "pair_sign", counted)  # XiReal comparisons, if any
    for n, samples in rows.items():
        assert profile(system, n).samples == samples
    assert calls == 0


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


# the orbit meets the tooth 56/31 - xi of that window, which attains the exact sup, at
# N = 100: the last sample of a profile to 100, whose record event has k - s = N exactly
MEETS_AT_100 = (
    RotationSystem(FIELDS[1], FIELDS[1].real(Fraction(56, 31), -101), ON_A_TOOTH[0].window),
    ON_A_TOOTH[1],
)


# two teeth of G meet at 68/31 - xi, where y_0 sits: with opposite signs (kappas (-3, 2),
# net weight 0) and with the same sign (kappas (-1, -3), weight -2)
TEETH_CANCEL = _case(
    FIELDS[1], "[-87/31+2*xi, 6/31) [99/31-2*xi, 68/31-1*xi)", FIELDS[1].real(Fraction(68, 31), -1)
)
TEETH_ADD = _case(
    FIELDS[1], "[6/31, 99/31-2*xi) [-25/31+1*xi, 68/31-1*xi)", FIELDS[1].real(Fraction(68, 31), -1)
)


def _kesten_case(kappa):
    """One golden-ratio interval of length frac(kappa*xi) from (1 - length)/3, basepoint
    1/7: its Oren matching has the one kappa, so G has |kappa| teeth on one chain pair."""
    xi = FIELDS[0]
    length = (kappa * xi.xi_real).fractional_part()[0]
    lo = (1 - length) * Fraction(1, 3)
    window = Window.single(lo, lo + length)
    return RotationSystem(xi, xi.real(Fraction(1, 7)), window), oren_condition(window)


KAPPA_12 = _kesten_case(12)
KAPPA_MINUS_9 = _kesten_case(-9)
CROSSED = "[9/200, 1/5) [-39/5+5*xi, -1191/200+4*xi) [-59/10+4*xi, -89/10+6*xi)"  # kappas 4, -5, 2
CROSSED_CASE = _case(FIELDS[0], CROSSED, FIELDS[0].real(Fraction(1, 7)))


def distinct_teeth(system, ks):
    """The teeth a_l + j*xi of G mod 1, by XiReal arithmetic."""
    return {
        (lo + j * system.xi.xi_real).fractional_part()[0]
        for (lo, _), kappa in zip(system.window.intervals, ks)
        for j in (range(kappa) if kappa > 0 else range(kappa, 0))
    }


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(ON_A_TOOTH, 100, 4096)
@example(TEETH_CANCEL, 100, 4096)
@example(TEETH_CANCEL, 10**12, 64)
@example(TEETH_ADD, 100, 4096)
@example(TEETH_ADD, 10**12, 64)
@example(KAPPA_12, 10**30, 64)
@example(KAPPA_MINUS_9, 10**30, 64)
@example(CROSSED_CASE, 10**30, 64)
@given(
    bounded_systems(),
    st.sampled_from([100, 101, 997, 4096, 10**5, 10**12, 10**30]),
    st.sampled_from([1, 16, 64, 4096]),
)
def test_closed_form_rows_match_scan(case, n_max, trace_limit):
    """The closed form against the block tables, two routes that share no step; every
    distinct tooth of G is counted, one of net weight 0 too, and each interval with
    kappa_l != 0 walks two record chains, shared by its teeth."""
    system, witness = case
    ss = system._scaled
    records = _record_points(n_max, trace_limit)
    rows, teeth, chains, _ = _scaled.closed_form_rows(ss, witness.ks, records)
    assert rows == _scaled.table_rows(ss, records)[0]
    assert teeth == len(distinct_teeth(system, witness.ks))
    assert chains == 2 * sum(1 for kappa in witness.ks if kappa)


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
    closed, _, _, _ = _scaled.closed_form_rows(ss, witness.ks, records)
    for rows in (closed, _scaled.table_rows(ss, records)[0]):
        assert all((sup - bound).sign() <= 0 for _, _, sup in rows), bound
    if n_max == 10**30:  # by then the orbit has come within about 10^-29 of every tooth
        assert (bound - closed[-1][2] - Fraction(1, 10**20)).sign() < 0, bound


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(ON_A_TOOTH, 100, 4096)
@example(MEETS_AT_100, 100, 16)
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
    rows, _, _, _ = _scaled.closed_form_rows(system._scaled, witness.ks, records)
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
                # the hit count, a route that does not read the Oren matching
                value = xi.real(_scaled.count_hits(system._scaled, 0, 10**j)) - 10**j * length
                assert (abs(value) - (abs(k) + 1)).sign() < 0, (xi, j, value)
                assert local_discrepancy(system, 10**j) == value


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(FIELDS + [NEGATIVE_XI] + LARGE_QUOTIENTS), st.integers(0, 5000), st.data())
def test_table_rows_match_strip_route(system, n, data):
    """Each row: D at the record and the running max of |D| up to it.  At sqrt(10001)
    one run of the walk spans up to 200 levels of the tables."""
    records = sorted(set(data.draw(st.lists(st.integers(0, n), max_size=12))) | {n})
    want = strip_rows(system, n)
    rows, _ = _scaled.table_rows(system._scaled, records)
    assert rows == [(r, *want[r]) for r in records]


@pytest.mark.parametrize("system, n_max", [
    (RotationSystem(FIELDS[0], FIELDS[0].real(Fraction(1, 3), 5), parse_window("[1/7, 9/14)", FIELDS[0])),
     10**30),
    (RotationSystem(XI101, XI101.zero, parse_window("[1/7, 9/14)", XI101)), 10**20),
    (RotationSystem(XI101, XI101.zero, parse_window("[1/5, -47/15 + 1/3*xi)", XI101)), 10**20),
], ids=["golden-1/3+5xi-1e30", "sqrt101-1e20", "sqrt101-surd-length-1e20"])
def test_table_rows_match_the_count_deep(system, n_max):
    """Past the strip route's reach: each sample's D from the tables equals
    ``local_discrepancy``, here the floor-sum count, which shares no step with them.  The
    large sqrt(d) parts of x and of the deep levels' cuts test the climb's key bound, and a
    window of length frac(xi)/3 gives the summaries' differences, (k - k')*len_b, one too."""
    assert system._oren_ks is None  # the tables' route, and the count's
    samples = profile(system, n_max, trace_limit=1024).samples
    assert len(samples) > 300
    for s in samples:
        assert s.value == local_discrepancy(system, s.n), s.n
        assert (s.running_sup - abs(s.value)).sign() >= 0


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
    return _scaled._plan(ss.d, ss.m, ss.step, ss.ivals, ss.ends, k_max - k_min + 1, hull)


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
    if hull:
        assert colors == tuple(want[k] for k in ks)
    else:  # the intervals alone: no colour list is built
        assert colors is None


@pytest.mark.parametrize("k_max", [99, 49999], ids=["stepped", "block shift"])
def test_colors_only_where_they_can_differ(k_max, caplog):
    """collect_hits keeps colours only for a hull of several pieces: with hull=False they
    are None on both routes, and a one-interval hull's are a tuple of 1s, made at the end."""
    xi = FIELDS[0]
    one = RotationSystem(xi, xi.zero, parse_window("[1/10, 7/10)", xi))
    three = one.with_window(parse_window("[1/10, 1/4) [1/3, 1/2) [3/5, 17/20)", xi))
    for system in (one, three):
        message = route(caplog, lambda: _scaled.collect_hits(system._scaled, 0, k_max))
        assert ("block shift" in message) == (k_max > 99)
        ks, colors = _scaled.collect_hits(system._scaled, 0, k_max)
        assert colors is None
        assert list(ks) == _scaled.collect_hits_direct(system._scaled, 0, k_max)
    ks, colors = _scaled.collect_hits(one._scaled, 0, k_max, hull=True)
    want = direct_colors(one._scaled, 0, k_max)
    assert type(colors) is tuple and set(colors) == {1}
    assert colors == tuple(want[k] for k in ks) and list(ks) == sorted(want)
    assert colored_hits(one, 0, k_max).colors == colors


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
    p = ss.ivals[0][:2]
    scale = chain_scale(ss, p, 0, n_max)
    chains = [list(_scaled._records(ss, p, 0, n_max, left, scale)) for left in (True, False)]
    return gaps, chains, _scaled.table_rows(ss, _record_points(n_max, 64))


@pytest.mark.parametrize("system", SHARED_WALK_CASES, ids=["sqrt10001", "golden"])
def test_walk_and_levels_do_not_depend_on_cache_state(system):
    """The same outputs from cold lists, after a longer call and after a shorter one.
    At sqrt(10001) every walk to the interval lengths stops inside a run of 200 steps."""
    ss = system._scaled

    def sizes():  # of the run list and of the table levels
        runs = _scaled._runs(ss.d, ss.m, ss.step)
        return len(runs), len(_scaled._levels(ss.d, ss.m, ss.step, ss.ivals)[0])

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


def test_keyed_views_do_not_depend_on_cache_state():
    """Table rows from warm levels and the window's one keyed view equal those of cold
    caches: profiles to 10^6, 10^30 and 10^6 again, from two basepoints 10^6 steps of xi
    apart, so that the key bound e differs from call to call.  The window keeps one view,
    keyed for the largest e read so far, and a call with a smaller bound reads it as it is,
    with more or fewer levels: the 10^6 calls after the 10^30 ones do not key it anew."""
    xi = FIELDS[0]
    window = parse_window("[1/7, 9/14)", xi)
    bases = [xi.zero, (10**6 * xi.xi_real).fractional_part()[0]]  # b-parts 10^6*step_b apart
    calls = [(RotationSystem(xi, b, window)._scaled, _record_points(n, 64))
             for n in (10**6, 10**30, 10**6) for b in bases]

    def view(ss):  # the window's keyed view (one, r, entries)
        return _scaled._levels(ss.d, ss.m, ss.step, ss.ivals)[1]

    cold, ones = [], []
    for ss, records in calls:
        clear_walk_caches()
        cold.append(_scaled.table_rows(ss, records))
        ones.append(view(ss)[0])  # the scale this call needs
    assert max(ones[4:]) < max(ones[2:4])
    clear_walk_caches()
    views = []
    for j, (ss, records) in enumerate(calls):
        assert _scaled.table_rows(ss, records) == cold[j]
        views.append(view(ss))
        assert views[-1][0] == max(ones[:j + 1])
    assert _scaled._levels.cache_info().currsize == 1  # one store for the window
    assert views[5] is views[4] is views[3]


# golden, sqrt 2, sqrt 3 and sqrt(k^2 + 1) for k = 10, 100, 1000: one-step runs, runs of
# 2 and 1 steps, and runs of 2k steps
WALK_FIELDS = FIELDS[:3] + LARGE_QUOTIENTS + [XiSpec.sqrt(1000**2 + 1)]
WALK_ELLS = ["big", "under big", "small", "under small", "above big", "rational"]


@SETTINGS
@given(st.sampled_from(WALK_FIELDS), st.sampled_from([10**6, 10**12, 10**30]), st.data())
def test_walk_matches_a_floor_at_every_stop(xi, scale, data):
    """``_walk`` against the walk with an exact floor at every stop
    (``oracles.walk_floor_every_time``): the same (j, gaps) from the same run, the same run
    list, and each run's quotient the floor of its larger value over its smaller.  Each ell
    is drawn at a run of the walk down to 1/m: its larger or smaller value, one 1/m under
    it, above the larger value of the run the walk starts from, or a rational."""
    A, B, D = xi.xi_real.fractional_part()[0].triple
    d, m, step = xi.d, D * scale, (A * scale, B * scale)  # 1/m: "under" and the deepest run
    full = walk_first_run(d, m, step)
    walk_floor_every_time(d, full, (1, 0), 0)  # every run down to 1/m: at least two
    runs, ref = _scaled._runs.__wrapped__(d, m, step), walk_first_run(d, m, step)
    for _ in range(data.draw(st.integers(1, 5))):
        i = data.draw(st.integers(0, len(runs) - 1))
        kind = data.draw(st.sampled_from(WALK_ELLS))
        event(kind)
        j = i if kind == "above big" else data.draw(st.integers(0, len(full) - 2))
        _, alpha, _, beta, left = full[j]
        big, small = (alpha, beta) if left else (beta, alpha)
        if kind == "above big":  # the walk stops at run i, above its larger value
            ell = (big[0] + data.draw(st.integers(1, m)), big[1])
        elif kind == "rational":
            ell = (data.draw(st.integers(1, m)), 0)
        else:
            v = big if kind.endswith("big") else small
            ell = (v[0] - 1, v[1]) if kind.startswith("under") else v
        want = walk_floor_every_time(d, ref, ell, i)
        # a run drawn past ell breaks _walk's start condition: key for every value in ref, as
        # each compared value's time is at most 1 over a value in its state
        bound = max(abs(ell[1]), *(abs(x[1]) for run in ref for x in run[1:4:2]))
        one, r = exactnum.linear_key(d, _scaled.walk_bound(d, m, step[1], bound))
        assert _scaled._walk(d, runs, ell, ell[0] * one + ell[1] * r, i, (one, r, {})) == want
        assert [run[:5] for run in runs] == ref
    for _, alpha, _, beta, left, q in runs:
        assert q == (floor_ratio(d, alpha, beta) if left else floor_ratio(d, beta, alpha))


@SETTINGS
@given(st.sampled_from(WALK_FIELDS), st.sampled_from([10**6, 10**12, 10**30]), st.data())
def test_steps_match_single_steps(xi, scale, data):
    """``_steps`` against the walk with one sign test a step (``oracles.single_steps``):
    the same directions and states through the first three runs (of 2,000 steps at
    sqrt(1000^2 + 1)), each step at its run and its place in the run, the same steps
    again when resumed after a drawn step, and a cold run list left as ``_walk`` alone
    leaves it on its way to the first value of the third run."""
    A, B, D = xi.xi_real.fractional_part()[0].triple
    d, m, step = xi.d, D * scale, (A * scale, B * scale)
    ref, runs = [], 0
    for left, gaps in single_steps(d, m, step):
        runs += not ref or left != ref[-1][0]
        if runs > 3:
            break
        ref.append((left, gaps))
    start = data.draw(st.integers(0, len(ref) - 1))
    clear_walk_caches()
    steps = list(islice(_scaled._steps(d, m, step), len(ref)))
    assert [s[1:] for s in steps] == ref
    at, i, t = [], 0, 0  # step t of run i: a run ends where the direction turns
    for j, (left, _) in enumerate(ref):
        i, t = (i + 1, 1) if j and left != ref[j - 1][0] else (i, t + 1)
        at.append((i, t))
    assert [s[0] for s in steps] == at
    resumed = _scaled._steps(d, m, step, at[start - 1] if start else (0, 0))
    assert list(islice(resumed, len(ref) - start)) == steps[start:]
    turn = max(i for i in range(1, len(ref)) if ref[i][0] != ref[i - 1][0])  # run 3's first step
    _, al, _, be = ref[turn - 1][1]
    walked = _scaled._runs.__wrapped__(d, m, step)
    ell = al if ref[turn][0] else be  # the walk stops in run 3, below its first value
    one, r = exactnum.linear_key(d, _scaled.walk_bound(d, m, step[1], abs(ell[1])))
    _scaled._walk(d, walked, ell, ell[0] * one + ell[1] * r, 0, (one, r, {}))
    assert _scaled._runs(d, m, step) == walked and len(walked) == 3


def test_warm_table_call_reads_no_run(monkeypatch):
    """The tables build levels up to one whose blocks do not fit, each keeping where the
    walk stands after its step: a warm call that builds no level reads no run, and one
    with a larger bound resumes the walk there and gives the rows of a cold call."""
    ss = SHARED_WALK_CASES[1]._scaled  # golden [1/7, 9/14)
    clear_walk_caches()
    short, long = _record_points(49_999, 40), _record_points(10**6, 64)
    rows = _scaled.table_rows(ss, short)
    levels = list(_scaled._levels(ss.d, ss.m, ss.step, ss.ivals)[0])
    assert min(levels[-1][0], levels[-1][2]) > short[-1] + 1 >= min(levels[-2][0], levels[-2][2])
    reads = []
    runs = _scaled._runs
    monkeypatch.setattr(_scaled, "_runs", lambda *args: reads.append(args) or runs(*args))
    assert _scaled.table_rows(ss, short) == rows
    assert _scaled.table_rows(ss, short[:9])[0] == rows[0][:9]  # a smaller bound
    assert reads == [] and _scaled._levels(ss.d, ss.m, ss.step, ss.ivals)[0] == levels
    warm = _scaled.table_rows(ss, long)
    assert reads and _scaled._levels(ss.d, ss.m, ss.step, ss.ivals)[0][:len(levels)] == levels
    monkeypatch.undo()
    clear_walk_caches()
    assert _scaled.table_rows(ss, long) == warm


def test_levels_outlive_their_run_list():
    """Warm levels whose run list was evicted (``_levels`` keeps 8 windows, ``_runs`` 256
    moduli) resume the walk past the cold list's end: ``_run`` makes the runs it lacks in
    order, and a profile to 10^30 after one to 10^6 gives a cold call's rows."""
    ss = SHARED_WALK_CASES[1]._scaled  # golden [1/7, 9/14)
    records = _record_points(10**30, 64)
    clear_walk_caches()
    want = _scaled.table_rows(ss, records)
    clear_walk_caches()
    _scaled.table_rows(ss, _record_points(10**6, 64))
    _scaled._runs.cache_clear()
    assert _scaled.table_rows(ss, records) == want


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


def test_two_threads_extend_one_keyed_view():
    """Two threads whose cold table calls share the levels and the window's one keyed view
    get the serial rows and leave the serial view: each reads the view once and keys on its
    scale, and stores its entries from where the view stood when it made them (20 tries)."""
    ss = SHARED_WALK_CASES[1]._scaled  # golden [1/7, 9/14)
    records = _record_points(10**30, 64)

    def store():  # the window's levels and keyed view
        return _scaled._levels(ss.d, ss.m, ss.step, ss.ivals)

    clear_walk_caches()
    want = _scaled.table_rows(ss, records)
    one, r, entries = store()[1]
    serial = one, r, list(entries)
    got = [None, None]

    def work(i):
        got[i] = _scaled.table_rows(ss, records)

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
            assert store()[1] == serial
    finally:
        sys.setswitchinterval(interval)


def test_a_level_appended_between_reads_is_built_on(monkeypatch):
    """A table call whose level list another thread extends between its reads gives the
    serial rows and level count: here the list is built to level 127 of the 145 of golden
    [1/7, 9/14) to 10^30, and from its second len() on each len() first appends the next
    serial level, as a thread on the same levels would.  Deciding whether to build from a
    later read than the one that found the top level left that top stale (129 levels)."""
    ss = SHARED_WALK_CASES[1]._scaled
    records = _record_points(10**30, 64)
    clear_walk_caches()
    want = _scaled.table_rows(ss, records)
    serial = list(_scaled._levels(ss.d, ss.m, ss.step, ss.ivals)[0])
    assert want[1] == 145 and len(serial) == 146  # the last does not fit

    class Extended(list):
        reads = 0

        def __len__(self):
            self.reads += 1
            n = super().__len__()
            if self.reads > 1 and n < len(serial):
                self.append(serial[n])
            return super().__len__()

    levels = Extended(serial[:128])  # the run list stays: the levels resume its walk
    store = [levels, (0, 0, [])]  # with no keyed view
    monkeypatch.setattr(_scaled, "_levels", lambda *args: store)
    assert _scaled.table_rows(ss, records) == want
    assert list(levels) == serial
