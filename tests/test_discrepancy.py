import io
import logging
import math
import random
import time
from fractions import Fraction
from sys import getsizeof

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from cutproject import _scaled
from cutproject.acceptance import PatternSpec
from cutproject.criteria import oren_condition
from cutproject.discrepancy import (
    Cochain,
    DiscrepancyProfile,
    ProfileSample,
    TooFewPoints,
    _record_points,
    cochain_discrepancy,
    disc,
    estimate_density,
    profile,
)
from cutproject.exactnum import XiSpec
from cutproject.patterns import (
    PointPattern,
    RotationSystem,
    Window,
    local_discrepancy,
    orbit_hits,
    parse_window,
)
from oracles import brute_profile
from test_criteria import class_windows
from test_threegap import CROSSED, FIELDS, LARGE_QUOTIENTS, NEGATIVE_XI, points

SQRT2 = XiSpec.sqrt(2)
GOLDEN = XiSpec(Fraction(1, 2), Fraction(1, 2), 5)


def kesten_system():
    return RotationSystem(SQRT2, SQRT2.zero, Window.single(SQRT2.zero, SQRT2.real(-1, 1)))


def half_system():
    return RotationSystem(
        SQRT2, SQRT2.zero, Window.single(SQRT2.zero, SQRT2.real(Fraction(1, 2)))
    )


def unsorted_points(kind, n):
    """n raw integer points that are not strictly increasing."""
    pts = list(range(n))
    if kind == "descending":
        return pts[::-1]
    if kind == "shuffled":
        random.Random(n).shuffle(pts)
        return pts if pts != sorted(pts) else pts[::-1]
    return pts[: n // 2] + pts[n // 2 - 1 : -1]  # one point twice


class TestDisc:
    def test_integer_lattice_examples(self):
        integers = PointPattern(tuple(range(-5, 30)))
        assert disc(integers, (0, 10), 1) == 0
        assert disc(integers, (0, Fraction(21, 2)), 1) == Fraction(1, 2)

    def test_half_open_interval_membership(self):
        pts = PointPattern((0, 1, 2, 3))
        # [0, 3) holds 0,1,2
        assert disc(pts, (0, 3), Fraction(1, 3), signed=True) == 2
        # XiReal bounds: [0, sqrt2) holds 0 and 1
        assert disc(pts, (SQRT2.zero, SQRT2.xi_real), 1, signed=True) == SQRT2.real(2, -1)

    def test_reversed_interval_raises(self):
        evens = list(range(0, 200, 2))
        for signed in (False, True):
            with pytest.raises(ValueError, match="reversed interval"):
                disc(evens, (5, 2), Fraction(1, 2), signed=signed)
        assert disc(evens, (5, 5), Fraction(1, 2)) == 0

    def test_inexact_arguments_rejected(self):
        pts = [0, 1, 2, 3]
        with pytest.raises(TypeError, match="^delta must be"):
            disc(pts, (0, 2), 0.5)  # it returned the float 1.0
        with pytest.raises(TypeError, match="^an interval endpoint must be"):
            disc(pts, (0, 2.0), 1)

    def test_cross_check_against_local_discrepancy(self):
        sys = half_system()
        n = 10**4
        pts = orbit_hits(sys, 0, n)
        # counting over [0, n) drops the k = n endpoint and one length unit
        d_signed = disc(pts, (0, n), Fraction(1, 2), signed=True)
        assert d_signed == local_discrepancy(sys, n - 1) - Fraction(1, 2)

    def test_additive_over_partition(self):
        sys = kesten_system()
        pts = orbit_hits(sys, 0, 3000)
        delta = sys.window.total_length()
        whole = disc(pts, (0, 3000), delta, signed=True)
        left = disc(pts, (0, 1234), delta, signed=True)
        right = disc(pts, (1234, 3000), delta, signed=True)
        assert whole == left + right

    @pytest.mark.parametrize("kind", ["descending", "shuffled", "duplicated"])
    def test_unsorted_raw_points_raise(self, kind):
        # bisect on such a list miscounts: descending 9..0 gave 5 for [0, 5), not 0
        with pytest.raises(ValueError, match="strictly increasing"):
            disc(unsorted_points(kind, 10), (0, 5), 1)


class TestEstimateDensity:
    def test_exact_for_cut_and_project(self):
        sys = kesten_system()
        pts = orbit_hits(sys, 0, 500)
        est = estimate_density(pts, sys)
        assert est.exact and est.value == SQRT2.real(-1, 1)

    def test_empirical_even_integers(self):
        pts = PointPattern(tuple(range(0, 400, 2)))
        est = estimate_density(pts)
        assert not est.exact
        assert abs(est.value - Fraction(1, 2)) <= est.sensitivity + Fraction(1, 100)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            estimate_density(PointPattern(tuple(range(10))))

    @pytest.mark.parametrize("kind", ["descending", "shuffled", "duplicated"])
    def test_unsorted_raw_points_raise(self, kind):
        # the span came from the ends: [0, 101..199, 100] gave 101/100, not 101/199
        with pytest.raises(ValueError, match="strictly increasing"):
            estimate_density(unsorted_points(kind, 200))


class TestProfile:
    def test_bounded_flagship_decades_constant(self):
        p = profile(kesten_system(), 10**4)
        decs = p.decade_values()
        assert all(v == SQRT2.one for v in decs)
        assert p.sup_seen == SQRT2.one

    def test_against_brute_force(self):
        sys = RotationSystem(
            SQRT2,
            SQRT2.real(Fraction(2, 7)),
            parse_window("[1/5, 1/3) [1/2, -1/2+1*xi)", SQRT2),
        )
        p = profile(sys, 700)
        want = brute_profile(sys, 700, {100, 700})
        got = dict(p.decade_maxima)
        assert got[100] == want[100]
        assert got[700] == want[700]
        by_n = {s.n: s for s in p.samples}
        assert by_n[700].running_sup == want[700]

    def test_decade_maxima_monotone(self):
        p = profile(half_system(), 10**5)
        vals = [v for _, v in p.decade_maxima]
        assert all((b - a).sign() >= 0 for a, b in zip(vals, vals[1:]))
        # trace running sup is monotone too and ends at sup_seen
        sups = [s.running_sup for s in p.samples]
        assert all((b - a).sign() >= 0 for a, b in zip(sups, sups[1:]))
        assert sups[-1] == p.sup_seen

    def test_verdicts(self):
        assert profile(kesten_system(), 10**4).verdict() == "bounded-consistent"
        assert profile(half_system(), 10**5).verdict() == "unbounded-consistent"
        assert profile(half_system(), 10**3).verdict() == "inconclusive"

    def test_bounded_oren_window_creeps_but_reads_bounded(self):
        # the combined two-interval window is Oren-bounded; its exact decade
        # maxima still increase (the sup is approached, not attained), by far
        # less than the heuristic slack
        win = parse_window("[0,1/3) [-2/3+1*xi, 5-3*xi)", SQRT2)
        p = profile(RotationSystem(SQRT2, SQRT2.zero, win), 10**5)
        decs = p.decade_values()
        assert any(a != b for a, b in zip(decs, decs[1:]))
        assert (decs[-1] - decs[1] - DiscrepancyProfile.FLAT_SLACK).sign() < 0
        assert p.verdict() == "bounded-consistent"

    def test_requires_minimum_range(self):
        with pytest.raises(ValueError):
            profile(kesten_system(), 50)

    @pytest.mark.parametrize("limit", [0, -5])
    def test_trace_limit_below_one_rejected(self, limit):
        # the decades and a doubling walk are sampled whatever the limit
        with pytest.raises(ValueError, match="trace_limit must be >= 1"):
            profile(kesten_system(), 1000, trace_limit=limit)

    def test_csv_output(self):
        p = profile(kesten_system(), 200)
        buf = io.StringIO()
        p.to_csv(buf)
        text = buf.getvalue()
        assert text.startswith("# xi = sqrt(2)\n")
        assert "# window = [0, -1+1*xi)" in text
        header = text.splitlines()[4]
        assert header == "N,D_signed,absD,decade_max,D_signed_exact,decade_max_exact"
        last = text.splitlines()[-1].split(",")
        assert last[0] == "200"
        assert last[5] == "1"  # exact running sup

    def test_csv_text_spells_every_row(self):
        """to_csv against a reference spelled row by row, on a real profile whose running
        sup repeats and on sups A, A', B, A with A' == A a distinct object."""
        self.assert_csv_spells_every_row(SQRT2)

    def test_csv_text_spells_every_row_with_q_negative(self):
        """The same on xi = (1 - sqrt 5)/2, whose q < 0 takes the other branch of
        ``XiReal.coordinates``."""
        self.assert_csv_spells_every_row(XiSpec(Fraction(1, 2), Fraction(-1, 2), 5))

    @staticmethod
    def assert_csv_spells_every_row(xi):
        half = RotationSystem(xi, xi.zero, Window.single(xi.zero, xi.real(Fraction(1, 2))))
        real = profile(half, 10**4, trace_limit=64)
        sups = [s.running_sup for s in real.samples]
        assert len(set(sups)) < len(sups)
        a, a2, b = xi.real(Fraction(3, 2), -1), xi.real(Fraction(3, 2), -1), xi.real(2)
        assert a == a2 and a is not a2
        values = [xi.real(Fraction(-1, 3), 1), xi.real(Fraction(1, 5)), xi.real(-2, 1), a]
        samples = tuple(map(ProfileSample, (0, 100, 101, 999), values, (a, a2, b, a)))
        made = DiscrepancyProfile(half, 999, samples, ((100, a2), (999, a)), a)
        for p in (real, made):
            buf = io.StringIO()
            p.to_csv(buf)
            head = "".join(f"# {k} = {v}\n" for k, v in (
                ("xi", p.system.xi), ("basepoint", p.system.basepoint), ("window", p.system.window),
                ("n_max", p.n_max),
            ))
            want = [head + "N,D_signed,absD,decade_max,D_signed_exact,decade_max_exact\n"] + [
                f"{s.n},{s.value.decimal(30)},{abs(s.value).decimal(30)},"
                f"{s.running_sup.decimal(30)},{s.value},{s.running_sup}\n"
                for s in p.samples
            ]
            assert buf.getvalue() == "".join(want)

    def test_csv_abs_column(self):
        upper = Window.single(SQRT2.real(Fraction(1, 2)), SQRT2.one)
        p = profile(RotationSystem(SQRT2, SQRT2.zero, upper), 2000, trace_limit=64)
        buf = io.StringIO()
        p.to_csv(buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[5:]]
        assert len(rows) == len(p.samples)
        assert any(s.value.sign() < 0 for s in p.samples)
        for row, s in zip(rows, p.samples):
            assert row[1] == s.value.decimal(30)
            assert row[2] == abs(s.value).decimal(30)

    @pytest.mark.parametrize(
        "text",
        [
            "[11/100, -89/100+1*xi)",  # Kesten, kappa = 1
            # the benchmark's crossed Oren window: b2 - a1 = 4xi - 6,
            # b1 - a2 = -(5xi - 8), b3 - a3 = 2xi - 3
            "[9/200, 1/5) [-39/5+5*xi, -1191/200+4*xi) [-59/10+4*xi, -89/10+6*xi)",
            "[0, -1+1*xi)",  # Kesten's golden window, kappa = 1
        ],
    )
    def test_bounded_profile_at_1e30(self, text):
        window = parse_window(text, GOLDEN)
        kappa_sum = sum(abs(k) for k in oren_condition(window).ks)
        length = window.total_length()
        system = RotationSystem(GOLDEN, GOLDEN.real(Fraction(1, 7)), window)
        p = profile(system, 10**30)
        for s in p.samples:
            # D(N) = len + G(y_-1) - G(y_N), G a signed sum of kappa_sum fractional parts
            assert (s.value - length + kappa_sum).sign() > 0
            assert (s.value - length - kappa_sum).sign() < 0
            assert (abs(s.value) - kappa_sum - 1).sign() < 0
        sups = [s.running_sup for s in p.samples]
        assert all((b - a).sign() >= 0 for a, b in zip(sups, sups[1:]))
        assert (p.sup_seen - kappa_sum - 1).sign() < 0  # over every N, not only the samples
        for s in p.samples[::97] + p.samples[-1:]:  # the hit count: no closed form on either side
            assert s.value == GOLDEN.real(_scaled.count_hits(system._scaled, 0, s.n)) - s.n * length
        assert p.verdict() == "bounded-consistent"

    def test_unbounded_profile_at_1e30(self):
        # length 1/2 is not in Z + Z*xi: no Oren matching, so the block tables
        half = RotationSystem(GOLDEN, GOLDEN.zero, parse_window("[1/7, 9/14)", GOLDEN))
        start = time.process_time()
        p = profile(half, 10**30)
        assert time.process_time() - start < 5
        for s in p.samples[::50] + p.samples[-1:]:
            assert s.value == local_discrepancy(half, s.n), s.n  # floor sums
        sups = [s.running_sup for s in p.samples]
        assert all((b - a).sign() >= 0 for a, b in zip(sups, sups[1:]))
        assert all((abs(s.value) - s.running_sup).sign() <= 0 for s in p.samples)
        assert p.verdict() == "unbounded-consistent"

    def test_schedule_is_cached(self):
        """One tuple per (n_max, trace_limit), equal to a fresh walk; 8 of them, as
        the comment on the cache prices them."""
        for n in (100, 101, 999, 10**4, 49999, 10**6, 10**30):
            for t in (1, 16, 40, 4096):
                got = _record_points(n, t)
                assert type(got) is tuple and got == _record_points.__wrapped__(n, t)
                assert _record_points(n, t) is got
        assert _record_points.cache_parameters()["maxsize"] == 8
        big = _record_points(10**100, 4096)
        assert 8 * (getsizeof(big) + sum(map(getsizeof, big))) < 1.7 * 2**20

    @pytest.mark.parametrize("system", [kesten_system(), half_system()], ids=["closed", "tables"])
    def test_profile_rows_do_not_depend_on_the_schedule_cache(self, system):
        profile(system, 10**6, trace_limit=64)
        warm = profile(system, 10**6, trace_limit=64)
        _record_points.cache_clear()
        assert profile(system, 10**6, trace_limit=64).samples == warm.samples

    def test_route_is_logged(self, caplog):
        crossed = RotationSystem(GOLDEN, GOLDEN.real(Fraction(1, 7)), parse_window(CROSSED, GOLDEN))
        with caplog.at_level(logging.DEBUG, logger="cutproject.discrepancy"):
            profile(kesten_system(), 1000)
            profile(crossed, 1000)
            profile(half_system(), 1000)
        closed, three, tables = [r.getMessage() for r in caplog.records]
        assert "closed form, 1 teeth, 2 record chains, " in closed and " record events" in closed
        assert "closed form, 11 teeth, 6 record chains, " in three  # kappas (4, -5, 2)
        assert tables.startswith("profile n_max=1000: block tables, ")
        assert " levels, " in tables and tables.endswith(" samples")

    def test_empty_window(self):
        sys = RotationSystem(SQRT2, SQRT2.zero, Window([]))
        p = profile(sys, 300, trace_limit=16)
        assert p.sup_seen == 0
        assert all(s.value == 0 for s in p.samples)
        assert local_discrepancy(sys, 10**40) == 0


# -- local discrepancy of Oren windows ---------------------------------------------


def kesten_window(xi, kappa, t=Fraction(1, 3)):
    """The interval of length frac(kappa*xi) that starts at t*(1 - length)."""
    length = (kappa * xi.xi_real).fractional_part()[0]
    lo = (1 - length) * t
    return Window.single(lo, lo + length)


@st.composite
def oren_systems(draw):
    """A window with an Oren matching: one interval of length frac(kappa*xi) with
    0 < |kappa| <= 40, over FIELDS and the large partial quotients, or a balanced
    window of test_criteria.class_windows.  The basepoint is a point of
    test_threegap.points, a rational with a 40-digit denominator plus a multiple of
    xi, or an endpoint moved back by 0-5 steps, so that the orbit meets it."""
    if draw(st.booleans()):
        xi = draw(st.sampled_from(FIELDS + [NEGATIVE_XI] + LARGE_QUOTIENTS))
        kappa = draw(st.integers(1, 40)) * draw(st.sampled_from([1, -1]))
        window = kesten_window(xi, kappa, Fraction(draw(st.integers(0, 64)), 64))
    else:
        window = draw(class_windows())
        assume(oren_condition(window) is not None)
        xi = window.xi
    kind = draw(st.sampled_from(["point", "deep", "endpoint"]))
    if kind == "point":
        base = draw(points(xi))
    elif kind == "deep":
        num = draw(st.integers(0, 10**40))
        base = xi.real(Fraction(num, draw(st.integers(10**39, 10**40))), draw(st.integers(-3, 3)))
    else:
        base = draw(st.sampled_from(window.endpoints())) - draw(st.integers(0, 5)) * xi.xi_real
    return RotationSystem(xi, base, window)


def check_local_discrepancy(system, n):
    """local_discrepancy against the floor-sum hit count, which never reads the Oren
    matching, and up to 3,000 against one explicit floor per index."""
    length = system.window_length()
    want = system.xi.real(_scaled.count_hits(system._scaled, 0, n)) - n * length
    assert local_discrepancy(system, n) == want
    if n <= 3000:
        assert want == len(_scaled.collect_hits_direct(system._scaled, 0, n)) - n * length


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(RotationSystem(GOLDEN, GOLDEN.real(Fraction(1, 7)), parse_window(CROSSED, GOLDEN)), 3)
@given(
    oren_systems(),
    st.one_of(st.sampled_from([0, 1, 10**12, 10**30]), st.integers(0, 3000)),
)
def test_local_discrepancy_of_oren_windows_matches_the_count(system, n):
    """The telescoped form, where the matching allows it, equals the floor-sum hit
    count and, up to 3,000, the count of one explicit floor per index."""
    check_local_discrepancy(system, n)
    event("telescoped" if max(map(abs, system._oren_ks)) <= n + 1 else "floor sums")


@pytest.mark.parametrize("kappa", [1000, -1000])
@pytest.mark.parametrize(
    "n, route", [(998, "floor sums, 999"), (999, "telescoped floor sums, 1000")]
)
def test_kappa_1000_on_both_sides_of_the_rule(kappa, n, route, caplog):
    """The telescoped form is taken only where no |kappa_l| exceeds n + 1."""
    system = RotationSystem(GOLDEN, GOLDEN.real(Fraction(2, 7)), kesten_window(GOLDEN, kappa))
    with caplog.at_level(logging.DEBUG, logger="cutproject.patterns"):
        check_local_discrepancy(system, n)
    assert caplog.messages == [f"D({n}): {route} terms"]


@pytest.mark.parametrize("base", [GOLDEN.real(Fraction(1, 7)), GOLDEN.real(Fraction(-39, 5), 5)])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 2999, 10**30])
def test_crossed_window(base, n):
    """The benchmark's crossed window, kappas (4, -5, 2): the telescoped form from
    n = 4 on; the second basepoint is its second left endpoint."""
    system = RotationSystem(GOLDEN, base, parse_window(CROSSED, GOLDEN))
    assert system._oren_ks == (4, -5, 2)
    check_local_discrepancy(system, n)


def test_local_route_is_logged(caplog):
    crossed = RotationSystem(GOLDEN, GOLDEN.real(Fraction(1, 7)), parse_window(CROSSED, GOLDEN))
    with caplog.at_level(logging.DEBUG, logger="cutproject.patterns"):
        local_discrepancy(crossed, 10**6)
        local_discrepancy(crossed, 3)
        local_discrepancy(half_system(), 49999)
    assert caplog.messages == [
        "D(1000000): telescoped floor sums, 11 terms",
        "D(3): floor sums, 4 terms",
        "D(49999): floor sums, 50000 terms",
    ]


class TestCochain:
    def test_single_term_reduces_to_disc(self):
        sys = kesten_system()
        c = Cochain(((Fraction(1), PatternSpec(frozenset({0}))),))
        val = cochain_discrepancy(c, sys, (0, 500))
        pts = orbit_hits(sys, 0, 499)
        assert val == disc(pts, (0, 500), sys.window.total_length(), signed=True)

    def test_cancellation(self):
        sys = kesten_system()
        p = PatternSpec(frozenset({0, 2}))
        c = Cochain(((Fraction(1), p),), dx=Fraction(3))
        c_neg = Cochain(((Fraction(-1), p),))
        for interval in ((0, 100), (7, 321)):
            total = cochain_discrepancy(c, sys, interval) + cochain_discrepancy(
                c_neg, sys, interval
            )
            assert total == SQRT2.zero

    def test_reversed_interval_raises(self):
        sys = RotationSystem(GOLDEN, GOLDEN.zero, parse_window("[1/7, 9/14)", GOLDEN))
        c = Cochain(((Fraction(1), PatternSpec(frozenset({0}))),))
        with pytest.raises(ValueError, match="reversed interval"):
            cochain_discrepancy(c, sys, (10, 0))
        assert cochain_discrepancy(c, sys, (3, 3)) == 0

    def test_inexact_coefficient_rejected(self):
        with pytest.raises(TypeError, match="^cochain coefficient must be an int or a Fraction"):
            Cochain(((0.1, PatternSpec(frozenset({0}))),))

    def test_inexact_interval_rejected(self):
        c = Cochain(((Fraction(1), PatternSpec(frozenset({0}))),))
        with pytest.raises(TypeError, match="^an interval endpoint must be"):
            cochain_discrepancy(c, kesten_system(), (0, 2.5))

    def test_distinct_patterns_required(self):
        p = PatternSpec(frozenset({0}))
        with pytest.raises(ValueError):
            Cochain(((Fraction(1), p), (Fraction(-1), p)))

    def test_linearity_randomized(self):
        rng = random.Random(51)
        sys = RotationSystem(
            SQRT2, SQRT2.zero, parse_window("[0,1/3) [-2/3+1*xi, 5-3*xi)", SQRT2)
        )
        pats = [
            PatternSpec(frozenset({0})),
            PatternSpec(frozenset({0, 2})),
            PatternSpec(frozenset({0}), frozenset({1})),
        ]
        for _ in range(5):
            c1 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            c2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            pa, pb = rng.sample(pats, 2)
            interval = (rng.randint(-50, 0), rng.randint(1, 300))
            combined = Cochain(((c1, pa), (c2, pb)))
            split = (
                cochain_discrepancy(Cochain(((c1, pa),)), sys, interval)
                + cochain_discrepancy(Cochain(((c2, pb),)), sys, interval)
            )
            assert cochain_discrepancy(combined, sys, interval) == split

    def test_floor_sum_count_matches_enumeration(self):
        """cochain_discrepancy counts occurrences by floor sums; the count
        must equal the size of the enumerated indicator hits."""
        from cutproject.acceptance import acceptance_domain, indicator_hits, pattern_density

        rng = random.Random(7)
        sys = RotationSystem(GOLDEN, GOLDEN.real(Fraction(1, 7)), parse_window("[0, 1/3)", GOLDEN))
        never = PatternSpec(frozenset({0, 1}))  # y and y + xi never both lie in [0, 1/3)
        assert not acceptance_domain(sys, never).window
        pats = [never]
        while len(pats) < 7:
            offsets = rng.sample([o for o in range(-9, 10) if o], 3)
            pat = PatternSpec(frozenset({0, offsets[0]}), frozenset(offsets[1:rng.randint(1, 3)]))
            if pat not in pats:
                pats.append(pat)
        for _ in range(6):
            chosen = [never] + rng.sample(pats[1:], 2)
            terms = tuple((Fraction(rng.randint(-5, 5), rng.randint(1, 4)), p) for p in chosen)
            x0 = Fraction(rng.randint(-4000, 4000), rng.randint(1, 3))
            x1 = x0 + rng.randint(0, 3000)
            lo, hi = math.ceil(x0), math.ceil(x1) - 1
            expect = GOLDEN.zero
            for coeff, p in terms:
                count = len(indicator_hits(sys, p, lo, hi))
                expect = expect + coeff * (GOLDEN.real(count) - pattern_density(sys, p) * (x1 - x0))
            assert cochain_discrepancy(Cochain(terms), sys, (x0, x1)) == expect

    def test_two_term_against_direct_count(self):
        sys = RotationSystem(
            SQRT2, SQRT2.zero, parse_window("[0,1/3) [-2/3+1*xi, 5-3*xi)", SQRT2)
        )
        from cutproject.acceptance import indicator_hits, pattern_density

        pats = (PatternSpec(frozenset({0})), PatternSpec(frozenset({0, 1})))
        c = Cochain(((Fraction(2), pats[0]), (Fraction(-1), pats[1])))
        x0, x1 = 3, 777
        total = cochain_discrepancy(c, sys, (x0, x1))
        expect = SQRT2.zero
        for coeff, p in c.terms:
            count = len(indicator_hits(sys, p, x0, x1 - 1))
            expect = expect + coeff * (
                SQRT2.real(count) - pattern_density(sys, p) * (x1 - x0)
            )
        assert total == expect
