import io
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutproject.exactnum import XiReal, XiSpec
from cutproject.patterns import (
    OMEGA,
    PointPattern,
    RotationSystem,
    SingularOrbit,
    Window,
    colored_hits,
    dump_pattern,
    load_pattern,
    local_discrepancy,
    orbit_hits,
    parse_window,
    strip_points,
)
from oracles import decimal_orbit_hits

SQRT2 = XiSpec.sqrt(2)


def w(*pairs, xi=SQRT2):
    return Window([(xi.real(*lo), xi.real(*hi)) for lo, hi in pairs])


def frac_pair(x):
    """(a,) rational or (a, b) for a + b*xi."""
    return x if isinstance(x, tuple) else (x,)


# the flagship example system: xi = sqrt(2), basepoint 0, window [0, -1+xi)
def kesten_system(strict=False):
    return RotationSystem(
        SQRT2, SQRT2.zero, Window.single(SQRT2.zero, SQRT2.real(-1, 1)), strict=strict
    )


def rational_system(lo, hi, xi=SQRT2, basepoint=None, strict=False):
    base = xi.zero if basepoint is None else basepoint
    return RotationSystem(
        xi, base, Window.single(xi.real(Fraction(lo)), xi.real(Fraction(hi))), strict=strict
    )


def random_system(rng, strict=False):
    xi = rng.choice(
        [SQRT2, XiSpec.sqrt(3), XiSpec.sqrt(5), XiSpec(Fraction(1, 2), Fraction(1, 2), 5)]
    )
    base = xi.real(Fraction(rng.randint(0, 40), 41), rng.choice([0, 0, 1]))
    n_iv = rng.choice([1, 1, 1, 2, 3])
    cuts = sorted(rng.sample(range(1, 60), 2 * n_iv))
    ivs = []
    for i in range(n_iv):
        lo = xi.real(Fraction(cuts[2 * i], 60))
        hi = xi.real(Fraction(cuts[2 * i + 1], 60))
        # sometimes nudge an endpoint off the rationals
        if rng.random() < 0.4:
            shift, _ = (hi + xi.real(0, rng.choice([-1, 1]))).fractional_part()
            if (shift - lo).sign() > 0 and (shift - 1).sign() < 0:
                hi = shift
        ivs.append((lo, hi))
    try:
        window = Window(ivs)
    except ValueError:
        return random_system(rng, strict)
    return RotationSystem(xi, base, window, strict=strict)


class TestWindow:
    def test_sorts_and_merges(self):
        win = w(((0,), (Fraction(1, 3),)), ((Fraction(1, 3),), (Fraction(1, 2),)))
        assert len(win) == 1
        assert win.intervals[0] == (SQRT2.zero, SQRT2.real(Fraction(1, 2)))
        win2 = w(((Fraction(1, 2),), (Fraction(2, 3),)), ((0,), (Fraction(1, 3),)))
        assert [str(lo) for lo, _ in win2.intervals] == ["0", "1/2"]

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            w(((Fraction(1, 2),), (Fraction(1, 2),)))  # empty
        with pytest.raises(ValueError):
            w(((Fraction(2, 3),), (Fraction(1, 3),)))  # reversed
        with pytest.raises(ValueError):
            w(((0,), (Fraction(1, 2),)), ((Fraction(1, 3),), (Fraction(2, 3),)))  # overlap
        with pytest.raises(ValueError):
            w(((0,), (1,)))  # full circle
        with pytest.raises(ValueError):
            w(((Fraction(-1, 2),), (Fraction(1, 2),)))  # out of range

    def test_values_outside_the_field_raise_type_error(self):
        half = SQRT2.real(Fraction(1, 2))
        for build in (
            lambda: Window([(0.1, 0.2)]),
            lambda: Window([(0, Fraction(1, 2))]),
            lambda: Window([(SQRT2.zero, half), (Fraction(3, 4), SQRT2.one)]),
            lambda: RotationSystem(SQRT2, 0, Window.single(SQRT2.zero, half)),
        ):
            with pytest.raises(TypeError, match=r"xi\.real\(\.\.\.\)"):
                build()

    def test_total_length_and_contains(self):
        win = w(((0,), (Fraction(1, 3),)), ((Fraction(1, 2),), (Fraction(2, 3),)))
        assert win.total_length() == Fraction(1, 2)
        assert win.contains(SQRT2.real(Fraction(1, 4)))
        assert not win.contains(SQRT2.real(Fraction(1, 3)))  # half-open
        assert win.contains(SQRT2.real(Fraction(1, 2)))
        assert not win.contains(SQRT2.real(Fraction(5, 6)))

    def test_hull_examples(self):
        win = w(((0,), (Fraction(1, 3),)), ((Fraction(1, 2),), (Fraction(2, 3),)))
        assert win.hull() == w(((0,), (Fraction(2, 3),)))
        single = w(((Fraction(1, 4),), (Fraction(1, 3),)))
        assert single.hull() == single
        win3 = w(((Fraction(1, 4),), (Fraction(1, 3),)), ((Fraction(2, 5),), (Fraction(1, 2),)))
        assert win3.hull() == w(((Fraction(1, 4),), (Fraction(1, 2),)))
        with pytest.raises(ValueError):
            Window([]).hull()

    def test_full_circle_hull(self):
        win = parse_window("[0, 1/3) [1/2, 1)", SQRT2)
        with pytest.raises(ValueError, match=r"hull .* is the full circle \[0, 1\)"):
            win.hull()
        system = RotationSystem(SQRT2, SQRT2.zero, win)
        pat = colored_hits(system, 0, 5)
        assert pat.points == (0, 1, 2, 3, 4, 5)
        assert pat.colors == (1, OMEGA, 2, 1, 2, 1)

    def test_shift_wraps_and_splits(self):
        win = w(((Fraction(1, 2),), (Fraction(3, 4),)))
        shifted = win.shift_mod1(SQRT2.real(Fraction(3, 8)))
        assert [(str(lo), str(hi)) for lo, hi in shifted.intervals] == [
            ("0", "1/8"),
            ("7/8", "1"),
        ]
        # shifting back and forth is the identity
        assert shifted.shift_mod1(SQRT2.real(Fraction(-3, 8))) == win

    def test_complement(self):
        win = w(((0,), (Fraction(1, 3),)), ((Fraction(1, 2),), (Fraction(2, 3),)))
        comp = win.complement()
        assert [(str(lo), str(hi)) for lo, hi in comp.intervals] == [
            ("1/3", "1/2"),
            ("2/3", "1"),
        ]
        assert comp.complement() == win
        assert (win.total_length() + comp.total_length()) == 1

    def test_intersect(self):
        a = w(((0,), (Fraction(1, 2),)))
        b = w(((Fraction(1, 3),), (Fraction(2, 3),)))
        assert a.intersect(b) == w(((Fraction(1, 3),), (Fraction(1, 2),)))
        assert a.intersect(a) == a
        assert not a.intersect(w(((Fraction(1, 2),), (Fraction(3, 4),))))

    def test_parse(self):
        win = parse_window("[0, -1+1*xi)", SQRT2)
        assert win == Window.single(SQRT2.zero, SQRT2.real(-1, 1))
        win2 = parse_window("[0,1/3) [-2/3+1*xi, 5-3*xi)", SQRT2)
        assert len(win2) == 2
        with pytest.raises(ValueError):
            parse_window("(0, 1/2)", SQRT2)
        with pytest.raises(ValueError):
            parse_window("[0, 1/2) junk", SQRT2)


FIELDS = [
    XiSpec(Fraction(1, 2), Fraction(1, 2), 5),
    SQRT2,
    XiSpec.sqrt(3),
    XiSpec(Fraction(-1, 3), Fraction(2, 3), 7),
    XiSpec(Fraction(0), Fraction(1), 19),
    XiSpec(-2, 1, 2),
]


@st.composite
def surds(draw, xi):
    """a + b*xi with a rational and b a small integer, anywhere on the line."""
    a = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 9)))
    return xi.real(a, draw(st.integers(-7, 7)))


@st.composite
def windows(draw, xi):
    """1-4 intervals cut at points of [0, 1), 0 and 1 included."""
    n = draw(st.integers(1, 4))
    ends = st.one_of(
        surds(xi).map(lambda u: u.fractional_part()[0]), st.sampled_from([xi.zero, xi.one])
    )
    cuts = sorted(set(draw(st.lists(ends, min_size=2 * n, max_size=2 * n))))
    cuts = cuts[: len(cuts) // 2 * 2]
    assume(cuts and cuts[:2] != [xi.zero, xi.one])  # [0, 1) is no window
    return Window([(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)])


@st.composite
def set_identity_cases(draw):
    """Two windows, a point x of [0, 1) and a shift t; x sometimes on an
    endpoint, and t sometimes moving one endpoint onto another."""
    xi = draw(st.sampled_from(FIELDS))
    w, v = draw(windows(xi)), draw(windows(xi))
    ends = w.endpoints() + v.endpoints()
    x = draw(st.one_of(surds(xi), st.sampled_from(ends))).fractional_part()[0]
    if draw(st.booleans()):
        t = draw(surds(xi))
    else:  # one endpoint onto another, up to an integer
        t = draw(st.sampled_from(ends)) - draw(st.sampled_from(ends)) + draw(st.integers(-2, 2))
    return w, v, x, t


@settings(max_examples=300, deadline=None)
@given(set_identity_cases())
def test_window_set_identities(case):
    w, v, x, t = case
    assert w.intersect(v).contains(x) == (w.contains(x) and v.contains(x))
    assert w.complement().contains(x) == (not w.contains(x))
    assert w.shift_mod1(t).contains((x + t).fractional_part()[0]) == w.contains(x)


class TestOrbitHits:
    def test_flagship_example(self):
        # oracle first: 60-digit decimal evaluation of frac(k*sqrt2) vs sqrt2-1
        sys = kesten_system()
        expect = decimal_orbit_hits(SQRT2, SQRT2.zero, sys.window.intervals, 0, 10)
        assert expect == [0, 3, 5, 8, 10]  # frozen from the oracle
        assert list(orbit_hits(sys, 0, 10)) == [0, 3, 5, 8, 10]

    def test_half_window(self):
        sys = rational_system(0, Fraction(1, 2))
        assert list(orbit_hits(sys, 0, 1)) == [0, 1]

    def test_empty_range_returns_empty(self):
        assert len(orbit_hits(kesten_system(), 1, 0)) == 0

    def test_negative_range(self):
        sys = kesten_system()
        pts = orbit_hits(sys, -50, 50)
        oracle = decimal_orbit_hits(SQRT2, SQRT2.zero, sys.window.intervals, -50, 50)
        assert list(pts) == oracle

    def test_against_decimal_oracle_randomized(self):
        rng = random.Random(101)
        for _ in range(25):
            sys = random_system(rng)
            lo = rng.randint(-300, 0)
            hi = lo + rng.randint(10, 400)
            assert list(orbit_hits(sys, lo, hi)) == decimal_orbit_hits(
                sys.xi, sys.basepoint, sys.window.intervals, lo, hi
            )

    def test_strict_mode_raises_on_endpoint_hit(self):
        # k=1 lands exactly on the right endpoint sqrt2 - 1
        sys = kesten_system(strict=True)
        with pytest.raises(SingularOrbit) as exc:
            orbit_hits(sys, 0, 10)
        assert exc.value.k in (0, 1)  # k=0 hits the left endpoint 0 first
        assert sys.find_singular(2, 10) is None
        # non-strict resolves half-open silently
        assert list(orbit_hits(kesten_system(), 0, 10)) == [0, 3, 5, 8, 10]

    def test_find_singular_exactness(self):
        sys = kesten_system()
        assert sys.find_singular(0, 10) == 0
        assert sys.find_singular(1, 10) == 1
        assert sys.find_singular(2, 10**6) is None


class TestStripPoints:
    def test_matches_orbit_on_flagship(self):
        sys = kesten_system()
        assert list(strip_points(sys, 0, 10)) == list(orbit_hits(sys, 0, 10))

    def test_orbit_strip_equivalence_randomized(self):
        rng = random.Random(202)
        for _ in range(20):
            sys = random_system(rng)
            lo = rng.randint(-200, 0)
            hi = lo + rng.randint(10, 300)
            assert list(strip_points(sys, lo, hi)) == list(orbit_hits(sys, lo, hi))

    @pytest.mark.parametrize(
        "text", ["[0, -1+1*xi)", "[0, 2-1*xi) [1/2, 3/5) [-1+1*xi, 9/10)"]
    )
    def test_matches_orbit_over_1e5(self, text):
        golden = XiSpec(Fraction(1, 2), Fraction(1, 2), 5)
        sys = RotationSystem(golden, golden.zero, parse_window(text, golden))
        assert orbit_hits(sys, 0, 10**5) == strip_points(sys, 0, 10**5)

    def test_window_shift_recurrence(self):
        # shifting the window by +xi shifts hits by +1; by -xi, by -1
        sys = kesten_system()
        base = orbit_hits(sys, -100, 100)
        fwd = RotationSystem(SQRT2, SQRT2.zero, sys.window.shift_mod1(SQRT2.xi_real))
        back = RotationSystem(
            SQRT2, SQRT2.zero, sys.window.shift_mod1(-SQRT2.xi_real)
        )
        assert list(orbit_hits(fwd, -99, 99)) == [k + 1 for k in base if k <= 98]
        assert list(orbit_hits(back, -99, 99)) == [k - 1 for k in base if k >= -98]

    def test_density_approximates_length(self):
        sys = rational_system(Fraction(1, 5), Fraction(3, 5))
        n = 10**4
        pts = orbit_hits(sys, 0, n - 1)
        assert abs(Fraction(len(pts), n) - Fraction(2, 5)) < Fraction(2, 100)


class TestThreeGap:
    def test_three_gap_sanity(self):
        rng = random.Random(303)
        for _ in range(12):
            sys = random_system(rng)
            if len(sys.window) != 1:
                continue
            pts = orbit_hits(sys, 0, 10**4)
            if len(pts) < 2:
                continue
            assert len(set(pts.gaps())) <= 3


class TestLocalDiscrepancy:
    def test_examples(self):
        half = rational_system(0, Fraction(1, 2))
        assert local_discrepancy(half, 0) == 1
        assert local_discrepancy(half, 1) == Fraction(3, 2)
        sys = kesten_system()
        assert local_discrepancy(sys, 1) == SQRT2.real(2, -1)  # 2 - sqrt2

    def test_telescoping(self):
        sys = kesten_system()
        length = sys.window.total_length()
        hits = set(orbit_hits(sys, 0, 60))
        for n in range(1, 60):
            delta = local_discrepancy(sys, n) - local_discrepancy(sys, n - 1)
            assert delta == (1 if n in hits else 0) - length

    def test_multi_interval_is_sum_of_parts(self):
        rng = random.Random(404)
        for _ in range(5):
            sys = random_system(rng)
            if len(sys.window) < 2:
                continue
            total = local_discrepancy(sys, 500)
            parts = sum(
                local_discrepancy(sys.with_window(Window([iv])), 500)
                for iv in sys.window.intervals
            )
            assert total == parts


class TestColoredHits:
    def test_color_partition(self):
        sys = RotationSystem(
            SQRT2,
            SQRT2.zero,
            parse_window("[0,1/3) [-2/3+1*xi, 5-3*xi)", SQRT2),
        )
        pat = colored_hits(sys, 0, 2000)
        hull_sys = sys.with_window(sys.window.hull())
        hull = orbit_hits(hull_sys, 0, 2000)
        assert list(pat) == list(hull)
        counts = {c: pat.colors.count(c) for c in set(pat.colors)}
        assert sum(counts.values()) == len(hull)
        assert set(counts) <= {OMEGA, 1, 2}
        # each interval's own hits match its color class
        for i, iv in enumerate(sys.window.intervals, start=1):
            own = orbit_hits(sys.with_window(Window([iv])), 0, 2000)
            assert [k for k, c in zip(pat.points, pat.colors) if c == i] == list(own)


class TestPointPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointPattern((3, 3))
        with pytest.raises(ValueError):
            PointPattern((1, 2), (1,))

    def test_serialization_roundtrip(self):
        sys = kesten_system()
        pat = colored_hits(
            RotationSystem(SQRT2, SQRT2.zero, parse_window("[0,1/4) [1/2,3/4)", SQRT2)),
            0,
            200,
        )
        buf = io.StringIO()
        dump_pattern(pat, buf, system=sys)
        buf.seek(0)
        loaded, header = load_pattern(buf)
        assert loaded == pat
        assert header["xi"] == "sqrt(2)"
        assert header["window"] == "[0, -1+1*xi)"
        # uncolored roundtrip
        plain = orbit_hits(sys, 0, 50)
        buf2 = io.StringIO()
        dump_pattern(plain, buf2)
        buf2.seek(0)
        loaded2, header2 = load_pattern(buf2)
        assert loaded2 == plain and header2 == {}
