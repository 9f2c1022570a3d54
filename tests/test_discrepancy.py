import io
import logging
import math
import random
import time
from fractions import Fraction

import pytest

from cutproject.acceptance import PatternSpec
from cutproject.criteria import oren_condition
from cutproject.discrepancy import (
    Cochain,
    DiscrepancyProfile,
    TooFewPoints,
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
        for s in p.samples[::97] + p.samples[-1:]:
            assert s.value == local_discrepancy(system, s.n)
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

    def test_route_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="cutproject.discrepancy"):
            profile(kesten_system(), 1000)
            profile(half_system(), 1000)
        closed, tables = [r.getMessage() for r in caplog.records]
        assert "closed form, 1 teeth, " in closed and " record events" in closed
        assert tables.startswith("profile n_max=1000: block tables, ")
        assert " levels, " in tables and tables.endswith(" samples")

    def test_empty_window(self):
        sys = RotationSystem(SQRT2, SQRT2.zero, Window([]))
        p = profile(sys, 300, trace_limit=16)
        assert p.sup_seen == 0
        assert all(s.value == 0 for s in p.samples)
        assert local_discrepancy(sys, 10**40) == 0


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
