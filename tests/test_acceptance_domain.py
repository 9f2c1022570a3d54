import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from cutproject.acceptance import (
    AcceptanceDomain,
    PatternSpec,
    acceptance_domain,
    indicator_hits,
    match_pattern,
    pattern_density,
)
from cutproject.exactnum import XiSpec, decompose_Z_plus_Zxi
from cutproject.patterns import RotationSystem, Window, orbit_hits, parse_window, strip_points
from oracles import chain_domain, search_provenance
from test_threegap import FIELDS, NEGATIVE_XI, systems

SQRT2 = XiSpec.sqrt(2)


def kesten_system():
    return RotationSystem(SQRT2, SQRT2.zero, Window.single(SQRT2.zero, SQRT2.real(-1, 1)))


def random_system(rng):
    xi = rng.choice([SQRT2, XiSpec.sqrt(3), XiSpec(Fraction(1, 2), Fraction(1, 2), 5)])
    base = xi.real(Fraction(rng.randint(0, 30), 31))
    cuts = sorted(rng.sample(range(1, 48), 2 * rng.choice([1, 1, 2])))
    ivs = []
    for i in range(0, len(cuts), 2):
        ivs.append((xi.real(Fraction(cuts[i], 48)), xi.real(Fraction(cuts[i + 1], 48))))
    return RotationSystem(xi, base, Window(ivs))


def random_pattern(rng, max_offset=16):
    req = {0} | {rng.randint(-max_offset, max_offset) for _ in range(rng.randint(0, 2))}
    forb = {
        rng.randint(-max_offset, max_offset) for _ in range(rng.randint(0, 2))
    } - req
    return PatternSpec(frozenset(req), frozenset(forb))


class TestPatternSpec:
    def test_anchor_required(self):
        with pytest.raises(ValueError):
            PatternSpec(frozenset({1, 2}))
        with pytest.raises(ValueError):
            PatternSpec(frozenset({0, 1}), frozenset({1}))

    def test_parse_roundtrip(self):
        p = PatternSpec.parse("require 0,2 forbid 1")
        assert p == PatternSpec(frozenset({0, 2}), frozenset({1}))
        assert PatternSpec.parse(str(p)) == p
        q = PatternSpec.parse("require 0,-3")
        assert q.forbidden == frozenset()
        with pytest.raises(ValueError):
            PatternSpec.parse("forbid 1")

    def test_offset_bound(self):
        sys = kesten_system()
        acceptance_domain(sys, PatternSpec(frozenset({0, 64})))
        with pytest.raises(ValueError, match="offset 65 exceeds the bound 64"):
            acceptance_domain(sys, PatternSpec(frozenset({0}), frozenset({-65})))


class TestAcceptanceDomain:
    def test_consecutive_pair_is_forbidden_by_geometry(self):
        # oracle: no two consecutive hits among the first 10^4 orbit points
        sys = kesten_system()
        pts = orbit_hits(sys, 0, 10**4)
        assert not [k for k in pts if k + 1 in set(pts.points)]
        dom = acceptance_domain(sys, PatternSpec(frozenset({0, 1})))
        assert not dom.window

    def test_gap_two_domain_exact(self):
        sys = kesten_system()
        dom = acceptance_domain(sys, PatternSpec(frozenset({0, 2})))
        assert len(dom.window) == 1
        lo, hi = dom.window.intervals[0]
        assert lo == SQRT2.real(3, -2)  # 3 - 2*sqrt2 = 0.1715...
        assert hi == SQRT2.real(-1, 1)
        # each endpoint is a Z+Z*xi translate of a base endpoint
        for j, k in dom.provenance:
            assert 0 <= j < 2
        assert "shifted by" in dom.describe()

    def test_anchor_only_is_identity(self):
        sys = kesten_system()
        dom = acceptance_domain(sys, PatternSpec(frozenset({0})))
        assert dom.window == sys.window
        assert dom.provenance == ((0, 0), (1, 0))

    def test_forbidden_complements(self):
        sys = kesten_system()
        every = acceptance_domain(sys, PatternSpec(frozenset({0})))
        gap2 = acceptance_domain(sys, PatternSpec(frozenset({0}), frozenset({2})))
        with2 = acceptance_domain(sys, PatternSpec(frozenset({0, 2})))
        assert gap2.window.intersect(with2.window) == Window([])
        joined = Window(list(gap2.window.intervals) + list(with2.window.intervals))
        assert joined == every.window

    def test_endpoint_congruence_randomized(self):
        rng = random.Random(606)
        for _ in range(60):
            sys = random_system(rng)
            pat = random_pattern(rng)
            dom = acceptance_domain(sys, pat)
            base = sys.window.endpoints()
            for e, (j, k) in zip(dom.window.endpoints(), dom.provenance):
                km = decompose_Z_plus_Zxi(e - base[j])
                assert km is not None and km[0] == k

    def test_monotonicity(self):
        rng = random.Random(707)
        for _ in range(30):
            sys = random_system(rng)
            pat = random_pattern(rng, max_offset=8)
            base_len = pattern_density(sys, pat)
            extra = rng.randint(-8, 8)
            if extra in pat.offsets():
                continue
            more_req = PatternSpec(pat.required | {extra}, pat.forbidden)
            more_forb = PatternSpec(pat.required, pat.forbidden | {extra})
            assert (pattern_density(sys, more_req) - base_len).sign() <= 0
            assert (pattern_density(sys, more_forb) - base_len).sign() <= 0


class TestIndicatorHits:
    def test_gap_two_example(self):
        sys = kesten_system()
        hits = indicator_hits(sys, PatternSpec(frozenset({0, 2})), 0, 10)
        assert list(hits) == [3, 8]

    def test_anchor_only_gives_all_points(self):
        sys = kesten_system()
        assert list(indicator_hits(sys, PatternSpec(frozenset({0})), 0, 50)) == list(
            orbit_hits(sys, 0, 50)
        )

    def test_empty_domain_empty_pattern(self):
        sys = kesten_system()
        assert len(indicator_hits(sys, PatternSpec(frozenset({0, 1})), 0, 100)) == 0

    def test_matches_sliding_window_randomized(self):
        rng = random.Random(808)
        for _ in range(25):
            sys = random_system(rng)
            pat = random_pattern(rng)
            lo_off = min(pat.offsets() | {0})
            hi_off = max(pat.offsets() | {0})
            k_min, k_max = -50, 400
            pts = strip_points(sys, k_min + lo_off, k_max + hi_off)
            assert list(indicator_hits(sys, pat, k_min, k_max)) == match_pattern(
                pts, pat, k_min, k_max
            )

    def test_matches_sliding_window_on_three_intervals(self):
        golden = FIELDS[0]
        window = parse_window("[0, 2-1*xi) [1/2, 3/5) [-1+1*xi, 9/10)", golden)
        sys = RotationSystem(golden, golden.zero, window)
        pat = PatternSpec.parse("require 0,3 forbid 1")
        hits = indicator_hits(sys, pat, 0, 10**4)
        assert list(hits) == match_pattern(strip_points(sys, 0, 10**4 + 3), pat, 0, 10**4)


class TestPatternDensity:
    def test_examples(self):
        sys = kesten_system()
        assert pattern_density(sys, PatternSpec(frozenset({0}))) == SQRT2.real(-1, 1)
        assert pattern_density(sys, PatternSpec(frozenset({0, 2}))) == SQRT2.real(-4, 3)
        assert pattern_density(sys, PatternSpec(frozenset({0, 1}))) == SQRT2.zero

    def test_density_matches_frequency(self):
        rng = random.Random(909)
        n = 10**5
        for _ in range(4):
            sys = random_system(rng)
            pat = random_pattern(rng, max_offset=6)
            dens = pattern_density(sys, pat)
            freq = Fraction(len(indicator_hits(sys, pat, 0, n - 1)), n)
            # empirical tolerance 10/sqrt(N)
            assert abs(dens - freq) < Fraction(10, 316)


offsets = st.lists(st.integers(-64, 64), max_size=5)


@st.composite
def patterns(draw):
    """The anchor, up to 5 more required offsets and up to 5 forbidden ones."""
    required = frozenset(draw(offsets)) | {0}
    return PatternSpec(required, frozenset(draw(offsets)) - required)


@st.composite
def congruent_systems(draw):
    """Windows whose endpoints share boundary classes: frac(c + k*xi) for one
    rational c and a few k, sometimes with the endpoint 0 or 1 (congruent to
    frac(k*xi) when c = 0)."""
    xi = draw(st.sampled_from(FIELDS + [NEGATIVE_XI]))
    c = Fraction(draw(st.sampled_from([0, 1, 5, 17])), 31)
    ks = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=7, unique=True))
    cuts = {xi.real(c, k).fractional_part()[0] for k in ks}
    cuts |= {xi.real(e) for e in draw(st.lists(st.sampled_from([0, 1]), max_size=2))}
    cuts = sorted(cuts)[: len(cuts) // 2 * 2]
    if cuts == [xi.zero, xi.one]:  # [0, 1) is no window
        cuts = cuts[:1] + [xi.real(Fraction(1, 2))]
    window = Window([(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)])
    return RotationSystem(xi, xi.zero, window)


def one_class_system():
    """All four endpoints in one class: frac(3*xi), frac(xi), frac(-xi), frac(2*xi)."""
    ends = [SQRT2.real(0, k).fractional_part()[0] for k in (3, 1, -1, 2)]
    return RotationSystem(SQRT2, SQRT2.zero, Window([tuple(ends[:2]), tuple(ends[2:])]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(systems(FIELDS + [NEGATIVE_XI]), congruent_systems()), patterns())
@example(one_class_system(), PatternSpec(frozenset({0, 1}), frozenset({-2})))
@example(kesten_system(), PatternSpec(frozenset({0, 2})))
def test_sweep_matches_chain_of_set_operations(system, pattern):
    """The one-sweep domain is the chain of Window.intersect / complement calls,
    and each provenance is the least shift over all congruent window endpoints."""
    dom = acceptance_domain(system, pattern)
    want = chain_domain(system, pattern)
    event("empty" if not want else f"{len(want)} intervals")
    assert dom.window == want
    ends = dom.window.endpoints() if dom.window else ()
    assert dom.provenance == tuple(search_provenance(system.window, e) for e in ends)


def test_provenance_takes_the_least_shift_in_a_class():
    sys = one_class_system()
    dom = acceptance_domain(sys, PatternSpec(frozenset({0, 1})))
    ends = dom.window.endpoints()
    assert dom.window and len(ends) == len(dom.provenance)
    base = sys.window.endpoints()
    for e, (j, k) in zip(ends, dom.provenance):
        shifts = [decompose_Z_plus_Zxi(e - b)[0] for b in base]  # all four are congruent
        assert abs(k) == min(abs(s) for s in shifts) and shifts[j] == k
