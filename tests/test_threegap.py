"""Property tests of the three-gap stepping core in ``cutproject._scaled``.

Every fast route is compared with a route that shares none of its
stepping: ``collect_hits_direct`` (one explicit floor per index), plain
``XiReal`` arithmetic from ``exactnum``, or brute force over k.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cutproject import _scaled
from cutproject.discrepancy import profile
from cutproject.exactnum import XiSpec
from cutproject.patterns import OMEGA, RotationSystem, Window, colored_hits

FIELDS = [
    XiSpec(Fraction(1, 2), Fraction(1, 2), 5),
    XiSpec.sqrt(2),
    XiSpec.sqrt(3),
    XiSpec(Fraction(-1, 3), Fraction(2, 3), 7),
    XiSpec(Fraction(0), Fraction(1), 19),
]

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


@st.composite
def systems(draw):
    xi = draw(st.sampled_from(FIELDS))
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
    assert _scaled.collect_hits(ss, k_min, k_max) == want
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
    assert _scaled.unscale_pair(xi, ss.m, alpha) == frac(a)
    assert _scaled.unscale_pair(xi, ss.m, beta) == 1 - frac(b)


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


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(), st.integers(100, 400))
def test_profile_matches_direct_scan(system, n_max):
    hits = set(_scaled.collect_hits_direct(system._scaled, 0, n_max))
    length = system.window_length()
    got = {s.n: s for s in profile(system, n_max, trace_limit=64).samples}
    h = 0
    sup = None
    for n in range(n_max + 1):
        h += n in hits
        value = system.xi.real(h) - n * length
        if sup is None or (abs(value) - sup).sign() > 0:
            sup = abs(value)
        if n in got:
            assert got[n].value == value
            assert got[n].running_sup == sup
