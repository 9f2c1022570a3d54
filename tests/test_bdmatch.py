import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cutproject import bdmatch, exactnum
from cutproject.bdmatch import (
    EmptyPattern,
    MatchingWitness,
    _parse_exact,
    _residue_extrema,
    build_witness,
    optimality_check,
)
from cutproject.discrepancy import profile
from cutproject.exactnum import XiMismatchError, XiReal, XiSpec, pair_sign, parse_xi
from cutproject.patterns import RotationSystem, Window, orbit_hits
from oracles import sign_residue_extrema

SQRT2 = XiSpec.sqrt(2)
FIELDS = [SQRT2, XiSpec(Fraction(1, 2), Fraction(1, 2), 5), XiSpec(-2, 1, 2)]


def kesten_system():
    return RotationSystem(SQRT2, SQRT2.zero, Window.single(SQRT2.zero, SQRT2.real(-1, 1)))


def half_system():
    return RotationSystem(
        SQRT2, SQRT2.zero, Window.single(SQRT2.zero, SQRT2.real(Fraction(1, 2)))
    )


class TestBuildWitness:
    def test_rigid_shift(self):
        pts = [Fraction(3, 10) + i for i in range(20)]
        witness = build_witness(pts, 1)
        assert witness.offset == 0
        assert witness.sup_displacement == Fraction(3, 10)
        assert witness.recompute_sup() == Fraction(3, 10)

    @pytest.mark.parametrize("delta", [Fraction(2, 3), SQRT2.real(Fraction(2, 3))])
    def test_offset_takes_the_lower_on_a_tie(self, delta):
        # r = 0 and 1: the offsets 0 and 1 both give sup 1/delta = 3/2
        witness = build_witness([0, 3], delta)
        assert witness.offset == 0 and witness.sup_displacement == Fraction(3, 2)

    def test_lattice_pairs_are_consecutive_and_monotone(self):
        witness = build_witness([0, 3, 5, 8, 10], SQRT2.real(-1, 1))
        lats = [lat for _, lat, _ in witness.pairs()]
        assert all((b - a).sign() > 0 for a, b in zip(lats, lats[1:]))
        diffs = {str(b - a) for a, b in zip(lats, lats[1:])}
        assert diffs == {str(1 / SQRT2.real(-1, 1))}

    def test_flagship_sup_stable_as_range_grows(self):
        # bounded window: the sup creeps toward (but never exceeds) 1; the
        # movement between desk-scale ranges is tiny
        sys = kesten_system()
        delta = SQRT2.real(-1, 1)
        sups = []
        for n in (10**4, 4 * 10**4):
            pts = orbit_hits(sys, 0, n)
            sups.append(build_witness(pts, delta).sup_displacement)
        assert (sups[1] - sups[0] - Fraction(1, 100)).sign() < 0
        assert all((s - 1).sign() < 0 for s in sups)

    def test_unbounded_window_displacement_grows(self):
        sys = half_system()
        sups = []
        for n in (10**3, 10**4, 10**5):
            pts = orbit_hits(sys, 0, n)
            sups.append(build_witness(pts, Fraction(1, 2)).sup_displacement)
        assert sups[0] < sups[1]
        assert sups[1] <= sups[2]
        assert sups[2] >= 2 * sups[0]

    def test_requires_two_points_and_positive_delta(self):
        with pytest.raises(EmptyPattern):
            build_witness([5], 1)
        with pytest.raises(ValueError):
            build_witness([0, 1], Fraction(-1, 2))

    def test_fast_paths_agree_with_generic(self):
        rng = random.Random(31)
        for _ in range(20):
            pts = sorted(rng.sample(range(-100, 400), rng.randint(2, 40)))
            delta = rng.choice(
                [Fraction(rng.randint(1, 9), rng.randint(1, 9)), SQRT2.real(-1, 1)]
            )
            fast = build_witness(pts, delta)
            shifted = [Fraction(p) for p in pts]  # forces the generic route
            generic = build_witness(shifted, delta)
            assert fast.offset == generic.offset
            assert fast.sup_displacement == generic.sup_displacement

    def test_displacement_discrepancy_bound(self):
        # monotone matching: sup*delta <= max|D| + 1 over the scanned range
        sys = kesten_system()
        delta = SQRT2.real(-1, 1)
        n = 10**4
        pts = orbit_hits(sys, 0, n)
        witness = build_witness(pts, delta)
        sup_times_delta = witness.sup_displacement * delta
        bound = profile(sys, n).sup_seen + 1
        assert (bound - sup_times_delta).sign() > 0


class TestOptimality:
    def test_two_point_example(self):
        # lattice points 0.4, 0.6: monotone sup 0.4 beats crossed sup 0.6
        witness = build_witness([0, 1], 5)
        assert witness.offset == 2
        assert [lat for _, lat, _ in witness.pairs()] == [
            Fraction(2, 5),
            Fraction(3, 5),
        ]
        assert witness.sup_displacement == Fraction(2, 5)
        assert optimality_check([0, 1], 5)

    def test_small_sorted_instances_optimal(self):
        rng = random.Random(32)
        for _ in range(40):
            pts = sorted(rng.sample(range(0, 60), rng.randint(2, 8)))
            delta = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            assert optimality_check(pts, delta)

    def test_xireal_instances_optimal(self):
        rng = random.Random(33)
        sys = kesten_system()
        delta = SQRT2.real(-1, 1)
        pts = list(orbit_hits(sys, 0, 40))
        for _ in range(10):
            sub = sorted(rng.sample(pts, 9))
            assert optimality_check(sub, delta)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            optimality_check(list(range(13)), 1)


class TestConstructor:
    """The constructor is the one place a witness is checked."""

    def test_unsorted_points_rejected(self):
        # build_witness and from_csv would refuse these points too
        with pytest.raises(ValueError, match="points must be strictly increasing"):
            MatchingWitness(Fraction(1, 2), 1, 2, (3, 2, 6, 6))

    @pytest.mark.parametrize("delta", [Fraction(0), 0, Fraction(-1, 2), SQRT2.real(1, -1)])
    def test_nonpositive_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            MatchingWitness(delta, 1, 2, (3, 4))

    @pytest.mark.parametrize("points", [(), (3,)])
    def test_fewer_than_two_points_rejected(self, points):
        with pytest.raises(EmptyPattern, match=f"got {len(points)}"):
            MatchingWitness(Fraction(1, 2), 0, 0, points)

    @pytest.mark.parametrize("sup", [None, 0.5, "1"])
    def test_inexact_sup_rejected(self, sup):
        # None would be written as "None", which from_csv cannot read back
        with pytest.raises(TypeError, match="sup_displacement must be exact"):
            MatchingWitness(Fraction(1, 2), 0, sup, (0, 2))

    def test_inexact_delta_offset_and_points_rejected(self):
        with pytest.raises(TypeError, match="^delta must be an int, a Fraction or an XiReal"):
            MatchingWitness(0.5, 0, 0, (0, 2))
        with pytest.raises(TypeError, match="^delta must be"):
            build_witness([0, 2, 5], 0.5)  # not the sup_displacement it would compute
        for offset in (0.0, Fraction(1, 2), Fraction(0), True):  # a Fraction fails later, in to_csv
            with pytest.raises(TypeError, match="^offset must be"):
                MatchingWitness(Fraction(1, 2), offset, 0, (0, 2))
        with pytest.raises(TypeError, match="^a point must be"):
            MatchingWitness(Fraction(1, 2), 0, 0, (0, 2.0))

    def test_int_delta_kept_exact(self):
        witness = MatchingWitness(2, 0, 0, (0, 1, 3))
        assert witness.delta == 2 and isinstance(witness.delta, Fraction)
        sup = witness.recompute_sup()  # the lattice 0, 1/2, 1 against 0, 1, 3
        assert sup == 2 and isinstance(sup, Fraction)


class TestSerialization:
    def test_roundtrip_rational(self):
        witness = build_witness([0, 2, 5, 9], Fraction(1, 2))
        buf = io.StringIO()
        witness.to_csv(buf)
        buf.seek(0)
        loaded = MatchingWitness.from_csv(buf)
        assert loaded == witness

    def test_roundtrip_xireal(self):
        pts = orbit_hits(kesten_system(), 0, 60)
        witness = build_witness(pts, SQRT2.real(-1, 1))
        buf = io.StringIO()
        witness.to_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "# xi = sqrt(2)"
        assert "y,lattice_point,displacement" in text
        loaded = MatchingWitness.from_csv(io.StringIO(text))
        assert loaded == witness

    def test_golden_csv_reads_back_to_the_same_text(self):
        golden = FIELDS[1]
        system = RotationSystem(golden, golden.zero, Window.single(golden.zero, golden.real(-1, 1)))
        witness = build_witness(orbit_hits(system, 0, 2000), system.window_length())
        assert isinstance(witness.delta, XiReal)
        first, again = io.StringIO(), io.StringIO()
        witness.to_csv(first)
        MatchingWitness.from_csv(io.StringIO(first.getvalue())).to_csv(again)
        assert again.getvalue() == first.getvalue()

    def test_rational_delta_with_field_points_round_trips(self):
        golden = FIELDS[1]
        pts = [golden.real(0, 0), golden.real(1, 1), golden.real(Fraction(5, 2), 2)]
        witness = build_witness(pts, Fraction(1, 2))
        assert str(witness.sup_displacement) == "-3/2+2*xi"
        buf = io.StringIO()
        witness.to_csv(buf)
        assert buf.getvalue().startswith(f"# xi = {golden}\n# delta = 1/2\n")
        assert MatchingWitness.from_csv(io.StringIO(buf.getvalue())) == witness

    def test_values_of_two_fields_rejected(self):
        witness = MatchingWitness(FIELDS[1].real(1, 1), 0, 0, (SQRT2.real(0, 1), SQRT2.real(0, 2)))
        with pytest.raises(XiMismatchError):
            witness.to_csv(io.StringIO())

    def test_fewer_than_two_rows_rejected(self):
        buf = io.StringIO()
        build_witness([0, 2, 5, 9], Fraction(1, 2)).to_csv(buf)
        lines = buf.getvalue().splitlines(keepends=True)
        for rows in (0, 1):  # the header lines and no data row, or one
            with pytest.raises(EmptyPattern, match=f"got {rows}"):
                MatchingWitness.from_csv(io.StringIO("".join(lines[: 4 + rows])))

    @pytest.mark.parametrize("key", ["delta", "offset", "sup_displacement"])
    def test_missing_header_line_rejected(self, key):
        buf = io.StringIO()
        build_witness([0, 2, 5, 9], Fraction(1, 2)).to_csv(buf)
        lines = [line for line in buf.getvalue().splitlines(keepends=True)
                 if not line.startswith(f"# {key} =")]
        with pytest.raises(ValueError, match="missing its header lines"):
            MatchingWitness.from_csv(io.StringIO("".join(lines)))

    def test_unsorted_points_rejected(self):
        # the sup recomputes (displacements 1, -2, 0, -2), but no monotone matching has these rows
        text = "# delta = 1/2\n# offset = 1\n# sup_displacement = 2\n" + "".join(
            f"{y},0,0\n" for y in (3, 2, 6, 6)
        )
        with pytest.raises(ValueError, match="points must be strictly increasing"):
            MatchingWitness.from_csv(io.StringIO(text))

    @pytest.mark.parametrize("delta", ["0", "-1/2"])
    def test_nonpositive_delta_rejected(self, delta):
        buf = io.StringIO()
        build_witness([0, 2, 5, 9], Fraction(1, 2)).to_csv(buf)
        text = buf.getvalue().replace("# delta = 1/2", f"# delta = {delta}")
        with pytest.raises(ValueError, match="delta must be positive"):
            MatchingWitness.from_csv(io.StringIO(text))

    def test_corrupt_sup_rejected(self):
        witness = build_witness([0, 2, 5, 9], Fraction(1, 2))
        buf = io.StringIO()
        witness.to_csv(buf)
        text = buf.getvalue().replace("# sup_displacement = ", "# sup_displacement = 7+", 1)
        with pytest.raises(ValueError):
            MatchingWitness.from_csv(io.StringIO(text))


small_fractions = st.builds(Fraction, st.integers(-150, 150), st.integers(1, 6))


@st.composite
def matching_cases(draw):
    """2-9 strictly increasing ints, Fractions or values a + b*xi of one field,
    and a delta in (0, 4), rational or a surd of that field."""
    xi = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["int", "fraction", "surd"]))
    value = {
        "int": st.integers(-40, 40),
        "fraction": small_fractions,
        "surd": st.builds(xi.real, small_fractions, st.integers(-9, 9)),
    }[kind]
    pts = sorted(set(draw(st.lists(value, min_size=2, max_size=9))))
    if len(pts) < 2:
        pts.append(pts[0] + 1)
    if draw(st.booleans()):
        delta = Fraction(draw(st.integers(1, 39)), 10)
    else:
        frac, _ = xi.real(draw(small_fractions), draw(st.integers(-5, 5).filter(bool))).fractional_part()
        delta = frac + draw(st.integers(0, 3))
    return pts, delta


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matching_cases())
def test_witness_matches_brute_force(case):
    """The witness's offset is optimal among all integer offsets, and no
    bijection to its lattice points beats the monotone matching."""
    pts, delta = case
    assert optimality_check(pts, delta)
    r = [y * delta - i for i, y in enumerate(pts)]
    offsets = range(math.floor(min(r)) - 2, math.ceil(max(r)) + 3)
    want = min(
        max(abs(y - Fraction(i + c) / delta) for i, y in enumerate(pts)) for c in offsets
    )
    assert build_witness(pts, delta).sup_displacement == want


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matching_cases(), st.integers(1, 4), st.booleans(), st.integers(-60, 60))
def test_recompute_sup_is_the_largest_displacement(case, int_delta, use_int, offset):
    """recompute_sup, from the residue extremes, equals the largest |displacement|
    over the pairs, for int, Fraction and surd points, int, Fraction and surd
    deltas, and any offset, optimal or not."""
    pts, delta = case
    delta = int_delta if use_int else delta
    witness = MatchingWitness(delta, offset, 0, tuple(pts))
    assert witness.recompute_sup() == max(abs(disp) for _, _, disp in witness.pairs())


def spaced_witness(spacing, offset, pts):
    """The witness of int points `pts` against the lattice of spacing 1/delta, at `offset`."""
    witness = MatchingWitness(Fraction(1) / spacing, 0, 0, tuple(pts))
    object.__setattr__(witness, "offset", offset)
    object.__setattr__(witness, "sup_displacement", witness.recompute_sup())
    return witness


@st.composite
def witness_cases(draw):
    """A witness of 2-9 increasing points mixing ints, Fractions and values
    a + b*xi of one field, or of ints only (as a PointPattern holds), with an int,
    Fraction or surd delta and any offset."""
    xi = draw(st.sampled_from(FIELDS))
    value = st.integers(-40, 40) if draw(st.booleans()) else st.one_of(
        st.integers(-40, 40), small_fractions, st.builds(xi.real, small_fractions, st.integers(-9, 9))
    )
    pts = sorted(set(draw(st.lists(value, min_size=2, max_size=9))))
    if len(pts) < 2:
        pts.append(pts[0] + 1)
    delta = draw(st.one_of(
        st.integers(1, 4),
        st.builds(Fraction, st.integers(1, 39), st.integers(1, 10)),
        st.builds(lambda a, b: abs(xi.real(a, b)), small_fractions, st.integers(-5, 5).filter(bool)),
        # 1/delta = b*xi: lattice points with no rational part
        st.builds(lambda b: Fraction(1) / abs(xi.real(0, b)), st.integers(-5, 5).filter(bool)),
    ))
    witness = MatchingWitness(delta, 0, 0, tuple(pts))
    # set in place, as build_witness does: any offset, optimal or not
    object.__setattr__(witness, "offset", draw(st.integers(-60, 60)))
    object.__setattr__(witness, "sup_displacement", witness.recompute_sup())
    return witness


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(witness_cases())
# int points, rows from k = -3 up: k = 0 (lattice point 0), y*sd - la = 0 (y = k)
@example(spaced_witness(SQRT2.real(1, 1), -3, [-3, -2, -1, 0, 1, 2, 5]))
@example(spaced_witness(FIELDS[1].real(-1, 2), -2, [-7, -4, 0, 3, 11]))
# 1/delta = 2*xi: la = 0 on every row; 1/delta = 3/2 in the field: k*sb = 0 on every row
@example(spaced_witness(SQRT2.real(0, 2), -4, [-9, -6, -3, 0, 2, 5, 8]))
@example(spaced_witness(FIELDS[2].real(Fraction(3, 2)), -2, [-3, -1, 0, 2, 3]))
def test_csv_rows_spell_the_pairs(witness):
    """Each row, spelled from integer coordinates, is the text of the XiReal
    arithmetic route (pairs()), and the CSV reads back to the witness.  Int points
    take their own loop, with rows where k = i + offset is 0 or negative, where the
    lattice point's rational or xi-part is 0 and where the displacement's is."""
    buf = io.StringIO()
    witness.to_csv(buf)
    text = buf.getvalue()
    header, rows = text.split("y,lattice_point,displacement\n")
    assert rows.splitlines() == [f"{y},{lat},{disp}" for y, lat, disp in witness.pairs()]
    values = (witness.delta, witness.sup_displacement, *witness.points)
    assert header.startswith("# xi = ") == any(isinstance(v, XiReal) for v in values)
    assert MatchingWitness.from_csv(io.StringIO(text)) == witness


def near_third(d: int, n: int) -> tuple[int, int]:
    """(a, b) with a + b*sqrt(d) within 1/(3N) of 1/3, on either side, for N + v*sqrt(9d) the
    n-th power of the least solution of N^2 - 9*d*v^2 = 1: N - 3*v*sqrt(d) = 1/(N + 3*v*sqrt(d))."""
    v1 = next(v for v in range(1, 10**4) if math.isqrt(9 * d * v * v + 1) ** 2 == 9 * d * v * v + 1)
    n1 = math.isqrt(9 * d * v1 * v1 + 1)
    N, v = 1, 0
    for _ in range(n):
        N, v = N * n1 + 9 * d * v * v1, N * v1 + v * n1
    return ((1 - N) // 3, v) if N % 3 == 1 else ((N + 1) // 3, -v)


@st.composite
def residue_cases(draw):
    """Sorted int points, negative ones too, and a delta = (a + b*sqrt(d))/m with b of
    either sign or 0.  Half have a, b and m up to 2^130; half have m*delta within about
    2^-12 to 2^-230 of 1/3 and points 3m apart, whose residues then differ only by that
    distance times their y: near-ties that a key of fixed precision could not rank."""
    xi = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        big = st.integers(-2**130, 2**130)
        delta = XiReal.from_triple(draw(big), draw(big), draw(st.integers(1, 2**130)), xi)
        pts = sorted(set(draw(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=40))))
    else:
        m = draw(st.integers(1, 3))
        delta = XiReal.from_triple(*near_third(xi.d, draw(st.integers(2, 14))), m, xi)
        y0 = draw(st.integers(-40, 10))
        ts = sorted(set(draw(st.lists(st.integers(0, 12), min_size=2, max_size=12))))
        pts = [y0 + 3 * m * t for t in ts]
    if len(pts) < 2:
        pts.append(pts[0] + 1)
    return tuple(pts), delta


# m*delta = 1/3 + tau, 0 < tau < 10^-13 (near_third(d, 9)), and points 3m apart: the residues
# tie but for tau*y, so both extremes are near-ties: the keys must resolve residues about
# tau apart
FALLBACK_CASES = [
    (pts, XiReal.from_triple(*near_third(xi.d, 9), m, xi))
    for xi in (SQRT2, FIELDS[1])
    for pts, m in (((-6, 0, 6), 2), ((-6, -3, 0, 3, 6), 1), ((-3, 3), 2))
]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(residue_cases())
@example(FALLBACK_CASES[0])
@example(FALLBACK_CASES[1])
@example(FALLBACK_CASES[2])
@example(FALLBACK_CASES[3])
@example(FALLBACK_CASES[4])
@example(FALLBACK_CASES[5])
@example(((0, 2, 3, 4, 6), XiReal.from_triple(1, 0, 2, SQRT2)))  # b = 0: exact ties at both ends
def test_residue_extrema_match_the_sign_loop(case):
    """The extremes ranked by one additive key (linear_key) are those of a pair_sign test
    against every point."""
    pts, delta = case
    assert _residue_extrema(pts, delta, True) == sign_residue_extrema(pts, delta)


@pytest.mark.parametrize("pts, delta", FALLBACK_CASES)
def test_near_tied_residues_need_no_sign_test(monkeypatch, pts, delta):
    """The near-tie examples above are ranked by their keys alone: no pair_sign call."""
    want = sign_residue_extrema(pts, delta)
    calls = []
    for module in (bdmatch, exactnum):  # a sign test made from either module counts
        monkeypatch.setattr(module, "pair_sign", lambda *a: calls.append(a) or pair_sign(*a),
                            raising=False)
    assert _residue_extrema(pts, delta, True) == want
    assert calls == []


def parse_by_lines(text: str) -> MatchingWitness:
    """A witness CSV read line by line and parsed value by value, as from_csv did before
    it read its int column in one pass."""
    header, ys = {}, []
    for line in io.StringIO(text):
        line = line.strip()
        if not line or line == "y,lattice_point,displacement":
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            header[key.strip()] = val.strip()
        else:
            ys.append(line.split(",", 1)[0])
    if not {"delta", "offset", "sup_displacement"} <= header.keys():
        raise ValueError("witness CSV is missing its header lines")
    xi = parse_xi(header["xi"]) if "xi" in header else None
    witness = MatchingWitness(
        delta=_parse_exact(header["delta"], xi),
        offset=int(header["offset"]),
        sup_displacement=_parse_exact(header["sup_displacement"], xi),
        points=tuple(_parse_exact(y, xi) for y in ys),
    )
    if witness.recompute_sup() != witness.sup_displacement:
        raise ValueError("witness CSV sup_displacement does not recompute")
    return witness


HEAD = "# delta = 1/2\n# offset = 0\n# sup_displacement = 3\ny,lattice_point,displacement\n"
CSV_ACCEPTED = {
    "signed ints": HEAD + "-3,0,0\n+2,0,0\n5,0,0\n+9,0,0\n",
    "a y with a space": HEAD + "-3,0,0\n2 ,0,0\n5,0,0\n9,0,0\n",  # "2 " is Fraction(2)
    "blank lines, indented headers": "\n  # delta = 1/2\n\t# offset = 0\n\n   #sup_displacement=3\n"
    "y,lattice_point,displacement\n\n-3,0,0\n  2,0,0\n\n5,0,0\n9,0,0\n\n",
    "fractions": "# delta = 1/2\n# offset = 0\n# sup_displacement = 7/3\n-7/3,0,0\n1/2,0,0\n4,0,0\n13/2,0,0\n",
    "xi values": "# xi = sqrt(2)\n# delta = -1+1*xi\n# offset = 0\n# sup_displacement = 1\n"
    "y,lattice_point,displacement\n0,0,0\n1+1*xi,1+1*xi,0\n3+2*xi,2+2*xi,1\n",
}
CSV_REFUSED = {
    "unsorted points": (HEAD + "-3,0,0\n5,0,0\n2,0,0\n9,0,0\n", ValueError),
    "missing header": (HEAD.replace("# offset = 0\n", "") + "-3,0,0\n2,0,0\n5,0,0\n9,0,0\n", ValueError),
    "bad number": (HEAD + "-3,0,0\n2.5.1,0,0\n5,0,0\n9,0,0\n", ValueError),
    "spaced digits": (HEAD + "-3,0,0\n2 1,0,0\n5,0,0\n9,0,0\n", ValueError),
    "zero denominator": (HEAD + "-3,0,0\n2/0,0,0\n5,0,0\n9,0,0\n", ZeroDivisionError),
}


@pytest.mark.parametrize("text", CSV_ACCEPTED.values(), ids=CSV_ACCEPTED.keys())
def test_from_csv_reads_as_line_by_line(text):
    """from_csv, which parses a y column of ints in one pass, gives the witness, and the
    types of its values, that a parse line by line and value by value gives."""
    got, want = MatchingWitness.from_csv(io.StringIO(text)), parse_by_lines(text)
    assert got == want
    values = lambda w: (w.delta, w.offset, w.sup_displacement, *w.points)
    assert list(map(type, values(got))) == list(map(type, values(want)))


def test_from_csv_keeps_a_y_with_a_space_a_fraction():
    points = MatchingWitness.from_csv(io.StringIO(CSV_ACCEPTED["a y with a space"])).points
    assert points == (-3, 2, 5, 9) and list(map(type, points)) == [int, Fraction, int, int]


@pytest.mark.parametrize("text, error", CSV_REFUSED.values(), ids=CSV_REFUSED.keys())
def test_from_csv_refuses_as_line_by_line(text, error):
    for parse in (parse_by_lines, lambda t: MatchingWitness.from_csv(io.StringIO(t))):
        with pytest.raises(error) as info:
            parse(text)
        assert type(info.value) is error
