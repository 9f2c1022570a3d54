import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutproject.bdmatch import (
    EmptyPattern,
    MatchingWitness,
    build_witness,
    optimality_check,
)
from cutproject.discrepancy import profile
from cutproject.exactnum import XiReal, XiSpec
from cutproject.patterns import RotationSystem, Window, orbit_hits

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
