import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from cutproject.acceptance import _class_shifts
from cutproject.criteria import (
    MultiIntervalWindow,
    bd_verdict,
    boundary_classes,
    kesten_condition,
    oren_condition,
)
from cutproject.exactnum import XiSpec
from cutproject.patterns import Window, parse_window
from oracles import augmenting_oren, exhaustive_oren, grid_class_shifts, scan_classes
from test_threegap import FIELDS, NEGATIVE_XI

SQRT2 = XiSpec.sqrt(2)
SQRT3 = XiSpec.sqrt(3)


def oren_example():
    return parse_window("[0,1/3) [-2/3+1*xi, 5-3*xi)", SQRT2)


def random_window(rng, xi=SQRT2, max_intervals=4):
    """Windows with a controlled mix of rational and k*xi+m endpoints."""
    for _ in range(60):
        count = rng.randint(1, max_intervals)
        ivs = []
        ok = True
        for _ in range(count):
            a = xi.real(Fraction(rng.randint(0, 200), 211))
            if rng.random() < 0.6:
                ln, _ = xi.real(rng.randint(-4, 4), rng.choice([-2, -1, 1, 2])).fractional_part()
                ln = ln * Fraction(1, count)
            else:
                ln = xi.real(Fraction(rng.randint(1, 40), 41 * count))
            if ln.sign() <= 0:
                ok = False
                break
            ivs.append((a, a + ln))
        if not ok:
            continue
        try:
            win = Window(ivs)
        except ValueError:
            continue
        if len(win) == count:
            return win
    raise AssertionError("window generator starved")


class TestKesten:
    def test_flagship(self):
        for xi in (SQRT2, FIELDS[0]):  # [0, xi - 1) for sqrt(2) and the golden ratio
            witness = kesten_condition(Window.single(xi.zero, xi.real(-1, 1)))
            assert (witness.k, witness.m) == (1, -1)

    def test_rational_length_has_no_witness(self):
        assert kesten_condition(parse_window("[0, 1/2)", SQRT2)) is None

    def test_sqrt3_example(self):
        w = parse_window("[1/4, -11/4+2*xi)", SQRT3)  # length 2*sqrt3 - 3
        witness = kesten_condition(w)
        assert (witness.k, witness.m) == (2, -3)

    def test_rejects_multi_interval(self):
        with pytest.raises(MultiIntervalWindow):
            kesten_condition(oren_example())

    def test_rejects_empty_window_as_empty(self):
        with pytest.raises(ValueError, match="nonempty window") as err:
            kesten_condition(Window([]))
        assert not isinstance(err.value, MultiIntervalWindow)

    def test_witness_recomputes(self):
        rng = random.Random(21)
        for _ in range(50):
            w = random_window(rng, max_intervals=1)
            witness = kesten_condition(w)
            lo, hi = w.intervals[0]
            if witness is not None:
                assert hi - lo == SQRT2.real(witness.m, witness.k)


class TestOren:
    def test_swap_example(self):
        w = oren_example()
        witness = oren_condition(w)
        assert witness.sigma == (1, 0)  # the swap
        assert witness.ks == (-3, -1)
        assert witness.ms == (5, 1)
        # every single interval fails Kesten on its own
        for iv in w.intervals:
            assert kesten_condition(Window([iv])) is None
        # exhaustive-permutation oracle agrees: the swap is the only matching
        all_matchings = exhaustive_oren(w)
        assert [(m[0], m[1]) for m in all_matchings] == [((1, 0), (-3, -1))]

    def test_disjoint_rational_quarters_fail(self):
        w = parse_window("[0,1/4) [1/2,3/4)", SQRT2)
        assert oren_condition(w) is None
        assert exhaustive_oren(w) == []

    def test_single_interval_reduces_to_kesten(self):
        w = Window.single(SQRT2.zero, SQRT2.real(-1, 1))
        witness = oren_condition(w)
        assert witness.sigma == (0,)
        assert witness.ks == (1,) and witness.ms == (-1,)

    def test_matches_exhaustive_oracle_randomized(self):
        rng = random.Random(22)
        for _ in range(120):
            w = random_window(rng)
            fast = oren_condition(w)
            slow = exhaustive_oren(w)
            assert (fast is not None) == bool(slow)
            if fast is not None:
                assert (fast.sigma, fast.ks, fast.ms) in slow


class TestBoundaryClasses:
    def test_flagship_one_balanced_class(self):
        rep = boundary_classes(Window.single(SQRT2.zero, SQRT2.real(-1, 1)))
        assert rep.n == 1
        assert rep.left_right_balance == ((1, 1),)
        assert rep.balanced()

    def test_half_window_two_unbalanced_classes(self):
        rep = boundary_classes(parse_window("[0, 1/2)", SQRT2))
        assert rep.n == 2
        assert rep.left_right_balance == ((1, 0), (0, 1))
        assert not rep.balanced()

    def test_oren_example_two_balanced_classes(self):
        rep = boundary_classes(oren_example())
        assert rep.n == 2
        assert all(balance == (1, 1) for balance in rep.left_right_balance)

    def test_partition_is_congruence(self):
        from cutproject.exactnum import decompose_Z_plus_Zxi

        rng = random.Random(23)
        for _ in range(40):
            w = random_window(rng)
            rep = boundary_classes(w)
            assert sorted(i for cls in rep.classes for i in cls) == list(
                range(2 * len(w))
            )
            for cls in rep.classes:
                for i in cls:
                    same = decompose_Z_plus_Zxi(rep.endpoints[i] - rep.endpoints[cls[0]])
                    assert same is not None
            for c1 in rep.classes:
                for c2 in rep.classes:
                    if c1 is c2:
                        continue
                    assert (
                        decompose_Z_plus_Zxi(rep.endpoints[c1[0]] - rep.endpoints[c2[0]])
                        is None
                    )


class TestBdVerdict:
    def test_flagship_bounded_rank2(self):
        rep = bd_verdict(Window.single(SQRT2.zero, SQRT2.real(-1, 1)))
        assert rep.verdict == "bounded"
        assert (rep.n, rep.h1_rank, rep.h1_ud_dim) == (1, 2, 0)
        assert rep.bounded_subspace_rank == 2

    def test_half_window_unbounded_rank3(self):
        rep = bd_verdict(parse_window("[0, 1/2)", SQRT2))
        assert rep.verdict == "unbounded"
        assert (rep.n, rep.h1_rank, rep.h1_ud_dim) == (2, 3, 1)

    def test_oren_example_bounded_rank3(self):
        rep = bd_verdict(oren_example())
        assert rep.verdict == "bounded"
        assert (rep.n, rep.h1_rank, rep.h1_ud_dim) == (2, 3, 1)
        assert rep.witness is not None

    def test_equivalent_characterizations_randomized(self):
        """The verdict, the class balance of the representative scan and the
        existence of an augmenting-path matching agree."""
        rng = random.Random(24)
        for _ in range(1000):
            w = random_window(rng, max_intervals=3)
            rep = bd_verdict(w)
            _, balance = scan_classes(w)
            assert rep.classes.left_right_balance == balance
            balanced = all(left == right for left, right in balance)
            has_matching = augmenting_oren(w) is not None
            assert balanced == has_matching == (rep.verdict == "bounded")

    def test_one_class_of_two_lefts_and_two_rights(self):
        xi = FIELDS[0]
        ends = [(k * xi.xi_real).fractional_part()[0] for k in (2, -1, 1, 3)]  # the class of 0
        w = Window([tuple(ends[:2]), tuple(ends[2:])])
        rep = bd_verdict(w)
        assert (rep.verdict, rep.n, rep.classes.left_right_balance) == ("bounded", 1, ((2, 2),))
        match = rep.witness
        assert sorted(match.sigma) == [0, 1]
        for (lo, _), j, k, m in zip(w.intervals, match.sigma, match.ks, match.ms):
            assert w.intervals[j][1] - lo == k * xi.xi_real + m  # b_sigma(l) - a_l = k*xi + m

    def test_translation_invariance(self):
        rng = random.Random(25)
        for _ in range(25):
            w = random_window(rng, max_intervals=2)
            before = bd_verdict(w)
            t = SQRT2.real(Fraction(rng.randint(0, 30), 31), rng.choice([0, 1]))
            shifted = w.shift_mod1(t)
            after = bd_verdict(shifted)
            assert before.verdict == after.verdict
            # wrap-splitting may add an interval, but never changes the verdict

    def test_constructed_ranks_n_1_to_4(self):
        xi = SQRT2

        # n = 1: single interval with congruent endpoints
        w1 = Window.single(xi.zero, xi.real(-1, 1))
        r1 = bd_verdict(w1)
        assert (r1.n, r1.h1_rank, r1.h1_ud_dim, r1.verdict) == (1, 2, 0, "bounded")

        # n = 2: single interval, incongruent endpoints
        w2 = parse_window("[1/5, 1/2)", SQRT2)
        r2 = bd_verdict(w2)
        assert (r2.n, r2.h1_rank, r2.h1_ud_dim, r2.verdict) == (2, 3, 1, "unbounded")

        # n = 3: two intervals, one congruent pair, one incongruent pair
        w3 = parse_window("[0, -1+1*xi) [1/2, 3/5)", SQRT2)
        r3 = bd_verdict(w3)
        assert (r3.n, r3.h1_rank, r3.h1_ud_dim, r3.verdict) == (3, 4, 2, "unbounded")

        # n = 4: two intervals, all endpoints in distinct classes
        w4 = parse_window("[1/7, 1/3) [1/2, 4/5)", SQRT2)
        r4 = bd_verdict(w4)
        assert (r4.n, r4.h1_rank, r4.h1_ud_dim, r4.verdict) == (4, 5, 3, "unbounded")


@st.composite
def class_windows(draw):
    """1-5 intervals with endpoints frac(c + k*xi) for c among at most three
    residues (one with a xi part), so that a class often holds two or more left
    endpoints; sometimes with the endpoint 0 or 1."""
    xi = draw(st.sampled_from(FIELDS + [NEGATIVE_XI]))
    n_iv = draw(st.integers(1, 5))
    residues = st.sampled_from([(0, 0), (5, 0), (17, 0), (5, 1)])  # (c, h): c/31 + (h/2)*xi
    bases = draw(st.lists(residues, min_size=1, max_size=3, unique=True))
    end = st.tuples(st.sampled_from(bases), st.integers(-9, 9))
    ends = draw(st.lists(end, min_size=2 * n_iv, max_size=2 * n_iv))
    cuts = {xi.real(Fraction(c, 31), Fraction(h, 2) + k).fractional_part()[0] for (c, h), k in ends}
    cuts |= {xi.real(e) for e in draw(st.lists(st.sampled_from([0, 1]), max_size=2))}
    cuts = sorted(cuts)[: min(len(cuts) // 2 * 2, 10)]
    assume(cuts and cuts != [xi.zero, xi.one])  # [0, 1) is no window
    return Window([(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(class_windows())
def test_classes_and_matching_match_references(w):
    """The one-pass classes, their balance, the Oren matching and the acceptance
    shifts equal the representative scan, the augmenting-path search and the
    pairwise grid of tests/oracles.py; the matching is one the permutation search
    finds."""
    classes, balance = scan_classes(w)
    rep = bd_verdict(w)
    assert (rep.classes.classes, rep.classes.left_right_balance) == (classes, balance)
    assert boundary_classes(w) == rep.classes
    want = augmenting_oren(w)
    got = oren_condition(w)
    assert rep.witness == got
    assert (None if got is None else (got.sigma, got.ks, got.ms)) == want
    assert (rep.verdict == "bounded") == (want is not None)
    assert (want is not None) == all(left == right for left, right in balance)
    all_matchings = exhaustive_oren(w)
    assert want in all_matchings if want is not None else not all_matchings
    if len(w) == 1:
        kesten = kesten_condition(w)
        assert (None if kesten is None else ((0,), (kesten.k,), (kesten.m,))) == want
    assert _class_shifts(w) == grid_class_shifts(w)
    event(f"most lefts in a class: {max(left for left, _ in balance)}")
    event("bounded" if want is not None else "unbounded")
