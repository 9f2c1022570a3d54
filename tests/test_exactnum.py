import copy
import math
import pickle
import random
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isqrt, prod, ulp

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutproject import exactnum
from cutproject.exactnum import (
    XiMismatchError,
    XiReal,
    XiSpec,
    decimal_text,
    decompose_Z_plus_Zxi,
    floor_key,
    lattice_split,
    linear_key,
    pair_sign,
    parse_xi,
    parse_xireal,
    rank_pair,
    sort_pairs,
)
from oracles import fraction_floor, mp_floor_pair, mp_pair_sign, mp_sign, mp_value

SQRT2 = XiSpec.sqrt(2)
SQRT3 = XiSpec.sqrt(3)


EXACT_FIELDS = [SQRT2, SQRT3, XiSpec(Fraction(1, 2), Fraction(1, 2), 5), XiSpec(-2, 1, 2)]
PELL_106 = (1, 0)  # (a, b) with a + b*sqrt(2) = (sqrt(2) - 1)^106
for _ in range(106):
    PELL_106 = (2 * PELL_106[1] - PELL_106[0], PELL_106[0] - PELL_106[1])


def rnd_fraction(rng, num=10**6, den=10**4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rnd_value(rng, xi=SQRT2):
    return xi.real(rnd_fraction(rng), rnd_fraction(rng))


class TestXiSpec:
    def test_normalizes_square_factors(self):
        assert XiSpec.sqrt(8) == XiSpec(0, 2, 2)
        assert XiSpec.sqrt(12) == XiSpec(0, 2, 3)
        assert XiSpec(1, Fraction(1, 2), 18) == XiSpec(1, Fraction(3, 2), 2)

    def test_rejects_rational_xi(self):
        with pytest.raises(ValueError):
            XiSpec.sqrt(4)
        with pytest.raises(ValueError):
            XiSpec(1, 0, 2)
        with pytest.raises(ValueError):
            XiSpec(0, 1, 0)

    @pytest.mark.parametrize(
        "args, name", [((0.1, 1, 5), "p"), ((0, "1/2", 5), "q"), ((0, 1, 5.0), "radicand")]
    )
    def test_inexact_arguments_rejected(self, args, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            XiSpec(*args)

    def test_real_rejects_inexact_coefficients(self):
        # Fraction(0.1) would be 3602879701896397/36028797018963968
        for args, name in (((0.1,), "a"), ((1, 0.5), "b"), (("1/3",), "a")):
            with pytest.raises(TypeError, match=f"^{name} must be an int or a Fraction"):
                SQRT2.real(*args)

    def test_huge_radicand_fails_fast(self):
        prime = 18446744073709551557  # the largest prime below 2**64
        for make in (XiSpec.sqrt, lambda d: parse_xi(f"sqrt({d})")):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="limit 1000000000000"):
                make(prime)
            assert time.perf_counter() - t0 < 1.0

    def test_parse_shorthand(self):
        assert parse_xi("sqrt(2)") == SQRT2
        assert parse_xi(" sqrt( 5 ) ") == XiSpec.sqrt(5)

    def test_parse_general(self):
        golden = parse_xi("1/2+1/2*sqrt(5)")
        assert golden == XiSpec(Fraction(1, 2), Fraction(1, 2), 5)
        assert parse_xi("(1+2*sqrt(3))") == XiSpec(1, 2, 3)
        assert parse_xi("-1/3+sqrt(7)") == XiSpec(Fraction(-1, 3), 1, 7)
        # square factor inside the parse normalizes too: sqrt(8) = 2*sqrt(2)
        assert parse_xi("sqrt(8)") == XiSpec(0, 2, 2) == XiSpec.sqrt(8)

    def test_parse_rejects_garbage(self):
        for bad in ("", "2", "1/2", "sqrt(2)+sqrt(3)", "xi", "sqrt(2)sqrt(2)"):
            with pytest.raises(ValueError):
                parse_xi(bad)

    def test_str_roundtrip(self):
        for spec in (SQRT2, XiSpec(Fraction(1, 2), Fraction(1, 2), 5), XiSpec(-1, 3, 7)):
            assert parse_xi(str(spec)) == spec


class TestArithmetic:
    def test_add_examples(self):
        one = SQRT2.real(1, 0)
        xi = SQRT2.real(0, 1)
        assert one + xi == SQRT2.real(1, 1)
        assert xi + SQRT2.zero == xi
        assert SQRT2.real(-1, 1) + SQRT2.real(1, -1) == SQRT2.zero

    def test_mismatched_fields(self):
        with pytest.raises(XiMismatchError):
            SQRT2.one + SQRT3.one
        with pytest.raises(XiMismatchError):
            SQRT2.one < SQRT3.one

    def test_field_identities_randomized(self):
        rng = random.Random(42)
        for _ in range(300):
            u, v, w = (rnd_value(rng) for _ in range(3))
            assert (u + v) * w == u * w + v * w
            assert u * v == v * u
            assert u - u == SQRT2.zero
            if v:
                assert (u * v) / v == u
                assert v * v.inverse() == SQRT2.one

    def test_mixed_scalar_ops(self):
        u = SQRT2.real(Fraction(1, 3), 2)
        assert u + 1 == SQRT2.real(Fraction(4, 3), 2)
        assert 2 * u == SQRT2.real(Fraction(2, 3), 4)
        assert u - Fraction(1, 3) == SQRT2.real(0, 2)
        assert u / 2 == SQRT2.real(Fraction(1, 6), 1)
        assert 1 / SQRT2.xi_real == SQRT2.xi_real / 2

    def test_xi_square_identity(self):
        # (p + q sqrt d)^2 = 2p*xi + q^2 d - p^2, exercised on a non-pure root
        spec = XiSpec(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio
        phi = spec.xi_real
        assert phi * phi == phi + 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            SQRT2.one / SQRT2.zero
        with pytest.raises(ZeroDivisionError):
            SQRT2.one / 0


class TestHashEq:
    def test_rational_values_hash_like_their_rationals(self):
        golden = XiSpec(Fraction(1, 2), Fraction(1, 2), 5)
        assert golden.real(3) in {3}
        assert golden.real(Fraction(1, 2)) in {Fraction(1, 2)}
        assert hash(golden.real(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert {3: "x"}[golden.real(3)] == "x"

    def test_values_of_two_fields_are_distinct_keys(self):
        assert SQRT2.zero != SQRT3.zero
        assert len({SQRT2.zero, SQRT3.zero, SQRT2.xi_real, SQRT3.xi_real}) == 4


class TestSign:
    def test_examples(self):
        assert SQRT2.zero.sign() == 0
        assert SQRT2.real(-1, 1).sign() == 1  # sqrt2 > 1
        # 3 - 2*sqrt(2) = 0.1715... > 0 (decimal oracle cross-check below)
        assert SQRT2.real(3, -2).sign() == 1
        assert mp_sign(SQRT2.real(3, -2)) == 1

    def test_zero_iff_both_components_zero(self):
        rng = random.Random(7)
        for _ in range(200):
            u = rnd_value(rng)
            if u.a == 0 and u.b == 0:
                assert u.sign() == 0
            else:
                assert u.sign() != 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_decimal_oracle_10k(self, seed):
        rng = random.Random(seed)
        specs = [SQRT2, SQRT3, XiSpec(Fraction(1, 2), Fraction(1, 2), 5)]
        for _ in range(5000):
            u = rnd_value(rng, rng.choice(specs))
            assert u.sign() == mp_sign(u)

    def test_ordering(self):
        a = SQRT2.real(1, 0)
        b = SQRT2.real(0, 1)
        assert a < b < SQRT2.real(2, 0)
        assert b <= b and not (b < b)
        assert max(a, b) == b
        assert SQRT2.real(Fraction(1, 2)) < Fraction(2, 3)
        assert SQRT2.xi_real > 1


# squarefree radicands: products of distinct small primes, and squarefree
# values just below RADICAND_LIMIT = 10**12 (999999999989 is prime)
NEAR_LIMIT = [999999999989, 999999999994, 999999999995, 999999999997, 999999999998]
radicands = st.one_of(
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
            min_size=1, max_size=7).map(prod),
    st.sampled_from(NEAR_LIMIT),
)
ints = st.one_of(st.integers(-(2**300), 2**300), st.integers(-100, 100))
rationals = st.builds(Fraction, ints, st.integers(1, 2**300))


@st.composite
def sign_args(draw):
    """(a, b, d): ints, Fractions, a = b = 0, or a within 2 of -b*sqrt(d)."""
    d = draw(radicands)
    kind = draw(st.sampled_from(["int", "fraction", "near", "zero"]))
    if kind == "zero":
        return 0, 0, d
    if kind == "fraction":
        return draw(rationals), draw(rationals), d
    b = draw(ints)
    if kind == "int":
        return draw(ints), b, d
    t = isqrt(b * b * d)  # a^2 and b^2*d then differ by O(|b|*sqrt(d))
    return (-t if b > 0 else t) + draw(st.integers(-2, 2)), b, d


@st.composite
def floor_args(draw):
    """(a, b, m, d), half of them with (a + b*sqrt(d)) / m within 2/m of an integer."""
    d = draw(radicands)
    b = draw(ints)
    m = draw(st.one_of(st.integers(1, 2**64), st.sampled_from([1, 2, 2**64])))
    if draw(st.booleans()):
        return draw(ints), b, m, d
    t = isqrt(b * b * d)
    a = draw(ints) * m + (-t if b >= 0 else t) + draw(st.integers(-2, 2))
    return a, b, m, d


class TestPairPrimitives:
    @settings(max_examples=500, deadline=None)
    @given(sign_args())
    @example((0, 0, 2))
    @example((0, 0, NEAR_LIMIT[0]))
    @example((Fraction(0), Fraction(0), 3))
    def test_pair_sign_against_decimal_oracle(self, args):
        a, b, d = args
        assert pair_sign(a, b, d) == mp_pair_sign(a, b, d)
        assert pair_sign(-a, -b, d) == -mp_pair_sign(a, b, d)

    @settings(max_examples=500, deadline=None)
    @given(floor_args())
    @example((0, 0, 1, 2))
    @example((0, 0, 2**64, NEAR_LIMIT[-1]))
    def test_floor_pair_against_decimal_oracle(self, args):
        a, b, m, d = args
        assert floor_key(a, b, d) // m == mp_floor_pair(a, b, m, d)


@st.composite
def keyed_pairs(draw):
    """(d, pts, x): pts drawn with repeats from a small pool, so some are exactly equal,
    and x from the pool or new.  Half the pairs are built on a few floor keys K, a = K - t
    or K + t + 1 with t = isqrt(b^2*d), so distinct values share a key."""
    d = draw(radicands)

    def pair():
        b = draw(ints)
        if draw(st.booleans()):
            return draw(ints), b
        k, t = draw(st.integers(-2, 2)), isqrt(b * b * d)
        return (k - t if b >= 0 else k + t + 1), b

    pool = [pair() for _ in range(draw(st.integers(1, 6)))]
    pts = draw(st.lists(st.sampled_from(pool), max_size=24))
    return d, pts, draw(st.sampled_from(pool)) if draw(st.booleans()) else pair()


def by_value(d):
    return cmp_to_key(lambda u, v: pair_sign(u[0] - v[0], u[1] - v[1], d))


class TestFloorKeys:
    @settings(max_examples=300, deadline=None)
    @given(floor_args())
    @example((0, 0, 1, 2))
    def test_floor_key_against_decimal_oracle(self, args):
        a, b, _, d = args
        assert floor_key(a, b, d) == mp_floor_pair(a, b, 1, d)

    @settings(max_examples=300, deadline=None)
    @given(keyed_pairs())
    @example((2, [(0, 1), (1, 0), (0, 1), (-1, 1)], (1, 0)))  # keys 1, 1, 1, 0
    def test_sort_pairs_is_the_stable_exact_sort(self, case):
        d, pts, _ = case
        items = [(floor_key(a, b, d), (a, b), i) for i, (a, b) in enumerate(pts)]
        key = by_value(d)
        assert sort_pairs(items, d) == sorted(items, key=lambda item: key(item[1]))

    @settings(max_examples=300, deadline=None)
    @given(keyed_pairs())
    @example((2, [(0, 1), (1, 0), (0, 1), (-1, 1)], (1, 0)))
    @example((2, [(0, 1), (1, 0), (0, 1)], (0, 1)))
    def test_rank_pair_is_bisect_right(self, case):
        d, pts, x = case
        ordered = [p for _, p in sort_pairs([(floor_key(*p, d), p) for p in pts], d)]
        keys = [floor_key(*p, d) for p in ordered]
        key = by_value(d)
        assert rank_pair(keys, ordered, floor_key(*x, d), x, d) == bisect_right(
            ordered, key(x), key=key
        )


@st.composite
def linear_key_args(draw):
    """(a, b, d, e) with |b| <= e: a = b = 0, any a, or a within 2 of -b*sqrt(d), where a
    value with that b comes nearest 0 (within about 1/(2|b|*sqrt(d)))."""
    d = draw(radicands)
    e = draw(st.one_of(st.integers(1, 100), st.integers(1, 2**80)))
    b = draw(st.integers(-e, e))
    kind = draw(st.sampled_from(["zero", "any", "near"]))
    if kind == "zero":
        return 0, 0, d, e
    if kind == "any":
        return draw(ints), b, d, e
    t = isqrt(b * b * d)
    return (-t if b > 0 else t) + draw(st.integers(-2, 2)), b, d, e


class TestLinearKey:
    @settings(max_examples=500, deadline=None)
    @given(linear_key_args())
    @example((0, 0, 2, 1))
    @example((1, 0, 2, 1))
    @example((-1, 1, 2, 1))
    @example((-(10**6), 1, NEAR_LIMIT[0], 1))
    def test_band_decision_agrees_with_pair_sign(self, args):
        """A key of at most -e is a value below 0, one of at least e above 0, and only
        (0, 0) has a key inside (-e, e)."""
        a, b, d, e = args
        one, r = linear_key(d, e)
        assert one & (one - 1) == 0 and one >= 2 * e * (2 * e * (isqrt(d) + 1) + 1)
        assert r == isqrt(one * one * d)  # floor(2^s*sqrt(d))
        key = a * one + b * r
        sign = pair_sign(a, b, d)
        if key <= -e:
            assert sign < 0
        elif key >= e:
            assert sign > 0
        else:
            assert (a, b) == (0, 0) and sign == 0


class TestFloorAndFrac:
    def test_examples(self):
        frac, fl = SQRT2.real(0, 3).fractional_part()
        assert (frac, fl) == (SQRT2.real(-4, 3), 4)  # 3*sqrt2 = 4.2426...
        frac, fl = SQRT2.real(Fraction(1, 2)).fractional_part()
        assert (frac, fl) == (SQRT2.real(Fraction(1, 2)), 0)
        frac, fl = SQRT2.real(Fraction(-1, 3)).fractional_part()
        assert (frac, fl) == (SQRT2.real(Fraction(2, 3)), -1)

    def test_floor_pure_rational_against_fraction(self):
        rng = random.Random(3)
        for _ in range(500):
            x = rnd_fraction(rng)
            assert SQRT2.real(x).floor() == fraction_floor(x)

    def test_floor_against_decimal_oracle(self):
        rng = random.Random(11)
        for _ in range(2000):
            u = rnd_value(rng)
            if u.b == 0:
                continue  # rational case covered above; mp floor could round
            v = mp_value(u)
            assert u.floor() == int(mpmath.floor(v))

    def test_frac_invariants(self):
        rng = random.Random(5)
        for _ in range(500):
            u = rnd_value(rng)
            frac, fl = u.fractional_part()
            assert frac.sign() >= 0
            assert (frac - 1).sign() < 0
            assert frac + fl == u


class TestLatticeMembership:
    def test_examples(self):
        assert decompose_Z_plus_Zxi(SQRT2.real(-1, 1)) == (1, -1)
        assert decompose_Z_plus_Zxi(SQRT2.real(Fraction(1, 2))) is None
        assert decompose_Z_plus_Zxi(SQRT2.real(Fraction(17, 3), -4)) is None

    def test_negation_symmetry(self):
        rng = random.Random(9)
        candidates = [
            SQRT2.real(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(100)
        ] + [rnd_value(rng) for _ in range(100)]
        for u in candidates:
            km = decompose_Z_plus_Zxi(u)
            kmn = decompose_Z_plus_Zxi(-u)
            assert (km is None) == (kmn is None)
            if km is not None:
                assert kmn == (-km[0], -km[1])

    def test_decompose(self):
        assert decompose_Z_plus_Zxi(SQRT2.real(5, -3)) == (-3, 5)
        assert decompose_Z_plus_Zxi(SQRT2.real(Fraction(1, 2), 1)) is None


class TestRendering:
    def test_str_forms(self):
        assert str(SQRT2.real(-1, 1)) == "-1+1*xi"
        assert str(SQRT2.real(Fraction(17, 3), -4)) == "17/3-4*xi"
        assert str(SQRT2.real(Fraction(1, 2))) == "1/2"
        assert str(SQRT2.real(0, 3)) == "3*xi"
        assert str(SQRT2.zero) == "0"

    def test_parse_roundtrip(self):
        rng = random.Random(13)
        for _ in range(300):
            u = rnd_value(rng)
            assert parse_xireal(str(u), SQRT2) == u
        for text in ("-1+1*xi", "17/3-4*xi", "xi", "-xi", "3*xi-1/2"):
            u = parse_xireal(text, SQRT2)
            assert parse_xireal(str(u), SQRT2) == u

    def test_parse_rejects_garbage(self):
        for bad in ("", "1++2", "sqrt(2)", "1 2", "xi*xi"):
            with pytest.raises(ValueError):
                parse_xireal(bad, SQRT2)

    @settings(max_examples=400, deadline=None)
    @given(
        st.builds(XiReal, rationals, st.one_of(st.just(0), rationals), st.sampled_from(EXACT_FIELDS)),
        st.sampled_from([0, 1, 5, 30]),
    )
    @example(SQRT2.real(Fraction(-390909, 10000)), 30)
    @example(SQRT2.real(Fraction(-1, 2)), 1)
    @example(SQRT2.real(Fraction(-3, 10)), 0)  # "-0"
    @example(SQRT2.zero, 0)
    @example(SQRT2.real(*PELL_106), 5)  # (sqrt(2) - 1)^106 < 10^-40
    @example(-SQRT2.real(*PELL_106), 5)
    def test_decimal_is_exact_truncation(self, u, digits):
        s = u.decimal(digits)
        r = Fraction(s)
        # truncation toward zero: |u| - |r| in [0, 10^-digits)
        diff = abs(u) - abs(r)
        assert diff.sign() >= 0
        assert (diff - Fraction(1, 10**digits)).sign() < 0
        assert s.startswith("-") == (u.sign() < 0)
        assert ("." in s) == (digits > 0) and len(s.partition(".")[2]) == digits

    def test_decimal_rejects_negative_digits(self):
        with pytest.raises(ValueError, match="digits must be >= 0"):
            SQRT2.xi_real.decimal(-1)

    def test_decimal_rejects_bad_digits_before_any_arithmetic(self):
        with pytest.raises(TypeError, match="digits must be an int"):
            SQRT2.xi_real.decimal(2.5)
        limit = sys.get_int_max_str_digits()
        if limit:  # else CPython spells ints of any length
            with pytest.raises(ValueError, match="digits must be below"):
                SQRT2.xi_real.decimal(limit)
            assert len((SQRT2.xi_real - 1).decimal(limit - 1)) == limit + 1  # "0." and the digits

    # a triple of 200 bits a part, value -0.5154...
    BIG_TRIPLE = XiReal.from_triple(3**126, -(5**86), 7**71, SQRT2)

    @pytest.mark.parametrize("u, digits, text", [
        (SQRT2.real(Fraction(-1, 2)), 30, "-0." + "5" + "0" * 29),  # B = 0, D divides A*10^30
        (SQRT2.real(Fraction(-1, 2)), 0, "-0"),
        (SQRT2.real(Fraction(-1, 3)), 30, "-0." + "3" * 30),
        (SQRT2.real(1, -1), 30, "-0.414213562373095048801688724209"),  # 1 - sqrt(2)
        (SQRT2.real(1, -1), 0, "-0"),
        (SQRT2.zero, 30, "0." + "0" * 30),
        (SQRT2.zero, 0, "0"),
        (BIG_TRIPLE, 30, "-0.515475046629592641640606360339"),
        (BIG_TRIPLE, 0, "-0"),
    ])
    def test_decimal_text_spells_as_decimal(self, u, digits, text):
        """decimal_text from the triple, 10**digits made by the caller, is XiReal.decimal:
        the exact branch of a rational whose denominator divides A*10^digits, truncation
        of -1/3 and of irrationals in (-1, 0), zero, 200-bit parts and digits = 0."""
        A, B, D = u.triple
        assert decimal_text(A, B, D, u.xi.d, digits, 10**digits) == u.decimal(digits) == text

    def test_decimal_checks_digits_before_it_spells(self, monkeypatch):
        """Every refusal of digits fires in XiReal.decimal, before decimal_text runs."""
        def spell(*args):
            raise AssertionError("decimal_text ran")

        monkeypatch.setattr(exactnum, "decimal_text", spell)
        with pytest.raises(TypeError, match="digits must be an int"):
            SQRT2.xi_real.decimal(2.5)
        with pytest.raises(ValueError, match="digits must be >= 0"):
            SQRT2.xi_real.decimal(-1)
        limit = sys.get_int_max_str_digits()
        if limit:
            with pytest.raises(ValueError, match="digits must be below"):
                SQRT2.xi_real.decimal(limit)
        with pytest.raises(AssertionError, match="decimal_text ran"):
            SQRT2.xi_real.decimal(3)

    def test_decimal_known_value(self):
        # sqrt(2) = 1.41421356237309504880168872420969807856...
        assert SQRT2.xi_real.decimal(30) == "1.414213562373095048801688724209"


class TestFloat:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([SQRT2, SQRT3, XiSpec(Fraction(1, 2), Fraction(1, 2), 5), XiSpec(-2, 1, 2)]),
        st.integers(-(10**100), 10**100),
        st.integers(1, 10**6),
        st.integers(-2, 1),
    )
    @example(SQRT2, 10**100, 1, 0)
    def test_within_one_ulp_near_cancellation(self, xi, b, den, off):
        # u = (off + frac(b*den*xi)) / den: components up to 10^100, |u| < 2
        u = xi.real(Fraction(off - (b * den * xi.xi_real).floor(), den), b)
        got = float(u)
        with mpmath.workdps(500):
            assert abs(mpmath.mpf(got) - mp_value(u, 500)) <= ulp(got)

    def test_golden_discrepancy_at_1e20(self):
        golden = XiSpec(Fraction(1, 2), Fraction(1, 2), 5)
        u = golden.real(161803398874989484821, -(10**20))  # 0.5413165634...
        assert abs(float(u) - 0.5413165634361882) <= ulp(0.5413165634361882)

    def test_exact_values(self):
        assert float(SQRT2.zero) == 0.0
        assert float(SQRT2.real(Fraction(1, 3))) == 1 / 3
        assert float(SQRT2.real(0, -(10**300))) == -1.4142135623730951e300

    def test_xispec_near_cancellation(self):
        xi = XiSpec(-1414213562373095, 10**15, 2)  # 0.0488016887242096...
        with mpmath.workdps(100):
            want = mp_value(xi.xi_real, 100)
            assert abs(mpmath.mpf(float(xi)) - want) <= ulp(float(xi))


# the five test fields of tests/test_threegap.py, an xi below 0, and one with q < 0
FIELDS = [
    XiSpec(Fraction(1, 2), Fraction(1, 2), 5),
    SQRT2,
    SQRT3,
    XiSpec(Fraction(-1, 3), Fraction(2, 3), 7),
    XiSpec(Fraction(0), Fraction(1), 19),
    XiSpec(-2, 1, 2),
    XiSpec(2, -1, 2),  # 2 - sqrt(2): str reads a and b off a triple with Q < 0
]
components = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
)
same_field = st.sampled_from(FIELDS).flatmap(
    lambda xi: st.tuples(st.just(xi), components, components, components, components)
)


def normalised(x):
    A, B, D = x.triple
    return D > 0 and gcd(A, B, D) == 1


def rendering(a, b):
    """``str`` of a + b*xi, spelled out from the two Fractions."""
    if not b:
        return str(a)
    head = str(a) if a else ""
    return f"{head}{'-' if b < 0 else ('+' if head else '')}{abs(b)}*xi"


class TestTripleRepresentation:
    """XiReal is the normalised integer triple (A, B, D); its a and b are the
    Fractions it was built from, and every route to one value gives one triple."""

    @settings(max_examples=300, deadline=None)
    @given(same_field)
    def test_coefficients_round_trip(self, args):
        xi, a, b, _, _ = args
        x = XiReal(a, b, xi)
        assert (x.a, x.b) == (a, b)
        assert normalised(x)
        assert XiReal(x.a, x.b, xi) == x
        assert XiReal.from_triple(*x.triple, xi) == x
        assert str(x) == rendering(a, b)

    @settings(max_examples=300, deadline=None)
    @given(same_field)
    def test_field_operations_invert(self, args):
        xi, a, b, c, e = args
        x, y = xi.real(a, b), xi.real(c, e)
        s = x + y
        assert s == xi.real(a + c, b + e) and normalised(s)
        assert (x + y) - y == x
        assert normalised(x - y) and normalised(x * y)
        if y:
            assert x * y / y == x
        if x:
            inv = x.inverse()
            assert normalised(inv)
            assert x * inv == 1

    @settings(max_examples=300, deadline=None)
    @given(same_field)
    def test_equal_values_hash_equal(self, args):
        xi, a, b, c, e = args
        x, y = xi.real(a, b), xi.real(c, e)
        routes = [x, (x + y) - y, y + x - y, XiReal(x.a, x.b, xi), -(-x)]
        if y:
            routes.append(x * y / y)
        for r in routes:
            assert r == x and r.triple == x.triple and hash(r) == hash(x)

    @settings(max_examples=300, deadline=None)
    @given(same_field)
    def test_rational_values_hash_like_fractions(self, args):
        xi, a, b, _, _ = args
        for r in (xi.real(a), xi.real(a, b) - b * xi.xi_real, xi.real(a.numerator)):
            want = r.a
            assert not r.b and r == want and hash(r) == hash(want)
        assert hash(xi.real(a.numerator)) == hash(a.numerator)

    @settings(max_examples=100, deadline=None)
    @given(same_field)
    def test_pickle_and_deepcopy(self, args):
        xi, a, b, _, _ = args
        x = xi.real(a, b)
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            for v in (x, xi):
                back = pickle.loads(pickle.dumps(v, proto))
                assert back == v and hash(back) == hash(v)
        back = copy.deepcopy((x, xi))
        assert back == (x, xi) and back[0].triple == x.triple and back[1].triple == xi.triple
        assert back[0] + x == 2 * x  # the copied field is the same field


UNITS = {2: (1, 1), 3: (2, 1), 5: (2, 1), 7: (8, 3), 19: (170, 39)}  # t + s*sqrt(d), norm +-1


@st.composite
def near_integers(draw):
    """An a + b*xi with components up to 2^200, or n + (t - s*sqrt(d))^k: the
    power of a unit's conjugate puts it within 2^-60 of the integer n."""
    xi = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        return xi.real(draw(components), draw(components))
    t, s = UNITS[xi.d]
    bits = draw(st.integers(62, 199))  # |A - B*sqrt(d)| < 1/|B| <= 2^-62
    A, B = 1, 0
    while abs(B) < 2**bits:
        A, B = A * t - B * s * xi.d, B * t - A * s
    n = draw(st.integers(-(2**200), 2**200))
    return XiReal.from_triple(n + A, B, 1, xi) * draw(st.sampled_from([1, -1]))


class TestMathFloor:
    def test_near_two_to_the_sixty(self):
        x = XiSpec.sqrt(5).real(2**60 + 2, -1)  # 2^60 + 2 - sqrt(5): a float rounds it to 2^60
        assert (math.floor(x), math.ceil(x)) == (2**60 - 1, 2**60)

    @settings(max_examples=300, deadline=None)
    @given(near_integers())
    @example(XiSpec.sqrt(5).real(2**60 + 2, -1))
    def test_math_floor_and_ceil_are_exact(self, x):
        assert math.floor(x) == x.floor()
        assert math.ceil(x) == -(-x).floor()


@settings(max_examples=300, deadline=None)
@given(same_field, st.integers(-50, 50), st.integers(-50, 50))
def test_lattice_split(case, k0, m0):
    """u = residue + k*xi + m with both residue coordinates in [0, 1), and two
    values have equal residues iff their differences of Fraction coordinates
    are integers."""
    xi, a, b, c, d = case
    u, v = xi.real(a, b), xi.real(c, d)
    (ra, rb, den), k, m = lattice_split(u)
    assert 0 <= ra < den and 0 <= rb < den and gcd(ra, rb, den) == 1
    assert (Fraction(ra, den), Fraction(rb, den), m, k) == (
        a - fraction_floor(a), b - fraction_floor(b), fraction_floor(a), fraction_floor(b)
    )
    assert xi.real(Fraction(ra, den), Fraction(rb, den)) + k * xi.xi_real + m == u
    congruent = (a - c).denominator == 1 and (b - d).denominator == 1
    assert (lattice_split(v)[0] == (ra, rb, den)) == congruent
    assert lattice_split(u + k0 * xi.xi_real + m0) == ((ra, rb, den), k + k0, m + m0)
    assert decompose_Z_plus_Zxi(u) == ((k, m) if ra == rb == 0 else None)
