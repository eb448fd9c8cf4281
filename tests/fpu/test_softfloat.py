"""Tests for the arbitrary-precision BigFloat (MPFR stand-in).

The decisive property: at precision 53, BigFloat's round-to-nearest-even
arithmetic must agree bit-for-bit with binary64 for all operations on
normal-range operands (binary64 differs only in exponent range).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.altmath.mpfr import MPFRSystem
from repro.fpu import bits as B
from repro.fpu.ieee import ieee_op
from repro.fpu.softfloat import BigFloat, BigFloatContext

from .builders import make_qnan

CTX53 = BigFloatContext(53)
CTX200 = BigFloatContext(200)

f2b = B.float_to_bits

normal_doubles = st.floats(
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
    min_value=-1e120,
    max_value=1e120,
    width=64,
).filter(lambda x: x == 0.0 or abs(x) > 1e-120)


def bf(x: float) -> BigFloat:
    return BigFloat.from_float(x, CTX53)


class TestConstruction:
    def test_from_int(self):
        assert BigFloat.from_int(42, CTX53).to_float() == 42.0

    def test_from_int_zero(self):
        z = BigFloat.from_int(0, CTX53)
        assert z.is_zero() and not z.is_negative()

    def test_from_negative_int(self):
        assert BigFloat.from_int(-7, CTX53).to_float() == -7.0

    def test_from_fraction_exact(self):
        x = BigFloat.from_fraction(Fraction(3, 4), CTX53)
        assert x.to_fraction() == Fraction(3, 4)

    def test_from_fraction_rounds(self):
        x = BigFloat.from_fraction(Fraction(1, 3), CTX53)
        assert x.to_float() == 1.0 / 3.0

    def test_precision_preserved_in_value(self):
        # 1/3 at 200 bits is closer to 1/3 than 1/3 at 53 bits.
        lo = BigFloat.from_fraction(Fraction(1, 3), CTX53).to_fraction()
        hi = BigFloat.from_fraction(Fraction(1, 3), CTX200).to_fraction()
        third = Fraction(1, 3)
        assert abs(hi - third) < abs(lo - third)

    def test_specials_round_trip_bits(self):
        for pattern in [B.POS_INF_BITS, B.NEG_INF_BITS, B.POS_ZERO_BITS, B.NEG_ZERO_BITS]:
            assert BigFloat.from_float64_bits(pattern, CTX53).to_float64_bits() == pattern

    def test_nan_round_trip(self):
        x = BigFloat.from_float64_bits(make_qnan(99), CTX53)
        assert x.is_nan()
        assert x.to_float64_bits() == B.CANONICAL_QNAN

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError):
            BigFloatContext(1)


class TestArithmeticMatchesBinary64:
    @given(normal_doubles, normal_doubles)
    @settings(max_examples=300, deadline=None)
    def test_add(self, a, b):
        r = bf(a).add(bf(b), CTX53)
        assert r.to_float64_bits() == f2b(a + b)

    @given(normal_doubles, normal_doubles)
    @settings(max_examples=300, deadline=None)
    def test_sub(self, a, b):
        r = bf(a).sub(bf(b), CTX53)
        assert r.to_float64_bits() == f2b(a - b)

    @given(normal_doubles, normal_doubles)
    @settings(max_examples=300, deadline=None)
    def test_mul(self, a, b):
        r = bf(a).mul(bf(b), CTX53)
        assert r.to_float64_bits() == f2b(a * b)

    @given(normal_doubles, normal_doubles.filter(lambda x: x != 0.0))
    @settings(max_examples=300, deadline=None)
    def test_div(self, a, b):
        r = bf(a).div(bf(b), CTX53)
        assert r.to_float64_bits() == f2b(a / b)

    @given(normal_doubles.filter(lambda x: x >= 0.0))
    @settings(max_examples=300, deadline=None)
    def test_sqrt(self, a):
        r = bf(a).sqrt(CTX53)
        assert r.to_float64_bits() == f2b(math.sqrt(a))

    def test_div_ties(self):
        # Exercise a quotient landing exactly on a rounding boundary.
        a = BigFloat.from_int((1 << 53) + 2, CTX53)  # even mantissa
        b = BigFloat.from_int(2, CTX53)
        assert a.div(b, CTX53).to_fraction() == Fraction((1 << 52) + 1)


class TestSpecialValueArithmetic:
    def test_inf_plus_one(self):
        r = BigFloat.inf(0, CTX53).add(bf(1.0))
        assert r.is_inf() and not r.is_negative()

    def test_inf_minus_inf_nan(self):
        assert BigFloat.inf(0, CTX53).add(BigFloat.inf(1, CTX53)).is_nan()

    def test_zero_times_inf_nan(self):
        assert BigFloat.zero(0, CTX53).mul(BigFloat.inf(0, CTX53)).is_nan()

    def test_div_by_zero_inf(self):
        r = bf(1.0).div(BigFloat.zero(0, CTX53))
        assert r.is_inf()

    def test_zero_div_zero_nan(self):
        assert BigFloat.zero(0, CTX53).div(BigFloat.zero(0, CTX53)).is_nan()

    def test_neg_zero_sum(self):
        r = BigFloat.zero(1, CTX53).add(BigFloat.zero(1, CTX53))
        assert r.is_zero() and r.is_negative()

    def test_mixed_zero_sum_positive(self):
        r = BigFloat.zero(1, CTX53).add(BigFloat.zero(0, CTX53))
        assert r.is_zero() and not r.is_negative()

    def test_sqrt_negative_nan(self):
        assert bf(-4.0).sqrt().is_nan()

    def test_sqrt_neg_zero(self):
        r = BigFloat.zero(1, CTX53).sqrt()
        assert r.is_zero() and r.is_negative()

    def test_nan_propagates(self):
        assert BigFloat.nan(CTX53).add(bf(1.0)).is_nan()
        assert bf(1.0).mul(BigFloat.nan(CTX53)).is_nan()


class TestComparison:
    def test_cmp_basic(self):
        assert bf(1.0).cmp(bf(2.0)) == -1
        assert bf(2.0).cmp(bf(1.0)) == 1
        assert bf(1.5).cmp(bf(1.5)) == 0

    def test_cmp_nan_unordered(self):
        assert BigFloat.nan(CTX53).cmp(bf(1.0)) is None

    def test_cmp_inf(self):
        assert BigFloat.inf(0, CTX53).cmp(bf(1e300)) == 1
        assert BigFloat.inf(1, CTX53).cmp(bf(-1e300)) == -1

    def test_inf_orders_past_every_finite(self):
        """Exponents are unbounded: 2^65536 (repeated squaring) still
        lies below +inf, and MPFR's min/max keep it."""
        huge = BigFloat.from_int(2, CTX53)
        for _ in range(16):
            huge = huge.mul(huge, CTX53)
        pos_inf, neg_inf = BigFloat.inf(0, CTX53), BigFloat.inf(1, CTX53)
        assert huge.cmp(pos_inf) == -1 and pos_inf.cmp(huge) == 1
        assert huge.neg().cmp(neg_inf) == 1 and neg_inf.cmp(huge.neg()) == -1
        mpfr = MPFRSystem(53)
        assert mpfr.binary("min", pos_inf, huge) is huge
        assert mpfr.binary("max", neg_inf, huge.neg()).cmp(huge.neg()) == 0

    def test_zero_signs_compare_equal(self):
        assert BigFloat.zero(0, CTX53).cmp(BigFloat.zero(1, CTX53)) == 0

    def test_eq_and_hash(self):
        a = bf(2.5)
        b = BigFloat.from_fraction(Fraction(5, 2), CTX200)
        assert a == b
        assert hash(a) == hash(b)


class TestHigherPrecisionActuallyHelps:
    def test_sum_of_tenths(self):
        """0.1 summed 10x: binary64 misses 1.0; 200-bit BigFloat from the
        *same* binary64 inputs gets the binary64-representable answer when
        demoted (the classic FPVM win)."""
        tenth64 = 0.1
        acc64 = 0.0
        acc200 = BigFloat.zero(0, CTX200)
        t200 = BigFloat.from_float(tenth64, CTX200)
        for _ in range(10):
            acc64 += tenth64
            acc200 = acc200.add(t200, CTX200)
        assert acc64 != 1.0
        # The high-precision sum is exactly 10 * (binary64 0.1).
        assert acc200.to_fraction() == 10 * Fraction(0.1)

    def test_catastrophic_cancellation(self):
        # (1 + 1e-17) - 1 in binary64 is 0; at 200 bits it survives.
        one = BigFloat.from_int(1, CTX200)
        eps = BigFloat.from_fraction(Fraction(1, 10**17), CTX200)
        r = one.add(eps, CTX200).sub(one, CTX200)
        assert not r.is_zero()
        assert (1.0 + 1e-17) - 1.0 == 0.0


class TestTranscendentals:
    @pytest.mark.parametrize(
        "name,host",
        [
            ("sin", math.sin),
            ("cos", math.cos),
            ("atan", math.atan),
            ("exp", math.exp),
        ],
    )
    def test_close_to_host(self, name, host):
        for x in [-2.5, -1.0, -0.1, 0.0, 0.3, 1.0, 2.0, 3.1]:
            got = getattr(BigFloat.from_float(x, CTX200), name)(CTX200).to_float()
            assert got == pytest.approx(host(x), rel=1e-14, abs=1e-300)

    def test_log(self):
        for x in [0.5, 1.0, 2.0, 10.0, 1e10]:
            got = BigFloat.from_float(x, CTX200).log(CTX200).to_float()
            assert got == pytest.approx(math.log(x), rel=1e-14, abs=1e-300)

    def test_asin_acos(self):
        for x in [-0.9, -0.5, 0.0, 0.5, 0.9]:
            assert BigFloat.from_float(x, CTX200).asin(CTX200).to_float() == pytest.approx(
                math.asin(x), rel=1e-13, abs=1e-300
            )
            assert BigFloat.from_float(x, CTX200).acos(CTX200).to_float() == pytest.approx(
                math.acos(x), rel=1e-13
            )

    def test_tan(self):
        for x in [-1.0, 0.3, 1.2]:
            assert BigFloat.from_float(x, CTX200).tan(CTX200).to_float() == pytest.approx(
                math.tan(x), rel=1e-13, abs=1e-300
            )

    def test_sin_large_argument_reduction(self):
        x = 1000.0
        got = BigFloat.from_float(x, CTX200).sin(CTX200).to_float()
        assert got == pytest.approx(math.sin(x), rel=1e-12)

    def test_log_of_zero_is_neg_inf(self):
        r = BigFloat.zero(0, CTX200).log(CTX200)
        assert r.is_inf() and r.is_negative()

    def test_log_negative_nan(self):
        assert BigFloat.from_float(-1.0, CTX200).log(CTX200).is_nan()

    def test_exp_of_neg_inf_zero(self):
        assert BigFloat.inf(1, CTX200).exp(CTX200).is_zero()

    def test_asin_out_of_domain(self):
        assert BigFloat.from_float(2.0, CTX200).asin(CTX200).is_nan()


class TestFMA:
    @given(normal_doubles, normal_doubles, normal_doubles)
    @example(0.0, -0.0, -0.0)
    @example(-0.0, 1.0, 0.0)
    @settings(max_examples=100, deadline=None)
    def test_single_rounding(self, a, b, c):
        r = bf(a).fma(bf(b), bf(c), CTX53)
        exact = Fraction(a) * Fraction(b) + Fraction(c)
        expected, *_ = B.fraction_to_bits_rne(exact)
        # A Fraction has no signed zero: a zero product plus a zero
        # addend is -0 when both are negative (IEEE 754 6.3); any other
        # exact zero is +0 under round to nearest.
        if (a == 0 or b == 0) and c == 0:
            product_negative = (math.copysign(1, a) < 0) != (math.copysign(1, b) < 0)
            if product_negative and math.copysign(1, c) < 0:
                expected |= B.F64_SIGN_MASK
        if B.is_finite(expected):
            assert r.to_float64_bits() == expected

    def test_fma_beats_two_step(self):
        # Choose operands where a*b rounds away information that the
        # addend cancels: fma must keep it.
        a = bf(1.0 + 2.0**-52)
        r = a.fma(a, bf(-1.0), CTX53)
        exact = Fraction(1.0 + 2.0**-52) ** 2 - 1
        expected, *_ = B.fraction_to_bits_rne(exact)
        assert r.to_float64_bits() == expected


    @pytest.mark.parametrize("x,y,z", [
        (0.0, -1.0, -0.0), (-0.0, 1.0, -0.0), (0.0, 1.0, -0.0), (-0.0, -1.0, -0.0),
        (0.0, -1.0, 0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0), (2.0, 0.5, -1.0),
    ])
    def test_exact_zero_sign_matches_ieee(self, x, y, z):
        """A zero product plus a zero addend keeps the sign both share;
        any other exact zero is +0 (round to nearest)."""
        want = ieee_op("fma", f2b(x), f2b(y), f2b(z)).bits
        assert bf(x).fma(bf(y), bf(z), CTX53).to_float64_bits() == want
        mpfr = MPFRSystem()
        got = mpfr.fma(*(mpfr.promote(f2b(v)) for v in (x, y, z)))
        assert mpfr.demote(got) == want


class TestNegAbs:
    def test_neg(self):
        assert bf(3.0).neg().to_float() == -3.0
        assert bf(-3.0).neg().to_float() == 3.0

    def test_neg_zero(self):
        assert BigFloat.zero(0, CTX53).neg().is_negative()

    def test_abs(self):
        assert bf(-3.0).abs().to_float() == 3.0
        assert not BigFloat.inf(1, CTX53).abs().is_negative()

    def test_neg_nan_stays_nan(self):
        assert BigFloat.nan(CTX53).neg().is_nan()
