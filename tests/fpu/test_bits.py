"""Unit tests for binary64 bit manipulation."""

import math
from fractions import Fraction

import pytest

from repro.fpu import bits as B

from .builders import make_qnan, make_snan, ulp_bits


class TestRoundTrip:
    def test_float_to_bits_one(self):
        assert B.float_to_bits(1.0) == 0x3FF0000000000000

    def test_float_to_bits_two(self):
        assert B.float_to_bits(2.0) == 0x4000000000000000

    def test_float_to_bits_neg_zero(self):
        assert B.float_to_bits(-0.0) == B.NEG_ZERO_BITS

    def test_bits_to_float_round_trip(self):
        for x in [0.0, 1.5, -3.25, 1e300, -1e-300, 5e-324, math.pi]:
            assert B.bits_to_float(B.float_to_bits(x)) == x

    def test_inf_patterns(self):
        assert B.float_to_bits(math.inf) == B.POS_INF_BITS
        assert B.float_to_bits(-math.inf) == B.NEG_INF_BITS


class TestClassify:
    def test_canonical_qnan_is_qnan(self):
        assert B.is_nan(B.CANONICAL_QNAN)
        assert B.is_qnan(B.CANONICAL_QNAN)
        assert not B.is_snan(B.CANONICAL_QNAN)

    def test_snan_detection(self):
        snan = make_snan(0x1234)
        assert B.is_nan(snan)
        assert B.is_snan(snan)
        assert not B.is_qnan(snan)

    def test_quiet_converts_snan(self):
        snan = make_snan(1)
        assert B.is_qnan(B.quiet(snan))

    def test_inf_is_not_nan(self):
        assert not B.is_nan(B.POS_INF_BITS)
        assert B.is_inf(B.POS_INF_BITS)
        assert B.is_inf(B.NEG_INF_BITS)

    def test_zero_detection(self):
        assert B.is_zero(B.POS_ZERO_BITS)
        assert B.is_zero(B.NEG_ZERO_BITS)
        assert not B.is_zero(B.float_to_bits(5e-324))

    def test_subnormal_detection(self):
        assert B.is_subnormal(B.float_to_bits(5e-324))
        assert B.is_subnormal(B.float_to_bits(-1e-310))
        assert not B.is_subnormal(B.float_to_bits(1e-300))
        assert not B.is_subnormal(B.POS_ZERO_BITS)

    def test_finite(self):
        assert B.is_finite(B.float_to_bits(1.0))
        assert not B.is_finite(B.POS_INF_BITS)
        assert not B.is_finite(B.CANONICAL_QNAN)

    def test_negative(self):
        assert B.is_negative(B.float_to_bits(-1.0))
        assert B.is_negative(B.NEG_ZERO_BITS)
        assert not B.is_negative(B.float_to_bits(1.0))

    def test_make_snan_rejects_zero_payload(self):
        with pytest.raises(ValueError):
            make_snan(0)

    def test_make_nan_rejects_oversized_payload(self):
        with pytest.raises(ValueError):
            make_qnan(1 << 51)
        with pytest.raises(ValueError):
            make_snan(1 << 51)


class TestFractionConversion:
    def test_one(self):
        assert B.bits_to_fraction(B.float_to_bits(1.0)) == 1

    def test_half(self):
        assert B.bits_to_fraction(B.float_to_bits(0.5)) == Fraction(1, 2)

    def test_tenth_is_not_exact_tenth(self):
        f = B.bits_to_fraction(B.float_to_bits(0.1))
        assert f != Fraction(1, 10)
        assert abs(f - Fraction(1, 10)) < Fraction(1, 10**17)

    def test_negative(self):
        assert B.bits_to_fraction(B.float_to_bits(-2.5)) == Fraction(-5, 2)

    def test_smallest_subnormal(self):
        assert B.bits_to_fraction(1) == Fraction(1, 2**1074)

    def test_zero_both_signs(self):
        assert B.bits_to_fraction(B.POS_ZERO_BITS) == 0
        assert B.bits_to_fraction(B.NEG_ZERO_BITS) == 0

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            B.bits_to_fraction(B.POS_INF_BITS)
        with pytest.raises(ValueError):
            B.bits_to_fraction(B.CANONICAL_QNAN)


class TestRNERounding:
    def test_exact_value(self):
        bits, inexact, overflow, underflow = B.fraction_to_bits_rne(Fraction(3, 2))
        assert bits == B.float_to_bits(1.5)
        assert not inexact and not overflow and not underflow

    def test_inexact_tenth(self):
        bits, inexact, _, _ = B.fraction_to_bits_rne(Fraction(1, 10))
        assert bits == B.float_to_bits(0.1)
        assert inexact

    def test_overflow(self):
        bits, inexact, overflow, _ = B.fraction_to_bits_rne(Fraction(2) ** 1025)
        assert bits == B.POS_INF_BITS
        assert overflow and inexact

    def test_negative_overflow(self):
        bits, _, overflow, _ = B.fraction_to_bits_rne(-(Fraction(2) ** 1025))
        assert bits == B.NEG_INF_BITS
        assert overflow

    def test_underflow_subnormal(self):
        # A value inside the subnormal range that needs rounding.
        v = Fraction(1, 2**1074) / 3
        bits, inexact, _, underflow = B.fraction_to_bits_rne(v)
        assert inexact and underflow
        assert bits == 0  # rounds to +0

    def test_exact_subnormal_no_underflow_flag(self):
        v = Fraction(1, 2**1074)
        bits, inexact, _, underflow = B.fraction_to_bits_rne(v)
        assert bits == 1
        assert not inexact and not underflow

    def test_round_half_to_even(self):
        # 1 + 2^-53 is exactly halfway between 1.0 and nextafter(1.0):
        # must round to the even mantissa, i.e. 1.0.
        v = 1 + Fraction(1, 2**53)
        bits, inexact, _, _ = B.fraction_to_bits_rne(v)
        assert bits == B.float_to_bits(1.0)
        assert inexact

    def test_round_half_up_when_odd(self):
        # (1 + 2^-52) + 2^-53 is halfway; lower neighbour is odd => up.
        v = 1 + Fraction(1, 2**52) + Fraction(1, 2**53)
        bits, inexact, _, _ = B.fraction_to_bits_rne(v)
        assert bits == B.float_to_bits(1.0) + 2
        assert inexact

    def test_sign_hint_zero(self):
        bits, *_ = B.fraction_to_bits_rne(Fraction(0), sign_hint=1)
        assert bits == B.NEG_ZERO_BITS

    def test_matches_host_for_many_rationals(self):
        for num in range(1, 40):
            for den in range(1, 40):
                v = Fraction(num, den)
                bits, inexact, _, _ = B.fraction_to_bits_rne(v)
                assert bits == B.float_to_bits(num / den), (num, den)
                assert inexact == (Fraction(B.bits_to_float(bits)) != v)


class TestIlog2:
    def test_powers_of_two(self):
        for e in range(-60, 60):
            x = Fraction(2) ** e
            assert B._ilog2(x) == e

    def test_between_powers(self):
        assert B._ilog2(Fraction(3)) == 1
        assert B._ilog2(Fraction(3, 4)) == -1
        assert B._ilog2(Fraction(1, 3)) == -2
        assert B._ilog2(Fraction(7, 2)) == 1

    def test_large_and_tiny(self):
        assert B._ilog2(Fraction(2**1000 + 1)) == 1000
        assert B._ilog2(Fraction(1, 2**1000)) == -1000


class TestUlp:
    def test_ulp_of_one(self):
        assert ulp_bits(B.float_to_bits(1.0)) == Fraction(1, 2**52)

    def test_ulp_of_subnormal(self):
        assert ulp_bits(1) == Fraction(1, 2**1074)

    def test_ulp_of_large(self):
        assert ulp_bits(B.float_to_bits(2.0**60)) == Fraction(2**8)

    def test_ulp_nonfinite_raises(self):
        with pytest.raises(ValueError):
            ulp_bits(B.POS_INF_BITS)
