"""Unit + property tests for the exact IEEE-754 operation oracle.

The oracle's *values* must agree bit-for-bit with host binary64
arithmetic (Python floats are IEEE binary64 on every supported
platform), and its *flags* must agree with exact rational reasoning.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpu import bits as B
from repro.fpu.ieee import (
    UCOMI_EQUAL,
    UCOMI_GREATER,
    UCOMI_LESS,
    UCOMI_UNORDERED,
    ieee_add,
    ieee_cmp,
    ieee_cvtsd2si,
    ieee_cvtsi2sd,
    ieee_cvttsd2si,
    ieee_div,
    ieee_max,
    ieee_min,
    ieee_mul,
    ieee_op,
    ieee_sqrt,
    ieee_sub,
    ieee_ucomi,
)

from .builders import make_qnan, make_snan

f2b = B.float_to_bits
b2f = B.bits_to_float

# Strategy: well-behaved finite doubles (normal range) plus interesting
# specials mixed in by dedicated tests.
finite_doubles = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=False, width=64
)


class TestAddValues:
    @given(finite_doubles, finite_doubles)
    @settings(max_examples=300, deadline=None)
    def test_matches_host(self, a, b):
        r = ieee_add(f2b(a), f2b(b))
        host = a + b
        assert r.bits == f2b(host)

    @given(finite_doubles, finite_doubles)
    @settings(max_examples=300, deadline=None)
    def test_inexact_flag_exact_rational(self, a, b):
        r = ieee_add(f2b(a), f2b(b))
        if B.is_finite(r.bits):
            exact = Fraction(a) + Fraction(b)
            got = B.bits_to_fraction(r.bits)
            assert r.flags.inexact == (exact != got)

    def test_exact_add(self):
        r = ieee_add(f2b(1.0), f2b(2.0))
        assert r.bits == f2b(3.0)
        assert not r.flags.any()

    def test_inexact_add(self):
        r = ieee_add(f2b(0.1), f2b(0.2))
        assert r.bits == f2b(0.1 + 0.2)
        assert r.flags.inexact

    def test_overflow(self):
        big = f2b(1.7e308)
        r = ieee_add(big, big)
        assert r.bits == B.POS_INF_BITS
        assert r.flags.overflow and r.flags.inexact

    def test_negative_overflow(self):
        big = f2b(-1.7e308)
        r = ieee_add(big, big)
        assert r.bits == B.NEG_INF_BITS
        assert r.flags.overflow

    def test_exact_cancellation_gives_pos_zero(self):
        r = ieee_add(f2b(1.5), f2b(-1.5))
        assert r.bits == B.POS_ZERO_BITS
        assert not r.flags.any()

    def test_neg_zero_plus_neg_zero(self):
        r = ieee_add(B.NEG_ZERO_BITS, B.NEG_ZERO_BITS)
        assert r.bits == B.NEG_ZERO_BITS

    def test_inf_plus_finite(self):
        r = ieee_add(B.POS_INF_BITS, f2b(1.0))
        assert r.bits == B.POS_INF_BITS
        assert not r.flags.invalid

    def test_inf_minus_inf_invalid(self):
        r = ieee_add(B.POS_INF_BITS, B.NEG_INF_BITS)
        assert r.flags.invalid
        assert B.is_qnan(r.bits)

    def test_snan_operand_raises_invalid_and_quiets(self):
        snan = make_snan(0x42)
        r = ieee_add(snan, f2b(1.0))
        assert r.flags.invalid
        assert B.is_qnan(r.bits)
        # x64 propagates the first NaN source, quieted, payload intact.
        assert r.bits == B.quiet(snan)

    def test_qnan_operand_no_invalid(self):
        qnan = make_qnan(0x42)
        r = ieee_add(f2b(1.0), qnan)
        assert not r.flags.invalid
        assert r.bits == qnan

    def test_denormal_operand_flag(self):
        sub = f2b(5e-324)
        r = ieee_add(sub, f2b(1.0))
        assert r.flags.denormal

    def test_underflow_tiny_sum(self):
        a = f2b(5e-324)
        b = f2b(-1e-310)
        r = ieee_add(b, a)
        host = -1e-310 + 5e-324
        assert r.bits == f2b(host)

    def test_tiny_inexact_result_flags_underflow(self):
        # min_subnormal/2 computed as subnormal + (-subnormal/...) paths
        # through the slow rational path and must flag underflow.
        a = f2b(5e-324)
        r = ieee_op("div", a, f2b(2.0))
        assert r.flags.underflow and r.flags.inexact


class TestSubValues:
    @given(finite_doubles, finite_doubles)
    @settings(max_examples=200, deadline=None)
    def test_matches_host(self, a, b):
        r = ieee_sub(f2b(a), f2b(b))
        assert r.bits == f2b(a - b)

    def test_simple(self):
        assert ieee_sub(f2b(5.0), f2b(3.0)).bits == f2b(2.0)


class TestMulValues:
    @given(finite_doubles, finite_doubles)
    @settings(max_examples=300, deadline=None)
    def test_matches_host(self, a, b):
        r = ieee_mul(f2b(a), f2b(b))
        assert r.bits == f2b(a * b)

    @given(finite_doubles, finite_doubles)
    @settings(max_examples=200, deadline=None)
    def test_inexact_flag(self, a, b):
        r = ieee_mul(f2b(a), f2b(b))
        if B.is_finite(r.bits) and not B.is_nan(r.bits):
            exact = Fraction(a) * Fraction(b)
            assert r.flags.inexact == (B.bits_to_fraction(r.bits) != exact)

    def test_exact_power_of_two(self):
        r = ieee_mul(f2b(1.5), f2b(2.0))
        assert r.bits == f2b(3.0)
        assert not r.flags.inexact

    def test_zero_times_inf_invalid(self):
        r = ieee_mul(B.POS_ZERO_BITS, B.POS_INF_BITS)
        assert r.flags.invalid
        assert B.is_qnan(r.bits)

    def test_signed_zero_result(self):
        r = ieee_mul(f2b(-1.0), B.POS_ZERO_BITS)
        assert r.bits == B.NEG_ZERO_BITS

    def test_overflow(self):
        r = ieee_mul(f2b(1e200), f2b(1e200))
        assert r.bits == B.POS_INF_BITS
        assert r.flags.overflow

    def test_underflow(self):
        r = ieee_mul(f2b(1e-200), f2b(1e-200))
        assert r.bits == f2b(1e-200 * 1e-200)
        assert r.flags.underflow


class TestDivValues:
    @given(finite_doubles, finite_doubles)
    @settings(max_examples=300, deadline=None)
    def test_matches_host(self, a, b):
        r = ieee_div(f2b(a), f2b(b))
        if b == 0.0:
            return  # covered by dedicated tests
        assert r.bits == f2b(a / b)

    def test_div_by_zero(self):
        r = ieee_div(f2b(1.0), B.POS_ZERO_BITS)
        assert r.bits == B.POS_INF_BITS
        assert r.flags.zero_divide and not r.flags.invalid

    def test_div_by_neg_zero(self):
        r = ieee_div(f2b(1.0), B.NEG_ZERO_BITS)
        assert r.bits == B.NEG_INF_BITS

    def test_zero_over_zero_invalid(self):
        r = ieee_div(B.POS_ZERO_BITS, B.POS_ZERO_BITS)
        assert r.flags.invalid
        assert B.is_qnan(r.bits)

    def test_inf_over_inf_invalid(self):
        r = ieee_div(B.POS_INF_BITS, B.NEG_INF_BITS)
        assert r.flags.invalid

    def test_finite_over_inf_is_zero(self):
        r = ieee_div(f2b(-3.0), B.POS_INF_BITS)
        assert r.bits == B.NEG_ZERO_BITS

    def test_exact_division(self):
        r = ieee_div(f2b(3.0), f2b(2.0))
        assert r.bits == f2b(1.5)
        assert not r.flags.inexact

    def test_inexact_division(self):
        r = ieee_div(f2b(1.0), f2b(3.0))
        assert r.bits == f2b(1.0 / 3.0)
        assert r.flags.inexact


class TestSqrt:
    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_matches_host(self, a):
        r = ieee_sqrt(f2b(a))
        assert r.bits == f2b(math.sqrt(a))

    def test_exact_square(self):
        r = ieee_sqrt(f2b(4.0))
        assert r.bits == f2b(2.0)
        assert not r.flags.inexact

    def test_inexact(self):
        r = ieee_sqrt(f2b(2.0))
        assert r.bits == f2b(math.sqrt(2.0))
        assert r.flags.inexact

    def test_negative_invalid(self):
        r = ieee_sqrt(f2b(-1.0))
        assert r.flags.invalid
        assert B.is_qnan(r.bits)

    def test_neg_zero_ok(self):
        r = ieee_sqrt(B.NEG_ZERO_BITS)
        assert r.bits == B.NEG_ZERO_BITS
        assert not r.flags.any()

    def test_inf(self):
        assert ieee_sqrt(B.POS_INF_BITS).bits == B.POS_INF_BITS


class TestMinMax:
    def test_min_basic(self):
        assert ieee_min(f2b(1.0), f2b(2.0)).bits == f2b(1.0)
        assert ieee_min(f2b(2.0), f2b(1.0)).bits == f2b(1.0)

    def test_max_basic(self):
        assert ieee_max(f2b(1.0), f2b(2.0)).bits == f2b(2.0)

    def test_min_returns_src2_on_nan(self):
        # SSE minsd: any NaN => src2 returned verbatim.
        qnan = make_qnan(7)
        assert ieee_min(qnan, f2b(3.0)).bits == f2b(3.0)
        assert ieee_min(f2b(3.0), qnan).bits == qnan

    def test_min_equal_returns_src2(self):
        # Distinguishable via signed zeros: minsd(+0, -0) = -0 (src2).
        assert ieee_min(B.POS_ZERO_BITS, B.NEG_ZERO_BITS).bits == B.NEG_ZERO_BITS

    def test_snan_invalid(self):
        assert ieee_min(make_snan(1), f2b(0.0)).flags.invalid


class TestCompares:
    def test_ucomi_less(self):
        assert ieee_ucomi(f2b(1.0), f2b(2.0)).bits == UCOMI_LESS

    def test_ucomi_greater(self):
        assert ieee_ucomi(f2b(3.0), f2b(2.0)).bits == UCOMI_GREATER

    def test_ucomi_equal(self):
        assert ieee_ucomi(f2b(2.0), f2b(2.0)).bits == UCOMI_EQUAL

    def test_ucomi_zero_signs_equal(self):
        assert ieee_ucomi(B.POS_ZERO_BITS, B.NEG_ZERO_BITS).bits == UCOMI_EQUAL

    def test_ucomi_unordered(self):
        r = ieee_ucomi(make_qnan(1), f2b(2.0))
        assert r.bits == UCOMI_UNORDERED
        assert not r.flags.invalid  # qNaN does not signal for ucomisd

    def test_ucomi_snan_invalid(self):
        assert ieee_ucomi(make_snan(1), f2b(2.0)).flags.invalid

    def test_comi_qnan_invalid(self):
        assert ieee_op("comi", make_qnan(1), f2b(2.0)).flags.invalid

    def test_cmp_lt_mask(self):
        assert ieee_cmp("lt", f2b(1.0), f2b(2.0)).bits == 0xFFFFFFFFFFFFFFFF
        assert ieee_cmp("lt", f2b(2.0), f2b(1.0)).bits == 0

    def test_cmp_eq(self):
        assert ieee_cmp("eq", f2b(2.0), f2b(2.0)).bits == 0xFFFFFFFFFFFFFFFF

    def test_cmp_unord(self):
        assert ieee_cmp("unord", make_qnan(1), f2b(1.0)).bits == 0xFFFFFFFFFFFFFFFF
        assert ieee_cmp("unord", f2b(1.0), f2b(1.0)).bits == 0

    def test_cmp_neq_nan_true(self):
        assert ieee_cmp("neq", make_qnan(1), f2b(1.0)).bits == 0xFFFFFFFFFFFFFFFF

    def test_cmp_lt_signals_on_qnan(self):
        assert ieee_cmp("lt", make_qnan(1), f2b(1.0)).flags.invalid

    def test_cmp_eq_quiet_on_qnan(self):
        assert not ieee_cmp("eq", make_qnan(1), f2b(1.0)).flags.invalid


class TestConverts:
    @given(st.integers(min_value=-(2**62), max_value=2**62))
    @settings(max_examples=200, deadline=None)
    def test_cvtsi2sd_matches_host(self, n):
        r = ieee_cvtsi2sd(n & 0xFFFFFFFFFFFFFFFF)
        assert r.bits == f2b(float(n))

    def test_cvtsi2sd_inexact_for_large(self):
        n = (1 << 60) + 1
        r = ieee_cvtsi2sd(n)
        assert r.flags.inexact

    def test_cvttsd2si_truncates(self):
        assert ieee_cvttsd2si(f2b(2.9)).bits == 2
        assert ieee_cvttsd2si(f2b(-2.9)).bits == (-2) & 0xFFFFFFFFFFFFFFFF

    def test_cvttsd2si_exact_integer_no_inexact(self):
        r = ieee_cvttsd2si(f2b(5.0))
        assert r.bits == 5
        assert not r.flags.inexact

    def test_cvttsd2si_nan_indefinite(self):
        r = ieee_cvttsd2si(make_qnan(1))
        assert r.bits == 0x8000000000000000
        assert r.flags.invalid

    def test_cvttsd2si_overflow_indefinite(self):
        r = ieee_cvttsd2si(f2b(1e30))
        assert r.bits == 0x8000000000000000
        assert r.flags.invalid

    def test_cvtsd2si_rounds_nearest_even(self):
        assert ieee_cvtsd2si(f2b(2.5)).bits == 2
        assert ieee_cvtsd2si(f2b(3.5)).bits == 4
        assert ieee_cvtsd2si(f2b(-2.5)).bits == (-2) & 0xFFFFFFFFFFFFFFFF


class TestDispatch:
    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            ieee_op("frobnicate", 0)

    def test_cmp_dispatch(self):
        assert ieee_op("cmp_le", f2b(1.0), f2b(1.0)).bits == 0xFFFFFFFFFFFFFFFF

    def test_flags_mxcsr_encoding(self):
        r = ieee_div(f2b(1.0), B.POS_ZERO_BITS)
        assert r.flags.as_mxcsr_status() & 0x4  # ZE


@given(finite_doubles, finite_doubles)
@settings(max_examples=200, deadline=None)
def test_nan_never_escapes_unquieted(a, b):
    """Arithmetic results are never signaling NaNs."""
    for op in ("add", "sub", "mul", "div"):
        r = ieee_op(op, f2b(a), f2b(b))
        assert not B.is_snan(r.bits)
