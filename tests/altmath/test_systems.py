"""Cross-system contract tests for the alternative arithmetic interface
plus system-specific behaviours."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.altmath import (
    BoxedIEEE,
    IntervalSystem,
    MPFRSystem,
    PositSystem,
    RationalSystem,
    get_altmath,
)
from repro.fpu import bits as B

f2b = B.float_to_bits
b2f = B.bits_to_float
U64 = 0xFFFF_FFFF_FFFF_FFFF
INDEFINITE = 0x8000_0000_0000_0000

ALL_SYSTEMS = [
    BoxedIEEE(),
    MPFRSystem(200),
    PositSystem(64),
    IntervalSystem(),
    RationalSystem(),
]

normal = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=False,
    min_value=-1e100, max_value=1e100, width=64,
).filter(lambda x: x == 0.0 or abs(x) > 1e-100)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.name)
class TestInterfaceContract:
    def test_registry_round_trip(self, system):
        assert get_altmath(system.name).name == system.name

    def test_promote_demote_identity_on_simple(self, system):
        for x in [0.0, 1.0, -2.5, 3.0, 1024.0, -0.125]:
            v = system.promote(f2b(x))
            assert b2f(system.demote(v)) == x

    def test_add(self, system):
        a = system.promote(f2b(1.5))
        b = system.promote(f2b(2.25))
        assert b2f(system.demote(system.binary("add", a, b))) == 3.75

    def test_sub_mul_div(self, system):
        a = system.promote(f2b(7.0))
        b = system.promote(f2b(2.0))
        assert b2f(system.demote(system.binary("sub", a, b))) == 5.0
        assert b2f(system.demote(system.binary("mul", a, b))) == 14.0
        assert b2f(system.demote(system.binary("div", a, b))) == 3.5

    def test_sqrt(self, system):
        v = system.promote(f2b(9.0))
        assert b2f(system.demote(system.unary("sqrt", v))) == 3.0

    def test_sqrt_negative_is_alt_nan(self, system):
        v = system.promote(f2b(-4.0))
        r = system.unary("sqrt", v)
        assert system.is_nan_value(r)
        assert B.is_nan(system.demote(r))

    def test_neg_abs(self, system):
        v = system.promote(f2b(-3.0))
        assert b2f(system.demote(system.unary("neg", v))) == 3.0
        assert b2f(system.demote(system.unary("abs", v))) == 3.0

    def test_compare(self, system):
        a = system.promote(f2b(1.0))
        b = system.promote(f2b(2.0))
        assert system.compare(a, b) == -1
        assert system.compare(b, a) == 1
        assert system.compare(a, a) == 0

    def test_compare_nan_unordered(self, system):
        nan = system.promote(B.CANONICAL_QNAN)
        one = system.promote(f2b(1.0))
        assert system.compare(nan, one) is None

    def test_nan_promotes_to_alt_nan(self, system):
        v = system.promote(B.CANONICAL_QNAN)
        assert system.is_nan_value(v)

    def test_zero_div_zero_nan(self, system):
        z = system.promote(f2b(0.0))
        assert system.is_nan_value(system.binary("div", z, z))

    def test_from_to_i64(self, system):
        v = system.from_i64((-42) & 0xFFFFFFFFFFFFFFFF)
        assert b2f(system.demote(v)) == -42.0
        assert system.to_i64(v) == (-42) & 0xFFFFFFFFFFFFFFFF

    def test_to_i64_truncates(self, system):
        v = system.promote(f2b(2.75))
        assert system.to_i64(v, truncate=True) == 2

    def test_to_i64_nan_indefinite(self, system):
        v = system.promote(B.CANONICAL_QNAN)
        assert system.to_i64(v) == 0x8000000000000000

    def test_min_max(self, system):
        a = system.promote(f2b(1.0))
        b = system.promote(f2b(2.0))
        assert b2f(system.demote(system.binary("min", a, b))) == 1.0
        assert b2f(system.demote(system.binary("max", a, b))) == 2.0

    def test_libm_sin(self, system):
        v = system.promote(f2b(0.5))
        r = system.libm("sin", v)
        assert b2f(system.demote(r)) == pytest.approx(math.sin(0.5), rel=1e-9)

    def test_class_level_wrappers_see_the_instance(self, system, monkeypatch):
        """Every entry point is a method: a plain function installed
        over one on the class (a profiler's span wrapper) is called with
        the instance, as the method was."""
        cls = type(system)
        calls = []
        for name in ("promote", "demote", "from_i64", "to_i64", "binary", "unary",
                     "compare", "fma", "is_nan_value", "libm"):
            def wrapper(*args, fn=getattr(cls, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(cls, name, wrapper)
        one = system.promote(f2b(1.0))
        two = system.binary("add", one, one)
        assert b2f(system.demote(system.unary("neg", two))) == -2.0
        assert system.compare(one, two) == -1
        assert system.to_i64(system.fma(one, two, system.from_i64(1))) == 3
        assert not system.is_nan_value(system.libm("fabs", one))
        assert len(set(calls)) == 10

    def test_costs_defined_for_core_ops(self, system):
        for op in ("add", "sub", "mul", "div", "sqrt"):
            assert system.costs.op(op) > 0
        assert system.costs.promote > 0
        assert system.costs.demote > 0


class TestBoxedIEEEBitExactness:
    @given(normal, normal)
    @settings(max_examples=200, deadline=None)
    def test_matches_hardware_bits(self, a, b):
        sys_ = BoxedIEEE()
        for op in ("add", "sub", "mul", "div"):
            if op == "div" and b == 0.0:
                continue
            va, vb = sys_.promote(f2b(a)), sys_.promote(f2b(b))
            got = sys_.demote(sys_.binary(op, va, vb))
            host = {"add": a + b, "sub": a - b, "mul": a * b,
                    "div": a / b if b else 0.0}[op]
            assert got == f2b(host)

    def test_signed_zero_preserved(self, ):
        sys_ = BoxedIEEE()
        v = sys_.promote(B.NEG_ZERO_BITS)
        assert sys_.demote(v) == B.NEG_ZERO_BITS


class TestMPFRPrecision:
    def test_sum_beats_double(self):
        sys_ = MPFRSystem(200)
        tenth = sys_.promote(f2b(0.1))
        acc = sys_.promote(f2b(0.0))
        for _ in range(10):
            acc = sys_.binary("add", acc, tenth)
        # Exactly 10 * double(0.1), which demotes to 1.0000000000000002
        # territory -- crucially NOT the drifted double loop result.
        double_acc = 0.0
        for _ in range(10):
            double_acc += 0.1
        exact = 10 * Fraction(0.1)
        expected, *_ = B.fraction_to_bits_rne(exact)
        assert sys_.demote(acc) == expected
        assert f2b(double_acc) != expected

    def test_precision_parameter(self):
        lo = MPFRSystem(53)
        hi = MPFRSystem(500)
        third_lo = lo.binary("div", lo.from_i64(1), lo.from_i64(3))
        third_hi = hi.binary("div", hi.from_i64(1), hi.from_i64(3))
        err_lo = abs(third_lo.to_fraction() - Fraction(1, 3))
        err_hi = abs(third_hi.to_fraction() - Fraction(1, 3))
        assert err_hi < err_lo

    def test_costs_scale_with_precision(self):
        assert MPFRSystem(500).costs.op("mul") > MPFRSystem(100).costs.op("mul")

    @pytest.mark.parametrize("x,truncated,rounded", [
        (0.5, 0, 0), (-0.5, 0, 0), (1.5, 1, 2), (-1.5, -1, -2), (2.5, 2, 2),
        (-2.5, -2, -2), (-2.0 ** 63, -2 ** 63, -2 ** 63),
        (2.0 ** 63, INDEFINITE, INDEFINITE), (math.nan, INDEFINITE, INDEFINITE),
        (math.inf, INDEFINITE, INDEFINITE), (-math.inf, INDEFINITE, INDEFINITE),
    ])
    def test_to_i64_ties_and_range(self, x, truncated, rounded):
        """cvttsd2si truncates, cvtsd2si rounds half to even; NaN, ±inf
        and anything out of the i64 range give the integer indefinite."""
        sys_ = MPFRSystem()
        v = sys_.promote(f2b(x))
        assert sys_.to_i64(v, truncate=True) == truncated & U64
        assert sys_.to_i64(v, truncate=False) == rounded & U64


class TestPosit:
    def test_round_trip_simple_values(self):
        sys_ = PositSystem(64)
        for x in [1.0, -1.0, 0.5, 2.0, 100.0, -0.001, 12345.678]:
            v = sys_.promote(f2b(x))
            assert b2f(sys_.demote(v)) == pytest.approx(x, rel=1e-12)

    def test_nar_round_trip(self):
        sys_ = PositSystem(32)
        v = sys_.promote(B.CANONICAL_QNAN)
        assert v.nar
        assert B.is_nan(sys_.demote(v))

    def test_no_underflow_to_zero(self):
        sys_ = PositSystem(16)
        v = sys_.promote(f2b(1e-300))
        assert not v.is_zero  # saturates at minpos instead

    def test_saturation_at_maxpos(self):
        sys_ = PositSystem(16)
        big = sys_.promote(f2b(1e300))
        bigger = sys_.binary("mul", big, big)
        assert sys_.compare(bigger, big) >= 0
        assert not bigger.nar

    def test_encoding_monotonic(self):
        from repro.altmath.posit import posit_to_fraction, Posit

        nbits = 8
        values = []
        for body in range(1, 1 << (nbits - 1)):
            values.append(posit_to_fraction(Posit(body, nbits)))
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                     allow_infinity=False).filter(lambda x: x == 0 or abs(x) > 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_posit32_roundtrip_close(self, x):
        sys_ = PositSystem(32)
        v = sys_.promote(f2b(x))
        got = b2f(sys_.demote(v))
        if x == 0:
            assert got == 0
        else:
            assert got == pytest.approx(x, rel=1e-6)

    def test_two_complement_negation(self):
        sys_ = PositSystem(32)
        v = sys_.promote(f2b(3.5))
        n = sys_.unary("neg", v)
        assert b2f(sys_.demote(n)) == pytest.approx(-3.5, rel=1e-6)
        assert sys_.compare(n, v) == -1


class TestInterval:
    def test_promote_is_degenerate(self):
        sys_ = IntervalSystem()
        v = sys_.promote(f2b(2.0))
        assert v.lo == v.hi == 2.0

    def test_enclosure_property(self):
        sys_ = IntervalSystem()
        a = sys_.promote(f2b(0.1))
        b = sys_.promote(f2b(0.2))
        r = sys_.binary("add", a, b)
        exact = Fraction(0.1) + Fraction(0.2)
        assert Fraction(r.lo) <= exact <= Fraction(r.hi)
        assert r.lo < r.hi  # genuinely widened

    @given(normal, normal)
    @settings(max_examples=100, deadline=None)
    def test_mul_enclosure(self, a, b):
        sys_ = IntervalSystem()
        r = sys_.binary("mul", sys_.promote(f2b(a)), sys_.promote(f2b(b)))
        exact = Fraction(a) * Fraction(b)
        if math.isfinite(r.lo) and math.isfinite(r.hi):
            assert Fraction(r.lo) <= exact <= Fraction(r.hi)

    def test_division_by_zero_containing_interval(self):
        sys_ = IntervalSystem()
        a = sys_.promote(f2b(1.0))
        z = sys_.binary("sub", sys_.promote(f2b(0.1)), sys_.promote(f2b(0.1)))
        r = sys_.binary("div", a, z)
        assert r.undefined or (r.lo == -math.inf and r.hi == math.inf)

    def test_width_tracks_error(self):
        sys_ = IntervalSystem()
        acc = sys_.promote(f2b(0.0))
        tenth = sys_.promote(f2b(0.1))
        for _ in range(100):
            acc = sys_.binary("add", acc, tenth)
        assert acc.hi > acc.lo
        assert 100 * 0.1 in acc or (acc.lo <= 10.000000000000002 <= acc.hi)


class TestRational:
    def test_exact_field_ops(self):
        sys_ = RationalSystem()
        third = sys_.binary("div", sys_.from_i64(1), sys_.from_i64(3))
        total = sys_.promote(f2b(0.0))
        for _ in range(3):
            total = sys_.binary("add", total, third)
        assert total.numeric() == 1

    def test_neg_zero_semantics(self):
        sys_ = RationalSystem()
        v = sys_.promote(B.NEG_ZERO_BITS)
        assert sys_.demote(v) == B.NEG_ZERO_BITS
        n = sys_.unary("neg", sys_.promote(f2b(0.0)))
        assert sys_.demote(n) == B.NEG_ZERO_BITS

    def test_div_by_zero_inf(self):
        sys_ = RationalSystem()
        r = sys_.binary("div", sys_.from_i64(1), sys_.promote(f2b(0.0)))
        assert r.special == "+inf"
        assert sys_.demote(r) == B.POS_INF_BITS

    def test_sqrt_exact_when_perfect_square(self):
        sys_ = RationalSystem()
        v = sys_.promote(f2b(2.25))
        r = sys_.unary("sqrt", v)
        assert r.numeric() == Fraction(3, 2)

    def test_sqrt_inexact_high_precision(self):
        sys_ = RationalSystem()
        r = sys_.unary("sqrt", sys_.from_i64(2))
        err = abs(r.numeric() ** 2 - 2)
        assert err < Fraction(1, 2**100)
