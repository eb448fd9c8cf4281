"""Directed rounding (MXCSR.RC) tests: the four x64 rounding modes in
the oracle, and end-to-end through the CPU."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpu import bits as B
from repro.fpu.ieee import ieee_op
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.registers import (
    MXCSR_DEFAULT,
    RC_DOWN,
    RC_NEAREST,
    RC_UP,
    RC_ZERO,
    rounding_mode,
)

from .builders import with_rounding

f2b = B.float_to_bits
b2f = B.bits_to_float

finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False,
                   min_value=-1e100, max_value=1e100, width=64)


class TestDirectedRoundingProperties:
    @given(finite, finite, st.sampled_from(["add", "sub", "mul"]))
    @settings(max_examples=200, deadline=None)
    def test_bracketing(self, a, b, op):
        """RD result <= exact <= RU result, and RN is one of the two."""
        dn = ieee_op(op, f2b(a), f2b(b), mode="dn")
        up = ieee_op(op, f2b(a), f2b(b), mode="up")
        ne = ieee_op(op, f2b(a), f2b(b), mode="ne")
        exact = {"add": Fraction(a) + Fraction(b),
                 "sub": Fraction(a) - Fraction(b),
                 "mul": Fraction(a) * Fraction(b)}[op]
        if B.is_finite(dn.bits) and B.is_finite(up.bits):
            assert Fraction(b2f(dn.bits)) <= exact <= Fraction(b2f(up.bits))
            assert ne.bits in (dn.bits, up.bits)

    @given(finite, finite.filter(lambda x: x != 0))
    @settings(max_examples=150, deadline=None)
    def test_rz_truncates_magnitude(self, a, b):
        zr = ieee_op("div", f2b(a), f2b(b), mode="zr")
        ne = ieee_op("div", f2b(a), f2b(b), mode="ne")
        if B.is_finite(zr.bits):
            assert abs(b2f(zr.bits)) <= abs(b2f(ne.bits))

    @given(finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_exact_results_mode_independent(self, a, b):
        results = {m: ieee_op("add", f2b(a), f2b(b), mode=m)
                   for m in ("ne", "dn", "up", "zr")}
        if not results["ne"].flags.inexact and B.is_finite(results["ne"].bits) \
                and not B.is_zero(results["ne"].bits):
            bits = {r.bits for r in results.values()}
            assert len(bits) == 1

    def test_known_third(self):
        third_up = b2f(ieee_op("div", f2b(1.0), f2b(3.0), mode="up").bits)
        third_dn = b2f(ieee_op("div", f2b(1.0), f2b(3.0), mode="dn").bits)
        assert Fraction(third_dn) < Fraction(1, 3) < Fraction(third_up)
        assert third_up == math.nextafter(third_dn, 1.0)

    def test_sqrt_directed(self):
        up = b2f(ieee_op("sqrt", f2b(2.0), mode="up").bits)
        dn = b2f(ieee_op("sqrt", f2b(2.0), mode="dn").bits)
        assert Fraction(dn) ** 2 < 2 < Fraction(up) ** 2
        assert up == math.nextafter(dn, 2.0)

    def test_overflow_behaviour(self):
        huge = f2b(1.7e308)
        assert ieee_op("add", huge, huge, mode="ne").bits == B.POS_INF_BITS
        assert ieee_op("add", huge, huge, mode="up").bits == B.POS_INF_BITS
        # RZ/RD clamp positive overflow to the largest finite value.
        assert ieee_op("add", huge, huge, mode="zr").bits == f2b(1.7976931348623157e308)
        assert ieee_op("add", huge, huge, mode="dn").bits == f2b(1.7976931348623157e308)

    def test_exact_cancellation_sign_by_mode(self):
        # x - x: +0 under RN/RZ/RU, -0 under RD (IEEE 6.3).
        assert ieee_op("sub", f2b(1.5), f2b(1.5), mode="ne").bits == B.POS_ZERO_BITS
        assert ieee_op("sub", f2b(1.5), f2b(1.5), mode="dn").bits == B.NEG_ZERO_BITS


class TestMXCSRField:
    def test_default_is_nearest(self):
        assert rounding_mode(MXCSR_DEFAULT) == "ne"

    @pytest.mark.parametrize("rc,name", [
        (RC_NEAREST, "ne"), (RC_DOWN, "dn"), (RC_UP, "up"), (RC_ZERO, "zr"),
    ])
    def test_encode_decode(self, rc, name):
        assert rounding_mode(with_rounding(MXCSR_DEFAULT, rc)) == name

    def test_with_rounding_preserves_masks(self):
        m = with_rounding(MXCSR_DEFAULT, RC_UP)
        assert m & 0x1F80 == MXCSR_DEFAULT & 0x1F80  # mask bits intact


class TestCPUHonoursRC:
    SRC = (
        ".data\none: .double 1.0\nthree: .double 3.0\n.text\nmain:\n"
        "  movsd xmm0, [rip + one]\n  divsd xmm0, [rip + three]\n  hlt\n"
    )

    def _run(self, rc) -> float:
        cpu = CPU(assemble(self.SRC))
        cpu.regs.mxcsr = with_rounding(MXCSR_DEFAULT, rc)
        cpu.run()
        return b2f(cpu.regs.xmm[0][0])

    def test_round_up_vs_down(self):
        up = self._run(RC_UP)
        dn = self._run(RC_DOWN)
        ne = self._run(RC_NEAREST)
        assert Fraction(dn) < Fraction(1, 3) < Fraction(up)
        assert ne in (dn, up)

    def test_round_zero_truncates(self):
        assert self._run(RC_ZERO) == self._run(RC_DOWN)  # positive value
