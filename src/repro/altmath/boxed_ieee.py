"""Boxed IEEE: the paper's worst-case alternative arithmetic system.

Arithmetic is plain hardware binary64 — the value held in the heap box
is just a double — so results are bit-for-bit identical to native
execution (§6: "we expect to get bit-for-bit equal results to the
baseline, and we have validated this to be true").  Its only purpose is
to exercise the full NaN-boxing machinery at the lowest possible
altmath cost, making virtualization overhead maximally visible.

A value is a host ``float``, and the ops are the float forms of
:mod:`repro.fpu.fast`.  :meth:`BoxedIEEE.promote` and
:meth:`BoxedIEEE.demote` are the only bit-pattern conversions.  NaN
payloads need not survive: FPVM stores every NaN result as the
canonical quiet NaN, so a box never holds one.  Its boxes therefore
live in the flat store, one ``array('d')`` that marks an empty slot
with NaN.
"""

from __future__ import annotations

import math

from repro.altmath.base import AltMathCosts, AltMathSystem, register_altmath
from repro.fpu import bits as B
from repro.fpu import fast

_U64 = 0xFFFF_FFFF_FFFF_FFFF


@register_altmath
class BoxedIEEE(AltMathSystem):
    name = "boxed_ieee"
    box_store = "flat"
    costs = AltMathCosts(
        promote=55,
        demote=25,
        box=130,
        load=35,
        compare=18,
        convert=22,
        ops={"add": 22, "sub": 22, "mul": 26, "div": 40, "sqrt": 48,
             "min": 20, "max": 20, "neg": 8, "abs": 8, "fma": 30},
        libm=90,
        libm_ops={"sin": 95, "cos": 95, "tan": 120, "atan": 100,
                  "asin": 110, "acos": 110, "exp": 85, "log": 85,
                  "fabs": 20, "atan2": 120, "pow": 150, "fmod": 90},
    )

    def promote(self, bits: int) -> float:
        return B.bits_to_float(bits)

    def demote(self, value: float) -> int:
        return B.float_to_bits(value)

    def from_i64(self, value: int) -> float:
        return B.bits_to_float(fast.cvtsi2sd(value & _U64))

    def to_i64(self, value: float, truncate: bool = True) -> int:
        bits = B.float_to_bits(value)
        return fast.cvttsd2si(bits) if truncate else fast.cvtsd2si(bits)

    def binary(self, op: str, a: float, b: float) -> float:
        return fast.FLOAT_BINARY[op](a, b)

    def unary(self, op: str, a: float) -> float:
        return fast.FLOAT_UNARY[op](a)

    def fma(self, a: float, b: float, c: float) -> float:
        return fast.fma_float(a, b, c)

    def compare(self, a: float, b: float) -> int | None:
        return fast.compare_float(a, b)

    def is_nan_value(self, value: float) -> bool:
        return value != value

    def libm(self, fn: str, *args: float) -> float:
        try:
            if fn == "log":
                x = args[0]
                return math.log(x) if x > 0 else (-math.inf if x == 0 else math.nan)
            if fn == "fabs":
                return abs(args[0])
            return getattr(math, fn)(*args)
        except (ValueError, OverflowError, ZeroDivisionError):
            return math.nan
