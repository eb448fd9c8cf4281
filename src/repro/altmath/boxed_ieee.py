"""Boxed IEEE: the paper's worst-case alternative arithmetic system.

Arithmetic is plain hardware binary64 — the value held in the heap box
is just a double — so results are bit-for-bit identical to native
execution (§6: "we expect to get bit-for-bit equal results to the
baseline, and we have validated this to be true").  Its only purpose is
to exercise the full NaN-boxing machinery at the lowest possible
altmath cost, making virtualization overhead maximally visible.
"""

from __future__ import annotations

from repro.altmath.base import AltMathCosts, AltMathSystem, register_altmath
from repro.fpu import bits as B
from repro.fpu import fast


@register_altmath
class BoxedIEEE(AltMathSystem):
    name = "boxed_ieee"
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

    # Values ARE binary64 bit patterns (stored in a heap box by the
    # allocator; the box is the allocator's concern, not ours).
    def promote(self, bits: int):
        return bits

    def demote(self, value) -> int:
        return value

    def from_i64(self, value: int):
        return fast.cvtsi2sd(value & 0xFFFF_FFFF_FFFF_FFFF)

    def to_i64(self, value, truncate: bool = True) -> int:
        return fast.cvttsd2si(value) if truncate else fast.cvtsd2si(value)

    def binary(self, op: str, a, b):
        return fast._EVALUATORS[op](a, b)

    def unary(self, op: str, a):
        if op == "sqrt":
            return fast.FAST_SCALAR["sqrt"](a)
        if op == "neg":
            return a ^ B.F64_SIGN_MASK
        if op == "abs":
            return a & ~B.F64_SIGN_MASK
        raise KeyError(op)

    def fma(self, a, b, c):
        return fast.fma(a, b, c)

    def compare(self, a, b) -> int | None:
        if B.is_nan(a) or B.is_nan(b):
            return None
        fa, fb = B.bits_to_float(a), B.bits_to_float(b)
        if fa == fb:
            return 0
        return -1 if fa < fb else 1

    def is_nan_value(self, value) -> bool:
        return value & ~B.F64_SIGN_MASK > B.F64_EXP_MASK  # B.is_nan, inline

    def libm(self, fn: str, *args):
        import math

        floats = [B.bits_to_float(a) for a in args]
        try:
            if fn == "log":
                x = floats[0]
                r = math.log(x) if x > 0 else (-math.inf if x == 0 else math.nan)
            elif fn == "fabs":
                r = abs(floats[0])
            else:
                r = getattr(math, fn)(*floats)
        except (ValueError, OverflowError, ZeroDivisionError):
            r = math.nan
        return B.float_to_bits(r)
