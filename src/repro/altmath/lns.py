"""Logarithmic number system (LNS) arithmetic.

The paper's related work cites Arnold et al., "Redundant Logarithmic
Arithmetic" — LNS represents a value by the fixed-point base-2
logarithm of its magnitude plus a sign, making multiplication,
division, square root and powers *exact* (integer add/sub/shift of
exponents) while addition and subtraction need the Gaussian-logarithm
correction

    log2(|a| + |b|) = max + log2(1 + 2^-(|max - min|))

evaluated here at high precision (a real LNS uses correction tables;
the table-lookup cost is what the cost model charges).

Representation: ``LNSValue(sign, log2_magnitude)`` with the log carried
as a ``Fraction`` quantized to ``frac_bits`` fractional bits — a
classic sign/logarithm fixed-point format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.altmath.base import AltMathCosts, AltMathSystem, register_altmath
from repro.fpu import bits as B
from repro.fpu import fast


@dataclass(frozen=True)
class LNSValue:
    """sign in {+1, -1}; log2 of the magnitude; zero/nan/inf flags."""

    sign: int
    log2: Fraction
    kind: str = "finite"  # "finite" | "zero" | "inf" | "nan"

    @classmethod
    def nan(cls) -> "LNSValue":
        return cls(1, Fraction(0), "nan")

    @classmethod
    def inf(cls, sign: int) -> "LNSValue":
        return cls(sign, Fraction(0), "inf")

    @classmethod
    def zero(cls, sign: int = 1) -> "LNSValue":
        return cls(sign, Fraction(0), "zero")

    def is_nan(self) -> bool:
        return self.kind == "nan"


@register_altmath
class LNSSystem(AltMathSystem):
    """``frac_bits`` controls the fixed-point log resolution: 52 makes
    multiplicative accuracy comparable to binary64 while additive
    accuracy depends on the correction evaluation."""

    name = "lns"

    def __init__(self, frac_bits: int = 52):
        if frac_bits < 4:
            raise ValueError("frac_bits must be >= 4")
        self.frac_bits = frac_bits
        self._quantum = Fraction(1, 1 << frac_bits)
        self.costs = AltMathCosts(
            promote=150,   # needs a log2 evaluation
            demote=140,    # needs a 2^x evaluation
            box=95,
            compare=25,    # sign + integer compare of logs: cheap
            convert=130,
            ops={
                # The LNS selling point: multiplicative ops are adds.
                "mul": 30, "div": 30, "sqrt": 20,
                # Additive ops pay the Gaussian-log correction lookup.
                "add": 260, "sub": 300,
                "min": 25, "max": 25, "neg": 8, "abs": 8,
            },
            libm=700,
        )

    # ------------------------------------------------------- conversions
    def _quantize(self, log2: Fraction) -> Fraction:
        # round-to-nearest multiple of the fixed-point quantum
        n = round(log2 / self._quantum)
        return n * self._quantum

    def promote(self, bits: int) -> LNSValue:
        if B.is_nan(bits):
            return LNSValue.nan()
        if B.is_inf(bits):
            return LNSValue.inf(-1 if B.is_negative(bits) else 1)
        if B.is_zero(bits):
            return LNSValue.zero(-1 if B.is_negative(bits) else 1)
        frac = B.bits_to_fraction(bits)
        sign = -1 if frac < 0 else 1
        return LNSValue(sign, self._log2(abs(frac)))

    def _log2(self, mag: Fraction) -> Fraction:
        # Exact integer part; fractional part from the high-precision
        # natural log of the normalized mantissa.
        e = B._ilog2(mag)
        mant = mag / (Fraction(2) ** e)  # in [1, 2)
        frac_part = Fraction(math.log2(float(mant)))
        return self._quantize(e + frac_part)

    def demote(self, value: LNSValue) -> int:
        if value.kind == "nan":
            return B.CANONICAL_QNAN
        if value.kind == "inf":
            return B.NEG_INF_BITS if value.sign < 0 else B.POS_INF_BITS
        if value.kind == "zero":
            return B.NEG_ZERO_BITS if value.sign < 0 else B.POS_ZERO_BITS
        log2 = value.log2
        e = math.floor(log2)
        frac = float(log2 - e)
        mant = 2.0 ** frac
        try:
            mag = math.ldexp(mant, e)
        except OverflowError:
            mag = math.inf
        return B.float_to_bits(value.sign * mag)

    def from_i64(self, value: int) -> LNSValue:
        value &= 0xFFFF_FFFF_FFFF_FFFF
        if value >= 1 << 63:
            value -= 1 << 64
        if value == 0:
            return LNSValue.zero()
        sign = -1 if value < 0 else 1
        return LNSValue(sign, self._log2(Fraction(abs(value))))

    def to_i64(self, value: LNSValue, truncate: bool = True) -> int:
        bits = self.demote(value)
        return fast.cvttsd2si(bits) if truncate else fast.cvtsd2si(bits)

    # -------------------------------------------------------- arithmetic
    def binary(self, op: str, a: LNSValue, b: LNSValue) -> LNSValue:
        if a.is_nan() or b.is_nan():
            return LNSValue.nan()
        if op == "mul":
            return self._mul(a, b)
        if op == "div":
            return self._div(a, b)
        if op == "add":
            return self._addsub(a, b, subtract=False)
        if op == "sub":
            return self._addsub(a, b, subtract=True)
        if op in ("min", "max"):
            c = self.compare(a, b)
            if c == 0 or c is None:
                return b
            if op == "min":
                return a if c < 0 else b
            return a if c > 0 else b
        raise KeyError(op)

    def _mul(self, a: LNSValue, b: LNSValue) -> LNSValue:
        sign = a.sign * b.sign
        if a.kind == "inf" or b.kind == "inf":
            if a.kind == "zero" or b.kind == "zero":
                return LNSValue.nan()
            return LNSValue.inf(sign)
        if a.kind == "zero" or b.kind == "zero":
            return LNSValue.zero(sign)
        return LNSValue(sign, self._quantize(a.log2 + b.log2))

    def _div(self, a: LNSValue, b: LNSValue) -> LNSValue:
        sign = a.sign * b.sign
        if a.kind == "inf":
            return LNSValue.nan() if b.kind == "inf" else LNSValue.inf(sign)
        if b.kind == "inf":
            return LNSValue.zero(sign)
        if b.kind == "zero":
            return LNSValue.nan() if a.kind == "zero" else LNSValue.inf(sign)
        if a.kind == "zero":
            return LNSValue.zero(sign)
        return LNSValue(sign, self._quantize(a.log2 - b.log2))

    def _addsub(self, a: LNSValue, b: LNSValue, subtract: bool) -> LNSValue:
        if subtract:
            b = LNSValue(-b.sign, b.log2, b.kind)
        if a.kind == "inf" or b.kind == "inf":
            if a.kind == "inf" and b.kind == "inf":
                if a.sign != b.sign:
                    return LNSValue.nan()
                return a
            return a if a.kind == "inf" else b
        if a.kind == "zero":
            return b
        if b.kind == "zero":
            return a
        # Order so |a| >= |b|.
        if a.log2 < b.log2:
            a, b = b, a
        d = a.log2 - b.log2  # >= 0
        if a.sign == b.sign:
            # log2(|a|+|b|) = log2|a| + log2(1 + 2^-d)
            corr = math.log2(1.0 + 2.0 ** -float(d))
            return LNSValue(a.sign, self._quantize(a.log2 + Fraction(corr)))
        # Opposite signs: |a| - |b|.
        if d == 0:
            return LNSValue.zero()
        x = 1.0 - 2.0 ** -float(d)
        corr = math.log2(x)
        return LNSValue(a.sign, self._quantize(a.log2 + Fraction(corr)))

    def unary(self, op: str, a: LNSValue) -> LNSValue:
        if a.is_nan():
            return a
        if op == "neg":
            return LNSValue(-a.sign, a.log2, a.kind)
        if op == "abs":
            return LNSValue(1, a.log2, a.kind)
        if op == "sqrt":
            if a.kind == "zero":
                return a
            if a.sign < 0:
                return LNSValue.nan()
            if a.kind == "inf":
                return a
            # Exact in LNS: halve the exponent.
            return LNSValue(1, self._quantize(a.log2 / 2))
        raise KeyError(op)

    def compare(self, a: LNSValue, b: LNSValue) -> int | None:
        if a.is_nan() or b.is_nan():
            return None
        ka = self._order_key(a)
        kb = self._order_key(b)
        return -1 if ka < kb else (0 if ka == kb else 1)

    @staticmethod
    def _order_key(v: LNSValue):
        big = Fraction(1 << 20000)
        if v.kind == "zero":
            return Fraction(0)
        if v.kind == "inf":
            return big * v.sign
        # Sign-magnitude ordering: log2 + big is always positive, so the
        # sign factor orders negatives below positives correctly.
        return v.sign * (v.log2 + big)

    def is_nan_value(self, value: LNSValue) -> bool:
        return value.is_nan()
