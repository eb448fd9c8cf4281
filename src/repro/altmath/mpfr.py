"""The MPFR-class system: 200-bit correctly-rounded binary floating
point, built on :class:`repro.fpu.softfloat.BigFloat` (§6.4).

Costs are calibrated to MPFR's relative expense over hardware doubles
at ~200 bits (add ~10x a hardware add, mul ~20x, transcendentals in the
thousands of cycles) — the paper's Figure 13 shows altmath dominating
every breakdown bar once these are in play.
"""

from __future__ import annotations

from repro.altmath.base import AltMathCosts, AltMathSystem, register_altmath
from repro.fpu import bits as B
from repro.fpu.softfloat import BigFloat, BigFloatContext


@register_altmath
class MPFRSystem(AltMathSystem):
    name = "mpfr"

    def __init__(self, precision: int = 200):
        self.ctx = BigFloatContext(precision)
        self.precision = precision
        scale = max(1.0, precision / 64.0)
        self.costs = AltMathCosts(
            promote=180,
            demote=140,
            box=95,
            compare=60,
            convert=120,
            ops={
                "add": int(220 * scale / 3),
                "sub": int(220 * scale / 3),
                "mul": int(420 * scale / 3),
                "div": int(900 * scale / 3),
                "sqrt": int(1300 * scale / 3),
                "fma": int(560 * scale / 3),
                "min": 70,
                "max": 70,
                "neg": 30,
                "abs": 30,
            },
            libm=int(4200 * scale / 3),
        )

    def promote(self, bits: int) -> BigFloat:
        return BigFloat.from_float64_bits(bits, self.ctx)

    def demote(self, value: BigFloat) -> int:
        return value.to_float64_bits()

    def from_i64(self, value: int) -> BigFloat:
        value &= 0xFFFF_FFFF_FFFF_FFFF
        if value >= 1 << 63:
            value -= 1 << 64
        return BigFloat.from_int(value, self.ctx)

    def to_i64(self, value: BigFloat, truncate: bool = True) -> int:
        t = value.to_int(truncate, 64)
        if t is None or not -(1 << 63) <= t < 1 << 63:
            return 0x8000_0000_0000_0000  # integer indefinite
        return t & 0xFFFF_FFFF_FFFF_FFFF

    def binary(self, op: str, a: BigFloat, b: BigFloat) -> BigFloat:
        if op == "add":
            return a.add(b, self.ctx)
        if op == "sub":
            return a.sub(b, self.ctx)
        if op == "mul":
            return a.mul(b, self.ctx)
        if op == "div":
            return a.div(b, self.ctx)
        if op in ("min", "max"):
            # SSE semantics: src2 on NaN or tie.
            c = a.cmp(b)
            if c is None or c == 0:
                return b
            if op == "min":
                return a if c < 0 else b
            return a if c > 0 else b
        raise KeyError(op)

    def unary(self, op: str, a: BigFloat) -> BigFloat:
        if op == "sqrt":
            return a.sqrt(self.ctx)
        if op == "neg":
            return a.neg()
        if op == "abs":
            return a.abs()
        raise KeyError(op)

    def fma(self, a: BigFloat, b: BigFloat, c: BigFloat) -> BigFloat:
        return a.fma(b, c, self.ctx)

    def compare(self, a: BigFloat, b: BigFloat) -> int | None:
        return a.cmp(b)

    def is_nan_value(self, value: BigFloat) -> bool:
        return value.is_nan()

    def libm(self, fn: str, *args: BigFloat) -> BigFloat:
        if fn in ("sin", "cos", "tan", "asin", "acos", "atan", "exp", "log"):
            return getattr(args[0], fn)(self.ctx)
        if fn == "fabs":
            return args[0].abs()
        if fn == "atan2":
            return self._atan2(args[0], args[1])
        if fn == "pow":
            return self._pow(args[0], args[1])
        if fn == "fmod":
            return self._fmod(args[0], args[1])
        raise KeyError(fn)

    def _atan2(self, y: BigFloat, x: BigFloat) -> BigFloat:
        from fractions import Fraction

        from repro.fpu.softfloat import _pi

        if y.is_nan() or x.is_nan():
            return BigFloat.nan(self.ctx)
        work = self.precision + 32
        pi = _pi(work)
        if x.is_zero() and y.is_zero():
            return BigFloat.zero(y._sign, self.ctx)
        if not x.is_inf() and not y.is_inf():
            xv = x.to_fraction()
            yv = y.to_fraction()
            if xv > 0:
                return y.div(x, self.ctx).atan(self.ctx)
            if xv < 0:
                base = y.div(x, self.ctx).atan(self.ctx).to_fraction()
                off = pi if yv >= 0 else -pi
                return BigFloat.from_fraction(base + off, self.ctx)
            # x == 0
            half = pi / 2
            return BigFloat.from_fraction(half if yv > 0 else -half, self.ctx)
        # Infinity cases: fall back to host semantics via demotion.
        import math

        r = math.atan2(y.to_float(), x.to_float())
        return BigFloat.from_float(r, self.ctx)

    def _pow(self, x: BigFloat, y: BigFloat) -> BigFloat:
        if x.is_nan() or y.is_nan():
            return BigFloat.nan(self.ctx)
        if y.is_zero():
            return BigFloat.from_int(1, self.ctx)
        if x.is_zero():
            return BigFloat.zero(0, self.ctx)
        if x.is_negative():
            yf = y.to_fraction() if y.is_finite() else None
            if yf is not None and yf.denominator == 1:
                mag = x.abs().log(self.ctx).mul(y, self.ctx).exp(self.ctx)
                return mag.neg() if int(yf) % 2 else mag
            return BigFloat.nan(self.ctx)
        # x > 0: exp(y * log x)
        return x.log(self.ctx).mul(y, self.ctx).exp(self.ctx)

    def _fmod(self, x: BigFloat, y: BigFloat) -> BigFloat:
        if x.is_nan() or y.is_nan() or y.is_zero() or x.is_inf():
            return BigFloat.nan(self.ctx)
        if y.is_inf() or x.is_zero():
            return x
        xv, yv = x.to_fraction(), abs(y.to_fraction())
        q = abs(xv) // yv
        r = abs(xv) - q * yv
        if xv < 0:
            r = -r
        return BigFloat.from_fraction(r, self.ctx) if r else BigFloat.zero(
            1 if xv < 0 else 0, self.ctx
        )
