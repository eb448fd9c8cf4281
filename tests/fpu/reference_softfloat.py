"""The rational BigFloat arithmetic, kept as the reference for the
integer forms in :mod:`repro.fpu.softfloat`.

``add``, ``sub``, ``fma``, ``cmp`` and ``from_float64_bits`` here are
the earlier methods verbatim (``self`` is the left operand), and
``to_i64`` is ``MPFRSystem.to_i64`` verbatim: each takes
the operands' exact rational values as :class:`~fractions.Fraction`\\ s,
adds or compares them, and rounds the exact result once through
``BigFloat.from_fraction``.  Two of their answers are wrong, and the
library differs there on purpose: ``cmp`` places ±inf at ±2^40000, so a
finite value past it compares above +inf, and ``fma`` gives +0 for every
exact zero, where a zero product plus a zero addend of the same sign
keeps that sign.
"""

from __future__ import annotations

from fractions import Fraction

from repro.fpu import bits as B
from repro.fpu.softfloat import (
    _KIND_FINITE,
    _KIND_INF,
    _KIND_ZERO,
    BigFloat,
    BigFloatContext,
    _round_mant,
    _round_ratio,
)


def _round_existing(x: BigFloat, ctx: BigFloatContext) -> BigFloat:
    """Re-round a finite/zero BigFloat into a (possibly different) context."""
    if x._kind != _KIND_FINITE:
        return BigFloat(x._kind, x._sign, 0, 0, ctx.precision)
    return _round_mant(x._sign, x._mant, x._exp, ctx)


def from_float64_bits(bits: int, ctx: BigFloatContext) -> BigFloat:
    if B.is_nan(bits):
        return BigFloat.nan(ctx)
    if B.is_inf(bits):
        return BigFloat.inf(B.sign_bit(bits), ctx)
    if B.is_zero(bits):
        return BigFloat.zero(B.sign_bit(bits), ctx)
    frac = B.bits_to_fraction(bits)
    sign = 1 if frac < 0 else 0
    return _round_ratio(sign, abs(frac.numerator), frac.denominator, ctx)


def add(self: BigFloat, other: BigFloat, ctx: BigFloatContext | None = None) -> BigFloat:
    ctx = ctx or BigFloatContext(self._prec)
    if self.is_nan() or other.is_nan():
        return BigFloat.nan(ctx)
    if self.is_inf() or other.is_inf():
        if self.is_inf() and other.is_inf():
            if self._sign != other._sign:
                return BigFloat.nan(ctx)
            return BigFloat.inf(self._sign, ctx)
        return BigFloat.inf(self._sign if self.is_inf() else other._sign, ctx)
    if self.is_zero() and other.is_zero():
        # RNDN: -0 + -0 = -0; mixed signs give +0.
        return BigFloat.zero(self._sign & other._sign, ctx)
    if self.is_zero():
        return _round_existing(other, ctx)
    if other.is_zero():
        return _round_existing(self, ctx)
    exact = self.to_fraction() + other.to_fraction()
    if exact == 0:
        return BigFloat.zero(0, ctx)
    return BigFloat.from_fraction(exact, ctx)


def sub(self: BigFloat, other: BigFloat, ctx: BigFloatContext | None = None) -> BigFloat:
    return add(self, other.neg(), ctx)


def fma(self: BigFloat, y: BigFloat, z: BigFloat,
        ctx: BigFloatContext | None = None) -> BigFloat:
    """self*y + z with a single rounding (used by the altmath layer)."""
    ctx = ctx or BigFloatContext(self._prec)
    if self.is_nan() or y.is_nan() or z.is_nan():
        return BigFloat.nan(ctx)
    if not (self.is_finite() and y.is_finite() and z.is_finite()):
        # Fall back to two-step for the (rare) non-finite cases; the
        # special-value outcomes are identical.
        return add(self.mul(y, ctx), z, ctx)
    exact = self.to_fraction() * y.to_fraction() + z.to_fraction()
    if exact == 0:
        return BigFloat.zero(0, ctx)
    return BigFloat.from_fraction(exact, ctx)


def cmp(self: BigFloat, other: BigFloat) -> int | None:
    """-1/0/+1, or None if unordered (either side NaN)."""
    if self.is_nan() or other.is_nan():
        return None
    a = _cmp_key(self)
    b = _cmp_key(other)
    return -1 if a < b else (0 if a == b else 1)


def _cmp_key(self: BigFloat):
    if self._kind == _KIND_ZERO:
        return Fraction(0)
    if self._kind == _KIND_INF:
        return Fraction((-1) ** self._sign * (1 << 40000))  # beyond any finite
    return self.to_fraction()


def to_i64(value: BigFloat, truncate: bool = True) -> int:
    """``MPFRSystem.to_i64`` on the operand's rational value."""
    indefinite = 0x8000_0000_0000_0000
    if value.is_nan() or value.is_inf():
        return indefinite
    frac = value.to_fraction()
    if truncate:
        t = int(frac)  # int() truncates toward zero for Fraction
    else:
        # round half to even
        floor = frac.numerator // frac.denominator
        rem = frac - floor
        if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2):
            t = floor + 1
        else:
            t = floor
    if not (-(2**63) <= t <= 2**63 - 1):
        return indefinite
    return t & 0xFFFF_FFFF_FFFF_FFFF
