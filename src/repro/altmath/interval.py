"""Interval arithmetic with outward directed rounding.

Each value is a closed interval [lo, hi] of binary64 endpoints that is
guaranteed to contain the exact mathematical result.  Operations
compute candidate endpoints exactly (rationals) and round lo toward
-inf and hi toward +inf.  An "alternative NaN" is the empty/undefined
interval (either endpoint NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.altmath.base import AltMathCosts, AltMathSystem, register_altmath
from repro.fpu import bits as B


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    @property
    def undefined(self) -> bool:
        return math.isnan(self.lo) or math.isnan(self.hi)

    def midpoint(self) -> float:
        if self.undefined:
            return math.nan
        if math.isinf(self.lo) and math.isinf(self.hi):
            return math.nan if self.lo != self.hi else self.lo
        if math.isinf(self.lo):
            return self.lo
        if math.isinf(self.hi):
            return self.hi
        mid = self.lo + (self.hi - self.lo) / 2.0
        return mid

    def __contains__(self, x: float) -> bool:
        return not self.undefined and self.lo <= x <= self.hi


_UNDEFINED = Interval(math.nan, math.nan)


def _round_down(exact: Fraction) -> float:
    """Largest binary64 <= exact (round toward -infinity)."""
    bits_, _, _, _ = B.fraction_to_bits_rne(exact)
    x = B.bits_to_float(bits_)
    if math.isinf(x):
        # RNE overflowed; +inf must come back to maxfinite for a lower bound.
        return math.nextafter(x, -math.inf) if x > 0 else x
    if Fraction(x) > exact:
        return math.nextafter(x, -math.inf)
    return x


def _round_up(exact: Fraction) -> float:
    """Smallest binary64 >= exact (round toward +infinity)."""
    bits_, _, _, _ = B.fraction_to_bits_rne(exact)
    x = B.bits_to_float(bits_)
    if math.isinf(x):
        return math.nextafter(x, math.inf) if x < 0 else x
    if Fraction(x) < exact:
        return math.nextafter(x, math.inf)
    return x


def _from_exact(lo: Fraction, hi: Fraction) -> Interval:
    return Interval(_round_down(lo), _round_up(hi))


@register_altmath
class IntervalSystem(AltMathSystem):
    name = "interval"
    costs = AltMathCosts(
        promote=70,
        demote=40,
        box=95,
        compare=40,
        convert=60,
        ops={"add": 90, "sub": 90, "mul": 160, "div": 260, "sqrt": 300,
             "min": 50, "max": 50, "neg": 20, "abs": 30},
        libm=600,
    )

    def promote(self, bits: int) -> Interval:
        x = B.bits_to_float(bits)
        if math.isnan(x):
            return _UNDEFINED
        return Interval(x, x)

    def demote(self, value: Interval) -> int:
        return B.float_to_bits(value.midpoint())

    def from_i64(self, value: int) -> Interval:
        value &= 0xFFFF_FFFF_FFFF_FFFF
        if value >= 1 << 63:
            value -= 1 << 64
        return _from_exact(Fraction(value), Fraction(value))

    def to_i64(self, value: Interval, truncate: bool = True) -> int:
        mid = value.midpoint()
        if math.isnan(mid) or math.isinf(mid):
            return 0x8000_0000_0000_0000
        t = math.trunc(mid) if truncate else round(mid)
        if not (-(2**63) <= t <= 2**63 - 1):
            return 0x8000_0000_0000_0000
        return t & 0xFFFF_FFFF_FFFF_FFFF

    def binary(self, op: str, a: Interval, b: Interval) -> Interval:
        if a.undefined or b.undefined:
            return _UNDEFINED
        if op in ("min", "max"):
            c = self.compare(a, b)
            if c == 0 or c is None:
                return b
            if op == "min":
                return a if c < 0 else b
            return a if c > 0 else b
        if not all(map(math.isfinite, (a.lo, a.hi, b.lo, b.hi))):
            return self._binary_inf(op, a, b)
        alo, ahi = Fraction(a.lo), Fraction(a.hi)
        blo, bhi = Fraction(b.lo), Fraction(b.hi)
        if op == "add":
            return _from_exact(alo + blo, ahi + bhi)
        if op == "sub":
            return _from_exact(alo - bhi, ahi - blo)
        if op == "mul":
            products = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
            return _from_exact(min(products), max(products))
        if op == "div":
            if blo <= 0 <= bhi:
                # Divisor interval straddles (or is) zero: the true
                # quotient set is unbounded — return the whole line,
                # or undefined for the 0/0 case.
                if blo == bhi == 0:
                    return _UNDEFINED
                return Interval(-math.inf, math.inf)
            quotients = [alo / blo, alo / bhi, ahi / blo, ahi / bhi]
            return _from_exact(min(quotients), max(quotients))
        raise KeyError(op)

    def _binary_inf(self, op: str, a: Interval, b: Interval) -> Interval:
        """Conservative handling for infinite endpoints: compute with
        host floats using the four-corner rule; inf arithmetic is exact
        so directed rounding is unnecessary except for finite corners,
        where this over-approximates by one ulp at most."""
        if op == "add":
            lo, hi = a.lo + b.lo, a.hi + b.hi
        elif op == "sub":
            lo, hi = a.lo - b.hi, a.hi - b.lo
        elif op in ("mul", "div"):
            corners = []
            for x in (a.lo, a.hi):
                for y in (b.lo, b.hi):
                    try:
                        v = x * y if op == "mul" else (x / y if y != 0 else math.nan)
                    except (OverflowError, ZeroDivisionError):
                        v = math.nan
                    corners.append(v)
            if any(map(math.isnan, corners)):
                return _UNDEFINED
            lo, hi = min(corners), max(corners)
            lo = math.nextafter(lo, -math.inf) if math.isfinite(lo) else lo
            hi = math.nextafter(hi, math.inf) if math.isfinite(hi) else hi
        else:
            raise KeyError(op)
        if math.isnan(lo) or math.isnan(hi):
            return _UNDEFINED
        return Interval(lo, hi)

    def unary(self, op: str, a: Interval) -> Interval:
        if a.undefined:
            return _UNDEFINED
        if op == "neg":
            return Interval(-a.hi, -a.lo)
        if op == "abs":
            if a.lo >= 0:
                return a
            if a.hi <= 0:
                return Interval(-a.hi, -a.lo)
            return Interval(0.0, max(-a.lo, a.hi))
        if op == "sqrt":
            if a.hi < 0:
                return _UNDEFINED
            lo = max(a.lo, 0.0)
            lo_r = math.sqrt(lo)
            hi_r = math.sqrt(a.hi) if a.hi >= 0 else math.nan
            # Outward-correct: sqrt is correctly rounded, so nudge.
            if lo_r * lo_r > lo:
                lo_r = math.nextafter(lo_r, -math.inf)
            if math.isfinite(hi_r) and hi_r * hi_r < a.hi:
                hi_r = math.nextafter(hi_r, math.inf)
            return Interval(lo_r, hi_r)
        raise KeyError(op)

    def compare(self, a: Interval, b: Interval) -> int | None:
        if a.undefined or b.undefined:
            return None
        # Certain orderings only; overlapping intervals compare by
        # midpoint (FPVM needs a total-ish answer for branches).
        if a.hi < b.lo:
            return -1
        if a.lo > b.hi:
            return 1
        ma, mb = a.midpoint(), b.midpoint()
        if ma == mb:
            return 0
        return -1 if ma < mb else 1

    def is_nan_value(self, value: Interval) -> bool:
        return value.undefined
