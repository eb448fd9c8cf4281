"""Arbitrary-precision binary floating point with correct rounding.

This is the repo's MPFR stand-in (the paper evaluates FPVM with MPFR at
200 bits of precision, §6.4).  A :class:`BigFloat` is a software float

    value = (-1)^sign * mantissa * 2^exp

with ``mantissa`` normalized to exactly ``precision`` bits (top bit
set), rounded to nearest with ties to even — the same rounding contract
MPFR provides.  Special values (NaN, +/-Inf, +/-0) are carried
explicitly.

Only what the FPVM emulator needs is implemented: add, sub, mul, div,
sqrt, fma, neg, abs, comparisons, and conversions to/from binary64 bit
patterns and integers.  The arithmetic works on the integer mantissas:
a sum aligns the signed mantissas to the smaller exponent and adds them
exactly, a product multiplies them, a quotient or root carries its
remainder as a sticky bit, and each result is rounded once
(:func:`_round_mant`).  A comparison orders sign and kind first, then
the magnitudes' top bits, then the aligned mantissas.
Transcendentals (sin/cos/atan/...) are provided to ~2 ulp by
computing through argument-reduced Taylor/Newton schemes on rationals at
extended working precision; they back the libm forward wrappers (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.fpu import bits as B

_KIND_FINITE = 0
_KIND_ZERO = 1
_KIND_INF = 2
_KIND_NAN = 3


@dataclass(frozen=True)
class BigFloatContext:
    """Rounding context: precision in bits (>= 2).

    MPFR's default rounding (RNDN, nearest/even) is the only mode
    implemented; the paper uses it exclusively.
    """

    precision: int = 200

    def __post_init__(self) -> None:
        if self.precision < 2:
            raise ValueError("precision must be >= 2 bits")


DEFAULT_CONTEXT = BigFloatContext(200)


class BigFloat:
    """An immutable arbitrary-precision binary float."""

    __slots__ = ("_kind", "_sign", "_mant", "_exp", "_prec")

    def __init__(self, kind: int, sign: int, mant: int, exp: int, prec: int):
        self._kind = kind
        self._sign = sign
        self._mant = mant
        self._exp = exp
        self._prec = prec

    # ---------------------------------------------------------- factories
    @classmethod
    def nan(cls, ctx: BigFloatContext = DEFAULT_CONTEXT) -> "BigFloat":
        return cls(_KIND_NAN, 0, 0, 0, ctx.precision)

    @classmethod
    def inf(cls, sign: int = 0, ctx: BigFloatContext = DEFAULT_CONTEXT) -> "BigFloat":
        return cls(_KIND_INF, sign, 0, 0, ctx.precision)

    @classmethod
    def zero(cls, sign: int = 0, ctx: BigFloatContext = DEFAULT_CONTEXT) -> "BigFloat":
        return cls(_KIND_ZERO, sign, 0, 0, ctx.precision)

    @classmethod
    def from_int(cls, value: int, ctx: BigFloatContext = DEFAULT_CONTEXT) -> "BigFloat":
        if value == 0:
            return cls.zero(0, ctx)
        sign = 1 if value < 0 else 0
        return _round_mant(sign, abs(value), 0, ctx)

    @classmethod
    def from_fraction(
        cls, value: Fraction, ctx: BigFloatContext = DEFAULT_CONTEXT
    ) -> "BigFloat":
        if value == 0:
            return cls.zero(0, ctx)
        sign = 1 if value < 0 else 0
        return _round_ratio(sign, abs(value.numerator), value.denominator, ctx)

    @classmethod
    def from_float64_bits(
        cls, bits: int, ctx: BigFloatContext = DEFAULT_CONTEXT
    ) -> "BigFloat":
        sign = (bits >> 63) & 1
        biased = (bits >> 52) & 0x7FF
        mant = bits & B.F64_FRAC_MASK
        if biased == 0x7FF:
            return cls.nan(ctx) if mant else cls.inf(sign, ctx)
        if biased:
            return _round_mant(sign, mant | (1 << 52), biased - 1075, ctx)
        if mant:  # subnormal
            return _round_mant(sign, mant, -1074, ctx)
        return cls.zero(sign, ctx)

    @classmethod
    def from_float(cls, x: float, ctx: BigFloatContext = DEFAULT_CONTEXT) -> "BigFloat":
        return cls.from_float64_bits(B.float_to_bits(x), ctx)

    # ---------------------------------------------------------- inspectors
    @property
    def precision(self) -> int:
        return self._prec

    def is_nan(self) -> bool:
        return self._kind == _KIND_NAN

    def is_inf(self) -> bool:
        return self._kind == _KIND_INF

    def is_zero(self) -> bool:
        return self._kind == _KIND_ZERO

    def is_finite(self) -> bool:
        return self._kind in (_KIND_FINITE, _KIND_ZERO)

    def is_negative(self) -> bool:
        return self._sign == 1

    def to_fraction(self) -> Fraction:
        if self._kind == _KIND_ZERO:
            return Fraction(0)
        if self._kind != _KIND_FINITE:
            raise ValueError("non-finite BigFloat has no rational value")
        mag = (
            Fraction(self._mant * (1 << self._exp))
            if self._exp >= 0
            else Fraction(self._mant, 1 << -self._exp)
        )
        return -mag if self._sign else mag

    def to_int(self, truncate: bool, bits: int) -> int | None:
        """The integer nearest this value (ties to even), or with
        ``truncate`` the one toward zero; None for NaN, ±inf and a
        magnitude of 2^``bits`` or more."""
        if self._kind == _KIND_ZERO:
            return 0
        mant, exp = self._mant, self._exp
        if self._kind != _KIND_FINITE or exp + mant.bit_length() > bits:
            return None
        if exp >= 0:
            mag = mant << exp
        elif -exp > mant.bit_length():  # below 1/2
            mag = 0
        else:
            mag = mant >> -exp
            if not truncate:
                rem, half = mant & ((1 << -exp) - 1), 1 << (-exp - 1)
                if rem > half or (rem == half and mag & 1):
                    mag += 1
        return -mag if self._sign else mag

    def to_float64_bits(self) -> int:
        """Round to binary64 (nearest-even), preserving signed zero."""
        if self._kind == _KIND_NAN:
            return B.CANONICAL_QNAN
        if self._kind == _KIND_INF:
            return B.NEG_INF_BITS if self._sign else B.POS_INF_BITS
        if self._kind == _KIND_ZERO:
            return B.NEG_ZERO_BITS if self._sign else B.POS_ZERO_BITS
        rb, _, _, _ = B.fraction_to_bits_rne(self.to_fraction(), self._sign)
        return rb

    def to_float(self) -> float:
        return B.bits_to_float(self.to_float64_bits())

    # ---------------------------------------------------------- arithmetic
    def add(self, other: "BigFloat", ctx: BigFloatContext | None = None) -> "BigFloat":
        return self._add(other, other._sign, ctx)

    def sub(self, other: "BigFloat", ctx: BigFloatContext | None = None) -> "BigFloat":
        return self._add(other, other._sign ^ 1, ctx)

    def _add(self, other: "BigFloat", sign: int, ctx: BigFloatContext | None) -> "BigFloat":
        """``self`` plus ``other`` with its sign replaced by ``sign``."""
        ctx = ctx or BigFloatContext(self._prec)
        kind, other_kind = self._kind, other._kind
        if kind == _KIND_FINITE and other_kind == _KIND_FINITE:
            return _sum(self._sign, self._mant, self._exp, sign, other._mant, other._exp, ctx)
        if kind == _KIND_NAN or other_kind == _KIND_NAN:
            return BigFloat.nan(ctx)
        if kind == _KIND_INF:
            if other_kind == _KIND_INF and self._sign != sign:
                return BigFloat.nan(ctx)
            return BigFloat.inf(self._sign, ctx)
        if other_kind == _KIND_INF:
            return BigFloat.inf(sign, ctx)
        if other_kind == _KIND_ZERO:
            if kind == _KIND_ZERO:
                # RNDN: -0 + -0 = -0; mixed signs give +0.
                return BigFloat.zero(self._sign & sign, ctx)
            return _round_mant(self._sign, self._mant, self._exp, ctx)
        return _round_mant(sign, other._mant, other._exp, ctx)

    def mul(self, other: "BigFloat", ctx: BigFloatContext | None = None) -> "BigFloat":
        ctx = ctx or BigFloatContext(self._prec)
        sign = self._sign ^ other._sign
        if self._kind == _KIND_FINITE and other._kind == _KIND_FINITE:
            # Exact product of mantissas; a single rounding at the end.
            return _round_mant(sign, self._mant * other._mant, self._exp + other._exp, ctx)
        if self.is_nan() or other.is_nan():
            return BigFloat.nan(ctx)
        if self.is_inf() or other.is_inf():
            if self.is_zero() or other.is_zero():
                return BigFloat.nan(ctx)
            return BigFloat.inf(sign, ctx)
        return BigFloat.zero(sign, ctx)

    def div(self, other: "BigFloat", ctx: BigFloatContext | None = None) -> "BigFloat":
        ctx = ctx or BigFloatContext(self._prec)
        if self.is_nan() or other.is_nan():
            return BigFloat.nan(ctx)
        sign = self._sign ^ other._sign
        if self.is_inf():
            if other.is_inf():
                return BigFloat.nan(ctx)
            return BigFloat.inf(sign, ctx)
        if other.is_inf():
            return BigFloat.zero(sign, ctx)
        if other.is_zero():
            if self.is_zero():
                return BigFloat.nan(ctx)
            return BigFloat.inf(sign, ctx)
        if self.is_zero():
            return BigFloat.zero(sign, ctx)
        num = self._mant
        den = other._mant
        exp = self._exp - other._exp
        return _round_ratio_scaled(sign, num, den, exp, ctx)

    def sqrt(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        ctx = ctx or BigFloatContext(self._prec)
        if self.is_nan():
            return BigFloat.nan(ctx)
        if self.is_zero():
            return BigFloat.zero(self._sign, ctx)
        if self._sign:
            return BigFloat.nan(ctx)
        if self.is_inf():
            return BigFloat.inf(0, ctx)
        # Compute floor(sqrt(m * 2^e)) at precision + guard bits using
        # integer isqrt, then round-to-nearest-even via the remainder.
        p = ctx.precision
        mant, exp = self._mant, self._exp
        # Scale so that the integer sqrt has >= p+2 significant bits and
        # the exponent is even (so it halves exactly).
        target_bits = 2 * (p + 2)
        shift = max(target_bits - mant.bit_length(), 0)
        if (exp - shift) % 2 != 0:
            shift += 1
        mant <<= shift
        exp -= shift
        root = _isqrt(mant)
        rem = mant - root * root
        # True sqrt lies in [root, root+1) * 2^(exp/2); the sticky flag
        # carries the sub-ulp remainder into nearest-even rounding.
        return _round_mant(0, root, exp // 2, ctx, sticky=rem != 0)

    def neg(self) -> "BigFloat":
        if self._kind == _KIND_NAN:
            return self
        return BigFloat(self._kind, self._sign ^ 1, self._mant, self._exp, self._prec)

    def abs(self) -> "BigFloat":
        if self._kind == _KIND_NAN:
            return self
        return BigFloat(self._kind, 0, self._mant, self._exp, self._prec)

    def fma(
        self, y: "BigFloat", z: "BigFloat", ctx: BigFloatContext | None = None
    ) -> "BigFloat":
        """self*y + z with a single rounding (used by the altmath layer)."""
        ctx = ctx or BigFloatContext(self._prec)
        if self.is_nan() or y.is_nan() or z.is_nan():
            return BigFloat.nan(ctx)
        if not (self.is_finite() and y.is_finite() and z.is_finite()):
            # Fall back to two-step for the (rare) non-finite cases; the
            # special-value outcomes are identical.
            return self.mul(y, ctx).add(z, ctx)
        sign = self._sign ^ y._sign
        if self._kind == _KIND_ZERO or y._kind == _KIND_ZERO:
            # A zero product adds as a signed zero: -0 + -0 = -0.
            if z._kind == _KIND_ZERO:
                return BigFloat.zero(sign & z._sign, ctx)
            return _round_mant(z._sign, z._mant, z._exp, ctx)
        mant, exp = self._mant * y._mant, self._exp + y._exp
        if z._kind == _KIND_ZERO:
            return _round_mant(sign, mant, exp, ctx)
        return _sum(sign, mant, exp, z._sign, z._mant, z._exp, ctx)

    # ---------------------------------------------------------- comparison
    def cmp(self, other: "BigFloat") -> int | None:
        """-1/0/+1, or None if unordered (either side NaN).  ±inf lies
        beyond every finite value, however large its exponent."""
        kind, other_kind = self._kind, other._kind
        if kind == _KIND_NAN or other_kind == _KIND_NAN:
            return None
        a, b = _RANK[kind][self._sign], _RANK[other_kind][other._sign]
        if a != b:
            return -1 if a < b else 1
        if kind != _KIND_FINITE:  # equal zeros or equal infinities
            return 0
        # Same sign, both finite: the magnitudes' top bits, then the
        # mantissas aligned to the smaller exponent.
        ma, mb, ea, eb = self._mant, other._mant, self._exp, other._exp
        top = ea + ma.bit_length() - eb - mb.bit_length()
        if not top:
            if ea > eb:
                ma <<= ea - eb
            else:
                mb <<= eb - ea
            top = (ma > mb) - (ma < mb)
            if not top:
                return 0
        if self._sign:
            top = -top
        return 1 if top > 0 else -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        return self.cmp(other) == 0

    def __hash__(self) -> int:
        if self._kind == _KIND_NAN:
            return hash("bigfloat-nan")
        if self._kind == _KIND_INF:
            return hash(("bigfloat-inf", self._sign))
        return hash(self.to_fraction())

    def __repr__(self) -> str:
        if self._kind == _KIND_NAN:
            return "BigFloat(nan)"
        if self._kind == _KIND_INF:
            return f"BigFloat({'-' if self._sign else '+'}inf)"
        if self._kind == _KIND_ZERO:
            return f"BigFloat({'-' if self._sign else '+'}0, prec={self._prec})"
        return f"BigFloat({self.to_float()!r}~, prec={self._prec})"

    # ---------------------------------------------------- transcendentals
    def sin(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        return _transcendental(self, "sin", ctx)

    def cos(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        return _transcendental(self, "cos", ctx)

    def tan(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        return _transcendental(self, "tan", ctx)

    def atan(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        return _transcendental(self, "atan", ctx)

    def asin(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        return _transcendental(self, "asin", ctx)

    def acos(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        return _transcendental(self, "acos", ctx)

    def exp(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        return _transcendental(self, "exp", ctx)

    def log(self, ctx: BigFloatContext | None = None) -> "BigFloat":
        return _transcendental(self, "log", ctx)


def _isqrt(n: int) -> int:
    import math

    return math.isqrt(n)


#: kind -> sign -> rank: -inf < negative < ±0 < positive < +inf.
_RANK = {_KIND_FINITE: (1, -1), _KIND_ZERO: (0, 0), _KIND_INF: (2, -2)}


def _sum(sa: int, ma: int, ea: int, sb: int, mb: int, eb: int,
         ctx: BigFloatContext) -> BigFloat:
    """``(-1)^sa * ma * 2^ea + (-1)^sb * mb * 2^eb`` (both nonzero),
    rounded once: the signed mantissas aligned to the smaller exponent
    add exactly.  An exact zero is +0 (RNDN)."""
    if ea > eb:
        ma <<= ea - eb
        ea = eb
    else:
        mb <<= eb - ea
    total = (-ma if sa else ma) + (-mb if sb else mb)
    if total > 0:
        return _round_mant(0, total, ea, ctx)
    if total:
        return _round_mant(1, -total, ea, ctx)
    return BigFloat.zero(0, ctx)


def _round_mant(
    sign: int, mant: int, exp: int, ctx: BigFloatContext, sticky: bool = False
) -> BigFloat:
    """Normalize ``mant * 2^exp`` to ctx.precision bits, nearest-even.

    ``sticky`` records that low-order truncated information exists below
    ``mant`` (used by sqrt's truncated integer root).
    """
    if mant == 0:
        return BigFloat.zero(sign, ctx)
    p = ctx.precision
    nbits = mant.bit_length()
    if nbits <= p:
        # Any sticky information sits strictly below the ulp, so RNDN
        # truncates (callers that need exact ties carry >= 1 guard bit).
        shift = p - nbits
        return BigFloat(_KIND_FINITE, sign, mant << shift, exp - shift, p)
    drop = nbits - p
    kept = mant >> drop
    rem = mant & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    round_up = rem > half or (rem == half and (sticky or (kept & 1)))
    if round_up:
        kept += 1
        if kept.bit_length() > p:
            kept >>= 1
            drop += 1
    return BigFloat(_KIND_FINITE, sign, kept, exp + drop, p)


def _round_ratio(sign: int, num: int, den: int, ctx: BigFloatContext) -> BigFloat:
    return _round_ratio_scaled(sign, num, den, 0, ctx)


def _round_ratio_scaled(
    sign: int, num: int, den: int, exp: int, ctx: BigFloatContext
) -> BigFloat:
    """Round ``(num/den) * 2^exp`` to precision bits, nearest-even."""
    if num == 0:
        return BigFloat.zero(sign, ctx)
    p = ctx.precision
    # Scale num so the integer quotient has exactly p or p+1 bits.
    shift = p + 1 - (num.bit_length() - den.bit_length())
    if shift > 0:
        num <<= shift
        exp -= shift
    elif shift < 0:
        den <<= -shift
        exp -= shift  # equivalent scaling on the other side
    q, r = divmod(num, den)
    # q now has p or p+1 (occasionally p+2) bits; feed through _round_mant
    # with the sticky remainder.
    return _round_mant(sign, q, exp, ctx, sticky=r != 0)


# --------------------------------------------------------------------------
# Transcendentals: computed at extended working precision via Fraction
# Taylor series with argument reduction; results are faithfully rounded
# (error < 1 ulp at the target precision thanks to 32 guard bits).
# --------------------------------------------------------------------------

_PI_CACHE: dict[int, Fraction] = {}


def _pi(prec: int) -> Fraction:
    """pi to ``prec`` bits via the Machin-like formula (cached)."""
    cached = _PI_CACHE.get(prec)
    if cached is not None:
        return cached
    # pi = 16*atan(1/5) - 4*atan(1/239)
    work = prec + 16
    pi = 16 * _atan_frac(Fraction(1, 5), work) - 4 * _atan_frac(Fraction(1, 239), work)
    _PI_CACHE[prec] = pi
    return pi


def _atan_frac(x: Fraction, prec: int) -> Fraction:
    """atan for |x| <= 1 via argument halving + Taylor series.

    atan(x) = 2*atan(x / (1 + sqrt(1 + x^2))) shrinks the argument below
    1/4 in a few steps, after which the alternating series converges
    geometrically.
    """
    halvings = 0
    while abs(x) > Fraction(1, 4):
        x = x / (1 + _sqrt_frac(1 + x * x, prec + 8))
        halvings += 1
    tol = Fraction(1, 1 << (prec + halvings + 2))
    term = x
    x2 = x * x
    total = Fraction(0)
    n = 0
    while abs(term) > tol:
        total += term / (2 * n + 1) * ((-1) ** n)
        term = term * x2
        n += 1
    return total * (1 << halvings)


def _sin_frac(x: Fraction, prec: int) -> Fraction:
    tol = Fraction(1, 1 << prec)
    term = x
    total = Fraction(0)
    n = 1
    sign = 1
    while abs(term) > tol:
        total += sign * term
        term = term * x * x / ((n + 1) * (n + 2))
        n += 2
        sign = -sign
    return total


def _cos_frac(x: Fraction, prec: int) -> Fraction:
    tol = Fraction(1, 1 << prec)
    term = Fraction(1)
    total = Fraction(0)
    n = 0
    sign = 1
    while abs(term) > tol:
        total += sign * term
        term = term * x * x / ((n + 1) * (n + 2))
        n += 2
        sign = -sign
    return total


def _exp_frac(x: Fraction, prec: int) -> Fraction:
    # Reduce |x| < 1 by squaring: exp(x) = exp(x/2^k)^(2^k).
    k = 0
    while abs(x) > 1:
        x /= 2
        k += 1
    tol = Fraction(1, 1 << (prec + k + 4))
    term = Fraction(1)
    total = Fraction(0)
    n = 0
    while abs(term) > tol:
        total += term
        n += 1
        term = term * x / n
    for _ in range(k):
        total = total * total
    return total


def _log_frac(x: Fraction, prec: int) -> Fraction:
    """Natural log for x > 0 via atanh series after range reduction."""
    if x <= 0:
        raise ValueError("log of non-positive")
    # Reduce to [2/3, 4/3) by pulling out powers of two: x = m * 2^e.
    e = 0
    while x >= Fraction(4, 3):
        x /= 2
        e += 1
    while x < Fraction(2, 3):
        x *= 2
        e -= 1
    # log(x) = 2*atanh((x-1)/(x+1))
    z = (x - 1) / (x + 1)
    tol = Fraction(1, 1 << (prec + 4))
    term = z
    total = Fraction(0)
    n = 0
    z2 = z * z
    while abs(term) > tol:
        total += term / (2 * n + 1)
        term = term * z2
        n += 1
    result = 2 * total
    if e:
        ln2 = 2 * _atanh_third(prec + 8)
        result += e * ln2
    return result


def _atanh_third(prec: int) -> Fraction:
    """atanh(1/3), so ln 2 = 2*atanh(1/3)."""
    z = Fraction(1, 3)
    tol = Fraction(1, 1 << prec)
    term = z
    total = Fraction(0)
    n = 0
    z2 = z * z
    while abs(term) > tol:
        total += term / (2 * n + 1)
        term = term * z2
        n += 1
    return total


def _transcendental(
    x: BigFloat, name: str, ctx: BigFloatContext | None
) -> BigFloat:
    ctx = ctx or BigFloatContext(x.precision)
    if x.is_nan():
        return BigFloat.nan(ctx)
    work = ctx.precision + 32
    if x.is_inf():
        if name == "exp":
            return BigFloat.zero(0, ctx) if x.is_negative() else BigFloat.inf(0, ctx)
        if name == "atan":
            half_pi = _pi(work) / 2
            return BigFloat.from_fraction(-half_pi if x.is_negative() else half_pi, ctx)
        if name == "log" and not x.is_negative():
            return BigFloat.inf(0, ctx)
        return BigFloat.nan(ctx)
    v = x.to_fraction() if not x.is_zero() else Fraction(0)
    if name == "sin":
        return BigFloat.from_fraction(_sin_frac(_reduce_angle(v, work), work), ctx)
    if name == "cos":
        return BigFloat.from_fraction(_cos_frac(_reduce_angle(v, work), work), ctx)
    if name == "tan":
        r = _reduce_angle(v, work)
        c = _cos_frac(r, work)
        if c == 0:
            return BigFloat.inf(0, ctx)
        return BigFloat.from_fraction(_sin_frac(r, work) / c, ctx)
    if name == "atan":
        return BigFloat.from_fraction(_atan_any(v, work), ctx)
    if name == "asin":
        if abs(v) > 1:
            return BigFloat.nan(ctx)
        return BigFloat.from_fraction(_asin_frac(v, work), ctx)
    if name == "acos":
        if abs(v) > 1:
            return BigFloat.nan(ctx)
        return BigFloat.from_fraction(_pi(work) / 2 - _asin_frac(v, work), ctx)
    if name == "exp":
        return BigFloat.from_fraction(_exp_frac(v, work), ctx)
    if name == "log":
        if v < 0:
            return BigFloat.nan(ctx)
        if v == 0:
            return BigFloat.inf(1, ctx)
        return BigFloat.from_fraction(_log_frac(v, work), ctx)
    raise KeyError(name)


def _reduce_angle(x: Fraction, prec: int) -> Fraction:
    """Reduce to [-pi, pi] for the sin/cos series."""
    pi = _pi(prec)
    two_pi = 2 * pi
    if -pi <= x <= pi:
        return x
    k = round(x / two_pi)
    return x - k * two_pi


def _atan_any(x: Fraction, prec: int) -> Fraction:
    if abs(x) <= 1:
        return _atan_frac(x, prec)
    # atan(x) = sign(x)*pi/2 - atan(1/x)
    half_pi = _pi(prec) / 2
    inner = _atan_frac(1 / x, prec)
    return (half_pi - inner) if x > 0 else (-half_pi - inner)


def _asin_frac(x: Fraction, prec: int) -> Fraction:
    if abs(x) == 1:
        half_pi = _pi(prec) / 2
        return half_pi if x > 0 else -half_pi
    # asin(x) = atan(x / sqrt(1-x^2)); sqrt via Newton on Fractions.
    denom = _sqrt_frac(1 - x * x, prec)
    return _atan_any(x / denom, prec)


def _sqrt_frac(x: Fraction, prec: int) -> Fraction:
    """sqrt of a nonnegative rational to ~2^-prec via integer isqrt."""
    if x == 0:
        return Fraction(0)
    import math

    scale = 1 << (2 * prec)
    n = (x.numerator * scale) // x.denominator
    return Fraction(math.isqrt(n), 1 << prec)
