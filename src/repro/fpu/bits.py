"""Bit-level manipulation of IEEE-754 binary64 values.

FPVM lives and dies by NaN payloads: boxed pointers are encoded in the
mantissa of signaling NaNs.  Python ``float`` cannot round-trip NaN
payloads reliably (and collapses -0.0 vs 0.0 distinctions in places), so
the whole simulator carries 64-bit *bit patterns* (Python ints in
``[0, 2**64)``) and only converts at arithmetic boundaries.
"""

from __future__ import annotations

import struct
from fractions import Fraction

F64_SIGN_MASK = 0x8000_0000_0000_0000
F64_EXP_MASK = 0x7FF0_0000_0000_0000
F64_FRAC_MASK = 0x000F_FFFF_FFFF_FFFF
#: The quiet bit: top bit of the 52-bit fraction. Set => quiet NaN.
F64_QNAN_BIT = 0x0008_0000_0000_0000

F64_EXP_SHIFT = 52
F64_EXP_BIAS = 1023
F64_MAX_EXP = 0x7FF

#: x64 hardware's canonical "real NaN" (what 0.0/0.0 produces): negative
#: quiet NaN with zero payload.
CANONICAL_QNAN = 0xFFF8_0000_0000_0000
POS_INF_BITS = 0x7FF0_0000_0000_0000
NEG_INF_BITS = 0xFFF0_0000_0000_0000
POS_ZERO_BITS = 0x0000_0000_0000_0000
NEG_ZERO_BITS = 0x8000_0000_0000_0000

#: Largest finite binary64 as an exact rational, used for overflow checks.
MAX_FINITE = Fraction((2**53 - 1) * 2**971)
#: Smallest positive normal / subnormal magnitudes.
MIN_NORMAL = Fraction(1, 2**1022)
MIN_SUBNORMAL = Fraction(1, 2**1074)

_PACK_D = struct.Struct("<d").pack
_UNPACK_D = struct.Struct("<d").unpack
_PACK_Q = struct.Struct("<Q").pack
_UNPACK_Q = struct.Struct("<Q").unpack


def float_to_bits(x: float) -> int:
    """Return the binary64 bit pattern of ``x`` as an unsigned int."""
    return _UNPACK_Q(_PACK_D(x))[0]


def bits_to_float(bits: int) -> float:
    """Return the Python float whose binary64 pattern is ``bits``.

    NaN payloads are *not* preserved by the returned object on all
    platforms; only call this when the value is known not to be a NaN
    whose payload matters, or when handing a value to host math.
    """
    return _UNPACK_D(_PACK_Q(bits & 0xFFFF_FFFF_FFFF_FFFF))[0]


def is_nan(bits: int) -> bool:
    """True if the pattern encodes any NaN (exp all ones, nonzero frac)."""
    return (bits & F64_EXP_MASK) == F64_EXP_MASK and (bits & F64_FRAC_MASK) != 0


def is_qnan(bits: int) -> bool:
    """True for quiet NaNs (quiet bit set)."""
    return is_nan(bits) and (bits & F64_QNAN_BIT) != 0


def is_snan(bits: int) -> bool:
    """True for signaling NaNs (NaN with quiet bit clear)."""
    return is_nan(bits) and (bits & F64_QNAN_BIT) == 0


def is_inf(bits: int) -> bool:
    """True for +/- infinity."""
    return (bits & ~F64_SIGN_MASK) == POS_INF_BITS


def is_zero(bits: int) -> bool:
    """True for +/- zero."""
    return (bits & ~F64_SIGN_MASK) == 0


def is_subnormal(bits: int) -> bool:
    """True for nonzero values with a zero biased exponent."""
    return (bits & F64_EXP_MASK) == 0 and (bits & F64_FRAC_MASK) != 0


def is_finite(bits: int) -> bool:
    """True unless the pattern is an infinity or NaN."""
    return (bits & F64_EXP_MASK) != F64_EXP_MASK


def is_negative(bits: int) -> bool:
    """True if the sign bit is set (including -0.0 and negative NaNs)."""
    return (bits & F64_SIGN_MASK) != 0


def sign_bit(bits: int) -> int:
    """The sign bit as 0 or 1."""
    return (bits >> 63) & 1


def quiet(bits: int) -> int:
    """Return ``bits`` with the quiet bit set (sNaN -> qNaN, x64 style)."""
    return bits | F64_QNAN_BIT


def exponent_field(bits: int) -> int:
    """The raw 11-bit biased exponent field."""
    return (bits & F64_EXP_MASK) >> F64_EXP_SHIFT


def fraction_field(bits: int) -> int:
    """The raw 52-bit fraction field."""
    return bits & F64_FRAC_MASK


def bits_to_fraction(bits: int) -> Fraction:
    """Exact rational value of a finite binary64 pattern.

    Raises ValueError on NaN/Inf; +/-0 both map to Fraction(0).
    """
    if not is_finite(bits):
        raise ValueError(f"non-finite bit pattern {bits:#x}")
    e = exponent_field(bits)
    f = fraction_field(bits)
    sign = -1 if bits & F64_SIGN_MASK else 1
    if e == 0:
        # Subnormal: f * 2^(1-1023-52)
        return Fraction(sign * f, 2**1074)
    mant = f | (1 << 52)
    exp = e - F64_EXP_BIAS - 52
    if exp >= 0:
        return Fraction(sign * mant * (1 << exp))
    return Fraction(sign * mant, 1 << -exp)


def fraction_to_bits(
    value: Fraction, sign_hint: int = 0, mode: str = "ne"
) -> tuple[int, bool, bool, bool]:
    """Round an exact rational to binary64 under a rounding mode.

    ``mode``: "ne" (nearest-even, the default), "dn" (toward -inf),
    "up" (toward +inf), "zr" (toward zero) — the four MXCSR RC modes.
    Returns ``(bits, inexact, overflow, underflow)`` like
    :func:`fraction_to_bits_rne`.
    """
    if mode == "ne":
        return fraction_to_bits_rne(value, sign_hint)
    if value == 0:
        return (F64_SIGN_MASK if sign_hint else 0), False, False, False
    negative = value < 0
    mag = -value if negative else value
    # Effective magnitude rounding: "zr" truncates; "dn"/"up" truncate
    # or bump depending on the sign.
    if mode == "zr":
        round_away = False
    elif mode == "dn":
        round_away = negative
    elif mode == "up":
        round_away = not negative
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")

    e = _ilog2(mag)
    if e < -1022:
        q, r = _floor_to_quantum(mag, -1074)
        inexact = r
        if inexact and round_away:
            q += 1
        if q >= (1 << 52):
            bits = 1 << F64_EXP_SHIFT  # smallest normal
            result = bits | (F64_SIGN_MASK if negative else 0)
            return result, inexact, False, inexact
        result = q | (F64_SIGN_MASK if negative else 0)
        return result, inexact, False, inexact
    q, r = _floor_to_quantum(mag, e - 52)
    inexact = r
    if inexact and round_away:
        q += 1
    if q >= (1 << 53):
        q >>= 1
        e += 1
    if e > 1023:
        # Directed overflow: away-from-zero gives Inf, toward-zero the
        # largest finite (the x64 behaviour for RZ/RD/RU).
        if round_away or mode == "ne":
            result = POS_INF_BITS | (F64_SIGN_MASK if negative else 0)
        else:
            result = float_to_bits(1.7976931348623157e308)
            result |= F64_SIGN_MASK if negative else 0
        return result, True, True, False
    biased = e + F64_EXP_BIAS
    bits = (biased << F64_EXP_SHIFT) | (q & F64_FRAC_MASK)
    result = bits | (F64_SIGN_MASK if negative else 0)
    return result, inexact, False, False


def _floor_to_quantum(mag: Fraction, qexp: int) -> tuple[int, bool]:
    """floor(mag / 2^qexp) and whether anything was cut off."""
    n, d = mag.numerator, mag.denominator
    if qexp >= 0:
        d = d << qexp
    else:
        n = n << -qexp
    q, r = divmod(n, d)
    return q, r != 0


def fraction_to_bits_rne(value: Fraction, sign_hint: int = 0) -> tuple[int, bool, bool, bool]:
    """Round an exact rational to binary64 (round-to-nearest-even).

    Returns ``(bits, inexact, overflow, underflow)``.  ``underflow``
    follows the after-rounding tininess convention used by SSE: the flag
    is raised when the result is tiny (subnormal or zero from a nonzero
    value) *and* inexact.  ``sign_hint`` supplies the sign for an exact
    zero result (e.g. rounding of a negative tiny value to -0.0 is
    handled naturally; the hint covers value == 0 inputs).
    """
    if value == 0:
        return (F64_SIGN_MASK if sign_hint else 0), False, False, False

    negative = value < 0
    mag = -value if negative else value

    # Find e such that 2^e <= mag < 2^(e+1).
    e = _ilog2(mag)
    # Normal range: e in [-1022, 1023] before rounding adjustments.
    if e < -1022:
        # Subnormal candidate: quantum is 2^-1074.
        q, inexact = _round_to_quantum(mag, -1074)
        if q >= (1 << 52):
            # Rounded all the way up to the smallest normal.
            bits = 1 << F64_EXP_SHIFT
            underflow = inexact  # tiny before rounding, inexact
            result = bits | (F64_SIGN_MASK if negative else 0)
            return result, inexact, False, underflow
        bits = q  # biased exponent 0
        underflow = inexact
        result = bits | (F64_SIGN_MASK if negative else 0)
        return result, inexact, False, underflow

    # Normal: 53 significant bits, quantum 2^(e-52).
    q, inexact = _round_to_quantum(mag, e - 52)
    if q >= (1 << 53):
        q >>= 1
        e += 1
    if e > 1023:
        # Overflow to infinity (round-to-nearest always overflows to inf).
        result = POS_INF_BITS | (F64_SIGN_MASK if negative else 0)
        return result, True, True, False
    biased = e + F64_EXP_BIAS
    bits = (biased << F64_EXP_SHIFT) | (q & F64_FRAC_MASK)
    result = bits | (F64_SIGN_MASK if negative else 0)
    return result, inexact, False, False


def _ilog2(x: Fraction) -> int:
    """floor(log2(x)) for positive rationals, exactly."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    # The bit-length estimate is off by at most one; fix up by comparing
    # n/d against 2^e and 2^(e+1) exactly.
    if e >= 0:
        if n < (d << e):
            e -= 1
    else:
        if (n << -e) < d:
            e -= 1
    # Now check the upper side.
    if e + 1 >= 0:
        if n >= (d << (e + 1)):
            e += 1
    else:
        if (n << -(e + 1)) >= d:
            e += 1
    return e


def _round_to_quantum(mag: Fraction, qexp: int) -> tuple[int, bool]:
    """Round ``mag`` to an integer multiple of 2^qexp, nearest-even.

    Returns ``(multiple, inexact)``.
    """
    # mag / 2^qexp = n / d as an exact rational.
    n, d = mag.numerator, mag.denominator
    if qexp >= 0:
        d = d << qexp
    else:
        n = n << -qexp
    q, r = divmod(n, d)
    if r == 0:
        return q, False
    # Round half to even.
    twice = 2 * r
    if twice > d or (twice == d and (q & 1)):
        q += 1
    return q, True
