"""Bit-pattern and MXCSR builders for the tests: NaNs with a chosen
payload, the ULP of a finite value, and an MXCSR with its rounding
field replaced."""

from fractions import Fraction

from repro.fpu import bits as B
from repro.machine.registers import MXCSR_RC_MASK, MXCSR_RC_SHIFT


def ulp_bits(bits: int) -> Fraction:
    """The ULP (unit in the last place) of a finite value, as a rational."""
    if not B.is_finite(bits):
        raise ValueError("ulp of non-finite")
    e = B.exponent_field(bits)
    if e == 0:
        return B.MIN_SUBNORMAL
    # Normal: ulp = 2^(e - bias - 52).
    p = e - B.F64_EXP_BIAS - 52
    return Fraction(2**p) if p >= 0 else Fraction(1, 2**-p)


def make_qnan(payload: int, negative: bool = False) -> int:
    """Build a quiet NaN with the given 51-bit payload."""
    if payload >> 51:
        raise ValueError("payload exceeds 51 bits")
    bits = B.F64_EXP_MASK | B.F64_QNAN_BIT | payload
    return bits | (B.F64_SIGN_MASK if negative else 0)


def make_snan(payload: int, negative: bool = False) -> int:
    """Build a signaling NaN with the given nonzero 51-bit payload."""
    if payload >> 51:
        raise ValueError("payload exceeds 51 bits")
    if payload == 0:
        raise ValueError("sNaN payload must be nonzero (all-zero frac is Inf)")
    bits = B.F64_EXP_MASK | payload
    return bits | (B.F64_SIGN_MASK if negative else 0)


def with_rounding(mxcsr: int, rc: int) -> int:
    """``mxcsr`` with its RC field set to ``rc``."""
    return (mxcsr & ~MXCSR_RC_MASK) | (rc << MXCSR_RC_SHIFT)
