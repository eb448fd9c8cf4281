"""Exact IEEE-754 binary64 operation oracle.

The simulated CPU needs to know, for every SSE2 floating point
instruction, both the binary64 result *and* which exception flags the
operation raises (Invalid, Denormal-operand, Overflow, Underflow,
Inexact).  Unmasked flags become #XF traps — the event stream that
drives the whole FPVM trap-and-emulate machinery.

Flags are computed from first principles: finite operands are converted
to exact rationals, the exact mathematical result is formed, and the
rounding step reports inexact/overflow/underflow precisely.  A TwoSum
fast path avoids rational arithmetic for the (dominant) add/sub case.

Operations are keyed by short mnemonic ("add", "sub", "mul", "div",
"sqrt", "min", "max", "ucomi", "cmp_*", "cvtsi2sd", "cvttsd2si").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.fpu import bits as B


@dataclass(frozen=True)
class FPFlags:
    """The five SSE exception flags an operation raised.

    Mirrors MXCSR's IE/DE/ZE/OE/UE/PE status bits.  ``invalid`` covers
    IE; ``zero_divide`` covers ZE; ``denormal`` is the DE operand flag;
    ``overflow``/``underflow``/``inexact`` are OE/UE/PE.
    """

    invalid: bool = False
    denormal: bool = False
    zero_divide: bool = False
    overflow: bool = False
    underflow: bool = False
    inexact: bool = False

    def any(self) -> bool:
        return (
            self.invalid
            or self.denormal
            or self.zero_divide
            or self.overflow
            or self.underflow
            or self.inexact
        )

    def __or__(self, other: "FPFlags") -> "FPFlags":
        return FPFlags(
            self.invalid or other.invalid,
            self.denormal or other.denormal,
            self.zero_divide or other.zero_divide,
            self.overflow or other.overflow,
            self.underflow or other.underflow,
            self.inexact or other.inexact,
        )

    def as_mxcsr_status(self) -> int:
        """Encode as the low 6 MXCSR status bits (IE DE ZE OE UE PE)."""
        return (
            (1 if self.invalid else 0)
            | (2 if self.denormal else 0)
            | (4 if self.zero_divide else 0)
            | (8 if self.overflow else 0)
            | (16 if self.underflow else 0)
            | (32 if self.inexact else 0)
        )

    @staticmethod
    def from_status(status: int) -> "FPFlags":
        """The flags whose :meth:`as_mxcsr_status` is ``status`` (low 6
        bits): one shared instance per value, as the class is frozen."""
        return _BY_STATUS[status & 0x3F]


_BY_STATUS = tuple(FPFlags(*(bool(s >> k & 1) for k in range(6)))
                   for s in range(64))
NO_FLAGS = _BY_STATUS[0]


@dataclass(frozen=True)
class FPResult:
    """Result bit pattern + flags of one scalar binary64 operation.

    For compare operations ``bits`` holds the flag triple packed as the
    x64 ucomisd convention (ZF, PF, CF in bits 0..2); for cvttsd2si it
    holds the two's-complement 64-bit integer result.
    """

    bits: int
    flags: FPFlags


def _operand_flags(*ops: int) -> FPFlags:
    """Denormal-operand and signaling-NaN invalid flags for operands."""
    denormal = any(B.is_subnormal(o) for o in ops)
    return FPFlags(denormal=denormal)


def _nan_result(*ops: int) -> int:
    """x64 NaN propagation for SSE scalar ops: the *first* NaN source
    operand, quieted.  (For ``addsd xmm1, xmm2`` the 'first' operand is
    the destination; callers pass operands in instruction order.)"""
    for o in ops:
        if B.is_nan(o):
            return B.quiet(o)
    return B.CANONICAL_QNAN


def _invalid_from_snan(*ops: int) -> bool:
    return any(B.is_snan(o) for o in ops)


def ieee_add(a: int, b: int, mode: str = "ne") -> FPResult:
    return _addsub(a, b, negate_b=False, mode=mode)


def ieee_sub(a: int, b: int, mode: str = "ne") -> FPResult:
    return _addsub(a, b, negate_b=True, mode=mode)


def _addsub(a: int, b: int, negate_b: bool, mode: str = "ne") -> FPResult:
    opflags = _operand_flags(a, b)
    if B.is_nan(a) or B.is_nan(b):
        inv = _invalid_from_snan(a, b)
        return FPResult(_nan_result(a, b), opflags | FPFlags(invalid=inv))

    beff = b ^ (B.F64_SIGN_MASK if negate_b else 0)
    a_inf, b_inf = B.is_inf(a), B.is_inf(beff)
    if a_inf or b_inf:
        if a_inf and b_inf and (a ^ beff) & B.F64_SIGN_MASK:
            # Inf - Inf: invalid, canonical NaN.
            return FPResult(B.CANONICAL_QNAN, opflags | FPFlags(invalid=True))
        return FPResult(a if a_inf else beff, opflags)

    # Finite + finite.  Fast path: TwoSum in host binary64 detects
    # exactness without rationals; it is valid whenever the host sum is
    # finite and normal (no double-rounding hazards at this precision).
    fa, fb = B.bits_to_float(a), B.bits_to_float(beff)
    s = fa + fb
    # A zero sum is only handled here when it is exact (fa == -fb); tiny
    # sums that *round* to zero must flag underflow and take the slow
    # path.  The host-float fast path only implements round-to-nearest.
    if mode == "ne" and math.isfinite(s) and (
        (s == 0.0 and fa == -fb) or abs(s) >= 2.2250738585072014e-308
    ):
        bv = s - fa
        err = (fa - (s - bv)) + (fb - bv)
        inexact = err != 0.0
        rb = B.float_to_bits(s)
        if s == 0.0 and fa == -fb and not inexact:
            # Exact cancellation: x64 RN gives +0 unless both inputs -0.
            if (a & B.F64_SIGN_MASK) and (beff & B.F64_SIGN_MASK):
                rb = B.NEG_ZERO_BITS
            else:
                rb = B.POS_ZERO_BITS
        return FPResult(rb, opflags | FPFlags(inexact=inexact))

    # Slow path: exact rationals (covers overflow and subnormal results).
    ra = B.bits_to_fraction(a)
    rbv = B.bits_to_fraction(beff)
    exact = ra + rbv
    if exact == 0:
        both_neg = (a & B.F64_SIGN_MASK) and (beff & B.F64_SIGN_MASK)
        # RN/RZ/RU give +0 on exact cancellation; RD gives -0.
        sign_hint = 1 if (both_neg or mode == "dn") else 0
        # exact cancellation of equal magnitudes keeps +0 except in RD
        if not both_neg and mode != "dn":
            sign_hint = 0
    else:
        sign_hint = 0
    return _round(exact, opflags, sign_hint, mode)


def ieee_mul(a: int, b: int, mode: str = "ne") -> FPResult:
    opflags = _operand_flags(a, b)
    if B.is_nan(a) or B.is_nan(b):
        inv = _invalid_from_snan(a, b)
        return FPResult(_nan_result(a, b), opflags | FPFlags(invalid=inv))
    sign = (a ^ b) & B.F64_SIGN_MASK
    if B.is_inf(a) or B.is_inf(b):
        if B.is_zero(a) or B.is_zero(b):
            return FPResult(B.CANONICAL_QNAN, opflags | FPFlags(invalid=True))
        return FPResult(B.POS_INF_BITS | sign, opflags)
    if B.is_zero(a) or B.is_zero(b):
        return FPResult(sign, opflags)  # signed zero
    exact = B.bits_to_fraction(a) * B.bits_to_fraction(b)
    return _round(exact, opflags, 1 if sign else 0, mode)


def ieee_div(a: int, b: int, mode: str = "ne") -> FPResult:
    opflags = _operand_flags(a, b)
    if B.is_nan(a) or B.is_nan(b):
        inv = _invalid_from_snan(a, b)
        return FPResult(_nan_result(a, b), opflags | FPFlags(invalid=inv))
    sign = (a ^ b) & B.F64_SIGN_MASK
    if B.is_inf(a):
        if B.is_inf(b):
            return FPResult(B.CANONICAL_QNAN, opflags | FPFlags(invalid=True))
        return FPResult(B.POS_INF_BITS | sign, opflags)
    if B.is_inf(b):
        return FPResult(sign, opflags)
    if B.is_zero(b):
        if B.is_zero(a):
            return FPResult(B.CANONICAL_QNAN, opflags | FPFlags(invalid=True))
        return FPResult(B.POS_INF_BITS | sign, opflags | FPFlags(zero_divide=True))
    if B.is_zero(a):
        return FPResult(sign, opflags)
    exact = B.bits_to_fraction(a) / B.bits_to_fraction(b)
    return _round(exact, opflags, 1 if sign else 0, mode)


def ieee_sqrt(a: int, mode: str = "ne") -> FPResult:
    opflags = _operand_flags(a)
    if B.is_nan(a):
        return FPResult(B.quiet(a), opflags | FPFlags(invalid=B.is_snan(a)))
    if B.is_zero(a):
        return FPResult(a, opflags)  # sqrt(+/-0) = +/-0
    if a & B.F64_SIGN_MASK:
        return FPResult(B.CANONICAL_QNAN, opflags | FPFlags(invalid=True))
    if B.is_inf(a):
        return FPResult(B.POS_INF_BITS, opflags)
    # Correctly-rounded sqrt: host sqrt gives the candidate; exactness is
    # decided by whether candidate^2 equals the operand as rationals.
    # (Host sqrt is correctly rounded on every IEEE platform.)
    cand = math.sqrt(B.bits_to_float(a))
    cb = B.float_to_bits(cand)
    sq = B.bits_to_fraction(cb) ** 2
    target = B.bits_to_fraction(a)
    exact = sq == target
    if not exact and mode != "ne":
        # Host sqrt rounds to nearest; nudge to the directed neighbour.
        if mode in ("dn", "zr") and sq > target:
            cb = B.float_to_bits(math.nextafter(cand, 0.0))
        elif mode == "up" and sq < target:
            cb = B.float_to_bits(math.nextafter(cand, math.inf))
    return FPResult(cb, opflags | FPFlags(inexact=not exact))


def ieee_min(a: int, b: int) -> FPResult:
    """SSE minsd semantics: if either source is NaN (or operands are
    equal), the *second* operand is returned; sNaN raises invalid."""
    opflags = _operand_flags(a, b)
    if B.is_nan(a) or B.is_nan(b):
        # minsd returns the second source whenever either operand is NaN.
        return FPResult(b, opflags | FPFlags(invalid=_invalid_from_snan(a, b)))
    fa, fb = B.bits_to_float(a), B.bits_to_float(b)
    if fa == fb:
        return FPResult(b, opflags)  # minsd returns src2 on equality
    return FPResult(a if fa < fb else b, opflags)


def ieee_max(a: int, b: int) -> FPResult:
    opflags = _operand_flags(a, b)
    if B.is_nan(a) or B.is_nan(b):
        return FPResult(b, opflags | FPFlags(invalid=_invalid_from_snan(a, b)))
    fa, fb = B.bits_to_float(a), B.bits_to_float(b)
    if fa == fb:
        return FPResult(b, opflags)
    return FPResult(a if fa > fb else b, opflags)


#: ucomisd packs (ZF, PF, CF) into bits (0, 1, 2) of the result.
UCOMI_UNORDERED = 0b111
UCOMI_LESS = 0b100
UCOMI_GREATER = 0b000
UCOMI_EQUAL = 0b001


def ieee_ucomi(a: int, b: int) -> FPResult:
    """ucomisd/comisd: sets ZF/PF/CF.  ucomisd signals invalid only on
    sNaN; comisd also on qNaN (callers pass ``signal_qnan=True`` via
    ieee_comi)."""
    return _comi(a, b, signal_qnan=False)


def ieee_comi(a: int, b: int) -> FPResult:
    return _comi(a, b, signal_qnan=True)


def _comi(a: int, b: int, signal_qnan: bool) -> FPResult:
    opflags = _operand_flags(a, b)
    if B.is_nan(a) or B.is_nan(b):
        inv = _invalid_from_snan(a, b) or signal_qnan
        return FPResult(UCOMI_UNORDERED, opflags | FPFlags(invalid=inv))
    fa, fb = B.bits_to_float(a), B.bits_to_float(b)
    if fa == fb:
        return FPResult(UCOMI_EQUAL, opflags)
    return FPResult(UCOMI_LESS if fa < fb else UCOMI_GREATER, opflags)


#: cmpsd predicates -> (ordered_result_fn, signals_on_qnan, nan_result)
_CMP_PREDICATES = {
    "eq": (lambda c: c == 0, False, False),
    "lt": (lambda c: c < 0, True, False),
    "le": (lambda c: c <= 0, True, False),
    "unord": (None, False, True),
    "neq": (lambda c: c != 0, False, True),
    "nlt": (lambda c: not (c < 0), True, True),
    "nle": (lambda c: not (c <= 0), True, True),
    "ord": (None, False, False),
}

ALL_ONES = 0xFFFF_FFFF_FFFF_FFFF


def ieee_cmp(pred: str, a: int, b: int) -> FPResult:
    """cmpsd/cmpltsd family: result is an all-ones / all-zeros mask."""
    fn, signal_qnan, nan_result = _CMP_PREDICATES[pred]
    opflags = _operand_flags(a, b)
    if B.is_nan(a) or B.is_nan(b):
        inv = _invalid_from_snan(a, b) or (signal_qnan and (B.is_qnan(a) or B.is_qnan(b)))
        return FPResult(ALL_ONES if nan_result else 0, opflags | FPFlags(invalid=inv))
    if pred == "unord":
        return FPResult(0, opflags)
    if pred == "ord":
        return FPResult(ALL_ONES, opflags)
    fa, fb = B.bits_to_float(a), B.bits_to_float(b)
    c = -1 if fa < fb else (0 if fa == fb else 1)
    return FPResult(ALL_ONES if fn(c) else 0, opflags)


def ieee_cvtsi2sd(value: int) -> FPResult:
    """Signed 64-bit integer -> binary64 (round-to-nearest-even)."""
    if value & (1 << 63):
        value -= 1 << 64
    return _round(Fraction(value), NO_FLAGS, 1 if value < 0 else 0)


def ieee_cvttsd2si(a: int) -> FPResult:
    """binary64 -> signed 64-bit integer, truncation.  Out-of-range and
    NaN produce the x64 'integer indefinite' value with invalid set."""
    opflags = _operand_flags(a)
    indefinite = 0x8000_0000_0000_0000
    if B.is_nan(a) or B.is_inf(a):
        return FPResult(indefinite, opflags | FPFlags(invalid=True))
    f = B.bits_to_float(a)
    t = math.trunc(f)
    if not (-(2**63) <= t <= 2**63 - 1):
        return FPResult(indefinite, opflags | FPFlags(invalid=True))
    inexact = t != f
    return FPResult(t & ALL_ONES, opflags | FPFlags(inexact=inexact))


def ieee_cvtsd2si(a: int) -> FPResult:
    """binary64 -> signed 64-bit integer, round-to-nearest-even."""
    opflags = _operand_flags(a)
    indefinite = 0x8000_0000_0000_0000
    if B.is_nan(a) or B.is_inf(a):
        return FPResult(indefinite, opflags | FPFlags(invalid=True))
    exact = B.bits_to_fraction(a)
    q, inexact = B._round_to_quantum(abs(exact), 0)
    t = -q if exact < 0 else q
    if not (-(2**63) <= t <= 2**63 - 1):
        return FPResult(indefinite, opflags | FPFlags(invalid=True))
    return FPResult(t & ALL_ONES, opflags | FPFlags(inexact=inexact))


def _round(exact: Fraction, opflags: FPFlags, sign_hint: int,
           mode: str = "ne") -> FPResult:
    rb, inexact, overflow, underflow = B.fraction_to_bits(exact, sign_hint, mode)
    return FPResult(
        rb,
        opflags
        | FPFlags(overflow=overflow, underflow=underflow, inexact=inexact or overflow),
    )


def ieee_fma(a: int, b: int, c: int, mode: str = "ne") -> FPResult:
    """Fused multiply-add: a*b + c with one rounding (FMA3 semantics)."""
    opflags = _operand_flags(a, b, c)
    if B.is_nan(a) or B.is_nan(b) or B.is_nan(c):
        inv = _invalid_from_snan(a, b, c)
        return FPResult(_nan_result(a, b, c), opflags | FPFlags(invalid=inv))
    # Infinity algebra mirrors mul-then-add.
    if B.is_inf(a) or B.is_inf(b):
        if B.is_zero(a) or B.is_zero(b):
            return FPResult(B.CANONICAL_QNAN, opflags | FPFlags(invalid=True))
        psign = (a ^ b) & B.F64_SIGN_MASK
        if B.is_inf(c) and (c ^ psign) & B.F64_SIGN_MASK:
            return FPResult(B.CANONICAL_QNAN, opflags | FPFlags(invalid=True))
        return FPResult(B.POS_INF_BITS | psign, opflags)
    if B.is_inf(c):
        return FPResult(c, opflags)
    exact = B.bits_to_fraction(a) * B.bits_to_fraction(b) + B.bits_to_fraction(c)
    if exact == 0:
        # Signed-zero rule: -0 only when product and addend are both
        # negative zeros; exact cancellation gives +0 under RN (and -0
        # under RD, as for add).
        psign = (a ^ b) & B.F64_SIGN_MASK
        prod_zero = B.is_zero(a) or B.is_zero(b)
        if prod_zero:
            neg = bool(psign) and bool(c & B.F64_SIGN_MASK)
        else:
            neg = mode == "dn"
        return _round(exact, opflags, 1 if neg else 0, mode)
    return _round(exact, opflags, 0, mode)


_BINARY_OPS = {
    "add": ieee_add,
    "sub": ieee_sub,
    "mul": ieee_mul,
    "div": ieee_div,
    "min": ieee_min,
    "max": ieee_max,
    "ucomi": ieee_ucomi,
    "comi": ieee_comi,
}

_UNARY_OPS = {
    "sqrt": ieee_sqrt,
    "cvtsi2sd": ieee_cvtsi2sd,
    "cvttsd2si": ieee_cvttsd2si,
    "cvtsd2si": ieee_cvtsd2si,
}


#: ops whose result depends on MXCSR.RC.
_MODE_SENSITIVE = frozenset({"add", "sub", "mul", "div", "sqrt", "fma"})


def ieee_op(op: str, *operands: int, mode: str = "ne") -> FPResult:
    """Dispatch by mnemonic.  ``cmp_<pred>`` selects a compare
    predicate; ``mode`` is the MXCSR rounding mode for the ops it
    affects (compares, min/max and the conversions with architectural
    rounding behaviour ignore it)."""
    if op in _BINARY_OPS:
        if op in _MODE_SENSITIVE:
            return _BINARY_OPS[op](*operands, mode=mode)
        return _BINARY_OPS[op](*operands)
    if op in _UNARY_OPS:
        if op in _MODE_SENSITIVE:
            return _UNARY_OPS[op](*operands, mode=mode)
        return _UNARY_OPS[op](*operands)
    if op == "fma":
        return ieee_fma(*operands, mode=mode)
    if op.startswith("cmp_"):
        return ieee_cmp(op[4:], *operands)
    raise KeyError(f"unknown IEEE op {op!r}")
