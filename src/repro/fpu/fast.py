"""Binary64 on host floats: the one fast path beside the
:mod:`repro.fpu.ieee` oracle, in three forms.

*Values only.*  When every MXCSR exception is masked and rounding is to
nearest, an SSE instruction needs only its bit-exact result, not its
flags.  Host ``float`` arithmetic is IEEE binary64 under
round-to-nearest-even, so each helper computes the ordinary cases on
host floats.  A NaN operand is decided by class, as SSE propagates it:
the result is the first NaN operand, quieted (the host's choice of NaN
depends on operand order).  Everything else goes to
:func:`repro.fpu.ieee.ieee_op`: NaN results with no NaN operand
(``inf - inf``, ``0 * inf``, ...), zero divisors, negative square roots
and ``fma``.  Every function maps operand bit patterns to a
result bit pattern and agrees with ``ieee_op(...).bits`` on every
input.  The interpreter's native path calls :func:`evaluate`; the
micro-op functions call the per-op helpers directly.

*With flags.*  Under an unmasked MXCSR (FPVM's) an instruction also
needs the exact status bits: an unmasked one faults, the others are
ORed into MXCSR.  :func:`flagged` gives, per op, ``fn(*operands) ->
(bits, status)`` with ``status`` the 6-bit MXCSR status encoding of
``ieee_op``'s flags.  It decides the common classes cheaply:

- a NaN operand: IE iff some operand is a signaling NaN (any NaN for
  ``comi`` and the ordered compares), DE iff some operand is
  subnormal, and the oracle's NaN propagation for the bits;
- normal operands with a normal result kept clear of 2^-1022 and of
  overflow, where only PE can rise: TwoSum's error term for add/sub,
  the bit length of the integer mantissa product for mul, and exact
  integer residuals for div and sqrt;
- compares, min/max and the conversions, whose flags follow from the
  operand classes and an integer round trip.

Everything else (infinities, subnormal operands, results near the
subnormal or overflow boundary, zero divisors, negative square roots,
``fma`` on numbers) is ``ieee_op`` itself.

*On floats.*  Values that live as host floats (Boxed IEEE's) take
:data:`FLOAT_BINARY`, :data:`FLOAT_UNARY`, :func:`fma_float` and
:func:`compare_float`: floats in, a float out, equal to the values-only
result except that a NaN result carries no particular payload.  Only a
±0 divisor (the host raises) and ``fma`` go to the oracle, on bits.
"""

from __future__ import annotations

import math
import operator
import struct

from repro.fpu import bits as B
from repro.fpu.ieee import (
    ALL_ONES,
    UCOMI_EQUAL,
    UCOMI_GREATER,
    UCOMI_LESS,
    UCOMI_UNORDERED,
    ieee_op,
)

_PACK_Q = struct.Struct("<Q").pack
_UNPACK_D = struct.Struct("<d").unpack
_PACK_D = struct.Struct("<d").pack
_UNPACK_Q = struct.Struct("<Q").unpack
_SQRT = math.sqrt
_INDEFINITE = 0x8000_0000_0000_0000
_TWO63 = 2.0 ** 63


def _oracle(op: str, *operands: int) -> int:
    return ieee_op(op, *operands).bits


def _nan_result(op: str, a: int, b: int) -> int:
    """A binary op whose host result is NaN: the first NaN operand,
    quieted, or, with no NaN operand, the oracle's default NaN."""
    if a & _ABS > _INF:
        return a | _QUIET
    if b & _ABS > _INF:
        return b | _QUIET
    return _oracle(op, a, b)


def _fadd(a: int, b: int) -> int:
    r = _UNPACK_D(_PACK_Q(a))[0] + _UNPACK_D(_PACK_Q(b))[0]
    if r != r:  # NaN operand or inf - inf
        return _nan_result("add", a, b)
    return _UNPACK_Q(_PACK_D(r))[0]


def _fsub(a: int, b: int) -> int:
    r = _UNPACK_D(_PACK_Q(a))[0] - _UNPACK_D(_PACK_Q(b))[0]
    if r != r:
        return _nan_result("sub", a, b)
    return _UNPACK_Q(_PACK_D(r))[0]


def _fmul(a: int, b: int) -> int:
    r = _UNPACK_D(_PACK_Q(a))[0] * _UNPACK_D(_PACK_Q(b))[0]
    if r != r:  # NaN operand or 0 * inf
        return _nan_result("mul", a, b)
    return _UNPACK_Q(_PACK_D(r))[0]


def _fdiv(a: int, b: int) -> int:
    fb = _UNPACK_D(_PACK_Q(b))[0]
    if fb == 0.0:
        return _oracle("div", a, b)
    r = _UNPACK_D(_PACK_Q(a))[0] / fb
    if r != r:  # NaN operand or inf / inf
        return _nan_result("div", a, b)
    return _UNPACK_Q(_PACK_D(r))[0]


def _fmin(a: int, b: int) -> int:
    # SSE minsd: src2 on NaN or equality.
    fa = _UNPACK_D(_PACK_Q(a))[0]
    fb = _UNPACK_D(_PACK_Q(b))[0]
    return a if fa < fb else b


def _fmax(a: int, b: int) -> int:
    fa = _UNPACK_D(_PACK_Q(a))[0]
    fb = _UNPACK_D(_PACK_Q(b))[0]
    return a if fa > fb else b


def _fsqrt(a: int) -> int:
    fa = _UNPACK_D(_PACK_Q(a))[0]
    if fa >= 0.0:  # includes -0.0 (sqrt(-0.0) == -0.0); False for NaN
        return _UNPACK_Q(_PACK_D(_SQRT(fa)))[0]
    if a & _ABS > _INF:
        return a | _QUIET
    return _oracle("sqrt", a)


def fma(a: int, b: int, c: int) -> int:
    """a * b + c, one rounding: always the oracle (no host fma here)."""
    return _oracle("fma", a, b, c)


def ucomi(a: int, b: int) -> int:
    """ucomisd/comisd: (ZF, PF, CF) packed into bits (0, 1, 2)."""
    fa = _UNPACK_D(_PACK_Q(a))[0]
    fb = _UNPACK_D(_PACK_Q(b))[0]
    if fa < fb:
        return UCOMI_LESS
    if fa > fb:
        return UCOMI_GREATER
    if fa == fb:
        return UCOMI_EQUAL
    return UCOMI_UNORDERED


def cvtsi2sd(a: int) -> int:
    """Signed 64-bit integer -> binary64 (``float(int)`` rounds to
    nearest-even)."""
    v = a - (1 << 64) if a & (1 << 63) else a
    return _UNPACK_Q(_PACK_D(float(v)))[0]


def cvttsd2si(a: int) -> int:
    fa = _UNPACK_D(_PACK_Q(a))[0]
    if not (-_TWO63 <= fa < _TWO63):  # NaN, inf and out of range
        return _INDEFINITE
    return int(fa) & ALL_ONES


def cvtsd2si(a: int) -> int:
    fa = _UNPACK_D(_PACK_Q(a))[0]
    if not (-_TWO63 <= fa < _TWO63):
        return _INDEFINITE
    return round(fa) & ALL_ONES  # banker's rounding == hardware RNE


#: ieee base -> bit-exact scalar fast function (binary ops; sqrt unary).
FAST_SCALAR = {
    "add": _fadd, "sub": _fsub, "mul": _fmul, "div": _fdiv,
    "min": _fmin, "max": _fmax, "sqrt": _fsqrt,
}

#: cmpXXsd predicate as a direct float comparison with IEEE unordered
#: behaviour built in (NaN compares false to everything).
_CMP_FAST = {
    "eq": lambda fa, fb: fa == fb,
    "lt": lambda fa, fb: fa < fb,
    "le": lambda fa, fb: fa <= fb,
    "unord": lambda fa, fb: fa != fa or fb != fb,
    "neq": lambda fa, fb: not (fa == fb),
    "nlt": lambda fa, fb: not (fa < fb),
    "nle": lambda fa, fb: not (fa <= fb),
    "ord": lambda fa, fb: fa == fa and fb == fb,
}


def cmp_mask(pred: str):
    """The cmpXXsd form for ``pred``: ``fn(a, b)`` -> all-ones or 0."""
    test = _CMP_FAST[pred]

    def cmp(a: int, b: int) -> int:
        return ALL_ONES if test(_UNPACK_D(_PACK_Q(a))[0],
                                _UNPACK_D(_PACK_Q(b))[0]) else 0
    return cmp


_EVALUATORS = {
    **FAST_SCALAR,
    "fma": fma,
    "ucomi": ucomi,
    "comi": ucomi,
    "cvtsi2sd": cvtsi2sd,
    "cvttsd2si": cvttsd2si,
    "cvtsd2si": cvtsd2si,
    **{f"cmp_{pred}": cmp_mask(pred) for pred in _CMP_FAST},
}


def evaluate(op: str, *operands: int) -> int:
    """Result bits of one scalar op under round-to-nearest, flags
    ignored.  ``op`` uses :func:`~repro.fpu.ieee.ieee_op`'s names."""
    try:
        fn = _EVALUATORS[op]
    except KeyError:
        raise KeyError(f"unknown FP op {op!r}") from None
    return fn(*operands)


# ----------------------------------------------------------- float form
def _div_float(a: float, b: float) -> float:
    if b == 0.0:  # the host raises on a ±0 divisor: the oracle decides
        return B.bits_to_float(_oracle("div", B.float_to_bits(a), B.float_to_bits(b)))
    return a / b


def _min_float(a: float, b: float) -> float:
    return a if a < b else b  # minsd: the second operand on a tie or a NaN


def _max_float(a: float, b: float) -> float:
    return a if a > b else b


def _sqrt_float(a: float) -> float:
    # True for -0.0 (sqrt(-0.0) == -0.0); a negative number or a NaN
    # has a NaN root.
    return _SQRT(a) if a >= 0.0 else math.nan


def fma_float(a: float, b: float, c: float) -> float:
    """a * b + c, one rounding: the oracle, on bits."""
    return B.bits_to_float(fma(*map(B.float_to_bits, (a, b, c))))


def compare_float(a: float, b: float) -> int | None:
    """-1, 0 or +1, or None when unordered (a NaN operand)."""
    if a < b:
        return -1
    if a > b:
        return 1
    return 0 if a == b else None


#: op -> float form, for the binary ops and the unary ops.
FLOAT_BINARY = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _div_float, "min": _min_float, "max": _max_float,
}
FLOAT_UNARY = {"sqrt": _sqrt_float, "neg": operator.neg, "abs": abs}


# ------------------------------------------------------------ flag form
#: the MXCSR status bits the cheap cases decide (ZE, OE and UE arise
#: only in the oracle's classes).
IE, DE, PE = 1, 2, 32

_ABS = 0x7FFF_FFFF_FFFF_FFFF
_SIGN = 0x8000_0000_0000_0000
_INF = 0x7FF0_0000_0000_0000          # magnitudes above it are NaNs
_QUIET = 0x0008_0000_0000_0000
_MIN_NORMAL = 0x0010_0000_0000_0000   # 2^-1022
_HIDDEN = 1 << 52
_FRAC = _HIDDEN - 1
#: a mul/div/sqrt result magnitude in [2^-1021, 2^1023) is clear of
#: underflow and overflow whichever way the exact value rounded.
_SAFE_LO = 0x0020_0000_0000_0000
_SAFE_HI = 0x7FE0_0000_0000_0000


def _exact(op: str, *operands: int) -> tuple[int, int]:
    r = ieee_op(op, *operands)
    return r.bits, r.flags.as_mxcsr_status()


def _class_status(operands, qnan_invalid: bool = False) -> int:
    """IE for a signaling NaN operand (any NaN with ``qnan_invalid``),
    DE for a subnormal one: every flag an op raises that is decided by
    its operand classes alone."""
    st = 0
    for o in operands:
        m = o & _ABS
        if m > _INF:
            if qnan_invalid or not m & _QUIET:
                st |= IE
        elif m and m < _MIN_NORMAL:
            st |= DE
    return st


def _nan_flagged(*operands: int) -> tuple[int, int]:
    """An arithmetic op with a NaN operand: the first NaN, quieted."""
    first = next(o for o in operands if o & _ABS > _INF)
    return first | _QUIET, _class_status(operands)


def _flag_addsub(op: str, negate: bool):
    def flag(a: int, b: int) -> tuple[int, int]:
        ma = a & _ABS
        mb = b & _ABS
        if ma >= _INF or mb >= _INF:
            if ma > _INF or mb > _INF:
                return _nan_flagged(a, b)
            return _exact(op, a, b)
        if 0 < ma < _MIN_NORMAL or 0 < mb < _MIN_NORMAL:
            return _exact(op, a, b)
        fa = _UNPACK_D(_PACK_Q(a))[0]
        fb = _UNPACK_D(_PACK_Q(b))[0]
        if negate:
            fb = -fb
        s = fa + fb
        rb = _UNPACK_Q(_PACK_D(s))[0]
        mr = rb & _ABS
        if not mr:
            # Zeros and normals: a zero sum is exact cancellation, and
            # the host picks the oracle's signed zero.
            return rb, 0
        if mr < _MIN_NORMAL or mr >= _SAFE_HI:
            return _exact(op, a, b)
        # TwoSum: the sum's rounding error, exact in binary64.
        bv = s - fa
        return rb, PE if (fa - (s - bv)) + (fb - bv) else 0
    return flag


def _flag_mul(a: int, b: int) -> tuple[int, int]:
    ma = a & _ABS
    mb = b & _ABS
    if ma >= _INF or mb >= _INF:
        if ma > _INF or mb > _INF:
            return _nan_flagged(a, b)
        return _exact("mul", a, b)
    if 0 < ma < _MIN_NORMAL or 0 < mb < _MIN_NORMAL:
        return _exact("mul", a, b)
    if not ma or not mb:
        return (a ^ b) & _SIGN, 0
    rb = _UNPACK_Q(_PACK_D(_UNPACK_D(_PACK_Q(a))[0]
                           * _UNPACK_D(_PACK_Q(b))[0]))[0]
    mr = rb & _ABS
    if mr < _SAFE_LO or mr >= _SAFE_HI:
        return _exact("mul", a, b)
    # Exact iff the 105/106-bit mantissa product has no set bit below
    # its top 53.
    p = ((a & _FRAC) | _HIDDEN) * ((b & _FRAC) | _HIDDEN)
    return rb, PE if p & ((1 << (p.bit_length() - 53)) - 1) else 0


def _flag_div(a: int, b: int) -> tuple[int, int]:
    ma = a & _ABS
    mb = b & _ABS
    if ma >= _INF or mb >= _INF:
        if ma > _INF or mb > _INF:
            return _nan_flagged(a, b)
        return _exact("div", a, b)
    if not mb or 0 < ma < _MIN_NORMAL or mb < _MIN_NORMAL:
        return _exact("div", a, b)
    if not ma:
        return (a ^ b) & _SIGN, 0
    rb = _UNPACK_Q(_PACK_D(_UNPACK_D(_PACK_Q(a))[0]
                           / _UNPACK_D(_PACK_Q(b))[0]))[0]
    mr = rb & _ABS
    if mr < _SAFE_LO or mr >= _SAFE_HI:
        return _exact("div", a, b)
    # Exact iff q * b == a: with integer mantissas M and biased
    # exponents E, Mq * Mb == Ma * 2^(Ea - Eq - Eb + 1075).
    shift = (ma >> 52) - (mr >> 52) - (mb >> 52) + 1075
    exact = shift >= 0 and (((rb & _FRAC) | _HIDDEN) * ((b & _FRAC) | _HIDDEN)
                            == ((a & _FRAC) | _HIDDEN) << shift)
    return rb, 0 if exact else PE


def _flag_sqrt(a: int) -> tuple[int, int]:
    m = a & _ABS
    if m > _INF:
        return a | _QUIET, 0 if m & _QUIET else IE
    if not m:
        return a, 0
    if a & _SIGN or m == _INF or m < _MIN_NORMAL:
        return _exact("sqrt", a)
    rb = _UNPACK_Q(_PACK_D(_SQRT(_UNPACK_D(_PACK_Q(a))[0])))[0]
    # Exact iff r * r == a: Mr^2 == Ma * 2^(Ea - 2 Er + 1075).
    shift = (m >> 52) - 2 * (rb >> 52) + 1075
    mr = (rb & _FRAC) | _HIDDEN
    exact = shift >= 0 and mr * mr == ((a & _FRAC) | _HIDDEN) << shift
    return rb, 0 if exact else PE


def _flag_fma(a: int, b: int, c: int) -> tuple[int, int]:
    if (a & _ABS) > _INF or (b & _ABS) > _INF or (c & _ABS) > _INF:
        return _nan_flagged(a, b, c)
    return _exact("fma", a, b, c)


def _flag_by_class(fn, qnan_invalid: bool):
    """Compares and min/max: ``fn`` gives the bits, the operand classes
    every flag."""
    def flag(a: int, b: int) -> tuple[int, int]:
        return fn(a, b), _class_status((a, b), qnan_invalid)
    return flag


def _flag_cvtsi2sd(a: int) -> tuple[int, int]:
    v = a - (1 << 64) if a & (1 << 63) else a
    f = float(v)
    return _UNPACK_Q(_PACK_D(f))[0], 0 if int(f) == v else PE


def _flag_cvt2si(round_fn):
    def flag(a: int) -> tuple[int, int]:
        m = a & _ABS
        if m >= _INF:
            return _INDEFINITE, IE
        fa = _UNPACK_D(_PACK_Q(a))[0]
        if not (-_TWO63 <= fa < _TWO63):
            return _INDEFINITE, IE
        t = round_fn(fa)
        return (t & ALL_ONES,
                (PE if t != fa else 0) | (DE if m and m < _MIN_NORMAL else 0))
    return flag


#: cmpXXsd predicates that raise IE on a quiet NaN too.
_CMP_SIGNALING = frozenset({"lt", "le", "nlt", "nle"})

_FLAGGED = {
    "add": _flag_addsub("add", False),
    "sub": _flag_addsub("sub", True),
    "mul": _flag_mul,
    "div": _flag_div,
    "sqrt": _flag_sqrt,
    "fma": _flag_fma,
    "min": _flag_by_class(_fmin, False),
    "max": _flag_by_class(_fmax, False),
    "ucomi": _flag_by_class(ucomi, False),
    "comi": _flag_by_class(ucomi, True),
    "cvtsi2sd": _flag_cvtsi2sd,
    "cvttsd2si": _flag_cvt2si(int),
    "cvtsd2si": _flag_cvt2si(round),   # banker's rounding == hardware RNE
    **{f"cmp_{pred}": _flag_by_class(cmp_mask(pred), pred in _CMP_SIGNALING)
       for pred in _CMP_FAST},
}


def flagged(op: str):
    """The flag form of ``op`` (``ieee_op``'s names) under round to
    nearest: ``fn(*operands) -> (bits, status)``, equal to
    ``(r.bits, r.flags.as_mxcsr_status())`` for ``r = ieee_op(op,
    *operands)`` on every input."""
    try:
        return _FLAGGED[op]
    except KeyError:
        raise KeyError(f"unknown FP op {op!r}") from None
