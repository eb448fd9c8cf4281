"""Values-only binary64: the one fast path beside the :mod:`repro.fpu.ieee`
oracle.

When every MXCSR exception is masked and rounding is to nearest, an SSE
instruction needs only its bit-exact result, not its flags.  Host
``float`` arithmetic is IEEE binary64 under round-to-nearest-even, so
each helper here computes the ordinary cases on host floats and defers
everything else to :func:`repro.fpu.ieee.ieee_op`: NaN results (which
NaN an SSE op returns depends on operand order), zero divisors,
negative square roots and ``fma``.  Every function maps operand bit
patterns to a result bit pattern and agrees with ``ieee_op(...).bits``
on every input.

The interpreter's native path calls :func:`evaluate`; the micro-op
closures call the per-op helpers directly.
"""

from __future__ import annotations

import math
import struct

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


def _fadd(a: int, b: int) -> int:
    r = _UNPACK_D(_PACK_Q(a))[0] + _UNPACK_D(_PACK_Q(b))[0]
    if r != r:  # NaN operand or inf - inf
        return _oracle("add", a, b)
    return _UNPACK_Q(_PACK_D(r))[0]


def _fsub(a: int, b: int) -> int:
    r = _UNPACK_D(_PACK_Q(a))[0] - _UNPACK_D(_PACK_Q(b))[0]
    if r != r:
        return _oracle("sub", a, b)
    return _UNPACK_Q(_PACK_D(r))[0]


def _fmul(a: int, b: int) -> int:
    r = _UNPACK_D(_PACK_Q(a))[0] * _UNPACK_D(_PACK_Q(b))[0]
    if r != r:  # NaN operand or 0 * inf
        return _oracle("mul", a, b)
    return _UNPACK_Q(_PACK_D(r))[0]


def _fdiv(a: int, b: int) -> int:
    fb = _UNPACK_D(_PACK_Q(b))[0]
    if fb == 0.0:
        return _oracle("div", a, b)
    r = _UNPACK_D(_PACK_Q(a))[0] / fb
    if r != r:  # NaN operand or inf / inf
        return _oracle("div", a, b)
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
