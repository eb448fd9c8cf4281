"""Boxed IEEE holds host floats: every op, between ``promote`` and
``demote``, must give what the bit-pattern fast path
(:mod:`repro.fpu.fast`) gives on the raw operands.

``demote(op(promote(a), promote(b)))`` is checked against the
values-only form for add, sub, mul, div (zero divisors included), min,
max, sqrt, neg, abs and fma; ``compare`` against ``ucomi`` (unordered
included); ``to_i64`` (both roundings) and ``from_i64`` against the
conversions; and each libm function the wrappers forward against the
native host library.  Operands are raw 64-bit patterns of every class
in every position: quiet and signaling NaNs, signed zeros, subnormals,
infinities and normals.  A NaN result is compared after
canonicalization, as FPVM's ``produce`` stores every NaN result as the
canonical quiet NaN.

Tier-1 runs a few hundred examples per test; the ``slow`` variants run
thousands."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.altmath import BoxedIEEE
from repro.fpu import bits as B
from repro.fpu import fast
from repro.fpu.ieee import UCOMI_EQUAL, UCOMI_GREATER, UCOMI_LESS
from repro.machine.assembler import assemble
from repro.machine.hostlib import LIBM_FUNCTIONS, install_host_library
from repro.machine.registers import RegisterFile

SYSTEM = BoxedIEEE()
SIGN = B.F64_SIGN_MASK
U64 = 0xFFFF_FFFF_FFFF_FFFF
INDEFINITE = 0x8000_0000_0000_0000

SWEEPS = [pytest.param(300, id="tier1"),
          pytest.param(5000, id="heavy", marks=pytest.mark.slow)]


def _pattern(sign: int, exp: int, frac: int) -> int:
    return (sign << 63) | (exp << 52) | frac


sign = st.integers(0, 1)
frac = st.integers(0, 2 ** 52 - 1)
operand = st.one_of(
    st.builds(_pattern, sign, st.just(2047), st.integers(2 ** 51, 2 ** 52 - 1)),  # qNaN
    st.builds(_pattern, sign, st.just(2047), st.integers(1, 2 ** 51 - 1)),        # sNaN
    st.builds(_pattern, sign, st.just(0), st.just(0)),                             # ±0
    st.builds(_pattern, sign, st.just(0), st.integers(1, 2 ** 52 - 1)),           # subnormal
    st.builds(_pattern, sign, st.just(2047), st.just(0)),                          # ±inf
    st.builds(_pattern, sign, st.integers(1, 2046), frac),                         # normal
    st.builds(_pattern, sign, st.integers(1013, 1033), frac),                      # near 1
    st.builds(_pattern, sign, st.integers(1075, 1100), frac),                      # near 2^63
)


def canon(bits: int) -> int:
    return B.CANONICAL_QNAN if B.is_nan(bits) else bits


def _run(examples: int, *strategies):
    """``check(*drawn)`` under ``examples`` hypothesis examples."""
    def sweep(check):
        settings(max_examples=examples, deadline=None, database=None)(
            given(*strategies)(check))()
    return sweep


# ------------------------------------------------------------ arithmetic
BINARY = ("add", "sub", "mul", "div", "min", "max")
UNARY = {"sqrt": lambda a: fast.evaluate("sqrt", a),
         "neg": lambda a: a ^ SIGN,
         "abs": lambda a: a & ~SIGN & U64}


def check_arithmetic(a: int, b: int, c: int) -> None:
    fa, fb, fc = SYSTEM.promote(a), SYSTEM.promote(b), SYSTEM.promote(c)
    for op in BINARY:
        got = SYSTEM.demote(SYSTEM.binary(op, fa, fb))
        assert canon(got) == canon(fast.evaluate(op, a, b)), (op, hex(a), hex(b))
    for op, want in UNARY.items():
        got = SYSTEM.demote(SYSTEM.unary(op, fa))
        assert canon(got) == canon(want(a)), (op, hex(a))
    got = SYSTEM.demote(SYSTEM.fma(fa, fb, fc))
    assert canon(got) == canon(fast.fma(a, b, c)), ("fma", hex(a), hex(b), hex(c))


@pytest.mark.parametrize("examples", SWEEPS)
def test_arithmetic_matches_bit_patterns(examples):
    _run(examples, operand, operand, operand)(check_arithmetic)


# --------------------------------------------- compares and conversions
_ORDER = {UCOMI_LESS: -1, UCOMI_EQUAL: 0, UCOMI_GREATER: 1}


def check_compare_convert(a: int, b: int, i: int) -> None:
    fa, fb = SYSTEM.promote(a), SYSTEM.promote(b)
    assert SYSTEM.compare(fa, fb) == _ORDER.get(fast.ucomi(a, b)), (hex(a), hex(b))
    assert SYSTEM.is_nan_value(fa) == B.is_nan(a), hex(a)
    assert SYSTEM.to_i64(fa, truncate=True) == fast.cvttsd2si(a), hex(a)
    assert SYSTEM.to_i64(fa, truncate=False) == fast.cvtsd2si(a), hex(a)
    assert SYSTEM.demote(SYSTEM.from_i64(i)) == fast.cvtsi2sd(i), hex(i)


@pytest.mark.parametrize("examples", SWEEPS)
def test_compare_and_conversions_match_bit_patterns(examples):
    _run(examples, operand, operand, st.integers(0, U64))(check_compare_convert)


# ------------------------------------------------------------------ libm
def _host_library() -> dict:
    program = assemble(".text\nmain:\n  hlt\n")
    install_host_library(program)
    return {h.name: h for h in program.host_functions.values()}


HOSTS = _host_library()


def native_libm(fn: str, *args: int) -> int:
    """The native host library's result bits for ``fn(*args)``."""
    cpu = SimpleNamespace(regs=RegisterFile())
    for i, bits in enumerate(args):
        cpu.regs.xmm[i][0] = bits
    HOSTS[fn].fn(cpu)
    return cpu.regs.xmm[0][0]


def check_libm(a: int, b: int) -> None:
    for fn in sorted(LIBM_FUNCTIONS):
        args = (a, b)[:HOSTS[fn].fp_args]
        got = SYSTEM.demote(SYSTEM.libm(fn, *map(SYSTEM.promote, args)))
        assert canon(got) == canon(native_libm(fn, *args)), (fn, *map(hex, args))


@pytest.mark.parametrize("examples", SWEEPS)
def test_libm_matches_native(examples):
    _run(examples, operand, operand)(check_libm)


# ------------------------------------------------------- pinned semantics
NEG_ZERO = SIGN
ONE = B.float_to_bits(1.0)
QNAN = B.CANONICAL_QNAN


@pytest.mark.parametrize("bits", [0, NEG_ZERO, ONE, ONE | SIGN, 1, 1 | SIGN,
                                  0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000])
def test_promote_demote_round_trip(bits):
    assert SYSTEM.demote(SYSTEM.promote(bits)) == bits


def test_min_max_return_the_second_operand_on_a_tie_or_a_nan():
    zero, neg_zero = SYSTEM.promote(0), SYSTEM.promote(NEG_ZERO)
    one, nan = SYSTEM.promote(ONE), SYSTEM.promote(QNAN)
    assert SYSTEM.demote(SYSTEM.binary("min", zero, neg_zero)) == NEG_ZERO
    assert SYSTEM.demote(SYSTEM.binary("min", neg_zero, zero)) == 0
    assert SYSTEM.demote(SYSTEM.binary("max", zero, neg_zero)) == NEG_ZERO
    assert SYSTEM.demote(SYSTEM.binary("max", neg_zero, zero)) == 0
    assert SYSTEM.demote(SYSTEM.binary("min", nan, one)) == ONE
    assert SYSTEM.demote(SYSTEM.binary("max", nan, one)) == ONE
    assert SYSTEM.is_nan_value(SYSTEM.binary("min", one, nan))
    assert SYSTEM.is_nan_value(SYSTEM.binary("max", one, nan))


def test_zero_divisors_follow_the_oracle():
    one, zero, neg_zero = SYSTEM.promote(ONE), SYSTEM.promote(0), SYSTEM.promote(NEG_ZERO)
    assert SYSTEM.demote(SYSTEM.binary("div", one, zero)) == 0x7FF0_0000_0000_0000
    assert SYSTEM.demote(SYSTEM.binary("div", one, neg_zero)) == 0xFFF0_0000_0000_0000
    assert SYSTEM.is_nan_value(SYSTEM.binary("div", zero, neg_zero))
    assert SYSTEM.is_nan_value(SYSTEM.binary("div", SYSTEM.promote(QNAN), zero))


def test_sqrt_neg_abs_on_zeros_and_negatives():
    zero, neg_zero = SYSTEM.promote(0), SYSTEM.promote(NEG_ZERO)
    assert SYSTEM.demote(SYSTEM.unary("sqrt", neg_zero)) == NEG_ZERO
    assert SYSTEM.is_nan_value(SYSTEM.unary("sqrt", SYSTEM.promote(ONE | SIGN)))
    assert SYSTEM.is_nan_value(SYSTEM.unary("sqrt", SYSTEM.promote(QNAN)))
    assert SYSTEM.demote(SYSTEM.unary("neg", zero)) == NEG_ZERO
    assert SYSTEM.demote(SYSTEM.unary("neg", neg_zero)) == 0
    assert SYSTEM.demote(SYSTEM.unary("abs", neg_zero)) == 0


def test_promoted_nans_compare_unordered_and_convert_to_indefinite():
    for nan in (QNAN, QNAN | SIGN, 0x7FF0_0000_0000_0001, 0xFFF4_0000_0000_00AB):
        v = SYSTEM.promote(nan)
        assert SYSTEM.is_nan_value(v)
        assert SYSTEM.compare(v, SYSTEM.promote(ONE)) is None
        assert SYSTEM.compare(v, v) is None
        assert SYSTEM.to_i64(v) == SYSTEM.to_i64(v, truncate=False) == INDEFINITE
        assert SYSTEM.is_nan_value(SYSTEM.binary("add", v, SYSTEM.promote(ONE)))
    for big in (2.0 ** 63, -2.0 ** 64, float("inf")):
        assert SYSTEM.to_i64(big) == INDEFINITE
