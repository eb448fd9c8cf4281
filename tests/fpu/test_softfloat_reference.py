"""BigFloat's integer arithmetic against the rational reference
(:mod:`tests.fpu.reference_softfloat`).

``add``, ``sub``, ``fma``, ``cmp``, ``from_float64_bits`` and
``MPFRSystem.to_i64`` must give what the reference gives: the same
(kind, sign, mantissa, exponent, precision) for every result, the same
order and the same integer.  Operands are binary64 patterns of every
class, promoted at one precision and computed at another, also as
products and sums of two, and scaled by up to 2^±70000, so exponent
gaps exceed the precision and operands lie past the reference's ±inf
stand-in of ±2^40000; each sum also runs against the operand's negation
(an exact zero) and each fma against its exact negated product.  The
precisions are 2, 24, 53, 113, 200 and 300 bits.

The reference is wrong in two places, the only ones where the library
may differ: ``cmp`` orders a finite value of 2^40000 or more past ±inf,
and ``fma`` gives +0 for a zero product plus a zero addend of the same
sign (IEEE 754 and MPFR keep that sign).

Tier-1 runs a few hundred examples per test; the ``slow`` variants run
thousands."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.altmath.mpfr import MPFRSystem
from repro.fpu.softfloat import BigFloat, BigFloatContext

from . import reference_softfloat as ref

SWEEPS = [pytest.param(300, id="tier1"),
          pytest.param(5000, id="heavy", marks=pytest.mark.slow)]
PRECISIONS = (2, 24, 53, 113, 200, 300)
#: wide enough to hold any product of two operands exactly.
EXACT = BigFloatContext(2 * max(PRECISIONS))
#: the reference's stand-in for ±inf.
REF_INF_BITS = 40000


def _pattern(sign: int, exp: int, frac: int) -> int:
    return (sign << 63) | (exp << 52) | frac


sign = st.integers(0, 1)
frac = st.integers(0, 2 ** 52 - 1)
operand = st.one_of(
    st.builds(_pattern, sign, st.just(2047), st.integers(1, 2 ** 52 - 1)),  # NaN
    st.builds(_pattern, sign, st.just(0), st.just(0)),                      # ±0
    st.builds(_pattern, sign, st.just(0), st.integers(1, 2 ** 52 - 1)),    # subnormal
    st.builds(_pattern, sign, st.just(2047), st.just(0)),                   # ±inf
    st.builds(_pattern, sign, st.integers(1, 2046), frac),                  # normal
    st.builds(_pattern, sign, st.integers(1013, 1033), frac),               # near 1
    st.builds(_pattern, sign, st.integers(1075, 1100), frac),               # near 2^63
    st.builds(_pattern, sign, st.integers(1021, 1023),                      # few bits
              st.sampled_from([0, 1, 2 ** 51, 2 ** 52 - 1])),
)
precision = st.sampled_from(PRECISIONS)


@st.composite
def values(draw) -> BigFloat:
    """A promoted operand, maybe times or plus a second one, maybe
    scaled by a power of two far outside binary64's range."""
    ctx = BigFloatContext(draw(precision))
    x = BigFloat.from_float64_bits(draw(operand), ctx)
    combine = draw(st.sampled_from(["none", "mul", "add", "sub"]))
    if combine != "none":
        y = BigFloat.from_float64_bits(draw(operand), ctx)
        x = getattr(x, combine)(y, ctx)
    shift = draw(st.one_of(st.just(0), st.integers(-400, 400), st.integers(-70000, 70000)))
    if shift:
        scale = BigFloat.from_int(1 << abs(shift), ctx)
        x = x.mul(scale, ctx) if shift > 0 else x.div(scale, ctx)
    return x


def key(x: BigFloat) -> tuple:
    return (x._kind, x._sign, x._mant, x._exp, x._prec)


def expected_cmp(a: BigFloat, b: BigFloat) -> int | None:
    """The reference's order, except that ±inf lies past every finite
    value."""
    for inf, fin, side in ((a, b, 1), (b, a, -1)):
        if inf.is_inf() and fin.is_finite() and not fin.is_zero() and (
                abs(fin.to_fraction()) >= 2 ** REF_INF_BITS):
            return -side if inf.is_negative() else side
    return ref.cmp(a, b)


def expected_fma(x: BigFloat, y: BigFloat, z: BigFloat, ctx) -> tuple:
    """The reference's fma, except that a zero product plus a zero
    addend is -0 when both are negative."""
    got = ref.fma(x, y, z, ctx)
    if (x.is_zero() or y.is_zero()) and x.is_finite() and y.is_finite() and z.is_zero():
        return key(BigFloat.zero((x._sign ^ y._sign) & z._sign, ctx))
    return key(got)


def check(p: int, x: BigFloat, y: BigFloat, z: BigFloat, bits: int) -> None:
    ctx = BigFloatContext(p)
    for a, b in ((x, y), (y, x), (x, x.neg()), (x, x), (x, z)):
        assert key(a.add(b, ctx)) == key(ref.add(a, b, ctx)), ("add", a, b, p)
        assert key(a.sub(b, ctx)) == key(ref.sub(a, b, ctx)), ("sub", a, b, p)
        assert a.cmp(b) == expected_cmp(a, b), ("cmp", a, b)
    product = x.mul(y, EXACT)
    for addend in (z, product.neg(), product):
        assert key(x.fma(y, addend, ctx)) == expected_fma(x, y, addend, ctx), (
            "fma", x, y, addend, p)
    assert key(BigFloat.from_float64_bits(bits, ctx)) == key(
        ref.from_float64_bits(bits, ctx)), ("promote", hex(bits), p)
    system = MPFRSystem(p)
    for value in (x, y, z):
        for truncate in (True, False):
            assert system.to_i64(value, truncate) == ref.to_i64(value, truncate), (
                "to_i64", value, truncate)


@pytest.mark.parametrize("examples", SWEEPS)
def test_integer_arithmetic_matches_rational_reference(examples):
    settings(max_examples=examples, deadline=None, database=None)(
        given(precision, values(), values(), values(), operand)(check))()


def test_emulator_ops_build_no_fraction(monkeypatch):
    """The ops an emulated instruction calls stay on integers:
    ``fractions.Fraction`` is left to demotion and the transcendentals."""
    ctx = BigFloatContext(200)
    patterns = [0x3FF8_0000_0000_0000, 0xC004_0000_0000_0001, 0x8000_0000_0000_0000,
                0x0000_0000_0000_0003, 0x7FF0_0000_0000_0000, 0x7FF8_0000_0000_0000,
                0x43E0_0000_0000_0000]
    operands = [BigFloat.from_float64_bits(bits, ctx) for bits in patterns]
    system = MPFRSystem(200)

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(Fraction, "__new__", refuse)
    for bits in patterns:
        BigFloat.from_float64_bits(bits, ctx)
    for x in operands:
        system.to_i64(x, True)
        system.to_i64(x, False)
        for y in operands:
            x.add(y, ctx), x.sub(y, ctx), x.mul(y, ctx), x.cmp(y)
            system.binary("min", x, y), system.binary("max", x, y)
            for z in operands:
                x.fma(y, z, ctx)
