"""Property tests for NaN-boxing (§2.2), over the whole 48-bit pointer
space and the whole binary64 bit space via hypothesis."""

import math
import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.core import nanbox
from repro.fpu import bits as B

pointers = st.integers(min_value=0, max_value=nanbox.NANBOX_PTR_MASK)
bits64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(pointers, st.booleans())
def test_box_unbox_round_trip(ptr, negated):
    bits = nanbox.box_bits(ptr, negated)
    assert nanbox.is_boxed(bits)
    out_ptr, out_neg = nanbox.unbox(bits)
    assert out_ptr == ptr
    assert out_neg == negated


@given(pointers)
def test_boxed_pattern_is_signaling_nan(ptr):
    """Boxing must yield a *signaling* NaN: exponent all ones, quiet
    bit clear, mantissa nonzero — so any arithmetic use traps."""
    bits = nanbox.box_bits(ptr)
    assert bits & B.F64_EXP_MASK == B.F64_EXP_MASK
    assert not bits & B.F64_QNAN_BIT
    assert bits & B.F64_FRAC_MASK  # nonzero mantissa => NaN, not inf
    assert B.is_snan(bits)
    assert math.isnan(struct.unpack("<d", struct.pack("<Q", bits))[0])


@given(pointers)
def test_sign_flip_is_pending_negation(ptr):
    """The xorpd porosity convention: a native sign flip on a boxed
    pattern must still be recognised, as the same box negated."""
    bits = nanbox.box_bits(ptr)
    flipped = bits ^ B.F64_SIGN_MASK
    assert nanbox.is_boxed(flipped)
    out_ptr, negated = nanbox.unbox(flipped)
    assert out_ptr == ptr
    assert negated
    # and flipping back clears the negation.
    assert nanbox.unbox(flipped ^ B.F64_SIGN_MASK) == (ptr, False)


@given(bits64)
def test_non_nan_bits_never_classify_as_boxed(bits):
    """No finite or infinite double can carry the box signature."""
    if not B.is_nan(bits):
        assert not nanbox.is_boxed(bits)


@given(st.floats(allow_nan=False))
def test_ordinary_doubles_pass_through(value):
    bits = struct.unpack("<Q", struct.pack("<d", value))[0]
    assert not nanbox.is_boxed(bits)


@given(pointers)
def test_quiet_counterpart_is_not_boxed(ptr):
    """Quieting a boxed sNaN (what hardware does when one escapes into
    an untrapped operation) must drop it out of the boxed class, so a
    hardware-quieted NaN is 'theirs', never a dangling pointer."""
    assert not nanbox.is_boxed(nanbox.box_bits(ptr) | B.F64_QNAN_BIT)
