"""NaN-boxing (§2.2).

A boxed value is a **signaling NaN** whose 52-bit mantissa encodes a
pointer into FPVM's box heap:

- signaling => any arithmetic consumption raises Invalid and traps to
  FPVM (quiet NaNs would flow through silently);
- a 3-bit magic signature distinguishes "our NaNs" from application
  NaNs at a glance;
- the remaining 48 bits carry the pointer;
- the allocator double-checks every candidate pointer ("we extract the
  pointer from the NaN and check to see our allocator remembers it"),
  so a colliding foreign NaN is misclassified only if it both matches
  the signature *and* hits a live allocation — the paper's
  one-in-a-million-at-a-billion-allocations argument.

Sign-bit convention (x64 porosity): compilers negate doubles with
``xorpd`` against a sign mask and that instruction raises no FP
exception, so a boxed NaN can have its sign bit flipped behind FPVM's
back.  We therefore *ignore* the sign bit when recognising boxes and
interpret it as a pending negation when unboxing — making native
``xorpd`` sign flips compose correctly with boxed values.
"""

from __future__ import annotations

from repro.fpu import bits as B

#: bits available for the pointer payload.
NANBOX_PTR_BITS = 48
NANBOX_PTR_MASK = (1 << NANBOX_PTR_BITS) - 1

#: 3-bit signature in mantissa bits 50..48.  Must leave the quiet bit
#: (bit 51) clear and keep the mantissa nonzero => signaling NaN.
NANBOX_MAGIC = 0b101
NANBOX_MAGIC_SHIFT = NANBOX_PTR_BITS
NANBOX_MAGIC_MASK = 0b111 << NANBOX_MAGIC_SHIFT

#: Full pattern for recognition: exponent all ones, quiet bit clear,
#: magic bits set (sign bit deliberately excluded).
_PATTERN_MASK = B.F64_EXP_MASK | B.F64_QNAN_BIT | NANBOX_MAGIC_MASK
_PATTERN = B.F64_EXP_MASK | (NANBOX_MAGIC << NANBOX_MAGIC_SHIFT)


def box_bits(ptr: int, negated: bool = False) -> int:
    """Encode a heap pointer as a boxed sNaN bit pattern."""
    if ptr & ~NANBOX_PTR_MASK:
        raise ValueError(f"pointer {ptr:#x} exceeds {NANBOX_PTR_BITS} bits")
    bits = _PATTERN | ptr
    if negated:
        bits |= B.F64_SIGN_MASK
    return bits


def is_boxed(bits: int) -> bool:
    """Signature check only — callers must confirm with the allocator
    (`allocator.owns(ptr)`) before trusting the pointer."""
    return (bits & _PATTERN_MASK) == _PATTERN


def unbox(bits: int) -> tuple[int, bool]:
    """Return ``(ptr, negated)``.  ``negated`` reflects a sign bit
    flipped by native bitwise code since boxing."""
    if not is_boxed(bits):
        raise ValueError(f"{bits:#x} is not a boxed pattern")
    return bits & NANBOX_PTR_MASK, bool(bits & B.F64_SIGN_MASK)

