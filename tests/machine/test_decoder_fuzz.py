"""Decoder robustness: arbitrary byte strings either decode or raise the
typed :class:`repro.errors.EncodingError` — never a bare ``IndexError``
or ``struct.error`` — and every instruction the fuzz grammar emits
survives an encode -> decode -> encode byte round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.conformance.generators import fuzz_program
from repro.machine import encoding
from repro.machine.decoder import decode_instruction
from repro.machine.encoding import (
    TAG_IMM,
    TAG_LABEL,
    TAG_MEM,
    EncodingError,
    encode_instruction,
    encoded_length,
)
from repro.machine.isa import Instruction


def test_encoding_error_is_the_repro_errors_type():
    assert encoding.EncodingError is errors.EncodingError


_MALFORMED = {
    "xmm-id": bytes([0, 1, 1, 200]),
    "gpr-id": bytes([0, 1, 0, 16]),
    "reg-byte-missing": bytes([0, 1, 1]),
    "label-truncated": bytes([0, 1, TAG_LABEL, 1, 0]),
    "imm-truncated": bytes([0, 1, TAG_IMM, 1, 2, 3]),
    "mem-truncated": bytes([0, 1, TAG_MEM, 1, 0, 0, 1]),
    "mem-base-id": bytes([0, 1, TAG_MEM, 1, 99, 0, 1, 8]) + bytes(8),
    "mem-scale": bytes([0, 1, TAG_MEM, 0, 0, 0, 3, 8]) + bytes(8),
    "mem-size": bytes([0, 1, TAG_MEM, 0, 0, 0, 1, 5]) + bytes(8),
    "bad-tag": bytes([0, 1, 9]),
    "bad-opcode": bytes([0xFF, 0]),
    "header-truncated": bytes([0]),
}


@pytest.mark.parametrize("raw", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_bytes_raise_encoding_error(raw):
    with pytest.raises(EncodingError):
        decode_instruction(raw)


def _check(raw: bytes) -> None:
    try:
        instr = decode_instruction(raw)
    except EncodingError:
        instr = None
    if instr is not None:
        assert isinstance(instr, Instruction)
        assert instr.raw == raw[:instr.size]
        assert encoded_length(raw) == instr.size
        assert encode_instruction(instr) == instr.raw
    else:
        try:
            encoded_length(raw)
        except EncodingError:
            pass


@given(st.binary(max_size=48))
@settings(max_examples=400, deadline=None)
def test_arbitrary_bytes_only_raise_encoding_error(raw):
    _check(raw)


@st.composite
def _mutated_encodings(draw):
    """Valid encodings with one operand-tag byte and a cut point drawn:
    random bytes rarely get past the opcode byte, these reach every
    operand parser."""
    opcode = draw(st.integers(0, 60))
    tags = draw(st.lists(st.sampled_from([0, 1, TAG_IMM, TAG_MEM, TAG_LABEL]),
                         max_size=3))
    body = bytearray([opcode, len(tags)])
    for tag in tags:
        body.append(tag)
        body += draw(st.binary(min_size=0, max_size=14))
    return bytes(body)


@given(_mutated_encodings())
@settings(max_examples=400, deadline=None)
def test_structured_garbage_only_raises_encoding_error(raw):
    _check(raw)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_fuzz_grammar_instructions_round_trip(seed):
    program = fuzz_program(seed)
    for instr in program.instructions:
        decoded = decode_instruction(instr.raw, addr=instr.addr)
        assert decoded.mnemonic == instr.mnemonic
        assert decoded.size == instr.size
        assert encode_instruction(decoded) == instr.raw
