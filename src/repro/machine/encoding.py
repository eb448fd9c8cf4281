"""Binary encoding of the simulated ISA.

FPVM pays a real decode cost on a decode-cache miss (the paper uses
Capstone; we use :mod:`repro.machine.decoder` over these bytes).  The
encoding is deliberately byte-oriented and variable-length so that
instructions occupy distinct, realistic address ranges.

Layout per instruction::

    +0  opcode id        (1 byte)
    +1  operand count    (1 byte)
    ... operands, each:  tag byte + payload

    tag 0: GPR      -> reg id (1)
    tag 1: XMM      -> reg id (1)
    tag 2: imm64    -> value  (8, little endian, two's complement)
    tag 3: memory   -> flags(1) base(1) index(1) scale(1) size(1) disp(8)
                       flags: bit0 base present, bit1 index present,
                              bit2 rip-relative
    tag 4: label    -> absolute target address (8)
"""

from __future__ import annotations

import struct

from repro.errors import EncodingError
from repro.machine.isa import (
    GPR_NAMES,
    OPCODE_BY_ID,
    OPCODE_IDS,
    Imm,
    Instruction,
    Label,
    Mem,
    Reg,
    Xmm,
)

_I64 = struct.Struct("<q")

TAG_REG = 0
TAG_XMM = 1
TAG_IMM = 2
TAG_MEM = 3
TAG_LABEL = 4


def encode_instruction(instr: Instruction) -> bytes:
    out = bytearray()
    try:
        out.append(OPCODE_IDS[instr.mnemonic])
    except KeyError:
        raise EncodingError(f"unknown mnemonic {instr.mnemonic!r}") from None
    out.append(len(instr.operands))
    for op in instr.operands:
        if isinstance(op, Reg):
            out.append(TAG_REG)
            out.append(op.id)
        elif isinstance(op, Xmm):
            out.append(TAG_XMM)
            out.append(op.id)
        elif isinstance(op, Imm):
            out.append(TAG_IMM)
            out += _I64.pack(_wrap_s64(op.value))
        elif isinstance(op, Mem):
            out.append(TAG_MEM)
            flags = 0
            if op.base is not None:
                flags |= 1
            if op.index is not None:
                flags |= 2
            if op.rip_label is not None:
                flags |= 4
            out.append(flags)
            out.append(GPR_NAMES.index(op.base) if op.base else 0)
            out.append(GPR_NAMES.index(op.index) if op.index else 0)
            out.append(op.scale)
            out.append(op.size)
            out += _I64.pack(_wrap_s64(op.disp))
        elif isinstance(op, Label):
            # addr None marks an *external* symbol, bound dynamically at
            # call time through the symbol table (the PLT model) — that
            # is what makes LD_PRELOAD-style interposition possible.
            out.append(TAG_LABEL)
            out += _I64.pack(-1 if op.addr is None else _wrap_s64(op.addr))
        else:
            raise EncodingError(f"unencodable operand {op!r}")
    return bytes(out)


def _wrap_s64(value: int) -> int:
    value &= 0xFFFF_FFFF_FFFF_FFFF
    return value - (1 << 64) if value >= (1 << 63) else value


def encoded_length(raw: bytes, offset: int = 0) -> int:
    """Length in bytes of the instruction starting at ``offset``."""
    pos = offset + 2
    if offset + 2 > len(raw):
        raise EncodingError("truncated instruction header")
    count = raw[offset + 1]
    for _ in range(count):
        if pos >= len(raw):
            raise EncodingError("truncated operand list")
        tag = raw[pos]
        pos += 1
        if tag in (TAG_REG, TAG_XMM):
            pos += 1
        elif tag in (TAG_IMM, TAG_LABEL):
            pos += 8
        elif tag == TAG_MEM:
            pos += 13
        else:
            raise EncodingError(f"bad operand tag {tag}")
    if pos > len(raw):
        raise EncodingError("truncated operand")
    return pos - offset


__all__ = [
    "encode_instruction",
    "encoded_length",
    "EncodingError",
    "TAG_REG",
    "TAG_XMM",
    "TAG_IMM",
    "TAG_MEM",
    "TAG_LABEL",
    "OPCODE_BY_ID",
]
