"""Instruction decoder (the Capstone stand-in).

FPVM invokes this on a decode-cache miss; the work here is what the
``decode`` cost category accounts for.  The decoder is intentionally a
separate, from-bytes implementation rather than a lookup into the
assembler's output: FPVM only ever sees the byte stream of the faulting
instruction, exactly as in the real system.
"""

from __future__ import annotations

import struct

from repro.machine.encoding import (
    EncodingError,
    TAG_IMM,
    TAG_LABEL,
    TAG_MEM,
    TAG_REG,
    TAG_XMM,
)
from repro.machine.isa import (
    GPR_NAMES,
    OPCODE_BY_ID,
    XMM_NAMES,
    Imm,
    Instruction,
    Label,
    Mem,
    Reg,
    Xmm,
)

_I64 = struct.Struct("<q")


def _need(raw: bytes, pos: int, n: int) -> None:
    if pos + n > len(raw):
        raise EncodingError("truncated operand")


def _reg(names: tuple[str, ...], rid: int) -> str:
    if rid >= len(names):
        raise EncodingError(f"bad register id {rid}")
    return names[rid]


def decode_instruction(raw: bytes, addr: int = 0) -> Instruction:
    """Decode one instruction from ``raw`` (which must start at the
    instruction's first byte).  ``addr`` is recorded on the result.
    Malformed bytes raise :class:`~repro.errors.EncodingError`, as do
    well-formed bytes of an operand shape the opcode table's forms
    refuse (:class:`~repro.machine.isa.Instruction` checks them)."""
    if len(raw) < 2:
        raise EncodingError("truncated instruction header")
    opcode_id = raw[0]
    mnemonic = OPCODE_BY_ID.get(opcode_id)
    if mnemonic is None:
        raise EncodingError(f"unknown opcode id {opcode_id}")
    count = raw[1]
    pos = 2
    operands = []
    for _ in range(count):
        if pos >= len(raw):
            raise EncodingError("truncated operand list")
        tag = raw[pos]
        pos += 1
        if tag == TAG_REG:
            _need(raw, pos, 1)
            operands.append(Reg(_reg(GPR_NAMES, raw[pos])))
            pos += 1
        elif tag == TAG_XMM:
            _need(raw, pos, 1)
            operands.append(Xmm(_reg(XMM_NAMES, raw[pos])))
            pos += 1
        elif tag == TAG_IMM:
            _need(raw, pos, 8)
            operands.append(Imm(_I64.unpack_from(raw, pos)[0]))
            pos += 8
        elif tag == TAG_MEM:
            _need(raw, pos, 13)
            flags = raw[pos]
            base = _reg(GPR_NAMES, raw[pos + 1]) if flags & 1 else None
            index = _reg(GPR_NAMES, raw[pos + 2]) if flags & 2 else None
            disp = _I64.unpack_from(raw, pos + 5)[0]
            rip_label = "<rip>" if flags & 4 else None
            try:
                mem = Mem(base=base, index=index, scale=raw[pos + 3],
                          disp=disp, rip_label=rip_label, size=raw[pos + 4])
            except ValueError as exc:  # bad scale or access size
                raise EncodingError(str(exc)) from None
            operands.append(mem)
            pos += 13
        elif tag == TAG_LABEL:
            _need(raw, pos, 8)
            target = _I64.unpack_from(raw, pos)[0]
            operands.append(Label(f"loc_{target:x}", addr=target))
            pos += 8
        else:
            raise EncodingError(f"bad operand tag {tag}")
    instr = Instruction(mnemonic, tuple(operands), addr=addr, size=pos,
                        raw=bytes(raw[:pos]))
    return instr


__all__ = ["decode_instruction"]
