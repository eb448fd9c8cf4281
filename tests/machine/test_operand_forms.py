"""The opcode table's operand forms are the one rule for which operand
shapes exist.  :class:`~repro.machine.isa.Instruction` refuses any
other shape with ``EncodingError``, so IR-built, assembled (the
assembler reports it as ``AssemblerError`` with the line) and decoded
instructions obey it alike; and every admitted shape binds a micro-op
function and, for a mnemonic the emulator has semantics for, an
emulator step, so no reader keeps a reading of its own."""

import itertools
import struct

import pytest

from repro.core.emulator import EMULATABLE
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import AssemblerError, EncodingError
from repro.machine.assembler import assemble
from repro.machine.decoder import decode_instruction
from repro.machine.encoding import TAG_IMM, TAG_MEM, TAG_REG, TAG_XMM
from repro.machine.isa import (
    GPR_IDS,
    OPCODE_IDS,
    OPCODES,
    OPERAND_KINDS,
    Imm,
    Instruction,
    Label,
    Mem,
    OpClass,
    Reg,
    Xmm,
    form_shapes,
)
from repro.machine.memory import Memory
from repro.machine.program import Program
from repro.machine.uops import bind_control, bind_exec, lower

#: one operand of each kind the forms name.
EXAMPLES = {"xmm": Xmm("xmm1"), "reg": Reg("rcx"), "mem": Mem(base="rbx", disp=8),
            "imm": Imm(5), "label": Label("far", addr=0x40_2000)}


def test_every_admitted_shape_binds_and_no_other_builds():
    """Over every mnemonic and every tuple of the five kinds at its
    arity: a tuple the table admits builds an instruction, whose
    micro-op binds a function (SYS mnemonics run on the interpreter
    only) and, for an ``EMULATABLE`` mnemonic, an emulator step; any
    other tuple builds nothing, so nothing can bind it."""
    assert set(EXAMPLES) == set(OPERAND_KINDS)
    program, mem = Program(), Memory()
    emulator = FPVM(FPVMConfig.seq_short(supported_instructions=EMULATABLE)).emulator
    admitted = set()
    for mnemonic, info in sorted(OPCODES.items()):
        shapes = form_shapes(info.forms)
        for kinds in itertools.product(OPERAND_KINDS, repeat=info.arity):
            ops = tuple(EXAMPLES[kind] for kind in kinds)
            if kinds not in shapes:
                with pytest.raises(EncodingError, match=f"^{mnemonic} "):
                    Instruction(mnemonic, ops)
                continue
            admitted.add((mnemonic, kinds))
            uop = lower(Instruction(mnemonic, ops, addr=0x40_1000, size=8))
            if info.opclass is OpClass.CONTROL:
                assert callable(bind_control(uop, mem, program)), (mnemonic, kinds)
            elif info.opclass is not OpClass.SYS:
                assert callable(bind_exec(uop, mem)), (mnemonic, kinds)
            if mnemonic in EMULATABLE:
                assert callable(emulator.step(uop).run), (mnemonic, kinds)
    assert admitted == {(mn, shape) for mn, info in OPCODES.items()
                        for shape in form_shapes(info.forms)}


# ------------------------------------------------------------ hand-built bytes
def _raw(mnemonic: str, *operands: bytes) -> bytes:
    """The encoding of ``mnemonic`` over operands already encoded, built
    without an ``Instruction`` (the layout of ``repro.machine.encoding``)."""
    return bytes([OPCODE_IDS[mnemonic], len(operands)]) + b"".join(operands)


def _reg(name: str) -> bytes:
    return bytes([TAG_REG, GPR_IDS[name]])


def _xmm(xid: int) -> bytes:
    return bytes([TAG_XMM, xid])


def _imm(value: int) -> bytes:
    return bytes([TAG_IMM]) + struct.pack("<q", value)


def _mem_rbx() -> bytes:
    """``qword [rbx]``: flags (base only), base, index, scale, size,
    then the displacement."""
    return bytes([TAG_MEM, 1, GPR_IDS["rbx"], 0, 1, 8]) + struct.pack("<q", 0)


@pytest.mark.parametrize("raw, message", [
    (_raw("movsd"), "movsd expects 2 operands, got 0"),
    (_raw("mov", _imm(5), _reg("rax")),
     "mov first operand must be an XMM register, a general register or memory, "
     "got an immediate 5"),
    (_raw("movsd", _mem_rbx(), _reg("rax")),
     "movsd second operand must be an XMM register, got a general register rax"),
], ids=["movsd-no-operands", "mov 5, rax", "movsd [rbx], rax"])
def test_decoder_refuses_bytes_outside_the_table(raw, message):
    with pytest.raises(EncodingError) as info:
        decode_instruction(raw, addr=0x40_1000)
    assert str(info.value) == message


# ------------------------------------------------ refused at every entrance
@pytest.mark.parametrize("text, operands, raw", [
    ("cvttsd2si 7, xmm0", (Imm(7), Xmm("xmm0")), _raw("cvttsd2si", _imm(7), _xmm(0))),
    ("movapd xmm2, rax", (Xmm("xmm2"), Reg("rax")), _raw("movapd", _xmm(2), _reg("rax"))),
], ids=["cvttsd2si 7, xmm0", "movapd xmm2, rax"])
def test_refused_shape_builds_nowhere(text, operands, raw):
    """A shape outside the table (a write to an immediate, a 128-bit
    move from a GPR) is refused with one message when the IR builds it,
    when the assembler meets it (with its line) and when the decoder
    reads its bytes; no CPU or emulator ever runs it."""
    mnemonic = text.split()[0]
    with pytest.raises(EncodingError) as built:
        Instruction(mnemonic, operands)
    with pytest.raises(AssemblerError) as assembled:
        assemble(f"main:\n  nop\n  {text}\n  hlt\n")
    assert assembled.value.line_no == 3
    assert str(assembled.value) == f"line 3: {built.value}"
    with pytest.raises(EncodingError) as decoded:
        decode_instruction(raw)
    assert str(decoded.value) == str(built.value)


@pytest.mark.parametrize("line", ["lea rax, rax", "movsd qword [rbx], rax"])
def test_shapes_readers_ran_apart_do_not_assemble(line):
    """``lea rax, rax`` has no address to load, and ``movsd qword
    [rbx], rax`` names no XMM register to store: no reader can run
    them alike, so the assembler refuses both, naming their line."""
    source = f".data\nbuf: .space 16\n.text\nmain:\n  lea rbx, [rip + buf]\n  {line}\n  hlt\n"
    with pytest.raises(AssemblerError, match=f"^line 6: {line.split()[0]} second operand"):
        assemble(source)
