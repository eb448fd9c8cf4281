"""Property-based round-trip and differential tests for the machine
substrate: random instructions survive encode->decode, and the integer
ALU agrees with a big-integer reference model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, s64
from repro.machine.decoder import decode_instruction
from repro.machine.encoding import encode_instruction
from repro.machine.isa import (
    GPR_NAMES,
    OPCODES,
    XMM_NAMES,
    Imm,
    Instruction,
    Label,
    Mem,
    OpClass,
    Reg,
    Xmm,
    form_shapes,
)
from tests.machine.snapshots import restore, snapshot

U64 = 0xFFFF_FFFF_FFFF_FFFF

# ---------------------------------------------------------------- operands
gprs = st.sampled_from(GPR_NAMES).map(Reg)
xmms = st.sampled_from(XMM_NAMES).map(Xmm)
imms = st.integers(min_value=-(2**63), max_value=2**63 - 1).map(Imm)
mems = st.builds(
    Mem,
    base=st.one_of(st.none(), st.sampled_from(GPR_NAMES)),
    index=st.one_of(st.none(), st.sampled_from(GPR_NAMES)),
    scale=st.sampled_from([1, 2, 4, 8]),
    disp=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    size=st.sampled_from([1, 2, 4, 8]),
)
labels = st.integers(min_value=0, max_value=2**40).map(
    lambda a: Label(f"loc_{a:x}", addr=a)
)

_KIND_STRATEGY = {"reg": gprs, "xmm": xmms, "imm": imms, "mem": mems, "label": labels}


@st.composite
def instructions(draw):
    """A mnemonic in one of the operand shapes its forms admit (the
    decoder refuses any other, as construction does)."""
    mnemonic = draw(st.sampled_from(sorted(OPCODES)))
    shape = draw(st.sampled_from(form_shapes(OPCODES[mnemonic].forms)))
    return Instruction(mnemonic, tuple(draw(_KIND_STRATEGY[kind]) for kind in shape))


class TestEncodeDecodeProperty:
    @given(instructions())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_structure(self, instr):
        raw = encode_instruction(instr)
        decoded = decode_instruction(raw, addr=0x400000)
        assert decoded.mnemonic == instr.mnemonic
        assert len(decoded.operands) == len(instr.operands)
        for dec, orig in zip(decoded.operands, instr.operands):
            assert type(dec) is type(orig)
            if isinstance(orig, (Reg, Xmm)):
                assert dec.name == orig.name
            elif isinstance(orig, Imm):
                assert dec.value == orig.value
            elif isinstance(orig, Mem):
                assert (dec.base, dec.index, dec.scale, dec.disp, dec.size) == (
                    orig.base, orig.index, orig.scale, orig.disp, orig.size
                )
            elif isinstance(orig, Label):
                assert dec.addr == orig.addr

    @given(instructions())
    @settings(max_examples=150, deadline=None)
    def test_size_matches_bytes(self, instr):
        raw = encode_instruction(instr)
        decoded = decode_instruction(raw)
        assert decoded.size == len(raw)


# --------------------------------------------------------- ALU differential
_ALU_REFERENCE = {
    "add": lambda a, b: (a + b) & U64,
    "sub": lambda a, b: (a - b) & U64,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "imul": lambda a, b: (s64(a) * s64(b)) & U64,
}

u64s = st.integers(min_value=0, max_value=U64)


class TestALUDifferential:
    @given(st.sampled_from(sorted(_ALU_REFERENCE)), u64s, u64s)
    @settings(max_examples=300, deadline=None)
    def test_binary_alu_matches_reference(self, op, a, b):
        prog = assemble(f"main:\n  {op} rax, rbx\n  hlt\n")
        cpu = CPU(prog)
        cpu.regs.write_gpr(0, a)
        cpu.regs.write_gpr(1, b)
        cpu.run()
        assert cpu.regs.gpr[0] == _ALU_REFERENCE[op](a, b)

    @given(u64s, st.integers(min_value=0, max_value=63))
    @settings(max_examples=200, deadline=None)
    def test_shifts_match_reference(self, a, count):
        prog = assemble(
            f"main:\n  shl rax, {count}\n  shr rbx, {count}\n  sar rcx, {count}\n  hlt\n"
        )
        cpu = CPU(prog)
        for rid in (0, 1, 2):
            cpu.regs.write_gpr(rid, a)
        cpu.run()
        assert cpu.regs.gpr[0] == (a << count) & U64
        assert cpu.regs.gpr[1] == a >> count
        assert cpu.regs.gpr[2] == (s64(a) >> count) & U64

    @given(u64s, u64s)
    @settings(max_examples=200, deadline=None)
    def test_cmp_flags_drive_all_branches_consistently(self, a, b):
        """Signed and unsigned branch outcomes must agree with Python's
        view of the comparison."""
        prog = assemble(
            "main:\n  cmp rax, rbx\n"
            "  jl is_lt\n  mov rcx, 0\n  jmp next\nis_lt:\n  mov rcx, 1\nnext:\n"
            "  cmp rax, rbx\n"
            "  jb is_b\n  mov rdx, 0\n  jmp done\nis_b:\n  mov rdx, 1\ndone:\n  hlt\n"
        )
        cpu = CPU(prog)
        cpu.regs.write_gpr(0, a)
        cpu.regs.write_gpr(1, b)
        cpu.run()
        assert cpu.regs.gpr[2] == (1 if s64(a) < s64(b) else 0)   # jl: signed
        assert cpu.regs.gpr[3] == (1 if a < b else 0)             # jb: unsigned

    @given(u64s)
    @settings(max_examples=100, deadline=None)
    def test_neg_not_involution(self, a):
        prog = assemble("main:\n  neg rax\n  neg rax\n  not rbx\n  not rbx\n  hlt\n")
        cpu = CPU(prog)
        cpu.regs.write_gpr(0, a)
        cpu.regs.write_gpr(1, a)
        cpu.run()
        assert cpu.regs.gpr[0] == a
        assert cpu.regs.gpr[1] == a


# ------------------------------------------------ register file snapshots
lane_masks = st.integers(min_value=0, max_value=(1 << 32) - 1)
xmm_banks = st.lists(
    st.lists(u64s, min_size=2, max_size=2), min_size=16, max_size=16
)


@st.composite
def register_files(draw):
    from repro.machine.registers import Flags, RegisterFile

    regs = RegisterFile()
    regs.gpr = draw(st.lists(u64s, min_size=len(regs.gpr),
                             max_size=len(regs.gpr)))
    regs.xmm = draw(xmm_banks)
    regs.rip = draw(st.integers(min_value=0, max_value=2**40))
    regs.flags = Flags(*(draw(st.booleans()) for _ in range(5)))
    regs.mxcsr = draw(st.integers(min_value=0, max_value=(1 << 16) - 1))
    regs.fp_dirty = draw(lane_masks)
    regs.fp_live = draw(lane_masks)
    return regs


class TestRegisterSnapshotProperty:
    @given(register_files())
    @settings(max_examples=100, deadline=None)
    def test_snapshot_restore_round_trip(self, regs):
        """Every architectural field — including the lazy-FP dirty and
        live lane masks — survives snapshot() -> restore() intact."""
        from repro.machine.registers import RegisterFile

        snap = snapshot(regs)
        other = RegisterFile()
        restore(other, snap)
        assert other.gpr == regs.gpr
        assert other.xmm == regs.xmm
        assert other.rip == regs.rip
        assert other.flags == regs.flags
        assert other.mxcsr == regs.mxcsr
        assert other.fp_dirty == regs.fp_dirty
        assert other.fp_live == regs.fp_live

    @given(register_files())
    @settings(max_examples=50, deadline=None)
    def test_snapshot_is_isolated(self, regs):
        """Mutating the restored file must not write through into the
        snapshot (the frame-mode handler contract)."""
        snap = snapshot(regs)
        regs.write_gpr(0, (regs.gpr[0] + 1) & U64)
        regs.write_xmm_lane(5, 1, regs.xmm[5][1] ^ U64)
        regs.flags.zf = not regs.flags.zf
        regs.fp_dirty ^= 0b1
        assert snap["gpr"][0] == (regs.gpr[0] - 1) & U64
        assert snap["xmm"][5][1] == regs.xmm[5][1] ^ U64
        assert snap["flags"].zf != regs.flags.zf
        assert snap["fp_dirty"] == regs.fp_dirty ^ 0b1

    @given(register_files(), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_fork_preserves_fp_metadata(self, regs, owned):
        """fork clones the caller's registers through
        snapshot()/restore(), so the lazy-FP dirty/live masks and the
        FP-unit ownership must come across bit-for-bit."""
        from repro.machine.process import Process

        from .forking import fork

        parent = Process(assemble("main:\n  hlt\n"))
        restore(parent.main.regs, snapshot(regs))
        if owned:
            parent.fp_owner = parent.main
        child = fork(parent)
        assert child.main.regs.fp_dirty == regs.fp_dirty
        assert child.main.regs.fp_live == regs.fp_live
        assert child.main.regs.xmm == regs.xmm
        assert (child.fp_owner is child.main) == owned


class TestMemoryProperty:
    @given(st.integers(min_value=0x600000, max_value=0x60FF00),
           st.binary(min_size=1, max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_write_read_round_trip(self, addr, data):
        from repro.machine.memory import Memory

        mem = Memory()
        mem.write_bytes(addr, data)
        assert mem.read_bytes(addr, len(data)) == data

    @given(st.integers(min_value=0, max_value=U64))
    @settings(max_examples=150, deadline=None)
    def test_u64_round_trip_cross_page(self, value):
        from repro.machine.memory import Memory, PAGE_SIZE

        mem = Memory()
        addr = 0x600000 + PAGE_SIZE - 3  # straddles a page boundary
        mem.write_u64(addr, value)
        assert mem.read_u64(addr) == value
