"""Assembler, encoding and decoder tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.fpu import bits as B
from repro.machine.assembler import AssemblerError, _split_args, assemble
from repro.machine.cpu import CPU, TIERS
from repro.machine.decoder import decode_instruction
from repro.machine.encoding import encode_instruction, encoded_length
from repro.machine.isa import Imm, Instruction, Label, Mem, Reg, Xmm
from repro.machine.program import DATA_BASE, TEXT_BASE


class TestAssembleBasics:
    def test_single_instruction(self):
        prog = assemble("main:\n  mov rax, 5\n  hlt\n")
        assert len(prog.instructions) == 2
        instr = prog.instructions[0]
        assert instr.mnemonic == "mov"
        assert instr.operands == (Reg("rax"), Imm(5))

    def test_addresses_contiguous(self):
        prog = assemble("main:\n  mov rax, 5\n  mov rbx, rax\n  hlt\n")
        a, b, c = prog.instructions
        assert a.addr == TEXT_BASE
        assert b.addr == a.addr + a.size
        assert c.addr == b.addr + b.size

    def test_entry_is_main(self):
        prog = assemble("start:\n  nop\nmain:\n  hlt\n")
        assert prog.entry == prog.symbols["main"]
        assert prog.entry > TEXT_BASE

    def test_label_on_same_line(self):
        prog = assemble("main: mov rax, 1\n  hlt\n")
        assert prog.symbols["main"] == TEXT_BASE

    def test_comments_stripped(self):
        prog = assemble("main:\n  mov rax, 1 ; a comment\n  hlt # another\n")
        assert len(prog.instructions) == 2

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("main:\n  frob rax, 1\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("a:\n  nop\na:\n  nop\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(AssemblerError, match="expects"):
            assemble("main:\n  mov rax\n")

    def test_undefined_data_symbol_rejected(self):
        with pytest.raises(AssemblerError, match="undefined"):
            assemble("main:\n  mov rax, nosuch\n")


class TestRejectedOperands:
    """Inputs the assembler used to accept and mis-assemble; each is now
    a typed :class:`repro.errors.AssemblerError` (a ``ValueError``)."""

    def test_error_is_typed_and_reexported(self):
        assert AssemblerError is errors.AssemblerError
        assert issubclass(AssemblerError, ValueError)

    def test_immediate_destination_rejected(self):
        with pytest.raises(AssemblerError, match="first operand must be .*, got an immediate 5"):
            assemble("main:\n  mov 5, rax\n")

    def test_two_memory_operands_rejected(self):
        with pytest.raises(AssemblerError, match="second operand must be .*, got memory"):
            assemble("main:\n  mov [rax], [rbx]\n")

    def test_literal_wider_than_64_bits_rejected(self):
        with pytest.raises(AssemblerError, match="exceeds 64 bits"):
            assemble("main:\n  mov rax, 99999999999999999999999\n")

    def test_empty_memory_term_rejected(self):
        with pytest.raises(AssemblerError, match="empty term"):
            assemble("main:\n  movsd xmm0, [rax + ]\n")

    def test_edge_forms_still_accepted(self):
        prog = assemble("main:\n  mov rax, 0xffffffffffffffff\n"
                        "  mov rbx, -9223372036854775808\n"
                        "  movsd xmm0, [rax + -8]\n  push 5\n  hlt\n")
        assert prog.instructions[2].operands[1] == Mem(base="rax", disp=-8)
        assert prog.instructions[3].operands == (Imm(5),)


class TestSseDestinations:
    """An SSE instruction whose first operand is a kind its x86 forms do
    not allow is an ``AssemblerError``.  Accepted, these wrote the XMM
    register numbered like the GPR, or raised a bare ``AttributeError``
    on both execution tiers."""

    @pytest.mark.parametrize("line, kind", [
        ("sqrtsd rax, xmm1", "an XMM register"),
        ("addsd rcx, xmm1", "an XMM register"),
        ("addsd [rbx + 8], xmm1", "an XMM register"),
        ("xorpd [rbx], xmm0", "an XMM register"),
        ("movapd rax, xmm1", "an XMM register or memory"),
        ("ucomisd [rbx], xmm0", "an XMM register"),
        ("cvttsd2si xmm1, xmm0", "a general register"),
        ("movddup [rbx], xmm0", "an XMM register"),
    ])
    def test_illegal_destination_rejected(self, line, kind):
        with pytest.raises(AssemblerError,
                           match=f"first operand must be {kind}, got") as info:
            assemble(f"main:\n  {line}\n  hlt\n")
        assert info.value.line_no == 2

    @pytest.mark.parametrize("tier", sorted(TIERS))
    @pytest.mark.parametrize("line", [
        "cvttsd2si rax, xmm0", "movq rax, xmm0", "movsd [rbx], xmm0",
        "movapd [rbx], xmm0", "movhpd [rbx], xmm0",
    ])
    def test_legal_forms_assemble_and_run(self, line, tier):
        prog = assemble(".data\na: .double 2.5, -7.25\nbuf: .space 16\n.text\n"
                        "main:\n  mov rbx, buf\n  movupd xmm0, [rip + a]\n"
                        f"  {line}\n  hlt\n")
        cpu = CPU(prog, uops=TIERS[tier])
        cpu.run()
        lo, hi = B.float_to_bits(2.5), B.float_to_bits(-7.25)
        buf = prog.symbols["buf"]
        rax, stored = {"cvttsd2si": (2, (0, 0)), "movq": (lo, (0, 0)),
                       "movsd": (0, (lo, 0)), "movapd": (0, (lo, hi)),
                       "movhpd": (0, (hi, 0))}[line.split()[0]]
        assert cpu.regs.xmm[0] == [lo, hi]
        assert cpu.regs.gpr[0] == rax
        assert (cpu.mem.read_u64(buf), cpu.mem.read_u64(buf + 8)) == stored


def _split_by_walk(arg: str) -> list[str]:
    """Split on commas at bracket depth 0, one character at a time (the
    reference ``_split_args`` short-cuts when every part is balanced)."""
    out, depth, cur = [], 0, []
    for ch in arg:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


class TestSplitArgs:
    """The comma split gives the character walk's result on every
    string, balanced brackets or not."""

    @given(st.text(alphabet="[], a+*8x", max_size=24))
    @settings(max_examples=400, deadline=None)
    def test_matches_walk(self, arg):
        assert _split_args(arg) == _split_by_walk(arg)

    @pytest.mark.parametrize("arg", ["[", "[a, b", "a], [b", "]a, b[", "[a], [b, c]",
                                     "xmm0, [rax + rcx*8]", "a,, b,", " , "])
    def test_malformed_and_edge_cases(self, arg):
        assert _split_args(arg) == _split_by_walk(arg)


class TestOperandParsing:
    def test_xmm_registers(self):
        prog = assemble("main:\n  addsd xmm0, xmm13\n  hlt\n")
        assert prog.instructions[0].operands == (Xmm("xmm0"), Xmm("xmm13"))

    def test_negative_and_hex_immediates(self):
        prog = assemble("main:\n  mov rax, -17\n  mov rbx, 0x40\n  hlt\n")
        assert prog.instructions[0].operands[1] == Imm(-17)
        assert prog.instructions[1].operands[1] == Imm(0x40)

    def test_memory_base_only(self):
        prog = assemble("main:\n  mov rax, [rbx]\n  hlt\n")
        mem = prog.instructions[0].operands[1]
        assert mem == Mem(base="rbx")

    def test_memory_base_disp(self):
        prog = assemble("main:\n  mov rax, [rbx + 16]\n  hlt\n")
        assert prog.instructions[0].operands[1] == Mem(base="rbx", disp=16)

    def test_memory_negative_disp(self):
        prog = assemble("main:\n  mov rax, [rbp - 8]\n  hlt\n")
        assert prog.instructions[0].operands[1] == Mem(base="rbp", disp=-8)

    def test_memory_index_scale(self):
        prog = assemble("main:\n  movsd xmm0, [rax + rcx*8 + 32]\n  hlt\n")
        mem = prog.instructions[0].operands[1]
        assert mem == Mem(base="rax", index="rcx", scale=8, disp=32)

    def test_rip_relative(self):
        prog = assemble(".data\nx: .double 2.5\n.text\nmain:\n  movsd xmm0, [rip + x]\n  hlt\n")
        mem = prog.instructions[0].operands[1]
        assert mem.disp == DATA_BASE
        assert mem.rip_label == "x"

    def test_rip_relative_with_offset(self):
        prog = assemble(".data\nx: .double 1.0, 2.0\n.text\nmain:\n  movsd xmm0, [rip + x + 8]\n  hlt\n")
        assert prog.instructions[0].operands[1].disp == DATA_BASE + 8

    def test_branch_to_local_label(self):
        prog = assemble("main:\n  jmp end\n  nop\nend:\n  hlt\n")
        label = prog.instructions[0].operands[0]
        assert isinstance(label, Label)
        assert label.addr == prog.symbols["end"]

    def test_bare_name_parses_by_mnemonic_class(self):
        """The same operand string is a branch target after ``call`` and
        an address-of immediate after ``mov``, in one source."""
        prog = assemble("main:\n  call foo\n  mov rax, foo\n  hlt\nfoo:\n  ret\n")
        foo = prog.symbols["foo"]
        assert prog.instructions[0].operands == (Label("foo", addr=foo),)
        assert prog.instructions[1].operands == (Reg("rax"), Imm(foo))

    @pytest.mark.parametrize("operand,match", [
        ("[rax", "bad memory operand"),        # rejected while sizing
        ("[rax + ]", "empty term"),            # rejected while parsing
        ("nosuch", "undefined symbol")])
    def test_repeated_bad_operand_reports_first_line(self, operand, match):
        src = f"main:\n  nop\n  mov rax, {operand}\n  mov rbx, {operand}\n  hlt\n"
        with pytest.raises(AssemblerError, match=match) as info:
            assemble(src)
        assert info.value.line_no == 3

    def test_call_external_symbol_unresolved(self):
        prog = assemble("main:\n  call print_f64\n  hlt\n")
        label = prog.instructions[0].operands[0]
        assert isinstance(label, Label)
        assert label.addr is None  # dynamic (PLT-style) binding


class TestDataSection:
    def test_double_literals(self):
        prog = assemble(".data\nv: .double 1.5, -2.5\n.text\nmain:\n  hlt\n")
        import struct

        assert struct.unpack("<2d", prog.data) == (1.5, -2.5)

    def test_quad_literals(self):
        prog = assemble(".data\nq: .quad 7, -1\n.text\nmain:\n  hlt\n")
        import struct

        assert struct.unpack("<2q", prog.data) == (7, -1)

    def test_space(self):
        prog = assemble(".data\nbuf: .space 64\n.text\nmain:\n  hlt\n")
        assert len(prog.data) == 64

    def test_asciz(self):
        prog = assemble('.data\nmsg: .asciz "hi"\n.text\nmain:\n  hlt\n')
        assert prog.data == b"hi\x00"

    def test_symbol_addresses_sequential(self):
        prog = assemble(".data\na: .double 1.0\nb: .double 2.0\n.text\nmain:\n  hlt\n")
        assert prog.symbols["b"] == prog.symbols["a"] + 8


class TestEncodeDecodeRoundTrip:
    CASES = [
        "mov rax, 5",
        "mov rax, [rbx + rcx*8 + 16]",
        "addsd xmm1, xmm2",
        "movsd xmm0, [rbp - 24]",
        "movhpd xmm11, [rsp + 48]",
        "cmpltsd xmm3, xmm4",
        "push r15",
        "inc rcx",
        "ret",
        "int3",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        prog = assemble(f"main:\n  {text}\n  hlt\n")
        original = prog.instructions[0]
        raw = encode_instruction(original)
        assert raw == original.raw
        decoded = decode_instruction(raw, addr=original.addr)
        assert decoded.mnemonic == original.mnemonic
        assert len(decoded.operands) == len(original.operands)
        for dec_op, orig_op in zip(decoded.operands, original.operands):
            assert type(dec_op) is type(orig_op)

    def test_encoded_length_agrees(self):
        prog = assemble("main:\n  movsd xmm0, [rax + rcx*8]\n  addsd xmm0, xmm1\n  hlt\n")
        blob = prog.text
        sizes = [i.size for i in prog.instructions]
        offset = 0
        for expected in sizes:
            assert encoded_length(blob, offset) == expected
            offset += expected

    def test_decoded_mem_semantics_preserved(self):
        prog = assemble("main:\n  mov rax, [rbx + rcx*4 + 100]\n  hlt\n")
        decoded = decode_instruction(prog.instructions[0].raw)
        mem = decoded.operands[1]
        assert (mem.base, mem.index, mem.scale, mem.disp) == ("rbx", "rcx", 4, 100)

    def test_decoded_label_address(self):
        prog = assemble("main:\n  jmp target\ntarget:\n  hlt\n")
        decoded = decode_instruction(prog.instructions[0].raw)
        assert decoded.operands[0].addr == prog.symbols["target"]

