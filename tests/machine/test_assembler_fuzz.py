"""Assembler robustness: seeded random assembler text either assembles
or raises the typed :class:`repro.errors.AssemblerError` — never a bare
``ValueError``, ``ZeroDivisionError`` or a half-built program.

The generator mixes well-formed pieces (real mnemonics, registers,
memory operands, labels, data directives) with the ways they break:
unbalanced brackets, stacked size prefixes, empty terms, out-of-range
literals, zero and negative padding."""

import random

import pytest

from repro.conformance.generators import gen_program
from repro.machine.assembler import AssemblerError, assemble
from repro.machine.isa import GPR_IDS, OPCODES, XMM_IDS

MNEMONICS = sorted(OPCODES)
GPRS = sorted(GPR_IDS)
XMMS = sorted(XMM_IDS)
NUMBERS = ["0", "1", "-1", "8", "0x10", "0xffffffffffffffff", str(1 << 64),
           str(-(1 << 63)), "1.5", "0x", "08", "-"]
NAMES = ["x", "main", "top", "buf", "print_f64", "sin", "_a.b$", "1x"]
PREFIXES = ["qword", "dword", "word", "byte", "xmmword"]
NOISE = list("[]+-*,:;#.\" \t") + ["rip", "qword", "0x"]


def _memory(r: random.Random) -> str:
    terms = [r.choice([r.choice(GPRS), f"{r.choice(GPRS)}*{r.choice('12483')}",
                       r.choice(NUMBERS), r.choice(NAMES), "rip", ""])
             for _ in range(r.randint(0, 4))]
    inner = f" {r.choice('+-')} ".join(terms)
    return (r.choice(["[", "[", "", "[["]) + inner
            + r.choice(["]", "]", "", "]]", "[", " ]x"]))


def _operand(r: random.Random) -> str:
    body = r.choice([
        lambda: r.choice(GPRS), lambda: r.choice(XMMS),
        lambda: r.choice(NUMBERS), lambda: r.choice(NAMES),
        lambda: _memory(r), lambda: _memory(r), lambda: "",
        lambda: "".join(r.choice(NOISE) for _ in range(r.randint(1, 5))),
    ])()
    if r.random() < 0.2:
        body = " ".join(r.choices(PREFIXES, k=r.randint(1, 2))) + " " + body
    return body


def _instruction(r: random.Random) -> str:
    mnemonic = r.choice(MNEMONICS) if r.random() < 0.9 else r.choice(
        ["foo", "MOV", "Addsd", ".double", ""])
    arity = OPCODES[mnemonic].arity if mnemonic in OPCODES else 2
    count = arity if r.random() < 0.6 else r.randint(0, 4)
    operands = ", ".join(_operand(r) for _ in range(count))
    return f"{mnemonic} {operands}{r.choice(['', ' ; c', ' # c'])}"


def _data(r: random.Random) -> str:
    directive = r.choice([".double", ".quad", ".space", ".asciz", ".align",
                          ".byte"])
    arg = r.choice([r.choice(NUMBERS), r.choice(NUMBERS),
                    ", ".join(r.choices(NUMBERS, k=r.randint(0, 3))), '"hi"',
                    '"unterminated', "", r.choice(NAMES)])
    return f"{directive} {arg}"


def random_source(seed: int) -> str:
    """Random lines, or (every other seed) a compiled fuzz program with
    one line mutated — most random text dies on its first line, and a
    mutation inside a valid program reaches the later passes."""
    r = random.Random(seed)
    if seed % 2:
        lines = gen_program(seed).emit_asm().splitlines()
        i = r.randrange(len(lines))
        lines[i] = r.choice([
            lambda: lines[i].replace("]", "", 1),
            lambda: lines[i].replace("[", r.choice(["[[", "qword qword ["]), 1),
            lambda: lines[i].split(",")[0] + ", " + _operand(r),
            lambda: lines[i] + r.choice(NOISE),
            lambda: lines[i][:r.randrange(len(lines[i]) + 1)],
            lambda: _instruction(r),
            lambda: ".data\n" + _data(r) + "\n.text",
        ])()
        return "\n".join(lines)
    lines = []
    for _ in range(r.randint(1, 8)):
        k = r.random()
        if k < 0.05:
            lines.append(r.choice([".data", ".text"]))
        elif k < 0.15:
            lines.append(f"{r.choice(NAMES)}: "
                         + (_instruction(r) if r.random() < 0.5 else ""))
        elif k < 0.25:
            lines.append(_data(r))
        elif k < 0.3:
            lines.append("".join(chr(r.randint(1, 127))
                                 for _ in range(r.randint(0, 12))))
        else:
            lines.append(_instruction(r))
    return "\n".join(lines)


@pytest.mark.parametrize("chunk", range(6))
def test_random_text_raises_only_assembler_error(chunk):
    for seed in range(chunk * 400, (chunk + 1) * 400):
        source = random_source(seed)
        try:
            assemble(source)
        except AssemblerError:
            pass
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"seed {seed}: {type(exc).__name__}: {exc}\n{source}")


@pytest.mark.parametrize("source,match", [
    # accepted with a mis-sized operand, then a bare ValueError from
    # Program.finalize_text ("instruction ... not contiguous").
    ("jns [\nhlt", "bad memory operand"),
    ("jmp qword qword [rax]\nhlt", "bad memory operand"),
    # ZeroDivisionError, and a hang padding to a huge alignment.
    (".data\n.align 0", "out of range"),
    (".data\n.align 0xffffffffffffffff", "out of range"),
    (".data\n.space -1", "out of range"),
    (".data\n.space 0x10000000", "out of range"),
])
def test_known_escapes_are_typed(source, match):
    with pytest.raises(AssemblerError, match=match):
        assemble(source)


def test_alignment_still_pads():
    program = assemble(".data\nx: .double 1\n.space 1\n.align 8\ny: .quad 2\n"
                       ".text\nmain:\n  hlt\n")
    assert program.symbols["y"] - program.data_base == 16
