"""Two-pass text assembler for the simulated ISA.

Syntax (Intel-flavoured, matching how the paper prints traces)::

    .data
    x:      .double 1.5, 2.5
    buf:    .space 800
    msg:    .asciz "result: "
    .text
    main:
        movsd  xmm0, [rip + x]
        mov    rcx, 100
    top:
        addsd  xmm0, [rip + x]
        dec    rcx
        jne    top
        call   print_f64
        hlt

Memory operands: ``[rax]``, ``[rax + 8]``, ``[rax + rcx*8]``,
``[rax + rcx*8 + 16]``, ``[rip + symbol]``, with an optional ``qword``
size prefix (the default).  ``; comment`` and ``# comment`` to EOL.
"""

from __future__ import annotations

import re
import struct

from repro.errors import AssemblerError, EncodingError
from repro.machine.isa import (
    GPR_IDS,
    OPCODES,
    XMM_IDS,
    Imm,
    Instruction,
    Label,
    Mem,
    OpClass,
    Operand,
    Reg,
    Xmm,
)
from repro.machine.program import DATA_BASE, HEAP_BASE, TEXT_BASE, Program


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_MEM_RE = re.compile(r"^\[(.*)\]$")
_COMMENT_RE = re.compile(r"[;#]")
_SIZE_PREFIXES = {"byte": 1, "word": 2, "dword": 4, "qword": 8, "xmmword": 16}

def assemble(source: str, text_base: int = TEXT_BASE, data_base: int = DATA_BASE) -> Program:
    """Assemble ``source`` into a :class:`Program`."""
    program = Program()
    program.text_base = text_base
    program.data_base = data_base

    # ---------------------------------------------------------- parse
    section = "text"
    data = bytearray()
    # (mnemonic, raw_operand_strings, line_no) in order, with a running
    # address assigned in the same pass using encoded sizes.
    pending: list[tuple[str, list[str], int, int]] = []  # +addr
    addr = text_base
    symbols: dict[str, int] = {}
    # Each distinct operand string is classified and parsed once per
    # call.  Only successful results are kept, so every error still
    # names its own line.  A bare name parses to a ``Label`` after a
    # control mnemonic and to an ``Imm`` elsewhere, hence the flag in
    # the parse key; operands are frozen, so instructions share them.
    kinds: dict[str, str] = {}
    parsed: dict[tuple[str, bool], Operand] = {}

    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if line == ".data":
            section = "data"
            continue
        if line == ".text":
            section = "text"
            continue

        m = _LABEL_RE.match(line)
        if m:
            name, rest = m.group(1), m.group(2).strip()
            target = data_base + len(data) if section == "data" else addr
            if name in symbols:
                raise AssemblerError(f"duplicate label {name!r}", line_no)
            symbols[name] = target
            if not rest:
                continue
            line = rest

        if section == "data":
            _assemble_data(line, data, HEAP_BASE - data_base, line_no)
            continue

        mnemonic, operand_strs = _split_instruction(line, line_no)
        size = _instruction_size(operand_strs, line_no, kinds)
        pending.append((mnemonic, operand_strs, line_no, addr))
        addr += size

    # ------------------------------------------------------- resolve
    program.symbols.update(symbols)
    for mnemonic, operand_strs, line_no, iaddr in pending:
        control = OPCODES[mnemonic].opclass is OpClass.CONTROL
        operands = []
        for s in operand_strs:
            op = parsed.get((s, control))
            if op is None:
                op = parsed[s, control] = _parse_operand(
                    s, symbols, control, line_no)
            operands.append(op)
        try:
            instr = Instruction(mnemonic, tuple(operands), addr=iaddr)
        except EncodingError as exc:
            raise AssemblerError(str(exc), line_no) from None
        program.add_instruction(instr)
        program.lines[iaddr] = line_no

    program.data = bytes(data)
    program.finalize_text()
    if "main" in symbols:
        program.entry = symbols["main"]
    elif program.instructions:
        program.entry = program.instructions[0].addr
    return program


def _strip_comment(line: str) -> str:
    if '"' not in line:
        m = _COMMENT_RE.search(line)
        return line[:m.start()] if m else line
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        if not in_str and ch in ";#":
            break
        out.append(ch)
    return "".join(out)


def _assemble_data(line: str, data: bytearray, limit: int, line_no: int) -> None:
    """Append one data directive's bytes; ``.space``/``.align`` padding
    must keep the segment within ``limit`` bytes."""
    parts = line.split(None, 1)
    directive = parts[0]
    arg = parts[1] if len(parts) > 1 else ""
    if directive == ".double":
        for tok in _split_args(arg):
            try:
                data.extend(struct.pack("<d", float(tok)))
            except ValueError:
                raise AssemblerError(f"bad double literal {tok!r}", line_no) from None
    elif directive == ".quad":
        for tok in _split_args(arg):
            value = _parse_int(tok, line_no) & 0xFFFF_FFFF_FFFF_FFFF
            data.extend(struct.pack("<Q", value))
    elif directive == ".space":
        n = _parse_int(arg.strip(), line_no)
        if not 0 <= n <= limit - len(data):
            raise AssemblerError(f".space {n} is out of range", line_no)
        data.extend(bytes(n))
    elif directive == ".asciz":
        m = re.match(r'^\s*"(.*)"\s*$', arg)
        if not m:
            raise AssemblerError(".asciz needs a quoted string", line_no)
        data.extend(m.group(1).encode("utf-8").decode("unicode_escape").encode("latin-1"))
        data.append(0)
    elif directive == ".align":
        n = _parse_int(arg.strip(), line_no)
        if not 0 < n <= limit - len(data):
            raise AssemblerError(f".align {n} is out of range", line_no)
        data.extend(bytes(-len(data) % n))
    else:
        raise AssemblerError(f"unknown data directive {directive!r}", line_no)


def _split_instruction(line: str, line_no: int) -> tuple[str, list[str]]:
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    if mnemonic not in OPCODES:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no)
    operand_strs = _split_args(parts[1]) if len(parts) > 1 else []
    return mnemonic, operand_strs


def _split_args(arg: str) -> list[str]:
    """Split on commas not inside brackets."""
    out = [part.strip() for part in arg.split(",")]
    if all(part.count("[") == part.count("]") for part in out):
        # Every comma then sits at bracket depth 0: the walk below
        # would split at each one.
        if not out[-1]:
            out.pop()
        return out
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


def _instruction_size(operand_strs: list[str], line_no: int,
                      kinds: dict[str, str]) -> int:
    """Encoded size is computable without symbol resolution because
    operand kinds are syntactically evident."""
    size = 2
    for s in operand_strs:
        kind = kinds.get(s)
        if kind is None:
            kind = kinds[s] = _operand_kind(s, line_no)
        if kind in ("reg", "xmm"):
            size += 2
        elif kind in ("imm", "label"):
            size += 9
        elif kind == "mem":
            size += 14
        else:  # pragma: no cover - _operand_kind is total
            raise AssemblerError(f"bad operand {s!r}", line_no)
    return size


def _strip_size_prefix(s: str) -> tuple[int, str]:
    """``(access size, operand)`` for an operand with at most one size
    prefix (``qword`` — 8 bytes — when it has none)."""
    tok = s.strip()
    head = tok.split(None, 1)
    if len(head) == 2 and head[0].lower() in _SIZE_PREFIXES:
        return _SIZE_PREFIXES[head[0].lower()], head[1].strip()
    return 8, tok


def _operand_kind(s: str, line_no: int) -> str:
    tok = _strip_size_prefix(s)[1].lower()
    if tok in GPR_IDS:
        return "reg"
    if tok in XMM_IDS:
        return "xmm"
    if _MEM_RE.match(tok):
        return "mem"
    if "[" in tok or "]" in tok:
        raise AssemblerError(f"bad memory operand {s.strip()!r}", line_no)
    if re.match(r"^-?(0x[0-9a-f]+|\d+)$", tok):
        return "imm"
    return "label"


def _parse_int(tok: str, line_no: int) -> int:
    try:
        value = int(tok, 0)
    except ValueError:
        raise AssemblerError(f"bad integer literal {tok!r}", line_no) from None
    if not -(1 << 63) <= value < 1 << 64:
        raise AssemblerError(f"integer literal {tok!r} exceeds 64 bits",
                             line_no)
    return value


def _parse_operand(s: str, symbols: dict[str, int], control: bool, line_no: int):
    size, tok = _strip_size_prefix(s)
    lowered = tok.lower()
    if lowered in GPR_IDS:
        return Reg(lowered)
    if lowered in XMM_IDS:
        return Xmm(lowered)

    m = _MEM_RE.match(tok)
    if m:
        return _parse_mem(m.group(1), symbols, size, line_no)

    if re.match(r"^-?(0x[0-9a-fA-F]+|\d+)$", tok):
        return Imm(_parse_int(tok, line_no))

    # A bare symbol: a branch/call target, or an address-of immediate
    # for data symbols used with mov/lea.
    if tok in symbols:
        if control:
            return Label(tok, addr=symbols[tok])
        return Imm(symbols[tok])
    if control:
        # Host functions are bound at load time by the runner; emit an
        # unresolved label that Program linking fixes up.
        return Label(tok, addr=None)
    raise AssemblerError(f"undefined symbol {tok!r}", line_no)


def _parse_mem(inner: str, symbols: dict[str, int], size: int, line_no: int) -> Mem:
    inner = inner.strip()
    # rip-relative: [rip + symbol] or [rip + symbol + disp]
    m = re.match(r"^rip\s*\+\s*([A-Za-z_.$][\w.$]*)\s*(?:\+\s*(-?\w+))?$", inner)
    if m:
        sym = m.group(1)
        if sym not in symbols:
            raise AssemblerError(f"undefined data symbol {sym!r}", line_no)
        disp = symbols[sym]
        if m.group(2):
            disp += _parse_int(m.group(2), line_no)
        return Mem(disp=disp, rip_label=sym, size=size)

    # an operator with nothing after it, or nothing at all: ``[rax + ]``
    if re.search(r"(^|[+-])\s*($|\+)", inner):
        raise AssemblerError(f"empty term in memory operand [{inner}]",
                             line_no)
    base = None
    index = None
    scale = 1
    disp = 0
    for term in _split_terms(inner):
        neg = term.startswith("-")
        body = term[1:].strip() if neg else term
        sm = re.match(r"^([a-z0-9]+)\s*\*\s*([1248])$", body)
        if sm and sm.group(1) in GPR_IDS:
            if index is not None:
                raise AssemblerError("two index terms in memory operand", line_no)
            index, scale = sm.group(1), int(sm.group(2))
        elif body in GPR_IDS:
            if base is None:
                base = body
            elif index is None:
                index = body
            else:
                raise AssemblerError("too many registers in memory operand", line_no)
        elif re.match(r"^(0x[0-9a-fA-F]+|\d+)$", body):
            disp += -_parse_int(body, line_no) if neg else _parse_int(body, line_no)
        elif body in symbols:
            disp += symbols[body]
        else:
            raise AssemblerError(f"bad memory term {term!r}", line_no)
    return Mem(base=base, index=index, scale=scale, disp=disp, size=size)


def _split_terms(inner: str) -> list[str]:
    """Split ``a + b - c`` into signed terms."""
    out = []
    cur = []
    for ch in inner:
        if ch == "+":
            if cur:
                out.append("".join(cur).strip())
            cur = []
        elif ch == "-":
            if cur:
                out.append("".join(cur).strip())
            cur = ["-"]
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [t.lower() for t in out if t]
