"""Functions generated from source text keyed by operand shape.

An instruction's two bound forms, the chained engine's micro-op
(:mod:`repro.machine.uops`) and the FPVM emulator's step
(:mod:`repro.core.emulator`), are each one function.  Its text
depends only on a key: the mnemonic and each operand's kind and memory
form, never on register numbers or displacements.  :func:`scan` reads
the shape and the values from the operands in one pass; :class:`Text`
writes the operand reads and writes of both forms; :func:`maker`
compiles a key's text once per process into a ``make`` that binds one
use's values into the function it returns, as defaults.
"""

from __future__ import annotations

import re
import struct

from repro.machine.isa import GPR_IDS, Imm, Label, Mem, Reg, Xmm
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, PROT_READ, PROT_WRITE

U64 = 0xFFFF_FFFF_FFFF_FFFF
_Q = struct.Struct("<Q")

#: the module globals :class:`Text`'s lines name, for both forms'
#: generated code.
GLOBALS = {"U64": U64, "UNPACK": _Q.unpack_from, "PACK_INTO": _Q.pack_into}


def scan(ops) -> tuple[list, dict]:
    """``(shape, params)`` of ``ops``.  Per operand, the shape holds its
    kind: ``"x"`` (XMM), ``"r"`` (GPR), ``"i"`` (immediate), ``"l"``
    (a label with a known address), ``"L"`` (one resolved by name) or a
    memory form ``(has base, has index, size)``.  ``params`` holds the
    values the text names: ``x{pos}``/``r{pos}`` a register id,
    ``b{pos}``/``n{pos}``/``s{pos}``/``d{pos}`` a memory operand's base,
    index, scale and displacement (``ea{pos}``, the address itself,
    when it has neither register) and ``i{pos}`` an immediate's value or
    a label's address."""
    shape: list = []
    params: dict = {}
    for pos, op in enumerate(ops):
        x, r, b, n, s, ea, d, i = _NAMES[pos]
        if isinstance(op, Xmm):
            params[x] = op.id
            shape.append("x")
        elif isinstance(op, Reg):
            params[r] = op.id
            shape.append("r")
        elif isinstance(op, Mem):
            base, index = op.base, op.index
            if base is not None:
                params[b] = GPR_IDS[base]
            if index is not None:
                params[n] = GPR_IDS[index]
                params[s] = op.scale
            if base is None and index is None:
                params[ea] = op.disp & U64
            else:
                params[d] = op.disp
            shape.append((base is not None, index is not None, op.size))
        elif isinstance(op, Label):
            params[i] = (op.addr or 0) & U64
            shape.append("l" if op.addr is not None and op.addr != -1 else "L")
        else:
            params[i] = op.value & U64
            shape.append("i")
    return shape, params


#: per operand position, the names of its values in ``params``.
_NAMES = [tuple(f"{name}{pos}" for name in ("x", "r", "b", "n", "s", "ea", "d", "i"))
          for pos in range(4)]


def address(pos: int, op: Mem, gpr: str) -> list[str]:
    """The line computing memory operand ``pos``'s effective address
    ``ea{pos}`` from the GPR list ``gpr``, unless it is a constant."""
    terms = []
    if op.base is not None:
        terms.append(f"{gpr}[b{pos}]")
    if op.index is not None:
        terms.append(f"{gpr}[n{pos}] * s{pos}")
    return [f"ea{pos} = ({' + '.join(terms)} + d{pos}) & U64"] if terms else []


class Text:
    """The statements of one bound function over ``ops``, in execution
    order.  Registers and memory come from the running CPU
    (``cpu.regs``; ``mem``/``pages`` are defaults), or with ``ctx`` from
    the trap's context (``ctx.gpr``/``ctx.xmm``/``ctx.memory``, so frame
    mode writes the frame).  A read returns its value's expression.  A
    memory address ``ea{pos}`` is computed at each access unless
    :meth:`hold` computed it or a write passes ``fresh=False``.  An
    8-byte in-page access with the prot bit is served inline, notifying
    observers as ``Memory`` does; others go to the ``Memory`` method.
    ``ops`` has a shape the opcode table admits
    (:class:`~repro.machine.isa.Instruction` refuses any other), so
    every text has a form for it."""

    def __init__(self, ops, ctx: bool = False) -> None:
        self.ops = ops
        self.ctx = ctx
        self.lines: list[str] = []
        self.pad = ""
        #: memory operands whose ``ea{pos}`` :meth:`hold` computed.
        self.held: set[int] = set()

    def emit(self, *lines: str) -> None:
        self.lines += [self.pad + line for line in lines]

    def capture(self, build, *args) -> list[str]:
        """The lines ``build(*args)`` emits, kept out of the text."""
        lines, self.lines = self.lines, []
        build(*args)
        lines, self.lines = self.lines, lines
        return lines

    def kind(self, pos: int):
        op = self.ops[pos]
        for cls, name in ((Xmm, "x"), (Reg, "r"), (Mem, "m"), (Imm, "i")):
            if isinstance(op, cls):
                return name
        return None

    def lane(self, pos: int, lane: int = 0) -> str:
        """Register operand ``pos``'s lane ``lane`` (a GPR has one)."""
        return f"xmm[x{pos}][{lane}]" if self.kind(pos) == "x" else f"gpr[r{pos}]"

    def ea(self, pos: int) -> None:
        if pos not in self.held:
            self.emit(*address(pos, self.ops[pos], "gpr"))

    def hold(self) -> None:
        """Compute each memory operand's address here, once for the
        whole function."""
        for pos, op in enumerate(self.ops):
            if isinstance(op, Mem):
                self.ea(pos)
                self.held.add(pos)

    def _at(self, pos: int, lane: int) -> str:
        if not lane:
            return f"ea{pos}"
        self.emit(f"at{pos} = ea{pos} + 8")
        return f"at{pos}"

    def read(self, pos: int, fp: bool, sized: bool = False, lane: int = 0) -> str:
        """The seed's ``read_u64_operand`` (``read_sized_operand`` when
        ``sized``) of lane ``lane``: a memory operand is an 8-byte load
        whatever its declared size, unless ``sized``, and its lane 1 is
        the 8 bytes after lane 0."""
        kind = self.kind(pos)
        if kind in ("x", "r"):
            return self.lane(pos, lane)
        if kind == "i":
            return f"i{pos}"
        self.ea(pos)
        size = self.ops[pos].size
        var = f"hi{pos}" if lane else f"v{pos}"
        if sized and size != 8:
            self.emit(f"{var} = mem.observed_load(ea{pos}, {size}, {fp})")
        else:
            self.load8(var, self._at(pos, lane), fp)
        return var

    def read128(self, pos: int) -> tuple[str, str]:
        """The seed's ``read_xmm_or_mem128``: both lanes, low first."""
        if self.kind(pos) == "x":
            self.emit(f"lo{pos}, hi{pos} = xmm[x{pos}]")
        else:
            self.ea(pos)
            self.load8(f"lo{pos}", f"ea{pos}", True)
            self.load8(f"hi{pos}", self._at(pos, 1), True)
        return f"lo{pos}", f"hi{pos}"

    def write(self, pos: int, value: str, fp: bool, fresh: bool = True, lane: int = 0) -> None:
        """The seed's ``write_u64_operand`` of lane ``lane``: a memory
        store honours the operand's size, and its lane 1 is the 8 bytes
        after lane 0."""
        if self.kind(pos) in ("x", "r"):
            self.emit(f"{self.lane(pos, lane)} = ({value}) & U64")
            return
        if fresh:
            self.ea(pos)
        size = self.ops[pos].size
        if size != 8 and not lane:
            self.emit(f"mem.observed_store(ea{pos}, {value}, {size}, {fp})")
        else:
            self.store8(self._at(pos, lane), value, fp)

    def load8(self, var: str, at: str, fp: bool) -> None:
        kind = "fp_load" if fp else "int_load"
        self.emit(f"page = pages.get({at} >> {PAGE_SHIFT})",
                  f"off = {at} & {PAGE_SIZE - 1}",
                  f"if page is not None and off <= {PAGE_SIZE - 8} and page.prot & {PROT_READ}:",
                  f"    {var} = UNPACK(page.data, off)[0]",
                  "    if mem.observers:",
                  "        for obs in mem.observers:",
                  f"            obs({at}, 8, {kind!r}, {var})",
                  "else:",
                  f"    {var} = mem.observed_load({at}, 8, {fp})")

    def store8(self, at: str, value: str, fp: bool) -> None:
        kind = "fp_store" if fp else "int_store"
        self.emit(f"out = {value}",
                  f"page = pages.get({at} >> {PAGE_SHIFT})",
                  f"off = {at} & {PAGE_SIZE - 1}",
                  f"if page is not None and off <= {PAGE_SIZE - 8} and page.prot & {PROT_WRITE}:",
                  "    PACK_INTO(page.data, off, out & U64)",
                  "    if mem.observers:",
                  "        for obs in mem.observers:",
                  f"            obs({at}, 8, {kind!r}, out)",
                  "else:",
                  f"    mem.observed_store({at}, out, 8, {fp})")

    def prologue(self, body: str) -> list[str]:
        """The lines loading the register lists and memory ``body``
        names, from the CPU or the context."""
        if not self.ctx:
            return ["regs = cpu.regs",
                    *(f"{name} = regs.{name}" for name in used(body, ("gpr", "xmm")))]
        return [f"{name} = {_CONTEXT[name]}" for name in used(body, _CONTEXT)]


#: where a context text loads each name from, in load order.
_CONTEXT = {"xmm": "ctx.xmm", "gpr": "ctx.gpr", "mem": "ctx.memory", "pages": "mem._pages"}


def used(text: str, names) -> list[str]:
    """The ``names`` that ``text`` mentions as words, in order: only
    these are bound as defaults."""
    return [name for name in names if re.search(rf"\b{name}\b", text)]


def maker(table: dict, key, source, namespace: dict, filename: str):
    """The ``make`` for ``key`` in ``table``.  On a miss ``source()``
    gives the text that defines ``make``; it is compiled with
    ``namespace`` as its globals and kept, so every later request with
    the key is one lookup.  A table serves every CPU or VM of the
    process and holds one entry per distinct key ever bound, a few
    dozen."""
    try:
        return table[key]
    except KeyError:
        pass
    text = source()  # may add to ``namespace``
    code = dict(namespace)
    exec(compile(text, filename, "exec"), code)
    make = table[key] = code["make"]
    return make
