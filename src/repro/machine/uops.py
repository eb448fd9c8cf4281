"""Pre-decoded micro-op IR, superblocks, and the block execution engine.

The seed interpreter re-resolves operands and re-dispatches through
instance methods on every simulated step.  This module lowers each
:class:`~repro.machine.isa.Instruction` once into a :class:`MicroOp`
(static metadata shared by every consumer: CPU, decode cache, emulator,
sequence engine) and binds, once per process, one execute function per
micro-op, generated from text keyed by its operand shape; the function
takes the running thread's CPU at call time.  Straight-
line runs of micro-ops are strung into cached :class:`Superblock`\\ s
keyed by entry address; the block cache tracks the program's
``patch_events`` log and invalidates *per site* — only blocks whose
address range covers a changed patch site are dropped (any patch
added, removed or cleared at that address), so patched instructions
can never execute through a stale block while unrelated warm blocks
survive patch churn.

Semantics are bit-for-bit the seed interpreter's:

- FP functions take the seed's values-only native path when all six
  MXCSR exception masks are set (round-to-nearest, FP hardware
  enabled).  Under an unmasked MXCSR (an attached FPVM) they decide
  #XF themselves from :func:`repro.fpu.fast.flagged`: they commit
  result and status bits like ``cpu._exec_fp``, or return its #XF
  ``Trap`` uncommitted for the engine to deliver.  With the FP unit
  off they return the operand-free #XF ``Trap`` ``cpu._exec_fp``
  delivers.  Under a directed rounding mode the engine single-steps
  (MXCSR.RC cannot change inside a block body);
- block execution retires micro-ops with batched accounting that is
  flushed (``try/finally``) before any single step, trap delivery, or
  exception propagation, so every observer of ``cycles`` /
  ``instruction_count`` sees the same values it would under
  single-stepping;
- FP functions evaluate through :mod:`repro.fpu.fast` (its values-only
  and flag forms), the one binary64 fast path; the interpreter's
  trapping branch keeps the :mod:`repro.fpu.ieee` oracle.

One dispatch loop, :meth:`UopEngine.run_quantum`, runs every
superblock the same way: a checkpoint (halt, block, patch-sequence
sync, patch site, directed RC), the block lookup or build, the body
(or the prefix that fits the step budget), then the control tail.  Retire
accounting is deferred into per-block run counts and settled before
anything that can observe the counters: a ``cpu.step()``, an
#XF delivery, a control tail that may run host code, the end of the
quantum, or an exception on its way out.  At a quantum's
budget edge the engine retires a body's fitting *prefix* — every
function is one seed step and leaves RIP correct, so the next quantum
resumes mid-block, in a block sliced out of the covering block's
bound functions rather than bound again.  Blocks live in one
per-process :class:`SuperblockCache` and every thread runs them; when
``patch_seq`` moves the cache drops exactly the blocks covering the
changed sites and everything else stays warm.  ``CPU.run`` is a loop
over quanta of the remaining step limit.
"""

from __future__ import annotations

from collections import Counter

from repro.fpu import fast as F
from repro.fpu.fast import FAST_SCALAR
from repro.fpu.ieee import FPFlags
from repro.machine import codegen
from repro.machine.isa import (
    CONDITION_CODES,
    FP_TOUCH_CLASSES,
    Instruction,
    Label,
    OpClass,
    OPCODES,
    xmm_write_mask,
)

U64 = 0xFFFF_FFFF_FFFF_FFFF

#: Superblocks stop growing here; the follow-on block starts at the cut.
MAX_BLOCK = 128

#: The seed's native-FP fast path requires every MXCSR exception mask
#: set (bits 7-12), no unmasked status possible, and RC == nearest
#: (bits 13-14 clear).  One masked compare checks all of it.
_FP_FAST_FIELD = 0x7F80
_FP_FAST_VALUE = 0x1F80
#: MXCSR.RC (bits 13-14): the functions, fast and flag path alike, are
#: round-to-nearest only, so the engine single-steps while RC is
#: directed.
_RC_FIELD = 0x6000

_RETURN_SENTINEL = 0xDEAD_0000

_PARITY = tuple(bin(i).count("1") % 2 == 0 for i in range(256))

#: ``CPU(uops=None)`` runs this engine; ``uops=False`` (the ``interp``
#: tier) single-steps the seed interpreter instead.
UOPS_DEFAULT = True


# ------------------------------------------------------- emulator metadata
#: cmpXXsd mnemonic -> predicate (shared with the emulator).
CMP_PREDS = {
    "cmpeqsd": "eq", "cmpltsd": "lt", "cmplesd": "le", "cmpneqsd": "neq",
    "cmpnltsd": "nlt", "cmpnlesd": "nle", "cmpordsd": "ord",
    "cmpunordsd": "unord",
}

#: predicate -> (result_if_unordered, fn(c) for ordered c in {-1,0,1}).
CMP_TABLES = {
    "eq": (False, lambda c: c == 0),
    "lt": (False, lambda c: c < 0),
    "le": (False, lambda c: c <= 0),
    "neq": (True, lambda c: c != 0),
    "nlt": (True, lambda c: not (c < 0)),
    "nle": (True, lambda c: not (c <= 0)),
    "ord": (False, lambda c: True),
    "unord": (True, lambda c: False),
}


def _emu_kind(mn: str, opclass: OpClass) -> tuple[str | None, object]:
    """Pre-resolve the emulator's dispatch decision for one mnemonic."""
    if opclass in (OpClass.FP_ARITH, OpClass.FP_CVT):
        if mn == "cvtsi2sd":
            return "cvtsi2sd", None
        if mn in ("cvttsd2si", "cvtsd2si"):
            return "cvt2si", mn == "cvttsd2si"
        if mn in ("ucomisd", "comisd"):
            return "ucomi", None
        if mn in CMP_PREDS:
            return "cmp", CMP_PREDS[mn]
        if mn == "vfmadd213sd":
            return "fma", None
        if mn in ("sqrtsd", "sqrtpd"):
            return "sqrt", 2 if mn == "sqrtpd" else 1
        return "bin", None
    if mn == "xorpd":
        return "xorpd", None
    if opclass is OpClass.FP_MOV:
        return "fpmov", None
    if opclass in (OpClass.INT_MOV, OpClass.INT_ALU):
        return "intmov", None
    return None, None


# ----------------------------------------------------------------- MicroOp
class MicroOp:
    """One lowered instruction: all static metadata pre-resolved.

    A MicroOp is CPU-independent (shared across ``Program.copy()``
    images); per-process execute functions are bound by the engine via
    :func:`bind_exec` / :func:`bind_control`.
    """

    __slots__ = (
        "instr", "addr", "size", "end", "mnemonic", "opclass", "cost",
        "lanes", "ieee", "fp_trap_capable", "emu_kind", "emu_arg",
        "xmm_writes", "fp_touch",
    )

    def __init__(self, instr: Instruction) -> None:
        info = OPCODES[instr.mnemonic]
        self.instr = instr
        self.addr = instr.addr
        self.size = instr.size
        self.end = instr.addr + instr.size
        self.mnemonic = instr.mnemonic
        self.opclass = info.opclass
        self.cost = info.cost
        self.lanes = info.lanes
        self.ieee = info.ieee
        self.fp_trap_capable = info.opclass in (OpClass.FP_ARITH, OpClass.FP_CVT)
        self.emu_kind, self.emu_arg = _emu_kind(instr.mnemonic, info.opclass)
        #: lazy-FP lowering-time summary: the XMM lane mask this uop
        #: architecturally writes, and whether it touches FP state at
        #: all (reads included — the #NM trigger set).  Static and
        #: CPU-independent, so per-superblock unions are computed once.
        self.xmm_writes = xmm_write_mask(instr)
        self.fp_touch = info.opclass in FP_TOUCH_CLASSES

    @property
    def info(self):
        return self.instr.info

    @property
    def operands(self):
        return self.instr.operands

    def __str__(self) -> str:
        return str(self.instr)

    def __repr__(self) -> str:
        return f"<uop {self.instr} @ {self.addr:#x}>"


def lower(instr: Instruction) -> MicroOp:
    """Lower ``instr``, caching the result on the instruction itself so
    every consumer (CPU engine, decode cache, sequence engine) shares
    one MicroOp per instruction."""
    uop = getattr(instr, "_uop", None)
    if uop is None:
        uop = MicroOp(instr)
        instr._uop = uop
    return uop


def _s64(v: int) -> int:
    v &= U64
    return v - (1 << 64) if v >= (1 << 63) else v


# ------------------------------------------------------ generated binding
# A micro-op binds into one function generated from text keyed by its
# mnemonic and operand shape (``codegen.scan``): register ids,
# displacements, immediates, ``uop.end`` and the FP evaluators are its
# defaults, with the process's memory and page dict.  It is called with
# the running thread's CPU and loads ``cpu.regs`` and ``regs.gpr``/
# ``regs.xmm`` per call (sigreturn replaces the lists), so every thread
# of the process runs the same function.  Operand reads and writes are
# ``codegen.Text``'s, memory served inline as it describes; the stack
# accesses of push, pop, call and ret go to ``read_u64``/``write_u64``.
#: the process state every micro-op function may take as defaults.
_SHARED_NAMES = ("mem", "pages")

#: module globals of the generated code; ``Trap``/``XF`` join on the
#: first compile (cpu.py imports this module).
_GLOBALS = {
    **codegen.GLOBALS, "s64": _s64, "PARITY": _PARITY,
    "FPFlags": FPFlags, "from_status": FPFlags.from_status,
    "CONTROL": OpClass.CONTROL, "SENTINEL": _RETURN_SENTINEL,
}

#: (mnemonic, *operand shape) -> the ``make`` its text defines.
_MAKERS: dict = {}

_EXEC_CLASSES = frozenset({OpClass.FP_ARITH, OpClass.FP_CVT, OpClass.FP_BITWISE,
                           OpClass.FP_MOV, OpClass.INT_MOV, OpClass.INT_ALU})


def _fast_form(mn: str, ieee):
    """The values-only evaluator of an FP mnemonic."""
    if mn in ("cvtsi2sd", "cvttsd2si", "cvtsd2si"):
        return getattr(F, mn)
    if mn in ("ucomisd", "comisd"):
        return F.ucomi
    if mn in CMP_PREDS:
        return F.cmp_mask(CMP_PREDS[mn])
    if mn == "vfmadd213sd":
        return F.fma
    return FAST_SCALAR[ieee]


#: FP mnemonic -> its ``(fast, flag)`` evaluators.
_FP_FORMS = {mn: (_fast_form(mn, info.ieee), F.flagged(info.ieee))
             for mn, info in OPCODES.items()
             if info.opclass in (OpClass.FP_ARITH, OpClass.FP_CVT)}


def bind_exec(uop: MicroOp, mem):
    """Bind a body-execute function ``fn(cpu)`` over the process memory
    ``mem``, or None if the micro-op cannot run inside a superblock body
    (control/sys).  Any thread of the process may call it.

    Contract: executes the instruction exactly like the seed handler
    (same reads, same write order, RIP set at the end) and returns None
    on retire.  An FP-trappable function may instead return the #XF
    ``Trap`` the seed would deliver (nothing committed; the engine
    delivers it).  Functions assume round-to-nearest: the engine does
    not enter a block while MXCSR.RC is directed.  Retire accounting
    (cost/count/class) is the engine's job.
    """
    if uop.opclass not in _EXEC_CLASSES:
        return None
    shape, params = codegen.scan(uop.instr.operands)
    params["end"] = uop.end
    if uop.fp_trap_capable:
        params["fast"], params["flag"] = _FP_FORMS[uop.mnemonic]
        params["addr"], params["instr"] = uop.addr, uop.instr
    make = codegen.maker(_MAKERS, (uop.mnemonic, *shape),
                         lambda: _source(_exec_text, uop, params), _GLOBALS, "<micro-op>")
    return make(mem, mem._pages, **params)


def bind_control(uop: MicroOp, mem, program):
    """Bind a tail function ``tail(cpu)`` for a control-flow micro-op of
    ``program`` over the process memory ``mem``.  Tails perform
    their own retire accounting (cost/count/class), mirroring the seed's
    handler-then-retire order exactly — in particular a host function
    body runs *before* the call instruction retires."""
    ops = uop.instr.operands
    shape, params = codegen.scan(ops)
    mn = uop.mnemonic
    params.update(end=uop.end, cost=uop.cost)
    if shape and shape[0] == "L":
        params.update(prog=program, name=ops[0].name)
    if mn == "call":
        params["hosts"] = program.host_functions
    elif mn in CONDITION_CODES:
        params["cond"] = CONDITION_CODES[mn]
    make = codegen.maker(_MAKERS, (mn, *shape),
                         lambda: _source(_control_text, uop, params), _GLOBALS, "<micro-op>")
    return make(mem, mem._pages, **params)


def _source(build, uop: MicroOp, params: dict) -> str:
    """Text of ``make(mem, pages, **params)``, which returns the
    micro-op's function ``run(cpu)``.  The text depends only on the
    key: ``build`` reads operand kinds and memory forms, never their
    values."""
    if "Trap" not in _GLOBALS:
        from repro.machine.cpu import Trap, TrapKind
        _GLOBALS.update(Trap=Trap, XF=TrapKind.XF)
    text = codegen.Text(uop.instr.operands)
    build(text, uop)
    body = "\n".join(text.lines)
    code = [*text.prologue(body), *text.lines]
    # Only the names the text reads are defaults: no cell per value,
    # and the fastest lookup.
    names = codegen.used(body, (*_SHARED_NAMES, *params))
    return "\n".join([f"def make({', '.join((*_SHARED_NAMES, *params))}):",
                      f"    def run({', '.join(('cpu', *(f'{n}={n}' for n in names)))}):",
                      *("        " + line for line in code), "    return run", ""])


def _exec_text(t: codegen.Text, uop: MicroOp) -> None:
    cls = uop.opclass
    if cls in (OpClass.FP_ARITH, OpClass.FP_CVT):
        _fp_text(t, uop)
    elif cls is OpClass.FP_BITWISE:
        _bitwise_text(t, uop.mnemonic)
    elif cls is OpClass.FP_MOV:
        fp_mov_text(t, uop.mnemonic)
    elif cls is OpClass.INT_MOV:
        int_mov_text(t, uop.mnemonic)
    else:
        _int_alu_text(t, uop.mnemonic)
    t.pad = ""
    t.emit("regs.rip = end")


def _fp_text(t: codegen.Text, uop: MicroOp) -> None:
    """One function, both paths.  FP unit off: the flagless #XF ``Trap``
    ``cpu._exec_fp`` delivers, before any operand read.  All masks set
    and RC nearest: the values-only ``fast`` form.  Otherwise the
    operands are read once and ``flag`` gives ``(result, status)`` (a
    packed op ORs both lanes'); an unmasked status bit returns the #XF
    ``Trap`` with nothing committed, else the result is committed, the
    status ORed into MXCSR and RIP advanced, as ``_exec_fp`` does."""
    mn = uop.mnemonic
    t.emit("if cpu.fp_disabled:", "    return Trap(XF, addr, instr, FPFlags())",
           "mx = regs.mxcsr")
    lane0 = ["xmm[x0][0] = res"]
    if mn == "cvtsi2sd":
        t.emit(f"val = {t.read(1, False)}")
        fast, flag, commit = ["xmm[x0][0] = fast(val)"], ["res, st = flag(val)"], lane0
    elif mn in ("cvttsd2si", "cvtsd2si"):
        t.emit(f"val = {t.read(1, True)}")
        fast, flag, commit = None, ["res, st = flag(val)"], None  # written by ``t.write``
    elif mn in ("ucomisd", "comisd"):
        t.emit(f"val = {t.read(1, True)}")
        commit = ["f = regs.flags", "f.zf = bool(res & 1)", "f.pf = bool(res & 2)",
                  "f.cf = bool(res & 4)", "f.sf = False", "f.of = False"]
        fast = ["res = fast(xmm[x0][0], val)", *commit]
        flag = ["res, st = flag(xmm[x0][0], val)"]
    elif mn == "vfmadd213sd":
        t.emit(f"val = {t.read(2, True)}")
        fast = ["lanes = xmm[x0]", "lanes[0] = fast(xmm[x1][0], lanes[0], val)"]
        flag, commit = ["res, st = flag(xmm[x1][0], xmm[x0][0], val)"], lane0
    elif mn == "sqrtsd":
        t.emit(f"val = {t.read(1, True)}")
        fast, flag, commit = ["xmm[x0][0] = fast(val)"], ["res, st = flag(val)"], lane0
    elif uop.lanes == 1:  # cmpXXsd and the scalar binary ops
        t.emit(f"val = {t.read(1, True)}")
        fast = ["lanes = xmm[x0]", "lanes[0] = fast(lanes[0], val)"]
        flag, commit = ["res, st = flag(xmm[x0][0], val)"], lane0
    else:  # sqrtpd and the packed binary ops
        lo, hi = t.read128(1)
        if mn == "sqrtpd":
            fast = ["lanes = xmm[x0]", f"lanes[0] = fast({lo})", f"lanes[1] = fast({hi})"]
            flag = [f"res0, st = flag({lo})", f"res1, st1 = flag({hi})"]
        else:
            fast = ["lanes = xmm[x0]", f"lanes[0] = fast(lanes[0], {lo})",
                    f"lanes[1] = fast(lanes[1], {hi})"]
            flag = ["dlo, dhi = xmm[x0]", f"res0, st = flag(dlo, {lo})",
                    f"res1, st1 = flag(dhi, {hi})"]
        flag.append("st |= st1")
        commit = ["lanes = xmm[x0]", "lanes[0] = res0", "lanes[1] = res1"]
    t.emit(f"if mx & {_FP_FAST_FIELD} == {_FP_FAST_VALUE}:")
    t.pad = "    "
    if fast is None:
        t.write(0, "fast(val)", False)
    else:
        t.emit(*fast)
    t.pad = ""
    t.emit("else:")
    t.pad = "    "
    t.emit(*flag, "if st & ~mx >> 7:", "    return Trap(XF, addr, instr, from_status(st))")
    if commit is None:
        t.write(0, "res", False)
    else:
        t.emit(*commit)
    t.emit("regs.mxcsr = mx | st")


def _bitwise_text(t: codegen.Text, mn: str) -> None:
    lo, hi = t.read128(1)
    t.emit("lanes = xmm[x0]")
    if mn in _BITWISE:
        op = _BITWISE[mn]
        t.emit(f"lanes[0] {op}= {lo}", f"lanes[1] {op}= {hi}")
    else:  # andnpd
        t.emit(f"lanes[0] = (~lanes[0] & U64) & {lo}", f"lanes[1] = (~lanes[1] & U64) & {hi}")


_BITWISE = {"xorpd": "^", "andpd": "&", "orpd": "|"}


def fp_mov_text(t: codegen.Text, mn: str) -> None:
    """An FP move, the engine's and (without RIP) the emulator's."""
    dst, src = t.kind(0), t.kind(1)
    if mn == "shufpd":
        lo, hi = t.read128(1)
        t.emit("lanes = xmm[x0]", "dlo, dhi = lanes",
               "lanes[0] = dhi if i2 & 1 else dlo", f"lanes[1] = {hi} if i2 & 2 else {lo}")
    elif dst != "x":  # a store of an XMM register
        if mn in ("movapd", "movupd"):
            t.ea(0)  # two 8-byte stores, whatever the operand's size
            t.store8("ea0", "xmm[x1][0]", True)
            t.emit("at0 = ea0 + 8")
            t.store8("at0", "xmm[x1][1]", True)
        else:
            t.write(0, f"xmm[x1][{int(mn == 'movhpd')}]", mn != "movq" or dst == "m")
    elif mn == "movsd" and src == "x":
        t.emit("xmm[x0][0] = xmm[x1][0]")
    elif mn in ("movsd", "movq"):
        val = t.read(1, mn == "movsd" or src == "m")
        t.emit("lanes = xmm[x0]", f"lanes[0] = {val}", "lanes[1] = 0")
    elif mn in ("movapd", "movupd"):
        lo, hi = t.read128(1)
        t.emit("lanes = xmm[x0]", f"lanes[0] = {lo}", f"lanes[1] = {hi}")
    elif mn in ("movhpd", "movlpd"):
        t.emit(f"xmm[x0][{int(mn == 'movhpd')}] = {t.read(1, True)}")
    elif mn == "movddup":
        t.emit(f"val = {t.read(1, True)}", "lanes = xmm[x0]", "lanes[0] = val",
               "lanes[1] = val")
    elif mn == "unpcklpd":
        lo, _ = t.read128(1)
        t.emit(f"xmm[x0][1] = {lo}")
    else:  # unpckhpd
        _, hi = t.read128(1)
        t.emit("lanes = xmm[x0]", "lanes[0] = lanes[1]", f"lanes[1] = {hi}")


def int_mov_text(t: codegen.Text, mn: str) -> None:
    """An integer move, the engine's and (without RIP) the emulator's."""
    if mn == "mov":
        t.write(0, t.read(1, False, sized=True), False)
    elif mn == "lea":
        t.ea(1)
        t.emit("gpr[r0] = ea1")
    elif mn == "push":
        t.emit(f"val = {t.read(0, False)}", "rsp = (gpr[7] - 8) & U64",
               "gpr[7] = rsp", "mem.write_u64(rsp, val)")
    elif mn == "pop":
        t.emit("rsp = gpr[7]", "val = mem.read_u64(rsp)", "gpr[7] = (rsp + 8) & U64")
        t.write(0, "val", False)
    else:  # xchg
        t.emit(f"va = {t.read(0, False)}")
        t.emit(f"vb = {t.read(1, False)}")
        t.write(0, "vb", False)
        t.write(1, "va", False)


def _int_alu_text(t: codegen.Text, mn: str) -> None:
    flags = ["f.zf = r == 0", "f.sf = bool(r >> 63)", "f.pf = PARITY[r & 0xFF]"]
    writes = mn not in ("cmp", "test")
    t.emit(f"a = {t.read(0, False)}")
    if mn in ("add", "sub", "cmp", "and", "or", "xor", "test", "imul", "shl", "shr", "sar"):
        t.emit(f"b = {t.read(1, False)}")
    if mn in ("add", "sub", "cmp"):
        sign = "+" if mn == "add" else "-"
        carry = "(a + b) > U64" if mn == "add" else "a < b"
        t.emit(f"r = (a {sign} b) & U64", "f = regs.flags", f"f.cf = {carry}",
               f"f.of = (s64(a) {sign} s64(b)) != s64(r)", *flags)
    elif mn in ("and", "or", "xor", "test"):
        op = {"and": "&", "test": "&", "or": "|", "xor": "^"}[mn]
        t.emit(f"r = a {op} b", "f = regs.flags", "f.cf = f.of = False", *flags)
    elif mn == "imul":
        t.emit("full = s64(a) * s64(b)", "r = full & U64", "f = regs.flags",
               "f.cf = f.of = s64(r) != full", *flags)
    elif mn in ("shl", "shr", "sar"):
        t.emit("count = b & 63", "if count:")
        t.pad = "    "
        t.emit("f = regs.flags")
        if mn == "shl":
            t.emit("f.cf = bool((a >> (64 - count)) & 1)", "r = (a << count) & U64")
        elif mn == "shr":
            t.emit("f.cf = bool((a >> (count - 1)) & 1)", "r = a >> count")
        else:
            t.emit("f.cf = bool((a >> (count - 1)) & 1)", "r = (s64(a) >> count) & U64")
        t.emit(*flags)
    elif mn in ("inc", "dec"):
        sign = "+" if mn == "inc" else "-"
        t.emit(f"r = (a {sign} 1) & U64", "f = regs.flags",
               f"f.of = s64(a) {sign} 1 != s64(r)", *flags)
    elif mn == "neg":
        t.emit("r = (-a) & U64", "f = regs.flags", "f.cf = a != 0", "f.of = a == (1 << 63)",
               *flags)
    else:  # not
        t.emit("r = (~a) & U64")
    if writes:
        t.write(0, "r", False, fresh=False)


def _control_text(t: codegen.Text, uop: MicroOp) -> None:
    mn = uop.mnemonic
    if mn == "ret":
        t.emit("rsp = gpr[7]", "ra = mem.read_u64(rsp)", "gpr[7] = (rsp + 8) & U64",
               "if ra == SENTINEL:", "    cpu.halted = True", "else:", "    regs.rip = ra")
    else:
        kind = uop.instr.operands[0]
        if isinstance(kind, Label):
            target = "i0" if kind.addr is not None and kind.addr != -1 else "prog.resolve(name)"
        else:
            target = "regs.gpr[r0]"
        if mn == "jmp":
            t.emit(f"regs.rip = {target}")
        elif mn == "call":
                t.emit(f"target = {target}", "host = hosts.get(target)", "if host is not None:",
                   "    cpu.cycles += host.cost", "    cpu.work_cycles += host.cost",
                   "    regs.rip = end", "    host.fn(cpu)", "else:",
                   "    rsp = (gpr[7] - 8) & U64", "    gpr[7] = rsp",
                   "    mem.write_u64(rsp, end)", "    regs.rip = target")
        else:
            t.emit(f"regs.rip = {target} if cond(regs.flags) else end")
    t.emit("cpu.cycles += cost", "cpu.work_cycles += cost", "cpu.instruction_count += 1",
           "cpu.retired_by_class[CONTROL] += 1")


def _pure_tail(uop: MicroOp, prog) -> bool:
    """Whether this control tail cannot run host code, so the engine
    may retire it without settling its deferred retire accounting.

    Host-function calls can patch, block, rebind, move the epoch and
    read the retire counters.  Any ``jmp``/``jcc`` or ``ret`` is pure,
    as is a ``call`` whose target is statically known to be guest text
    (an indirect or name-resolved call may resolve to a host
    function).  The engine settles before every other tail."""
    mn = uop.mnemonic
    if mn == "jmp" or mn == "ret" or mn in CONDITION_CODES:
        return True
    if mn == "call":
        ops = uop.instr.operands
        op = ops[0] if ops else None
        return (isinstance(op, Label) and op.addr is not None
                and op.addr != -1 and op.addr not in prog.host_functions)
    return False


# -------------------------------------------------------------- superblock
class Superblock:
    """A straight-line run of bound micro-ops plus an optional control
    tail, with prefix cost sums for batched retire accounting.

    ``pure_tail`` marks tails that cannot run host code (see
    :func:`_pure_tail`); the engine loop needs to settle its deferred
    accounting only before the other tails."""

    __slots__ = ("entry", "end", "body", "uops", "class_counts",
                 "prefix_cost", "n_body", "tail", "pure_tail",
                 "prefix_fp", "prefix_touch", "fp_writes", "fp_touch")

    def __init__(self, entry, body, uops, tail, pure_tail=False, end=None):
        self.entry = entry
        #: exclusive end of the address range this block executes
        #: through (tail included).  Per-site invalidation drops a
        #: block iff a patched address falls in ``[entry, end)``.
        self.end = entry if end is None else end
        self.body = body
        self.uops = uops
        counts: dict = {}
        for uop in uops:
            counts[uop.opclass] = counts.get(uop.opclass, 0) + 1
        self.class_counts = counts
        self.n_body = len(body)
        #: lazy-FP lowering-time summaries: ``prefix_fp[i]`` is the XMM
        #: lane union the first ``i`` body uops write and
        #: ``prefix_touch[i]`` whether any of them touch FP state, so a
        #: (possibly partial) body run of ``i`` uops charges its dirty
        #: set with one index each — dirty tracking per block dispatch,
        #: not per instruction.
        pc = [0]
        pf = [0]
        pt = [False]
        for uop in uops:
            pc.append(pc[-1] + uop.cost)
            pf.append(pf[-1] | uop.xmm_writes)
            pt.append(pt[-1] or uop.fp_touch)
        self.prefix_cost = pc
        self.prefix_fp = pf
        self.prefix_touch = pt
        self.fp_writes = pf[-1]
        self.fp_touch = pt[-1]
        self.tail = tail
        self.pure_tail = pure_tail


class SuperblockCache:
    """The per-process superblock cache: one object shared by every
    thread CPU of a :class:`~repro.machine.process.Process` (a
    standalone CPU owns a private one).

    Superblock functions are bound over the process's memory and take
    the running thread's CPU as their argument, so one block serves
    every thread: a block one thread built, another runs unchanged,
    entering it or resuming in its middle.  ``epoch`` is the cache's
    cursor into ``Program.patch_events`` (numerically equal to the last
    ``patch_seq`` processed, which keeps the historic name honest):
    when the program's sequence moves, :meth:`sync` walks only the
    *new* suffix of patched addresses and drops exactly the
    superblocks whose ``[entry, end)`` covers a changed site, whichever
    thread patched it; the unrelated blocks survive, turning a patch
    from a process-wide cache flush into a local event.  The sequence
    emulator's compiled traces are not kept here:
    :class:`~repro.core.sequences.SequenceEmulator` owns them and their
    invalidation.
    """

    __slots__ = ("blocks", "inner", "probe", "epoch", "capacity",
                 "invalidations", "evictions",
                 "invalidated_blocks", "survived_blocks")

    #: the patch cursor and a setting: not counts.
    UNMERGED = ("epoch", "capacity")

    def __init__(self, capacity: int = 4096) -> None:
        #: entry -> Superblock, cleared in place.
        self.blocks: dict[int, Superblock] = {}
        #: address -> entry of the newest block covering it: retains no block.
        self.inner: dict[int, int] = {}
        #: ``probe(uop, fn)`` wraps each function at bind time
        #: (``uop=None``: the single step); the §5.1 profiler's seam,
        #: set before any thread runs.
        self.probe = None
        self.epoch: int | None = None
        self.capacity = capacity
        #: syncs that actually dropped blocks (per-site, so a patch
        #: with no covering block does not count).
        self.invalidations = 0
        #: capacity evictions (wholesale, unlike the per-site sync).
        self.evictions = 0
        #: superblocks dropped because their range covered a patched
        #: site (cumulative across syncs).
        self.invalidated_blocks = 0
        #: the process's superblocks left after each per-site sync,
        #: summed over syncs (under the old epoch scheme this was
        #: identically zero).
        self.survived_blocks = 0

    def sync(self, program) -> bool:
        """Advance the cursor over ``program.patch_events`` and drop
        exactly the blocks covering a changed site.  Returns True when
        a block was actually invalidated."""
        seq = program.patch_seq
        if seq == self.epoch:
            return False
        # None on first observation: nothing cached was built under an
        # unseen patch state, so the cursor just adopts ``seq``.
        sites = program.sites_since(self.epoch)
        self.epoch = seq
        return bool(sites) and self._invalidate_sites(sites)

    def _invalidate_sites(self, sites: set) -> bool:
        """Drop the blocks covering a site in ``sites``."""
        blocks = self.blocks
        dropped = [e for e, blk in blocks.items()
                   if any(blk.entry <= a < blk.end for a in sites)]
        for entry in dropped:
            del blocks[entry]
        self.invalidated_blocks += len(dropped)
        self.survived_blocks += len(blocks)
        if dropped:
            self.invalidations += 1
        return bool(dropped)

    def evict_all(self) -> None:
        """Drop everything to bound the cache (counts as an eviction,
        not an invalidation)."""
        self.evictions += 1
        self.blocks.clear()


def shared_cache(cpu) -> SuperblockCache:
    """The CPU's process-shared :class:`SuperblockCache`, created on
    first use — one object per process (threads share it), one per
    standalone CPU."""
    cache = getattr(cpu, "_sb_cache", None)
    if cache is None:
        cache = SuperblockCache()
        cpu._sb_cache = cache
    return cache


class UopStats:
    """Host-side execution counters for the throughput layer."""

    __slots__ = ("blocks_built", "uops_bound", "block_runs",
                 "partial_block_runs", "uops_retired",
                 "fp_trap_exits", "single_steps", "quantum_dispatches",
                 "quantum_exits")

    def __init__(self) -> None:
        self.blocks_built = 0
        #: functions bound; stretches sliced from live blocks bind none.
        self.uops_bound = 0
        self.block_runs = 0
        #: bodies whose fitting *prefix* was retired through the
        #: pipeline at a budget edge.
        self.partial_block_runs = 0
        self.uops_retired = 0
        #: body functions that returned a #XF ``Trap``, delivered by the
        #: engine in place of a ``step()``.
        self.fp_trap_exits = 0
        self.single_steps = 0
        #: budgeted dispatches through run_quantum() (scheduler quanta
        #: and CPU.run() calls alike).
        self.quantum_dispatches = 0
        #: why each quantum ended: budget / halted / blocked.
        self.quantum_exits: Counter = Counter()


class UopEngine:
    """Per-CPU fetch/dispatch/execute engine running cached superblocks,
    with single steps at patch sites, under a directed MXCSR.RC and
    wherever no block can be built, and in-place delivery of the #XF
    traps FP functions decide.

    Blocks live in the CPU's :class:`SuperblockCache`, shared by every
    thread of a process: the engine runs them with its CPU and counts
    the blocks and functions it builds into it."""

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.cache = cache = shared_cache(cpu)
        step = type(cpu).step
        #: ``step(cpu)``: the single step, through the cache's probe.
        self._step = step if cache.probe is None else cache.probe(None, step)
        self.stats = UopStats()

    def close(self) -> None:
        """Drop the reference back to the CPU (``Process.close``);
        ``stats`` stays readable and the engine does not run again."""
        self.cpu = None

    def _new_block(self, entry: int) -> Superblock:
        cache = self.cache
        if len(cache.blocks) >= cache.capacity:
            cache.evict_all()
        block = self._build(entry)
        cache.blocks[entry] = block
        self.stats.blocks_built += 1
        return block

    # --------------------------------------------------------- main loop
    def run_quantum(self, budget: int) -> int:
        """Dispatch superblocks for at most ``budget`` steps; returns the
        number of steps taken.  The engine's only dispatch loop: a
        scheduler quantum and a whole ``CPU.run`` (a loop over quanta of
        the remaining step limit) both come through here.

        A "step" is exactly one seed ``cpu.step()`` equivalent — each
        body micro-op, each control tail, and each single step counts
        one, so a batched quantum consumes the process's global step
        budget precisely like ``budget × step()`` would.  The quantum
        ends when the budget is spent or the core halts or blocks
        (``thread_join``); a function's #XF ``Trap`` is delivered as that
        step (:meth:`_deliver_xf`), and the quantum continues.  The
        checkpoint single-steps at a patch site and while MXCSR.RC is
        directed: no body function writes MXCSR's RC field, and tails
        that run host code return to the checkpoint.  Never exceeds
        ``budget``: a body that does not fit retires only its fitting
        prefix (every function is one seed step and leaves RIP correct,
        so stopping after ``k`` of them is stopping between steps), and
        the tail is skipped once the budget is exhausted.

        Retire accounting is deferred: ``runs`` counts full body runs
        per block, and ``i`` micro-ops of the in-flight body ``cur``
        have retired.  :meth:`_settle` charges them before
        ``cpu.step()`` or a trap delivery (the trapping body's prefix
        included), before a tail that may run host code (see
        :func:`_pure_tail`), at quantum exit, and in the ``finally``
        when an exception escapes, so every observer of the counters
        sees single-stepping's values.  Between those points only body
        functions and pure tails run; they touch architectural state
        alone (tails bump the counters themselves, which is
        order-independent integer addition).
        """
        cpu = self.cpu
        regs = cpu.regs
        prog = cpu.program
        patches = prog.patches
        cache = self.cache
        blocks = cache.blocks
        stats = self.stats
        step = self._step
        settle = self._settle
        retired = 0
        tails = 0
        exit_reason = "budget"
        stats.quantum_dispatches += 1
        runs: dict = {}
        cur: Superblock | None = None
        i = 0

        try:
            while retired < budget:
                if cpu.halted:
                    exit_reason = "halted"
                    break
                if cpu.blocked:
                    exit_reason = "blocked"
                    break
                if prog.patch_seq != cache.epoch:
                    cache.sync(prog)

                rip = regs.rip
                if (cpu._suppress_patch_at is not None or rip in patches
                        or regs.mxcsr & _RC_FIELD):
                    if runs:
                        settle(runs)
                    step(cpu)
                    retired += 1
                    stats.single_steps += 1
                    continue

                block = blocks.get(rip)
                if block is None:
                    block = self._new_block(rip)

                n = block.n_body
                tail = block.tail
                if n:
                    avail = budget - retired
                    k = n if avail >= n else avail
                    if k < n:
                        stats.partial_block_runs += 1
                    cur = block
                    i = 0
                    for fn in (block.body if k == n else block.body[:k]):
                        out = fn(cpu)
                        if out is not None:
                            break
                        i += 1
                    retired += i
                    if i < k:             # a #XF Trap; i < k <= avail
                        if runs or i:
                            settle(runs, block, i)
                        cur = None
                        retired += 1
                        self._deliver_xf(block, i, out)
                        continue
                    if k < n:
                        break             # budget spent mid-body
                    cur = None
                    runs[block] = runs.get(block, 0) + 1
                    if tail is None:
                        continue
                    if retired >= budget:
                        break
                elif tail is not None:
                    runs[block] = runs.get(block, 0) + 1
                else:
                    # No runnable block (sys/unmapped): seed step.
                    if runs:
                        settle(runs)
                    step(cpu)
                    retired += 1
                    stats.single_steps += 1
                    continue
                if not block.pure_tail:
                    settle(runs)
                tail(cpu)
                retired += 1
                tails += 1
        finally:
            settle(runs, cur, i)
            stats.uops_retired += tails

        stats.quantum_exits[exit_reason] += 1
        return retired

    def _deliver_xf(self, block: Superblock, i: int, trap) -> None:
        """Deliver the #XF body function ``i`` of ``block`` returned, the
        ``i`` before it retired (:meth:`_settle`), doing what
        ``cpu._exec_fp`` does before its own delivery: mark the trapped
        instruction's lanes (the handler emulates into them) and count
        the trap."""
        cpu = self.cpu
        self.stats.fp_trap_exits += 1
        # The trap touches FP state.
        cpu.fp_quantum_touched = True
        cpu.regs.fp_dirty |= block.uops[i].xmm_writes
        cpu.fp_trap_count += 1
        cpu._deliver(trap)

    def _settle(self, runs, cur=None, i: int = 0) -> None:
        """Charge deferred retire accounting: ``runs`` (block -> full
        body runs, cleared in place) plus the first ``i`` micro-ops of
        the in-flight body ``cur``.  Counting per distinct block keeps
        the ``retired_by_class`` updates to one pass per block, however
        often it ran.  A method taking explicit state so the loop's
        variables stay locals."""
        cpu = self.cpu
        rbc = cpu.retired_by_class
        cycles = 0
        instrs = 0
        nruns = 0
        fp_mask = 0
        fp_touched = False
        for blk, count in runs.items():
            cycles += blk.prefix_cost[blk.n_body] * count
            instrs += blk.n_body * count
            nruns += count
            fp_mask |= blk.fp_writes
            fp_touched = fp_touched or blk.fp_touch
            for cls, cnt in blk.class_counts.items():
                rbc[cls] += cnt * count
        runs.clear()
        if cur is not None and i:
            cycles += cur.prefix_cost[i]
            instrs += i
            fp_mask |= cur.prefix_fp[i]
            fp_touched = fp_touched or cur.prefix_touch[i]
            for uop in cur.uops[:i]:
                rbc[uop.opclass] += 1
        if fp_touched:
            cpu.fp_quantum_touched = True
            cpu.regs.fp_dirty |= fp_mask
        if cycles:
            cpu.cycles += cycles
            cpu.work_cycles += cycles
        if instrs:
            cpu.instruction_count += instrs
        stats = self.stats
        stats.block_runs += nruns
        stats.uops_retired += instrs

    # ---------------------------------------------------------- builder
    def _build(self, entry: int) -> Superblock:
        """A block at ``entry``, shaped as a fresh build, that slices
        stretches a live block covers out of its bound functions."""
        cpu = self.cpu
        mem = cpu.mem
        prog = cpu.program
        by_addr = prog.by_addr
        patches = prog.patches
        cache = self.cache
        probe = cache.probe
        blocks = cache.blocks
        inner = cache.inner
        body = []
        uops = []
        tail = None
        pure_tail = False
        addr = entry
        end = entry
        while len(body) < MAX_BLOCK:
            if addr in patches:
                break
            # Slice a live block covering ``addr``: it has no patch site
            # in range and fixed code from its entry, so its functions are
            # a fresh build's, and an ``addr`` past its body is its tail.
            cover = blocks.get(inner.get(addr))
            if cover is not None:
                n = cover.n_body
                j = next((k for k, u in enumerate(cover.uops) if u.addr == addr), n)
                if j < n or cover.tail is not None:
                    k = min(n, j + MAX_BLOCK - len(body))
                    body += cover.body[j:k]
                    uops += cover.uops[j:k]
                    if k == n and cover.tail is not None:
                        tail, pure_tail, end = cover.tail, cover.pure_tail, cover.end
                        break
                    addr = end = uops[-1].end
                    continue
            instr = by_addr.get(addr)
            if instr is None:
                break
            uop = lower(instr)
            cls = uop.opclass
            if cls is OpClass.CONTROL:
                tail = bind_control(uop, mem, prog)
                if tail is not None:
                    if probe is not None:
                        tail = probe(uop, tail)
                    pure_tail = _pure_tail(uop, prog)
                    end = addr + uop.size
                    self.stats.uops_bound += 1
                break
            if cls is OpClass.SYS:
                break
            fn = bind_exec(uop, mem)
            if fn is None:
                break
            body.append(fn if probe is None else probe(uop, fn))
            uops.append(uop)
            self.stats.uops_bound += 1
            addr += uop.size
            end = addr
        for uop in uops:
            inner[uop.addr] = entry
        if tail is not None:
            inner[uops[-1].end if uops else entry] = entry
        return Superblock(entry, body, uops, tail, pure_tail, end=end)
