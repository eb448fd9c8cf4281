"""Fused trace JIT: stable superblock cycles compiled to one closure.

The engine loop (see :mod:`repro.machine.uops`) dispatches superblocks
one at a time and pays a checkpoint, a block lookup, a per-block
closure loop, per-uop ``SLOW`` checks, and a per-uop RIP store at every
step of every lap of a hot loop.  This module is the tier above it:
when the loop keeps retiring the *same* cyclic block sequence
(``trace_stabilize_threshold`` consecutive laps), the whole cycle is
specialized into a single ``compile()``\\ d Python closure:

- operand accessors are constant-folded into the generated source
  (register indices, effective-address arithmetic, immediates);
- per-block dispatch, block lookup, and retire accounting are hoisted
  out of the loop entirely — one ``settle()`` call per trace *exit*
  charges ``iterations x per-iteration totals`` plus the retired
  prefix of the final partial lap;
- guard checks exist only at side-exit points: the budget edge (the
  loop condition itself), the MXCSR/fp-disabled entry guard, branch
  mispredictions, ``ret``'s halt sentinel, and the ``SLOW`` protocol
  of any micro-op that fell back to its bound closure.

The FP fast-path guard (``cpu.fp_disabled`` / MXCSR field) is hoisted
to one check per trace *entry*: nothing inside a trace can change it,
because traceable tails cannot run host code and the fast FP helpers
never write MXCSR status.  Likewise ``patch_seq`` cannot move inside
a trace, so epoch invalidation is handled where it always was — the
engine loop syncs the :class:`~repro.machine.uops.SuperblockCache`,
and a flush drops every compiled trace with the blocks.

Step parity is exact.  Each generated step is one seed ``cpu.step()``
equivalent; a trace call retires ``iters * n_steps + pos`` steps and
``settle()`` charges cycles / instruction counts / per-class retire
counters identically to the engine loop.  Micro-ops the code
generator does not specialize call their already-bound block closures
(same objects the superblock body would have called), so semantics
can never diverge by construction — only the dispatch around them
changes.  If a closure raises mid-trace (memory fault), the generated
``except`` hook reports the completed laps and the retired prefix so
the accounting settles *before* the exception becomes observable, and
RIP is placed on the faulting instruction exactly like single-stepping
would have.

``CODEGEN_HOOK`` is a test seam: the conformance suite injects a
bit-flipped constant into one generated closure and requires the
differential replay oracle to localize the divergence to the exact
step (see ``tests/conformance/test_replay.py``).
"""

from __future__ import annotations

import struct
from collections import OrderedDict

from repro.fpu.fast import (
    _PACK_D,
    _PACK_Q,
    _SQRT,
    _UNPACK_D,
    _UNPACK_Q,
    FAST_SCALAR,
)
from repro.machine.isa import (
    FP_TOUCH_CLASSES,
    GPR_IDS,
    Imm,
    Label,
    Mem,
    OpClass,
    Reg,
    Xmm,
)
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.machine.uops import (
    _FP_FAST_FIELD,
    _FP_FAST_VALUE,
    _load8_factory,
    _PARITY,
    _raw_load8_factory,
    _raw_store8_factory,
    _store8_factory,
    SLOW,
    U64,
    lower,
)
# Defined in uops, whose engine loop reads them on its hot path, and
# re-exported here beside the exit codes they name.
from repro.machine.uops import EXIT_NAMES, MAX_TRACE_BLOCKS  # noqa: F401

#: ``CPU(trace=None)`` fuses stable block cycles; ``trace=False`` (the
#: ``chained`` tier) never compiles a trace.
TRACE_DEFAULT = True

#: Consecutive identical laps of a block cycle before it is fused
#: (``cpu.trace_stabilize_threshold`` overrides it per CPU).
STABILIZE_THRESHOLD = 3

#: Demotion window: a trace is re-evaluated once it has run this often.
DEMOTE_MIN_RUNS = 8

#: Re-stabilization backoff is capped at ``threshold << BACKOFF_CAP``.
BACKOFF_CAP = 8

#: Per-thread compiled-trace cap (matches the block cache's spirit of
#: wholesale bounds rather than LRU bookkeeping).
MAX_TRACES = 512

#: Exit codes returned by a generated trace closure.
EXIT_DONE = 0     #: loop-exit branch retired; trace left cleanly
EXIT_SLOW = 1     #: a fallback closure returned SLOW (no side effects)
EXIT_SIDE = 2     #: branch misprediction mid-lap (side exit)
EXIT_HALT = 3     #: ret popped the return sentinel and halted the CPU
EXIT_BUDGET = 4   #: not enough budget left for another full lap
EXIT_MXCSR = 5    #: FP fast-path entry guard failed (attach / #XF mode)

#: Test seam: ``hook(entry, source, namespace) -> source | None`` runs
#: just before ``compile()``; it may rewrite the generated source or
#: rebind namespace constants (fault injection for the replay oracle).
CODEGEN_HOOK = None

_SBIT = 1 << 63


# ------------------------------------------------------------ ChainTrace
class ChainTrace:
    """One compiled trace: a closed cycle of superblocks fused into a
    single generated closure, plus the accounting tables to settle any
    number of laps in O(1).

    The closure protocol is ``fn(avail) -> (iters, pos, code)``:
    ``iters`` complete laps ran, then ``pos`` steps of the next lap
    retired before exit ``code`` (:data:`EXIT_NAMES`).  The closure
    never retires more than ``avail`` steps.  On an exception the
    closure stores ``(iters, pos)`` into its ``_x`` cell before
    re-raising; :meth:`run` settles from the cell so counters are
    exact before the exception is observable."""

    __slots__ = ("entry", "block_entries", "ranges", "n_steps", "iter_cost",
                 "iter_instrs", "iter_classes", "flat", "fn", "cpu",
                 "source", "runs", "bad_exits", "_x",
                 "prefix_fp", "prefix_touch", "iter_fp_mask", "iter_fp_touch")

    def __init__(self, cpu, entry, block_entries, flat, fn, source, xcell,
                 ranges=()):
        self.cpu = cpu
        self.entry = entry
        self.block_entries = block_entries
        #: ``(start, end)`` address ranges of the fused superblocks
        #: (end exclusive, tails included); per-site invalidation drops
        #: the trace iff a patched site falls inside one of them.
        self.ranges = ranges
        #: per-step (opclass | None, cost, addr); ``None`` marks a tail
        #: closure that performs its own retire accounting.
        self.flat = flat
        self.n_steps = len(flat)
        cost = 0
        instrs = 0
        classes: dict = {}
        for cls, c, _ in flat:
            if cls is not None:
                cost += c
                instrs += 1
                classes[cls] = classes.get(cls, 0) + 1
        self.iter_cost = cost
        self.iter_instrs = instrs
        self.iter_classes = classes
        # Lazy-FP per-step summaries, mirroring Superblock.prefix_fp:
        # ``prefix_fp[pos]``/``prefix_touch[pos]`` cover the first
        # ``pos`` steps of a lap, so settle() charges the dirty set of
        # any partial lap with one index.  Tail steps (cls None) are
        # traceable control — they cannot write XMM state.
        by_addr = cpu.program.by_addr
        pf = [0]
        pt = [False]
        for cls, _c, addr in flat:
            mask = 0
            touch = False
            if cls is not None and cls in FP_TOUCH_CLASSES:
                touch = True
                instr = by_addr.get(addr)
                if instr is not None:
                    mask = instr.xmm_writes()
            pf.append(pf[-1] | mask)
            pt.append(pt[-1] or touch)
        self.prefix_fp = pf
        self.prefix_touch = pt
        self.iter_fp_mask = pf[-1]
        self.iter_fp_touch = pt[-1]
        self.fn = fn
        self.source = source
        self.runs = 0
        self.bad_exits = 0
        self._x = xcell

    def run(self, avail: int):
        """Execute up to ``avail`` steps; returns ``(iters, pos, code)``.
        Settles accounting and places RIP on the faulting instruction if
        the generated code raises."""
        try:
            return self.fn(avail)
        except BaseException:
            iters, pos = self._x
            self.settle(iters, pos)
            if pos < self.n_steps:
                self.cpu.regs.rip = self.flat[pos][2]
            raise

    def settle(self, iters: int, pos: int) -> int:
        """Charge retire accounting for ``iters`` laps plus ``pos``
        steps of a final partial lap; returns total steps retired.
        Tail closures marked ``None`` in :attr:`flat` already accounted
        themselves when they ran."""
        cpu = self.cpu
        cycles = self.iter_cost * iters
        instrs = self.iter_instrs * iters
        rbc = cpu.retired_by_class
        if iters:
            for cls, cnt in self.iter_classes.items():
                rbc[cls] += cnt * iters
        if pos:
            for cls, cost, _ in self.flat[:pos]:
                if cls is not None:
                    cycles += cost
                    instrs += 1
                    rbc[cls] += 1
        if cycles:
            cpu.cycles += cycles
            cpu.work_cycles += cycles
        if instrs:
            cpu.instruction_count += instrs
        if (self.iter_fp_touch and iters) or self.prefix_touch[pos]:
            cpu.fp_quantum_touched = True
            cpu.regs.fp_dirty |= (
                (self.iter_fp_mask if iters else 0) | self.prefix_fp[pos])
        return iters * self.n_steps + pos


# --------------------------------------------------------- codegen state
class _Gen:
    """Accumulates generated source lines, the exec namespace, and the
    per-step accounting table while a trace is being specialized."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.ns = {"_cpu": cpu}
        self.pre: list[str] = []    # helper hoists (namespace -> local)
        self.body: list[str] = []   # loop-body lines
        self.flat: list = []        # (opclass | None, cost, addr)
        self.lanes: set[int] = set()
        self.fp_guard = False
        self.mem_guard = False      # observed memory ops -> entry guard
        self.has_closures = False   # any bound step closure on the path
        self._bound: dict[str, str] = {}
        self._mem: dict[str, str] = {}

    def bind(self, name: str, obj) -> str:
        """Expose ``obj`` to the generated code as local ``name``
        (hoisted from the namespace once, in the preamble)."""
        if name not in self._bound:
            self.ns["_G" + name] = obj
            self.pre.append(f"{name} = _G{name}")
            self._bound[name] = name
        return name

    def bind_mem(self, kind: str) -> str:
        """Bind one of the fast memory closures on first use.  Observed
        kinds flip :attr:`mem_guard` so the trace refuses to run while
        memory observers are attached (inline accesses skip the
        per-access observer check — see the entry guard)."""
        name = self._mem.get(kind)
        if name is None:
            mem = self.cpu.mem
            factory = {
                "ld": lambda: _load8_factory(mem, True),
                "ldi": lambda: _load8_factory(mem, False),
                "st": lambda: _store8_factory(mem, True),
                "sti": lambda: _store8_factory(mem, False),
                "rld": lambda: _raw_load8_factory(mem),
                "rst": lambda: _raw_store8_factory(mem),
            }[kind]
            name = self.bind(kind, factory())
            self._mem[kind] = name
        if kind in ("ld", "ldi", "st", "sti"):
            self.mem_guard = True
            self.bind("mm", self.cpu.mem)
        return name


def _ea_expr(m: Mem) -> str:
    """Constant-folded effective-address expression over ``g`` (the
    hoisted GPR list) — the generated twin of ``_ea_factory``."""
    parts = []
    if m.base is not None:
        parts.append(f"g[{GPR_IDS[m.base]}]")
    if m.index is not None:
        iid = GPR_IDS[m.index]
        parts.append(f"g[{iid}] * {m.scale}" if m.scale != 1
                     else f"g[{iid}]")
    if not parts:
        return str(m.disp & U64)
    expr = " + ".join(parts)
    if m.disp:
        expr += f" + {m.disp}" if m.disp > 0 else f" - {-m.disp}"
    return f"(({expr}) & {U64})"


_PAGE_MASK = PAGE_SIZE - 1
_PAGE_LAST = PAGE_SIZE - 8

# Struct objects (not just their bound pack/unpack methods) so the
# generated code can unpack_from / pack_into page bytearrays with zero
# intermediate allocations.
_S_D = struct.Struct("<d")
_S_Q = struct.Struct("<Q")


def _page_head(g: _Gen, addr_expr: str) -> list[str]:
    pgs = g.bind("pgs", g.cpu.mem._pages.get)
    return [f"_ea = {addr_expr}",
            f"_pg = {pgs}(_ea >> {PAGE_SHIFT})",
            f"_o = _ea & {_PAGE_MASK}"]


def _load_bits(g: _Gen, addr_expr: str, kind: str, target: str) -> list[str]:
    """Inline single-page 8-byte integer load into ``target`` — the
    generated twin of the fast memory closures' happy path.  Everything
    off it (unmapped / short / unreadable page) calls the bound
    closure, so semantics are exactly the Memory methods'.  Observed
    kinds are covered by the entry guard: a trace never runs while
    memory observers are attached, and nothing inside a trace can
    attach one (traceable tails cannot reach host code or syscalls)."""
    fb = g.bind_mem(kind)
    uqf = g.bind("uqf", _S_Q.unpack_from)
    return _page_head(g, addr_expr) + [
        f"if _pg is not None and _o <= {_PAGE_LAST} and _pg.prot & {PROT_READ}:",
        f"    {target} = {uqf}(_pg.data, _o)[0]",
        "else:",
        f"    {target} = {fb}(_ea)",
    ]


def _store_bits(g: _Gen, addr_expr: str, kind: str, val_expr: str) -> list[str]:
    """Inline single-page 8-byte integer store of ``val_expr`` (must be
    a simple side-effect-free expression)."""
    fb = g.bind_mem(kind)
    pqf = g.bind("pqf", _S_Q.pack_into)
    return _page_head(g, addr_expr) + [
        f"if _pg is not None and _o <= {_PAGE_LAST} and _pg.prot & {PROT_WRITE}:",
        f"    {pqf}(_pg.data, _o, {val_expr} & {U64})",
        "else:",
        f"    {fb}(_ea, {val_expr})",
    ]


def _load_float(g: _Gen, addr_expr: str, target: str) -> list[str]:
    """Inline 8-byte FP load straight into a float lane local.  The
    struct round-trip is a memcpy, so NaN payloads and signed zeros are
    bit-exact in either representation."""
    fb = g.bind_mem("ld")
    udf = g.bind("udf", _S_D.unpack_from)
    ud = g.bind("ud", _UNPACK_D)
    pq = g.bind("pq", _PACK_Q)
    return _page_head(g, addr_expr) + [
        f"if _pg is not None and _o <= {_PAGE_LAST} and _pg.prot & {PROT_READ}:",
        f"    {target} = {udf}(_pg.data, _o)[0]",
        "else:",
        f"    {target} = {ud}({pq}({fb}(_ea)))[0]",
    ]


def _store_float(g: _Gen, addr_expr: str, val_expr: str) -> list[str]:
    """Inline 8-byte FP store of a float lane local."""
    fb = g.bind_mem("st")
    pdf = g.bind("pdf", _S_D.pack_into)
    uq = g.bind("uq", _UNPACK_Q)
    pd = g.bind("pd", _PACK_D)
    return _page_head(g, addr_expr) + [
        f"if _pg is not None and _o <= {_PAGE_LAST} and _pg.prot & {PROT_WRITE}:",
        f"    {pdf}(_pg.data, _o, {val_expr})",
        "else:",
        f"    {fb}(_ea, {uq}({pd}({val_expr}))[0])",
    ]


def _operand(g: _Gen, op, s: int, lines: list[str], tmp: str = "_v"):
    """Generated twin of ``_reader_u64`` for integer contexts: returns
    a *simple* expression holding the operand's u64 value, appending
    inline load lines to ``lines`` for memory operands.  None for
    shapes the generator leaves to bound closures."""
    if isinstance(op, Reg):
        return f"g[{op.id}]"
    if isinstance(op, Imm):
        return str(op.value & U64)
    if isinstance(op, Mem):
        if op.size != 8:
            return None
        lines.append(f"p = {s}")
        lines.extend(_load_bits(g, _ea_expr(op), "ldi", tmp))
        return tmp
    return None


def _fp_operand(g: _Gen, op, s: int, lines: list[str]):
    """FP source operand as a float expression (lane local or inline
    memory load into ``_vf``)."""
    if isinstance(op, Xmm):
        g.lanes.add(op.id)
        return f"x{op.id}f"
    if isinstance(op, Mem) and op.size == 8:
        lines.append(f"p = {s}")
        lines.extend(_load_float(g, _ea_expr(op), "_vf"))
        return "_vf"
    return None


# -------------------------------------------------------- body emitters
#: fast-scalar ops opened up inline as host float arithmetic; the
#: guard hands NaN operands and zero divisors to the bits-level form.
_INLINE_FP = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _bind_fp_structs(g: _Gen):
    return (g.bind("ud", _UNPACK_D), g.bind("pq", _PACK_Q),
            g.bind("pd", _PACK_D), g.bind("uq", _UNPACK_Q))


def _fp_call(g: _Gen, target: str, fname: str, *args: str) -> str:
    """A fast-scalar call in float-lane representation: convert the
    float operands to their exact bit patterns, call the bits-level
    helper, convert the result back."""
    ud, pq, pd, uq = _bind_fp_structs(g)
    bits = ", ".join(f"{uq}({pd}({a}))[0]" for a in args)
    return f"{target} = {ud}({pq}({fname}({bits})))[0]"


def _emit_fp(g: _Gen, u, s: int):
    ops = u.instr.operands
    if u.emu_kind == "bin" and u.lanes == 1 and isinstance(ops[0], Xmm):
        fast = FAST_SCALAR.get(u.ieee)
        if fast is None:
            return None
        lines: list[str] = []
        e = _fp_operand(g, ops[1], s, lines)
        if e is None:
            return None
        fname = g.bind(f"f_{u.ieee}", fast)
        d = ops[0].id
        g.lanes.add(d)
        g.fp_guard = True
        opch = _INLINE_FP.get(u.ieee)
        if opch is not None:
            guard = f"x{d}f != x{d}f or {e} != {e}"
            if u.ieee == "div":
                guard += f" or {e} == 0.0"
            lines += [f"if {guard}:",
                      "    " + _fp_call(g, f"x{d}f", fname, f"x{d}f", e),
                      "else:",
                      f"    x{d}f = x{d}f {opch} {e}"]
        else:
            lines.append(_fp_call(g, f"x{d}f", fname, f"x{d}f", e))
        return lines
    if u.mnemonic == "sqrtsd" and isinstance(ops[0], Xmm):
        lines = []
        e = _fp_operand(g, ops[1], s, lines)
        if e is None:
            return None
        fname = g.bind("f_sqrt", FAST_SCALAR["sqrt"])
        sq = g.bind("sq", _SQRT)
        d = ops[0].id
        g.lanes.add(d)
        g.fp_guard = True
        # ``_fa >= 0.0`` is False for NaN, so NaN payloads and
        # negative inputs both take the exact fallback.
        lines += [f"_fa = {e}",
                  "if _fa >= 0.0:",
                  f"    x{d}f = {sq}(_fa)",
                  "else:",
                  "    " + _fp_call(g, f"x{d}f", fname, "_fa")]
        return lines
    return None


def _emit_fp_mov(g: _Gen, u, s: int):
    if u.mnemonic != "movsd":
        return None
    dst, src = u.instr.operands
    if isinstance(dst, Xmm) and isinstance(src, Xmm):
        g.lanes.add(dst.id)
        g.lanes.add(src.id)
        return [f"x{dst.id}f = x{src.id}f"]
    if isinstance(dst, Xmm) and isinstance(src, Mem) and src.size == 8:
        d = dst.id
        g.lanes.add(d)
        # a faulting load leaves the destination lane untouched, so the
        # inline form may target the lane local directly.
        lines = [f"p = {s}"]
        lines += _load_float(g, _ea_expr(src), f"x{d}f")
        lines.append(f"x{d}[1] = 0")
        return lines
    if (isinstance(src, Xmm) and isinstance(dst, Mem) and dst.size == 8):
        g.lanes.add(src.id)
        return [f"p = {s}"] + _store_float(g, _ea_expr(dst), f"x{src.id}f")
    return None


def _emit_int_mov(g: _Gen, u, s: int):
    mn = u.mnemonic
    ops = u.instr.operands
    if mn == "mov":
        dst, src = ops
        if isinstance(dst, Reg):
            if isinstance(src, Mem):
                if src.size != 8:
                    return None
                return ([f"p = {s}"]
                        + _load_bits(g, _ea_expr(src), "ldi",
                                     f"g[{dst.id}]"))
            lines: list[str] = []
            expr = _operand(g, src, s, lines)
            if expr is None:
                return None
            lines.append(f"g[{dst.id}] = {expr}")
            return lines
        if isinstance(dst, Mem) and dst.size == 8:
            lines = []
            expr = _operand(g, src, s, lines)
            if expr is None or isinstance(src, Mem):
                return None
            return ([f"p = {s}"]
                    + _store_bits(g, _ea_expr(dst), "sti", expr))
        return None
    if mn == "lea":
        dst, src = ops
        if not isinstance(dst, Reg) or not isinstance(src, Mem):
            return None
        return [f"g[{dst.id}] = {_ea_expr(src)}"]
    if mn == "push":
        lines = []
        expr = _operand(g, ops[0], s, lines, tmp="_t")
        if expr is None:
            return None
        # value read (and any load fault) happens before RSP moves,
        # exactly like the seed handler.
        out = [f"p = {s}"] + lines
        if expr != "_t":
            out.append(f"_t = {expr}")
        out += [f"_sp = (g[7] - 8) & {U64}", "g[7] = _sp"]
        out += _store_bits(g, "_sp", "rst", "_t")
        return out
    if mn == "pop":
        dst = ops[0]
        if not isinstance(dst, Reg):
            return None
        lines = [f"p = {s}", "_sp = g[7]"]
        lines += _load_bits(g, "_sp", "rld", "_t")
        lines += [f"g[7] = (_sp + 8) & {U64}", f"g[{dst.id}] = _t"]
        return lines
    return None


def _emit_int_alu(g: _Gen, u, s: int):
    mn = u.mnemonic
    ops = u.instr.operands
    dst = ops[0]
    if not isinstance(dst, Reg):
        return None
    d = dst.id
    pt = g.bind("pt", _PARITY)

    if mn in ("add", "sub", "cmp"):
        lines: list[str] = []
        expr = _operand(g, ops[1], s, lines, tmp="_b")
        if expr is None:
            return None
        lines.append(f"_a = g[{d}]")
        if expr != "_b":
            lines.append(f"_b = {expr}")
        if mn == "add":
            lines += [f"_u = _a + _b", f"_t = _u & {U64}",
                      f"fl.cf = _u > {U64}",
                      f"fl.of = bool((~(_a ^ _b) & (_a ^ _t)) & {_SBIT})"]
        else:
            lines += [f"_t = (_a - _b) & {U64}",
                      "fl.cf = _a < _b",
                      f"fl.of = bool(((_a ^ _b) & (_a ^ _t)) & {_SBIT})"]
        lines += ["fl.zf = _t == 0", f"fl.sf = _t >= {_SBIT}",
                  "fl.pf = pt[_t & 255]"]
        if mn != "cmp":
            lines.append(f"g[{d}] = _t")
        return lines

    if mn in ("and", "or", "xor", "test"):
        lines = []
        expr = _operand(g, ops[1], s, lines)
        if expr is None:
            return None
        opch = {"and": "&", "test": "&", "or": "|", "xor": "^"}[mn]
        lines += [f"_t = g[{d}] {opch} {expr}",
                  "fl.cf = False", "fl.of = False",
                  "fl.zf = _t == 0", f"fl.sf = _t >= {_SBIT}",
                  "fl.pf = pt[_t & 255]"]
        if mn != "test":
            lines.append(f"g[{d}] = _t")
        return lines

    if mn in ("inc", "dec"):
        delta = "+ 1" if mn == "inc" else "- 1"
        # OF fires exactly on the signed-overflow result value; CF is
        # untouched (seed ``run_incdec``).
        of_val = _SBIT if mn == "inc" else _SBIT - 1
        return [f"_t = (g[{d}] {delta}) & {U64}",
                f"fl.of = _t == {of_val}",
                "fl.zf = _t == 0", f"fl.sf = _t >= {_SBIT}",
                "fl.pf = pt[_t & 255]",
                f"g[{d}] = _t"]
    return None


def _emit_body(g: _Gen, u, s: int):
    cls = u.opclass
    try:
        if cls in (OpClass.FP_ARITH, OpClass.FP_CVT):
            return _emit_fp(g, u, s)
        if cls is OpClass.FP_MOV:
            return _emit_fp_mov(g, u, s)
        if cls is OpClass.INT_MOV:
            return _emit_int_mov(g, u, s)
        if cls is OpClass.INT_ALU:
            return _emit_int_alu(g, u, s)
    except (KeyError, AttributeError, TypeError):
        return None
    return None


# -------------------------------------------------------- tail emitters
#: jcc mnemonic -> generated predicate over the hoisted ``fl`` flags
#: (must mirror ``isa.CONDITION_CODES`` exactly).
_COND_EXPR = {
    "je": "fl.zf", "jne": "not fl.zf",
    "jl": "fl.sf != fl.of", "jle": "fl.zf or fl.sf != fl.of",
    "jg": "not fl.zf and fl.sf == fl.of", "jge": "fl.sf == fl.of",
    "jb": "fl.cf", "jbe": "fl.cf or fl.zf",
    "ja": "not fl.cf and not fl.zf", "jae": "not fl.cf",
    "js": "fl.sf", "jns": "not fl.sf",
    "jp": "fl.pf", "jnp": "not fl.pf",
}


def _emit_tail(g: _Gen, blk, u, expected: int, last: bool, j: int) -> bool:
    """Emit block ``j``'s control tail.  ``expected`` is the recorded
    next block entry (the root, for the last block).  Returns False to
    abort the whole compile (recording anomaly)."""
    s = len(g.flat)
    mn = u.mnemonic
    ops = u.instr.operands
    static = None
    if ops and isinstance(ops[0], Label) and ops[0].addr not in (None, -1):
        static = ops[0].addr

    if mn == "jmp" and static is not None:
        if static != expected:
            return False
        # the branch is unconditional and lands on the trace path:
        # nothing to execute, the step is pure accounting.
        g.flat.append((u.opclass, u.cost, u.addr))
        return True

    cond = _COND_EXPR.get(mn)
    if cond is not None and static is not None:
        if expected == static:
            test, exit_rip = f"if not ({cond}):", u.end
        elif expected == u.end:
            test, exit_rip = f"if {cond}:", static
        else:
            return False
        g.body.append(test)
        g.body.append(f"    r.rip = {exit_rip}")
        g.body.append("    @SYNC")
        if last:
            g.body.append("    return (i + 1, 0, 0)")
        else:
            g.body.append(f"    return (i, {s + 1}, 2)")
        g.flat.append((u.opclass, u.cost, u.addr))
        return True

    if mn == "call":
        # only statically-known guest calls are traceable; they always
        # land on their target, so no post-tail guard is needed.
        if static is None or static != expected:
            return False
        tname = g.bind(f"t{j}", blk.tail)
        g.body.append(f"p = {s}")
        g.body.append(f"{tname}()")
        g.flat.append((None, 0, u.addr))
        return True

    # ret / indirect or name-resolved jmp / jcc: run the bound tail
    # closure and guard the landing address (plus ret's halt check).
    # Control tails never touch XMM state, so no lane sync is needed
    # around the call itself — only on the exit paths.
    tname = g.bind(f"t{j}", blk.tail)
    g.body.append(f"p = {s}")
    g.body.append(f"{tname}()")
    if blk.halt_check:
        g.body.append("if c.halted:")
        g.body.append("    @SYNC")
        g.body.append(f"    return (i, {s + 1}, 3)")
    g.body.append(f"if r.rip != {expected}:")
    g.body.append("    @SYNC")
    if last:
        g.body.append("    return (i + 1, 0, 0)")
    else:
        g.body.append(f"    return (i, {s + 1}, 2)")
    g.flat.append((None, 0, u.addr))
    return True


# ------------------------------------------------------------ compiler
def _relower(cpu, blocks):
    """Walk each block's address range back into micro-ops (superblocks
    store bound closures only).  Returns ``[(block, body_uops, tail_uop)]``
    or None if any block's shape cannot be re-derived."""
    by_addr = cpu.program.by_addr
    out = []
    for b in blocks:
        if b.tail is None or not b.traceable:
            return None
        body = []
        addr = b.entry
        for _ in range(b.n_body):
            ins = by_addr.get(addr)
            if ins is None:
                return None
            u = lower(ins)
            body.append(u)
            addr += u.size
        if addr != b.tail_addr:
            return None
        tins = by_addr.get(addr)
        if tins is None:
            return None
        out.append((b, body, lower(tins)))
    return out


#: source text -> code object.  Trace codegen is deterministic over the
#: program layout, so repeated runs of the same workload (benchmark
#: reps, differential tiers, fleet guests sharing a worker's program
#: template) regenerate byte-identical source; caching the
#: ``compile()`` makes recompiles near-free.  The exec namespace is
#: always fresh, so cached code never aliases state.
#:
#: The cache is a true LRU bounded by :data:`CODE_CACHE_CAP`: a
#: long-lived fleet worker cycling through many distinct programs must
#: not grow compiled-closure memory without limit.  Hits, misses, and
#: evictions are module-level counters; the uop engine snapshots them
#: around each compile so they surface through ``UopStats`` (and from
#: there the per-worker fleet telemetry).
_CODE_CACHE: "OrderedDict[str, object]" = OrderedDict()

CODE_CACHE_HITS = 0
CODE_CACHE_MISSES = 0
CODE_CACHE_EVICTIONS = 0


#: max distinct compiled trace sources kept (read at every compile).
CODE_CACHE_CAP = 256


def code_cache_stats() -> dict:
    return {
        "size": len(_CODE_CACHE),
        "cap": CODE_CACHE_CAP,
        "hits": CODE_CACHE_HITS,
        "misses": CODE_CACHE_MISSES,
        "evictions": CODE_CACHE_EVICTIONS,
    }


def _compile_source(source: str, entry: int):
    global CODE_CACHE_HITS, CODE_CACHE_MISSES, CODE_CACHE_EVICTIONS
    code = _CODE_CACHE.get(source)
    if code is not None:
        _CODE_CACHE.move_to_end(source)
        CODE_CACHE_HITS += 1
        return code
    CODE_CACHE_MISSES += 1
    while len(_CODE_CACHE) >= CODE_CACHE_CAP:
        _CODE_CACHE.popitem(last=False)
        CODE_CACHE_EVICTIONS += 1
    code = compile(source, f"<trace@{entry:#x}>", "exec")
    _CODE_CACHE[source] = code
    return code


def _expand_markers(body: list[str], g: _Gen) -> list[str]:
    """Rewrite ``@SYNC`` / ``@RELOAD`` markers into lane write-back /
    re-fetch lines, now that the full lane set is known."""
    if not g.lanes:
        return [ln for ln in body if ln.strip() not in ("@SYNC", "@RELOAD")]
    ud, pq, pd, uq = _bind_fp_structs(g)
    lanes = sorted(g.lanes)
    out = []
    for ln in body:
        stripped = ln.strip()
        indent = ln[: len(ln) - len(stripped)]
        if stripped == "@SYNC":
            out += [f"{indent}x{n}[0] = {uq}({pd}(x{n}f))[0]" for n in lanes]
        elif stripped == "@RELOAD":
            out += [f"{indent}x{n}f = {ud}({pq}(x{n}[0]))[0]" for n in lanes]
        else:
            out.append(ln)
    return out


def compile_trace(cpu, blocks) -> ChainTrace | None:
    """Fuse a closed cycle of superblocks (``blocks[0]`` is the root;
    the last tail leads back to it) into a :class:`ChainTrace`.
    Returns None when the cycle's shape cannot be specialized."""
    lowered = _relower(cpu, blocks)
    if lowered is None:
        return None
    g = _Gen(cpu)
    nblocks = len(blocks)
    entry = blocks[0].entry

    for j, (blk, body_uops, tail_uop) in enumerate(lowered):
        expected = blocks[(j + 1) % nblocks].entry
        last = j == nblocks - 1
        for k, u in enumerate(body_uops):
            s = len(g.flat)
            lines = _emit_body(g, u, s)
            if lines is None:
                # whole-step bound closure: it reads and writes the
                # register file directly, so float lanes sync before
                # the call and reload after it.  ``_cl`` tells the
                # exception hook the file is already authoritative.
                fname = g.bind(f"f{j}_{k}", blk.body[k])
                g.has_closures = True
                g.body.append("@SYNC")
                g.body.append("_cl = 1")
                g.body.append(f"p = {s}")
                if u.fp_trap_capable:
                    sl = g.bind("SLOW", SLOW)
                    g.body.append(f"if {fname}() is {sl}:")
                    g.body.append(f"    r.rip = {u.addr}")
                    g.body.append(f"    return (i, {s}, 1)")
                else:
                    g.body.append(f"{fname}()")
                g.body.append("@RELOAD")
                g.body.append("_cl = 0")
            else:
                g.body.extend(lines)
            g.flat.append((u.opclass, u.cost, u.addr))
        if not _emit_tail(g, blk, tail_uop, expected, last, j):
            return None

    n_steps = len(g.flat)
    if n_steps == 0:
        return None
    xcell = [0, 0]
    g.ns["_x"] = xcell
    # resolve every late binding before the preamble is materialized
    body = _expand_markers(g.body, g)
    lanes = sorted(g.lanes)
    if lanes:
        ud, pq, pd, uq = _bind_fp_structs(g)
    mm = g.bind("mm", cpu.mem) if g.mem_guard else None

    lines = ["def _trace_fn(avail):"]
    lines += ["    c = _cpu", "    r = c.regs", "    g = r.gpr",
              "    x = r.xmm", "    fl = r.flags"]
    for lane in lanes:
        lines.append(f"    x{lane} = x[{lane}]")
    for pl in g.pre:
        lines.append("    " + pl)
    if g.fp_guard:
        lines.append(f"    if c.fp_disabled or "
                     f"(r.mxcsr & {_FP_FAST_FIELD}) != {_FP_FAST_VALUE}:")
        lines.append("        return (0, 0, 5)")
    if g.mem_guard:
        # nothing inside a trace can attach a memory observer (tails
        # cannot reach host code or syscalls), so one entry check
        # replaces the factories' per-access observer test.
        lines.append(f"    if {mm}.observers:")
        lines.append("        return (0, 0, 5)")
    for lane in lanes:
        lines.append(f"    x{lane}f = {ud}({pq}(x{lane}[0]))[0]")
    lines += ["    i = 0", "    p = 0", "    left = avail"]
    if g.has_closures:
        lines.append("    _cl = 0")
    lines.append("    try:")
    lines.append(f"        while left >= {n_steps}:")
    for bl in body:
        lines.append("            " + bl)
    lines += ["            i += 1", f"            left -= {n_steps}",
              "            p = 0",
              f"        r.rip = {entry}"]
    for n in lanes:
        lines.append(f"        x{n}[0] = {uq}({pd}(x{n}f))[0]")
    lines += ["        return (i, 0, 4)",
              "    except BaseException:",
              "        _x[0] = i", "        _x[1] = p"]
    if lanes:
        indent = "        "
        if g.has_closures:
            lines.append("        if _cl == 0:")
            indent += "    "
        for n in lanes:
            lines.append(f"{indent}x{n}[0] = {uq}({pd}(x{n}f))[0]")
    lines.append("        raise")
    source = "\n".join(lines) + "\n"

    hook = CODEGEN_HOOK
    if hook is not None:
        patched = hook(entry, source, g.ns)
        if patched:
            source = patched

    code = _compile_source(source, entry)
    exec(code, g.ns)
    return ChainTrace(cpu, entry, tuple(b.entry for b in blocks),
                      tuple(g.flat), g.ns["_trace_fn"], source, xcell,
                      ranges=tuple((b.entry, b.end) for b in blocks))
