"""Pre-decoded micro-op IR, superblocks, and the block execution engine.

The seed interpreter re-resolves operands and re-dispatches through
instance methods on every simulated step.  This module lowers each
:class:`~repro.machine.isa.Instruction` once into a :class:`MicroOp`
(static metadata shared by every consumer: CPU, decode cache, emulator,
sequence engine) and binds, per CPU, opclass-specialized execute
closures whose operand accessors were resolved at bind time.  Straight-
line runs of micro-ops are strung into cached :class:`Superblock`\\ s
keyed by entry address; the block cache tracks the program's
``patch_events`` log and invalidates *per site* — only blocks whose
address range covers a changed patch site are dropped (any patch
added, removed or cleared at that address), so patched instructions
can never execute through a stale block while unrelated warm blocks
survive patch churn.

Semantics are bit-for-bit the seed interpreter's:

- FP closures take the seed's values-only native path when all six
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
- FP closures evaluate through :mod:`repro.fpu.fast` (its values-only
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
closure is one seed step and leaves RIP correct, so the next quantum
resumes mid-block, in a block sliced out of the covering block's
bound closures rather than bound again.  Block caches live in one
per-process :class:`SuperblockCache` shared by every thread; when
``patch_seq`` moves the cache drops exactly the blocks covering the
changed sites — cross-thread and cross-guest — and everything else
stays warm.  ``CPU.run`` is a loop over quanta of the
remaining step limit.
"""

from __future__ import annotations

from collections import Counter

from repro.fpu import fast as F
from repro.fpu.fast import _PACK_Q, _fsqrt, FAST_SCALAR
from repro.fpu.ieee import FPFlags
from repro.machine.isa import (
    CONDITION_CODES,
    FP_TOUCH_CLASSES,
    GPR_IDS,
    Imm,
    Instruction,
    Label,
    Mem,
    OpClass,
    OPCODES,
    xmm_write_mask,
    Reg,
    Xmm,
)
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, PROT_READ, PROT_WRITE

U64 = 0xFFFF_FFFF_FFFF_FFFF

#: Superblocks stop growing here; the follow-on block starts at the cut.
MAX_BLOCK = 128

#: The seed's native-FP fast path requires every MXCSR exception mask
#: set (bits 7-12), no unmasked status possible, and RC == nearest
#: (bits 13-14 clear).  One masked compare checks all of it.
_FP_FAST_FIELD = 0x7F80
_FP_FAST_VALUE = 0x1F80
#: MXCSR.RC (bits 13-14): the closures, fast and flag path alike, are
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
    images); per-CPU execute closures are bound by the engine via
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


# ---------------------------------------------------- fast memory closures
# Inlined single-page 8-byte access for bound closures.  Anything off
# the happy path (first touch of an unmapped page, page-straddling
# access, permission violations) falls back to the Memory methods, so
# semantics are exactly theirs.  Observers
# (read per call, so late attaches count) are notified inline, after
# the access, with the same arguments the methods pass.
_PAGE_SIZE = PAGE_SIZE
_PAGE_SHIFT = PAGE_SHIFT
_PAGE_MASK = PAGE_SIZE - 1
_FROM_LE = int.from_bytes


def _load8_factory(mem, fp: bool):
    """Fast ``observed_load(ea, 8, fp)``."""
    pages = mem._pages
    kind = "fp_load" if fp else "int_load"

    def load8(addr):
        page = pages.get(addr >> _PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is None or off > _PAGE_SIZE - 8 or not (page.prot & PROT_READ):
            return mem.observed_load(addr, 8, fp)
        value = _FROM_LE(page.data[off:off + 8], "little")
        if mem.observers:
            for obs in mem.observers:
                obs(addr, 8, kind, value)
        return value
    return load8


def _store8_factory(mem, fp: bool):
    """Fast ``observed_store(ea, v, 8, fp)``."""
    pages = mem._pages
    kind = "fp_store" if fp else "int_store"

    def store8(addr, value):
        page = pages.get(addr >> _PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is None or off > _PAGE_SIZE - 8 or not (page.prot & PROT_WRITE):
            return mem.observed_store(addr, value, 8, fp)
        page.data[off:off + 8] = _PACK_Q(value & U64)
        if mem.observers:
            for obs in mem.observers:
                obs(addr, 8, kind, value)
    return store8


def _raw_load8_factory(mem):
    """Fast ``read_u64`` (stack pops / returns — never observed)."""
    pages = mem._pages

    def load8(addr):
        page = pages.get(addr >> _PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is None or off > _PAGE_SIZE - 8 or not (page.prot & PROT_READ):
            return mem.read_u64(addr)
        return _FROM_LE(page.data[off:off + 8], "little")
    return load8


def _raw_store8_factory(mem):
    """Fast ``write_u64`` (stack pushes — never observed)."""
    pages = mem._pages

    def store8(addr, value):
        page = pages.get(addr >> _PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is None or off > _PAGE_SIZE - 8 or not (page.prot & PROT_WRITE):
            return mem.write_u64(addr, value)
        page.data[off:off + 8] = _PACK_Q(value & U64)
    return store8


# ------------------------------------------------------- operand accessors
def _ea_factory(regs, m: Mem):
    """Zero-arg effective-address closure; register operands are read
    through ``regs`` at call time (restore() replaces the inner lists)."""
    disp = m.disp
    bid = GPR_IDS[m.base] if m.base is not None else None
    iid = GPR_IDS[m.index] if m.index is not None else None
    scale = m.scale
    if bid is None and iid is None:
        ea = disp & U64
        return lambda: ea
    if iid is None:
        return lambda: (regs.gpr[bid] + disp) & U64
    if bid is None:
        return lambda: (regs.gpr[iid] * scale + disp) & U64
    return lambda: (regs.gpr[bid] + regs.gpr[iid] * scale + disp) & U64


def _reader_u64(cpu, op, fp: bool):
    """Seed ``read_u64_operand`` semantics: Mem is always an 8-byte
    observed load regardless of the operand's declared size."""
    regs = cpu.regs
    if isinstance(op, Reg):
        rid = op.id
        return lambda: regs.gpr[rid]
    if isinstance(op, Xmm):
        xid = op.id
        return lambda: regs.xmm[xid][0]
    if isinstance(op, Imm):
        v = op.value & U64
        return lambda: v
    if isinstance(op, Mem):
        ea = _ea_factory(regs, op)
        load8 = _load8_factory(cpu.mem, fp)
        return lambda: load8(ea())
    return None


def _reader_sized(cpu, op, fp: bool):
    """Seed ``read_sized_operand``: Mem honours its declared size."""
    if isinstance(op, Mem) and op.size != 8:
        ea = _ea_factory(cpu.regs, op)
        mem = cpu.mem
        size = op.size
        return lambda: mem.observed_load(ea(), size, fp)
    return _reader_u64(cpu, op, fp)


def _writer_u64(cpu, op, fp: bool):
    """Seed ``write_u64_operand``: Mem stores honour the operand size."""
    regs = cpu.regs
    if isinstance(op, Reg):
        rid = op.id

        def wr(v):
            regs.gpr[rid] = v & U64
        return wr
    if isinstance(op, Xmm):
        xid = op.id

        def wx(v):
            regs.xmm[xid][0] = v & U64
        return wx
    if isinstance(op, Mem):
        ea = _ea_factory(regs, op)
        if op.size == 8:
            store8 = _store8_factory(cpu.mem, fp)
            return lambda v: store8(ea(), v)
        mem = cpu.mem
        size = op.size
        return lambda v: mem.observed_store(ea(), v, size, fp)
    return None


def _reader_128(cpu, op):
    """Seed ``read_xmm_or_mem128``."""
    regs = cpu.regs
    if isinstance(op, Xmm):
        xid = op.id

        def rx():
            lanes = regs.xmm[xid]
            return lanes[0], lanes[1]
        return rx
    if isinstance(op, Mem):
        ea = _ea_factory(regs, op)
        load8 = _load8_factory(cpu.mem, True)

        def rm():
            a = ea()
            return load8(a), load8(a + 8)
        return rm
    return None


# -------------------------------------------------------- closure binding
def bind_exec(uop: MicroOp, cpu):
    """Bind a body-execute closure for this CPU, or None if the micro-op
    cannot run inside a superblock body (control/sys/odd shapes).

    Closure contract: executes the instruction exactly like the seed
    handler (same reads, same write order, RIP set at the end) and
    returns None on retire.  An FP-trappable closure may instead return
    the #XF ``Trap`` the seed would deliver (nothing committed; the
    engine delivers it).  Closures assume round-to-nearest: the engine
    does not enter a block while MXCSR.RC is directed.  Retire
    accounting (cost/count/class) is the engine's job.
    """
    cls = uop.opclass
    try:
        if cls in (OpClass.FP_ARITH, OpClass.FP_CVT):
            return _bind_fp(uop, cpu)
        if cls is OpClass.FP_BITWISE:
            return _bind_fp_bitwise(uop, cpu)
        if cls is OpClass.FP_MOV:
            return _bind_fp_mov(uop, cpu)
        if cls is OpClass.INT_MOV:
            return _bind_int_mov(uop, cpu)
        if cls is OpClass.INT_ALU:
            return _bind_int_alu(uop, cpu)
    except (KeyError, AttributeError, TypeError):
        return None  # malformed operands: let cpu.step() raise its way
    return None


def _flag_path(uop: MicroOp, cpu, evaluate, commit):
    """An FP closure's path under an unmasked MXCSR (an attached FPVM)
    or with the FP unit off.

    With the FP unit off it returns the #XF ``Trap`` with no flags,
    before any operand read, as ``cpu._exec_fp`` delivers it.
    Otherwise ``evaluate()`` reads the operands once and returns
    ``(result, status)`` from :func:`repro.fpu.fast.flagged` (a packed
    op ORs its lanes' status).  An unmasked status bit returns the #XF
    ``Trap`` ``_exec_fp`` delivers, nothing committed; else
    ``commit(result)``, the status ORed into MXCSR and RIP advanced, as
    ``_exec_fp`` does."""
    from repro.machine.cpu import Trap, TrapKind  # cpu.py imports this module

    regs = cpu.regs
    end = uop.end
    addr, instr, xf = uop.addr, uop.instr, TrapKind.XF
    from_status = FPFlags.from_status

    def flag_path():
        if cpu.fp_disabled:
            return Trap(xf, addr, instr, FPFlags())
        mx = regs.mxcsr
        result, st = evaluate()
        if st & ~mx >> 7:
            return Trap(xf, addr, instr, from_status(st))
        commit(result)
        regs.mxcsr = mx | st
        regs.rip = end
    return flag_path


def _bind_fp(uop: MicroOp, cpu):
    """Each closure runs the seed's values-only native path when every
    MXCSR mask is set and RC is nearest, and its :func:`_flag_path`
    otherwise."""
    regs = cpu.regs
    mn = uop.mnemonic
    ops = uop.instr.operands
    end = uop.end
    flag = F.flagged(uop.ieee)

    def lane0(xid):
        def write(bits):
            regs.xmm[xid][0] = bits
        return write

    if mn == "cvtsi2sd":
        rd = _reader_u64(cpu, ops[1], False)
        xid = ops[0].id
        cvt = F.cvtsi2sd
        if rd is None or not isinstance(ops[0], Xmm):
            return None
        flag_path = _flag_path(uop, cpu, lambda: flag(rd()), lane0(xid))

        def run_cvtsi2sd():
            if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
                return flag_path()
            regs.xmm[xid][0] = cvt(rd())
            regs.rip = end
        return run_cvtsi2sd

    if mn in ("cvttsd2si", "cvtsd2si"):
        rd = _reader_u64(cpu, ops[1], True)
        wr = _writer_u64(cpu, ops[0], False)
        cvt = F.cvttsd2si if mn == "cvttsd2si" else F.cvtsd2si
        if rd is None or wr is None:
            return None
        flag_path = _flag_path(uop, cpu, lambda: flag(rd()), wr)

        def run_cvt2si():
            if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
                return flag_path()
            wr(cvt(rd()))
            regs.rip = end
        return run_cvt2si

    if mn in ("ucomisd", "comisd"):
        if not isinstance(ops[0], Xmm):
            return None
        xid = ops[0].id
        rd_b = _reader_u64(cpu, ops[1], True)
        ucomi = F.ucomi
        if rd_b is None:
            return None

        def set_flags(packed):
            f = regs.flags
            f.zf = bool(packed & 1)
            f.pf = bool(packed & 2)
            f.cf = bool(packed & 4)
            f.sf = False
            f.of = False
        flag_path = _flag_path(
            uop, cpu, lambda: flag(regs.xmm[xid][0], rd_b()), set_flags)

        def run_ucomi():
            if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
                return flag_path()
            packed = ucomi(regs.xmm[xid][0], rd_b())
            f = regs.flags
            f.zf = bool(packed & 1)
            f.pf = bool(packed & 2)
            f.cf = bool(packed & 4)
            f.sf = False
            f.of = False
            regs.rip = end
        return run_ucomi

    if mn in CMP_PREDS:
        if not isinstance(ops[0], Xmm):
            return None
        xid = ops[0].id
        rd_b = _reader_u64(cpu, ops[1], True)
        cmp = F.cmp_mask(CMP_PREDS[mn])
        if rd_b is None:
            return None
        flag_path = _flag_path(
            uop, cpu, lambda: flag(regs.xmm[xid][0], rd_b()), lane0(xid))

        def run_cmp():
            if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
                return flag_path()
            lanes = regs.xmm[xid]
            lanes[0] = cmp(lanes[0], rd_b())
            regs.rip = end
        return run_cmp

    if mn == "vfmadd213sd":
        if not (isinstance(ops[0], Xmm) and isinstance(ops[1], Xmm)):
            return None
        d_id, m_id = ops[0].id, ops[1].id
        rd_c = _reader_u64(cpu, ops[2], True)
        fma = F.fma
        if rd_c is None:
            return None
        flag_path = _flag_path(
            uop, cpu, lambda: flag(regs.xmm[m_id][0], regs.xmm[d_id][0], rd_c()),
            lane0(d_id))

        def run_fma():
            if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
                return flag_path()
            lanes = regs.xmm[d_id]
            lanes[0] = fma(regs.xmm[m_id][0], lanes[0], rd_c())
            regs.rip = end
        return run_fma

    if not isinstance(ops[0], Xmm):
        return None
    xid = ops[0].id

    def both_lanes(pair):
        regs.xmm[xid][:] = pair

    if mn == "sqrtsd":
        rd = _reader_u64(cpu, ops[1], True)
        if rd is None:
            return None
        flag_path = _flag_path(uop, cpu, lambda: flag(rd()), lane0(xid))

        def run_sqrtsd():
            if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
                return flag_path()
            regs.xmm[xid][0] = _fsqrt(rd())
            regs.rip = end
        return run_sqrtsd

    if mn == "sqrtpd":
        rd = _reader_128(cpu, ops[1])
        if rd is None:
            return None

        def evaluate_sqrtpd():
            slo, shi = rd()
            lo, st = flag(slo)
            hi, st_hi = flag(shi)
            return (lo, hi), st | st_hi
        flag_path = _flag_path(uop, cpu, evaluate_sqrtpd, both_lanes)

        def run_sqrtpd():
            if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
                return flag_path()
            slo, shi = rd()
            lanes = regs.xmm[xid]
            lanes[0] = _fsqrt(slo)
            lanes[1] = _fsqrt(shi)
            regs.rip = end
        return run_sqrtpd

    # Binary arithmetic families.
    fast = FAST_SCALAR.get(uop.ieee)
    if fast is None:
        return None
    if uop.lanes == 2:
        rd = _reader_128(cpu, ops[1])
        if rd is None:
            return None

        def evaluate_packed():
            slo, shi = rd()
            dlo, dhi = regs.xmm[xid]
            lo, st = flag(dlo, slo)
            hi, st_hi = flag(dhi, shi)
            return (lo, hi), st | st_hi
        flag_path = _flag_path(uop, cpu, evaluate_packed, both_lanes)

        def run_packed():
            if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
                return flag_path()
            slo, shi = rd()
            lanes = regs.xmm[xid]
            lanes[0] = fast(lanes[0], slo)
            lanes[1] = fast(lanes[1], shi)
            regs.rip = end
        return run_packed

    rd = _reader_u64(cpu, ops[1], True)
    if rd is None:
        return None
    flag_path = _flag_path(uop, cpu, lambda: flag(regs.xmm[xid][0], rd()),
                           lane0(xid))

    def run_scalar():
        if cpu.fp_disabled or (regs.mxcsr & _FP_FAST_FIELD) != _FP_FAST_VALUE:
            return flag_path()
        lanes = regs.xmm[xid]
        lanes[0] = fast(lanes[0], rd())
        regs.rip = end
    return run_scalar


def _bind_fp_bitwise(uop: MicroOp, cpu):
    regs = cpu.regs
    mn = uop.mnemonic
    ops = uop.instr.operands
    end = uop.end
    if not isinstance(ops[0], Xmm):
        return None
    xid = ops[0].id
    rd = _reader_128(cpu, ops[1])
    if rd is None:
        return None

    if mn == "xorpd":
        def run_xorpd():
            slo, shi = rd()
            lanes = regs.xmm[xid]
            lanes[0] ^= slo
            lanes[1] ^= shi
            regs.rip = end
        return run_xorpd
    if mn == "andpd":
        def run_andpd():
            slo, shi = rd()
            lanes = regs.xmm[xid]
            lanes[0] &= slo
            lanes[1] &= shi
            regs.rip = end
        return run_andpd
    if mn == "orpd":
        def run_orpd():
            slo, shi = rd()
            lanes = regs.xmm[xid]
            lanes[0] |= slo
            lanes[1] |= shi
            regs.rip = end
        return run_orpd

    def run_andnpd():
        slo, shi = rd()
        lanes = regs.xmm[xid]
        lanes[0] = (~lanes[0] & U64) & slo
        lanes[1] = (~lanes[1] & U64) & shi
        regs.rip = end
    return run_andnpd


def _bind_fp_mov(uop: MicroOp, cpu):
    regs = cpu.regs
    mem = cpu.mem
    mn = uop.mnemonic
    ops = uop.instr.operands
    end = uop.end

    if mn == "shufpd":
        dst, src, imm = ops
        if not isinstance(dst, Xmm) or not isinstance(imm, Imm):
            return None
        did = dst.id
        rd = _reader_128(cpu, src)
        ctrl = imm.value
        if rd is None:
            return None

        def run_shufpd():
            lanes = regs.xmm[did]
            dlo, dhi = lanes[0], lanes[1]
            slo, shi = rd()
            lanes[0] = dhi if ctrl & 1 else dlo
            lanes[1] = shi if ctrl & 2 else slo
            regs.rip = end
        return run_shufpd

    dst, src = ops
    if mn == "movsd":
        if isinstance(dst, Xmm) and isinstance(src, Xmm):
            did, sid = dst.id, src.id

            def run_movsd_rr():
                regs.xmm[did][0] = regs.xmm[sid][0]
                regs.rip = end
            return run_movsd_rr
        if isinstance(dst, Xmm):
            did = dst.id
            rd = _reader_u64(cpu, src, True)
            if rd is None:
                return None

            def run_movsd_load():
                lanes = regs.xmm[did]
                lanes[0] = rd()
                lanes[1] = 0
                regs.rip = end
            return run_movsd_load
        if isinstance(src, Xmm):
            sid = src.id
            wr = _writer_u64(cpu, dst, True)
            if wr is None:
                return None

            def run_movsd_store():
                wr(regs.xmm[sid][0])
                regs.rip = end
            return run_movsd_store
        return None

    if mn in ("movapd", "movupd"):
        if isinstance(dst, Xmm):
            did = dst.id
            rd = _reader_128(cpu, src)
            if rd is None:
                return None

            def run_movapd_load():
                lo, hi = rd()
                lanes = regs.xmm[did]
                lanes[0] = lo
                lanes[1] = hi
                regs.rip = end
            return run_movapd_load
        if isinstance(src, Xmm) and isinstance(dst, Mem):
            sid = src.id
            ea = _ea_factory(regs, dst)
            store8 = _store8_factory(mem, True)

            def run_movapd_store():
                lanes = regs.xmm[sid]
                a = ea()
                store8(a, lanes[0])
                store8(a + 8, lanes[1])
                regs.rip = end
            return run_movapd_store
        return None

    if mn in ("movhpd", "movlpd"):
        lane = 1 if mn == "movhpd" else 0
        if isinstance(dst, Xmm):
            did = dst.id
            rd = _reader_u64(cpu, src, True)
            if rd is None:
                return None

            def run_movxpd_load():
                regs.xmm[did][lane] = rd()
                regs.rip = end
            return run_movxpd_load
        if isinstance(src, Xmm):
            sid = src.id
            wr = _writer_u64(cpu, dst, True)
            if wr is None:
                return None

            def run_movxpd_store():
                wr(regs.xmm[sid][lane])
                regs.rip = end
            return run_movxpd_store
        return None

    if mn == "movq":
        if isinstance(dst, Xmm):
            did = dst.id
            rd = _reader_u64(cpu, src, isinstance(src, Mem))
            if rd is None:
                return None

            def run_movq_load():
                lanes = regs.xmm[did]
                lanes[0] = rd()
                lanes[1] = 0
                regs.rip = end
            return run_movq_load
        if isinstance(src, Xmm):
            sid = src.id
            wr = _writer_u64(cpu, dst, isinstance(dst, Mem))
            if wr is None:
                return None

            def run_movq_store():
                wr(regs.xmm[sid][0])
                regs.rip = end
            return run_movq_store
        return None

    if mn == "movddup":
        if not isinstance(dst, Xmm):
            return None
        did = dst.id
        rd = _reader_u64(cpu, src, True)
        if rd is None:
            return None

        def run_movddup():
            lo = rd()
            lanes = regs.xmm[did]
            lanes[0] = lo
            lanes[1] = lo
            regs.rip = end
        return run_movddup

    if mn == "unpcklpd":
        if not isinstance(dst, Xmm):
            return None
        did = dst.id
        rd = _reader_128(cpu, src)
        if rd is None:
            return None

        def run_unpcklpd():
            slo, _ = rd()
            regs.xmm[did][1] = slo
            regs.rip = end
        return run_unpcklpd

    if mn == "unpckhpd":
        if not isinstance(dst, Xmm):
            return None
        did = dst.id
        rd = _reader_128(cpu, src)
        if rd is None:
            return None

        def run_unpckhpd():
            _, shi = rd()
            lanes = regs.xmm[did]
            lanes[0] = lanes[1]
            lanes[1] = shi
            regs.rip = end
        return run_unpckhpd

    return None


def _bind_int_mov(uop: MicroOp, cpu):
    regs = cpu.regs
    mem = cpu.mem
    mn = uop.mnemonic
    ops = uop.instr.operands
    end = uop.end

    if mn == "mov":
        dst, src = ops
        rd = _reader_sized(cpu, src, False)
        if rd is None:
            return None
        if isinstance(dst, Mem) and dst.size != 8:
            ea = _ea_factory(regs, dst)
            size = dst.size

            def run_mov_sized():
                mem.observed_store(ea(), rd(), size, False)
                regs.rip = end
            return run_mov_sized
        wr = _writer_u64(cpu, dst, False)
        if wr is None:
            return None

        def run_mov():
            wr(rd())
            regs.rip = end
        return run_mov

    if mn == "lea":
        dst, src = ops
        if not isinstance(dst, Reg) or not isinstance(src, Mem):
            return None
        rid = dst.id
        ea = _ea_factory(regs, src)

        def run_lea():
            regs.gpr[rid] = ea()
            regs.rip = end
        return run_lea

    if mn == "push":
        rd = _reader_u64(cpu, ops[0], False)
        if rd is None:
            return None
        store8 = _raw_store8_factory(mem)

        def run_push():
            v = rd()
            rsp = (regs.gpr[7] - 8) & U64
            regs.gpr[7] = rsp
            store8(rsp, v)
            regs.rip = end
        return run_push

    if mn == "pop":
        wr = _writer_u64(cpu, ops[0], False)
        if wr is None:
            return None
        load8 = _raw_load8_factory(mem)

        def run_pop():
            rsp = regs.gpr[7]
            v = load8(rsp)
            regs.gpr[7] = (rsp + 8) & U64
            wr(v)
            regs.rip = end
        return run_pop

    if mn == "xchg":
        a, b = ops
        rd_a = _reader_u64(cpu, a, False)
        rd_b = _reader_u64(cpu, b, False)
        wr_a = _writer_u64(cpu, a, False)
        wr_b = _writer_u64(cpu, b, False)
        if None in (rd_a, rd_b, wr_a, wr_b):
            return None

        def run_xchg():
            va = rd_a()
            vb = rd_b()
            wr_a(vb)
            wr_b(va)
            regs.rip = end
        return run_xchg

    return None


def _s64(v: int) -> int:
    v &= U64
    return v - (1 << 64) if v >= (1 << 63) else v


def _bind_int_alu(uop: MicroOp, cpu):
    regs = cpu.regs
    mn = uop.mnemonic
    ops = uop.instr.operands
    end = uop.end
    parity = _PARITY

    rd0 = _reader_u64(cpu, ops[0], False)
    if rd0 is None:
        return None
    writes = mn not in ("cmp", "test")
    wr0 = _writer_u64(cpu, ops[0], False) if writes else None
    if writes and wr0 is None:
        return None

    if mn in ("add", "sub", "cmp"):
        rd1 = _reader_u64(cpu, ops[1], False)
        if rd1 is None:
            return None
        adding = mn == "add"

        def run_addsub():
            a = rd0()
            b = rd1()
            f = regs.flags
            if adding:
                r = (a + b) & U64
                f.cf = (a + b) > U64
                f.of = (_s64(a) + _s64(b)) != _s64(r)
            else:
                r = (a - b) & U64
                f.cf = a < b
                f.of = (_s64(a) - _s64(b)) != _s64(r)
            f.zf = r == 0
            f.sf = bool(r >> 63)
            f.pf = parity[r & 0xFF]
            if wr0 is not None:
                wr0(r)
            regs.rip = end
        return run_addsub

    if mn in ("and", "or", "xor", "test"):
        rd1 = _reader_u64(cpu, ops[1], False)
        if rd1 is None:
            return None
        kind = "and" if mn in ("and", "test") else mn

        def run_logic():
            a = rd0()
            b = rd1()
            r = a & b if kind == "and" else (a | b if kind == "or" else a ^ b)
            f = regs.flags
            f.cf = f.of = False
            f.zf = r == 0
            f.sf = bool(r >> 63)
            f.pf = parity[r & 0xFF]
            if wr0 is not None:
                wr0(r)
            regs.rip = end
        return run_logic

    if mn == "imul":
        rd1 = _reader_u64(cpu, ops[1], False)
        if rd1 is None:
            return None

        def run_imul():
            a = _s64(rd0())
            b = _s64(rd1())
            full = a * b
            r = full & U64
            f = regs.flags
            f.cf = f.of = _s64(r) != full
            f.zf = r == 0
            f.sf = bool(r >> 63)
            f.pf = parity[r & 0xFF]
            wr0(r)
            regs.rip = end
        return run_imul

    if mn in ("shl", "shr", "sar"):
        rd1 = _reader_u64(cpu, ops[1], False)
        if rd1 is None:
            return None

        def run_shift():
            a = rd0()
            count = rd1() & 63
            if count:
                f = regs.flags
                if mn == "shl":
                    f.cf = bool((a >> (64 - count)) & 1)
                    r = (a << count) & U64
                elif mn == "shr":
                    f.cf = bool((a >> (count - 1)) & 1)
                    r = a >> count
                else:
                    f.cf = bool((a >> (count - 1)) & 1)
                    r = (_s64(a) >> count) & U64
                f.zf = r == 0
                f.sf = bool(r >> 63)
                f.pf = parity[r & 0xFF]
                wr0(r)
            regs.rip = end
        return run_shift

    if mn in ("inc", "dec"):
        delta = 1 if mn == "inc" else -1

        def run_incdec():
            a = rd0()
            r = (a + delta) & U64
            f = regs.flags
            f.of = _s64(a) + delta != _s64(r)
            f.zf = r == 0
            f.sf = bool(r >> 63)
            f.pf = parity[r & 0xFF]
            wr0(r)
            regs.rip = end
        return run_incdec

    if mn == "neg":
        def run_neg():
            a = rd0()
            r = (-a) & U64
            f = regs.flags
            f.cf = a != 0
            f.of = a == (1 << 63)
            f.zf = r == 0
            f.sf = bool(r >> 63)
            f.pf = parity[r & 0xFF]
            wr0(r)
            regs.rip = end
        return run_neg

    if mn == "not":
        def run_not():
            wr0((~rd0()) & U64)
            regs.rip = end
        return run_not

    return None


def bind_control(uop: MicroOp, cpu):
    """Bind a tail closure for a control-flow micro-op.  Tail closures
    perform their own retire accounting (cost/count/class), mirroring
    the seed's handler-then-retire order exactly — in particular a host
    function body runs *before* the call instruction retires."""
    regs = cpu.regs
    mn = uop.mnemonic
    ops = uop.instr.operands
    next_rip = uop.end
    cost = uop.cost
    rbc = cpu.retired_by_class
    ctrl = OpClass.CONTROL
    prog = cpu.program
    mem = cpu.mem

    def _target(op):
        if isinstance(op, Label):
            if op.addr is not None and op.addr != -1:
                t = op.addr
                return lambda: t
            name = op.name
            return lambda: prog.resolve(name)
        if isinstance(op, Reg):
            rid = op.id
            return lambda: regs.gpr[rid]
        return None

    if mn == "jmp":
        tgt = _target(ops[0])
        if tgt is None:
            return None

        def run_jmp():
            regs.rip = tgt()
            cpu.cycles += cost
            cpu.work_cycles += cost
            cpu.instruction_count += 1
            rbc[ctrl] += 1
        return run_jmp

    if mn == "call":
        tgt = _target(ops[0])
        if tgt is None:
            return None
        hosts = prog.host_functions
        store8 = _raw_store8_factory(mem)

        def run_call():
            target = tgt()
            host = hosts.get(target)
            if host is not None:
                cpu.cycles += host.cost
                cpu.work_cycles += host.cost
                regs.rip = next_rip
                host.fn(cpu)
            else:
                rsp = (regs.gpr[7] - 8) & U64
                regs.gpr[7] = rsp
                store8(rsp, next_rip)
                regs.rip = target
            cpu.cycles += cost
            cpu.work_cycles += cost
            cpu.instruction_count += 1
            rbc[ctrl] += 1
        return run_call

    if mn == "ret":
        load8 = _raw_load8_factory(mem)

        def run_ret():
            rsp = regs.gpr[7]
            addr = load8(rsp)
            regs.gpr[7] = (rsp + 8) & U64
            if addr == _RETURN_SENTINEL:
                cpu.halted = True
            else:
                regs.rip = addr
            cpu.cycles += cost
            cpu.work_cycles += cost
            cpu.instruction_count += 1
            rbc[ctrl] += 1
        return run_ret

    cond = CONDITION_CODES.get(mn)
    if cond is None:
        return None
    tgt = _target(ops[0])
    if tgt is None:
        return None

    def run_jcc():
        regs.rip = tgt() if cond(regs.flags) else next_rip
        cpu.cycles += cost
        cpu.work_cycles += cost
        cpu.instruction_count += 1
        rbc[ctrl] += 1
    return run_jcc


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

    Superblock bodies are closures bound over one CPU's registers and
    memory accessors, so the blocks themselves cannot be shared across
    threads; what *is* shared is the invalidation state.  ``epoch`` is
    the cache's cursor into ``Program.patch_events`` (numerically equal
    to the last ``patch_seq`` processed, which keeps the historic name
    honest): when the program's sequence moves, :meth:`sync` walks only
    the *new* suffix of patched addresses and drops exactly the
    superblocks whose ``[entry, end)`` covers a changed site.  Every
    thread's unrelated blocks survive, turning a patch from a
    process-wide cache flush into a local event.  The per-site walk is
    still cross-thread sound: a patch made by thread A drops thread B's
    covering blocks in the same sync, exactly like the old wholesale
    flush.  The sequence emulator's compiled traces are not kept here:
    :class:`~repro.core.sequences.SequenceEmulator` owns them and their
    invalidation.
    """

    __slots__ = ("views", "epoch", "capacity", "cached_blocks",
                 "invalidations", "evictions",
                 "invalidated_blocks", "survived_blocks")

    #: the patch cursor, a setting and a gauge: not counts.
    UNMERGED = ("epoch", "capacity", "cached_blocks")

    def __init__(self, capacity: int = 4096) -> None:
        #: id(cpu) -> {entry: Superblock} — cleared in place, never
        #: rebound, because engines hold direct references.
        self.views: dict[int, dict[int, Superblock]] = {}
        self.epoch: int | None = None
        self.capacity = capacity
        self.cached_blocks = 0
        #: syncs that actually dropped blocks (per-site, so a patch
        #: with no covering block does not count).
        self.invalidations = 0
        #: capacity evictions (wholesale, unlike the per-site sync).
        self.evictions = 0
        #: superblocks dropped because their range covered a patched
        #: site (cumulative across syncs).
        self.invalidated_blocks = 0
        #: superblocks that survived a per-site sync (summed per sync —
        #: under the old epoch scheme this was identically zero).
        self.survived_blocks = 0

    def view(self, cpu) -> dict[int, Superblock]:
        """The per-thread entry->Superblock map for ``cpu``.  Keyed by
        ``id(cpu)``: a cache's views belong to one standalone CPU or to
        the threads of one Process, whose ``threads`` list keeps them
        all alive, so no two of them can share an address."""
        return self.views.setdefault(id(cpu), {})

    def _drop_all(self) -> None:
        for view in self.views.values():
            view.clear()
        self.cached_blocks = 0

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
        """Per-site invalidation across every thread/guest view."""
        dropped_any = False
        for view in self.views.values():
            for blk in list(view.values()):
                if any(blk.entry <= a < blk.end for a in sites):
                    del view[blk.entry]
                    self.cached_blocks -= 1
                    self.invalidated_blocks += 1
                    dropped_any = True
            self.survived_blocks += len(view)
        if dropped_any:
            self.invalidations += 1
        return dropped_any

    def evict_all(self) -> None:
        """Drop everything to bound the cache (counts as an eviction,
        not an invalidation)."""
        self.evictions += 1
        self._drop_all()


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
        #: closures bound; stretches sliced from live blocks bind none.
        self.uops_bound = 0
        self.block_runs = 0
        #: bodies whose fitting *prefix* was retired through the
        #: pipeline at a budget edge.
        self.partial_block_runs = 0
        self.uops_retired = 0
        #: body closures that returned a #XF ``Trap``, delivered by the
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
    traps FP closures decide.

    Block storage lives in the CPU's :class:`SuperblockCache` (shared
    by every thread of a process); the engine holds that cache's
    per-thread view."""

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        cache = shared_cache(cpu)
        self.cache = cache
        #: this CPU's entry -> Superblock view of the shared cache.
        #: The cache clears it *in place*, so this reference never
        #: goes stale across invalidations.
        self._blocks = cache.view(cpu)
        #: address -> entry of the newest block covering it: retains no block.
        self._inner: dict[int, int] = {}
        #: wraps closures at bind time (``uop=None``: the single step).
        self._probe = probe = cpu.probe
        self._step = cpu.step if probe is None else probe(None, cpu.step)
        self.stats = UopStats()

    def close(self) -> None:
        """Drop the references back to the CPU (``Process.close``);
        ``stats`` stays readable and the engine does not run again."""
        self.cpu = self._step = self._probe = None

    def _new_block(self, entry: int) -> Superblock:
        cache = self.cache
        if cache.cached_blocks >= cache.capacity:
            cache.evict_all()
        block = self._build(entry)
        self._blocks[entry] = block
        cache.cached_blocks += 1
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
        (``thread_join``); a closure's #XF ``Trap`` is delivered as that
        step (:meth:`_deliver_xf`), and the quantum continues.  The
        checkpoint single-steps at a patch site and while MXCSR.RC is
        directed: no body closure writes MXCSR's RC field, and tails
        that run host code return to the checkpoint.  Never exceeds
        ``budget``: a body that does not fit retires only its fitting
        prefix (every closure is one seed step and leaves RIP correct,
        so stopping after ``k`` of them is stopping between steps), and
        the tail is skipped once the budget is exhausted.

        Retire accounting is deferred: ``runs`` counts full body runs
        per block, and ``i`` micro-ops of the in-flight body ``cur``
        have retired.  :meth:`_settle` charges them before
        ``cpu.step()`` or a trap delivery, before a tail that may run
        host code (see :func:`_pure_tail`), at quantum exit, and in the
        ``finally`` when an exception escapes, so every observer of the
        counters sees single-stepping's values.  Between those points only body
        closures and pure tails run; they touch architectural state
        alone (tails bump the counters themselves, which is
        order-independent integer addition).
        """
        cpu = self.cpu
        regs = cpu.regs
        prog = cpu.program
        patches = prog.patches
        cache = self.cache
        blocks = self._blocks
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
                    step()
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
                        out = fn()
                        if out is not None:
                            break
                        i += 1
                    retired += i
                    if i < k:             # a #XF Trap; i < k <= avail
                        settle(runs, cur, i)
                        cur = None
                        stats.fp_trap_exits += 1
                        retired += 1
                        self._deliver_xf(block.uops[i], out)
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
                    # No runnable block (sys/unmapped/odd shape): seed step.
                    if runs:
                        settle(runs)
                    step()
                    retired += 1
                    stats.single_steps += 1
                    continue
                if not block.pure_tail:
                    settle(runs)
                tail()
                retired += 1
                tails += 1
        finally:
            settle(runs, cur, i)
            stats.uops_retired += tails

        stats.quantum_exits[exit_reason] += 1
        return retired

    def _deliver_xf(self, uop: MicroOp, trap) -> None:
        """Deliver the #XF a body closure returned for ``uop``, after
        what ``cpu._exec_fp`` does before its own delivery: the trapped
        instruction's lanes are marked (the handler emulates into them)
        and the trap is counted.  It does not retire."""
        cpu = self.cpu
        cpu.fp_quantum_touched = True
        cpu.regs.fp_dirty |= uop.xmm_writes
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
        stretches a live block covers out of its bound closures."""
        cpu = self.cpu
        prog = cpu.program
        by_addr = prog.by_addr
        patches = prog.patches
        probe = self._probe
        blocks = self._blocks
        inner = self._inner
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
            # in range and fixed code from its entry, so its closures are
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
                tail = bind_control(uop, cpu)
                if tail is not None:
                    if probe is not None:
                        tail = probe(uop, tail)
                    pure_tail = _pure_tail(uop, prog)
                    end = addr + uop.size
                    self.stats.uops_bound += 1
                break
            if cls is OpClass.SYS:
                break
            fn = bind_exec(uop, cpu)
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
