"""The CPU interpreter.

Executes a :class:`~repro.machine.program.Program` with precise,
fault-style SSE floating point exceptions: when an FP instruction
raises a condition whose MXCSR mask bit is clear, the instruction does
*not* retire — the CPU delivers a #XF trap to the attached kernel and
leaves RIP at the faulting instruction, exactly the x64 behaviour FPVM
is built on (§2.3).

Breakpoint (#BP) traps come from patched ``int3`` pre-hooks (the
e9patch model of correctness instrumentation, §2.6) and magic-trap
pre-hooks invoke their trampoline entirely in user space (§5.2).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from repro.errors import MachineError
from repro.fpu import fast
from repro.fpu.ieee import FPFlags, ieee_op
from repro.machine.costs import DEFAULT_COSTS, CostModel
from repro.machine.isa import (
    CONDITION_CODES,
    Imm,
    Instruction,
    Label,
    Mem,
    OPCODES,
    OpClass,
    Reg,
    Xmm,
)
from repro.machine.memory import PROT_EXEC, PROT_READ, PROT_WRITE, Memory, PAGE_SIZE
from repro.machine.program import PatchKind, Program, STACK_TOP
from repro.machine.registers import Flags, RegisterFile, rounding_mode, unmasked_status
from repro.machine.uops import UOPS_DEFAULT

U64 = 0xFFFF_FFFF_FFFF_FFFF
#: Return address sentinel: a ``ret`` to this address halts the machine.
RETURN_SENTINEL = 0xDEAD_0000


class TrapKind(enum.Enum):
    XF = "#XF"  # SIMD floating point exception
    BP = "#BP"  # breakpoint (int3)

    __hash__ = object.__hash__  # identity, as OpClass: counted per delivery


@dataclass
class Trap:
    kind: TrapKind
    addr: int                      # faulting instruction address
    instruction: Instruction | None
    fp_flags: FPFlags | None = None


#: The execution tiers — label -> the ``uops`` flag for :class:`CPU`
#: and ``Process``.  ``interp`` is the seed single-step interpreter
#: (the oracle); ``chained`` runs cached superblocks through the
#: engine loop.
TIERS: dict[str, bool] = {"interp": False, "chained": True}
#: every micro-op tier: the tiers above the ``interp`` oracle.
ENGINE_TIERS = tuple(tier for tier, uops in TIERS.items() if uops)


def s64(v: int) -> int:
    v &= U64
    return v - (1 << 64) if v >= (1 << 63) else v


class CPU:
    """One simulated hardware thread."""

    def __init__(
        self,
        program: Program,
        costs: CostModel = DEFAULT_COSTS,
        max_instructions: int = 100_000_000,
        uops: bool | None = None,
    ):
        self._init_core(program, costs, max_instructions, uops=uops)
        self.mem = Memory()
        self._load_image()

    def _init_core(
        self,
        program: Program,
        costs: CostModel = DEFAULT_COSTS,
        max_instructions: int = 100_000_000,
        uops: bool | None = None,
    ) -> None:
        """Initialise every per-core field *except* memory and the loaded
        image.  ``__init__`` and :meth:`repro.machine.process.Process.spawn`
        both route through here, so a field added for one construction
        path cannot silently be missing from the other (spawned thread
        CPUs share the process memory instead of loading a fresh image).
        """
        self.program = program
        self.costs = costs
        self.max_instructions = max_instructions
        #: thread id within a Process (0 for a standalone CPU).
        self.tid = 0
        #: owning Process, if any (thread-API host functions dispatch
        #: through this so profiling copies never spawn into the
        #: original process).
        self.process = None
        self.regs = RegisterFile()
        self.cycles = 0
        #: cycles the *guest* earned (retired instructions + host-library
        #: bodies).  Everything else in ``cycles`` is delivery/handler
        #: machinery, which the FPVM ledger accounts for category by
        #: category — so an attached run must satisfy
        #: ``cycles == work_cycles + ledger.total()`` exactly.
        self.work_cycles = 0
        self.instruction_count = 0
        self.retired_by_class: Counter = Counter()
        self.fp_trap_count = 0
        self.bp_trap_count = 0
        self.output: list[str] = []
        #: the attached kernel (None = bare metal; unmasked FP faults
        #: then raise MachineError).  Must expose deliver_trap(cpu, trap).
        self.kernel = None
        self.halted = False
        #: blocked in a synchronization call (thread_join); the process
        #: scheduler skips blocked threads until the condition clears.
        self.blocked = False
        #: model of "disabling the floating point hardware altogether"
        #: (§2.3): every FP-arith instruction faults unconditionally.
        self.fp_disabled = False
        #: lazy-FP (§3.1): set when any FP-class instruction retires in
        #: the current scheduler quantum.  The interpreter sets it per
        #: step in the FP handlers; the uop engine batch-sets it per
        #: superblock dispatch from the block's lowering-time summary.
        #: Consumed (and cleared) by Process.run at each quantum edge.
        self.fp_quantum_touched = False
        #: the thread's FP save area (host-side spill target): a dict
        #: of lane index -> value under the lazy discipline, a full
        #: bank copy under the eager one.  None until first spilled.
        self._fp_save = None
        #: one-shot patch suppression so a handler can single-step the
        #: patched instruction after demoting (paper §2.6).  Consumed by
        #: the next fetch dispatch regardless of RIP — a lingering flag
        #: could silently skip a later pre-hook at that address.
        self._suppress_patch_at: int | None = None
        #: run() through the pre-decoded micro-op pipeline (uops.py)
        #: instead of the single-step interpreter loop (on by default);
        #: semantics are identical either way — the engine falls back
        #: to step() wherever it must.
        self.uops_enabled = UOPS_DEFAULT if uops is None else uops
        #: the SuperblockCache holding this core's blocks.  A Process
        #: installs its shared per-process cache here (one patch-epoch
        #: mirror for all threads) before the engine is created; left
        #: None, the engine creates a private one on first use.
        self._sb_cache = None
        self._uop_engine = None

    # --------------------------------------------------------------- setup
    def _load_image(self) -> None:
        prog = self.program
        # Text: read+exec, NOT writable => excluded from the GC page scan.
        # Patches are pre-hook metadata, never byte splices, so guest
        # loads from TEXT_BASE never observe instrumentation.
        text = prog.text
        addr = prog.text_base
        end = prog.text_base + len(text)
        while addr < end:
            self.mem.map_page(addr, PROT_READ | PROT_EXEC)
            addr += PAGE_SIZE
        if text:
            # finalize needs writability while loading the image
            for pg in range(prog.text_base, end, PAGE_SIZE):
                self.mem.protect(pg, PROT_READ | PROT_WRITE)
            self.mem.write_bytes(prog.text_base, text)
            for pg in range(prog.text_base, end, PAGE_SIZE):
                self.mem.protect(pg, PROT_READ | PROT_EXEC)
        if prog.data:
            self.mem.write_bytes(prog.data_base, prog.data)
        self.regs.rip = prog.entry
        rsp = STACK_TOP - 64
        self.regs.write_gpr(7, rsp)  # rsp
        self.mem.write_u64(rsp, RETURN_SENTINEL)

    # ------------------------------------------------------------- running
    def _engine(self):
        """The lazily-created micro-op engine for this core."""
        if self._uop_engine is None:
            from repro.machine.uops import UopEngine

            self._uop_engine = UopEngine(self)
        return self._uop_engine

    def run(self, max_steps: int | None = None) -> None:
        """Run to halt as quanta of the remaining step budget, on every
        tier; raises MachineError once ``max_steps`` steps (default
        ``max_instructions``) pass without a halt — a program halting
        on exactly its last allowed step finishes cleanly."""
        limit = max_steps if max_steps is not None else self.max_instructions
        steps = 0
        while not self.halted:
            if self.blocked:
                raise MachineError("run blocked in thread_join outside "
                                   "a process scheduler")
            if steps >= limit:
                raise MachineError(f"run exceeded {limit} steps (runaway?)")
            steps += self.run_quantum(limit - steps)

    def run_quantum(self, budget: int) -> int:
        """Execute up to ``budget`` scheduler steps and return how many
        were taken.  One "step" here has exactly the semantics of one
        :meth:`step` call — a trap-delivering non-retiring step still
        counts — so a batched scheduler quantum is step-for-step
        identical to the seed ``quantum × step()`` loop.

        With uops enabled the quantum dispatches whole superblocks
        through :meth:`UopEngine.run_quantum`; otherwise it is the seed
        single-step loop.  Returns early (possibly 0) on halt or block.
        """
        if budget <= 0 or self.halted or self.blocked:
            return 0
        if self.uops_enabled:
            return self._engine().run_quantum(budget)
        steps = 0
        while steps < budget and not (self.halted or self.blocked):
            self.step()
            steps += 1
        return steps

    @property
    def uop_stats(self):
        """Host-side micro-op engine counters (None when the pipeline
        has not run on this CPU)."""
        return self._uop_engine.stats if self._uop_engine is not None else None

    def step(self) -> None:
        """One instruction through the explicit pipeline stages:
        fetch (patch pre-hooks + decode), dispatch, execute, retire."""
        if self.halted:
            return
        instr = self._fetch_stage()
        if instr is None:
            return  # int3 pre-hook delivered a #BP; nothing fetched
        handler = _DISPATCH[instr.mnemonic]        # dispatch stage
        if handler(self, instr) is not False:      # execute stage
            self._retire(instr)

    def _fetch_stage(self) -> Instruction | None:
        """Run patch pre-hooks at RIP and decode the instruction there.

        Returns None when an ``int3`` pre-hook fired (the #BP trap was
        delivered; the instruction does not execute this step).  Magic
        pre-hooks run their trampoline in user space and fall through —
        the patched instruction executes natively in this same step.

        Fetch reads ``program.patches`` and ``program.by_addr``; the
        text bytes in guest memory are data only and are never
        decoded.  The one-shot suppress flag set by
        :meth:`resume_at` is consumed by this dispatch *regardless* of
        RIP — a re-delivered trap that resumes somewhere else must not
        leave a live skip for a later pre-hook at the original address.
        """
        rip = self.regs.rip
        prog = self.program
        suppress = self._suppress_patch_at
        if suppress is not None:
            self._suppress_patch_at = None
        patch = prog.patches.get(rip)
        if patch is not None and suppress != rip:
            if patch.kind is PatchKind.INT3:
                self.bp_trap_count += 1
                self._deliver(Trap(TrapKind.BP, rip, prog.by_addr.get(rip)))
                return None
            self.cycles += self.costs.magic_call + self.costs.magic_save_restore
            patch.trampoline(self, rip)

        instr = prog.by_addr.get(rip)
        if instr is None:
            raise MachineError(f"execution fell into unmapped code at {rip:#x}")
        return instr

    def _retire(self, instr: Instruction) -> None:
        self.cycles += instr.info.cost
        self.work_cycles += instr.info.cost
        self.instruction_count += 1
        self.retired_by_class[instr.opclass] += 1

    def _deliver(self, trap: Trap) -> None:
        if self.kernel is None:
            raise MachineError(f"unhandled trap {trap.kind.value} at {trap.addr:#x}")
        self.kernel.deliver_trap(self, trap)

    def resume_at(self, addr: int, suppress_patch: bool = False) -> None:
        """Used by trap handlers: continue execution at ``addr``; with
        ``suppress_patch`` the pre-hook at that address is skipped once
        (single-step-over semantics)."""
        self.regs.rip = addr
        self._suppress_patch_at = addr if suppress_patch else None

    # ------------------------------------------------------ operand access
    def effective_address(self, mem: Mem) -> int:
        ea = mem.disp
        if mem.base is not None:
            ea += self.regs.gpr[_gpr_id(mem.base)]
        if mem.index is not None:
            ea += self.regs.gpr[_gpr_id(mem.index)] * mem.scale
        return ea & U64

    def read_u64_operand(self, op, fp: bool) -> int:
        """Read a 64-bit value from a GPR, XMM lane 0, imm or memory."""
        if isinstance(op, Reg):
            return self.regs.gpr[op.id]
        if isinstance(op, Xmm):
            return self.regs.xmm[op.id][0]
        if isinstance(op, Imm):
            return op.value & U64
        if isinstance(op, Mem):
            return self.mem.observed_load(self.effective_address(op), 8, fp)
        raise MachineError(f"cannot read operand {op!r}")

    def read_sized_operand(self, op, fp: bool) -> int:
        if isinstance(op, Mem) and op.size != 8:
            return self.mem.observed_load(self.effective_address(op), op.size, fp)
        return self.read_u64_operand(op, fp)

    def write_u64_operand(self, op, value: int, fp: bool) -> None:
        if isinstance(op, Reg):
            self.regs.write_gpr(op.id, value)
        elif isinstance(op, Xmm):
            self.regs.write_xmm_lane(op.id, 0, value)
        elif isinstance(op, Mem):
            self.mem.observed_store(self.effective_address(op), value, op.size, fp)
        else:
            raise MachineError(f"cannot write operand {op!r}")

    def read_xmm_or_mem128(self, op) -> tuple[int, int]:
        if isinstance(op, Xmm):
            return self.regs.read_xmm128(op.id)
        if isinstance(op, Mem):
            ea = self.effective_address(op)
            lo = self.mem.observed_load(ea, 8, True)
            hi = self.mem.observed_load(ea + 8, 8, True)
            return lo, hi
        raise MachineError(f"cannot read 128-bit operand {op!r}")

    def push(self, value: int) -> None:
        rsp = (self.regs.gpr[7] - 8) & U64
        self.regs.write_gpr(7, rsp)
        self.mem.write_u64(rsp, value)

    def pop(self) -> int:
        rsp = self.regs.gpr[7]
        value = self.mem.read_u64(rsp)
        self.regs.write_gpr(7, (rsp + 8) & U64)
        return value

    # ------------------------------------------------- FP arith (trappable)
    def _exec_fp(self, instr: Instruction):
        """Returns False if the instruction faulted (did not retire)."""
        regs = self.regs
        # Lazy-FP: coarse per-step marking, FP opclasses only.  Marked
        # before the trap branches — a trapped instruction is emulated
        # into the same destination lanes by the handler this step.
        self.fp_quantum_touched = True
        regs.fp_dirty |= instr.xmm_writes()
        if self.fp_disabled:
            # FP hardware off: fault before any evaluation (#NM-style).
            self.fp_trap_count += 1
            self._deliver(Trap(TrapKind.XF, instr.addr, instr, FPFlags()))
            return False
        unmasked = unmasked_status(regs.mxcsr | 0x3F)  # which masks are clear
        if unmasked:
            results = self._evaluate_fp(instr, self._exact_evaluator())
            flags = FPFlags()
            for r in results:
                flags = flags | r.flags
            if flags.as_mxcsr_status() & unmasked:
                self.fp_trap_count += 1
                self._deliver(Trap(TrapKind.XF, instr.addr, instr, flags))
                return False
            self._commit_fp(instr, [r.bits for r in results])
            regs.mxcsr |= flags.as_mxcsr_status()
            regs.rip = instr.addr + instr.size
            return True
        # Native: values only, no flag bookkeeping.  The fast path
        # implements round-to-nearest only; a nondefault MXCSR.RC
        # routes through the exact oracle.
        if rounding_mode(regs.mxcsr) == "ne":
            values = self._evaluate_fp(instr, fast.evaluate)
        else:
            values = [r.bits for r in
                      self._evaluate_fp(instr, self._exact_evaluator())]
        self._commit_fp(instr, values)
        regs.rip = instr.addr + instr.size
        return True

    def _fp_sources(self, instr: Instruction) -> list[int]:
        """Per-lane (a, b) source bit patterns for the IEEE oracle,
        flattened as [lane0_a, lane0_b, lane1_a, lane1_b, ...]."""
        mn = instr.mnemonic
        info = instr.info
        ops = instr.operands
        if mn == "vfmadd213sd":
            return [
                self.regs.xmm[ops[1].id][0],              # src2 (multiplier)
                self.regs.xmm[ops[0].id][0],              # dst  (multiplicand)
                self.read_u64_operand(ops[2], fp=True),   # src3 (addend)
            ]
        if mn == "cvtsi2sd":
            return [self.read_u64_operand(ops[1], fp=False)]
        if mn in ("cvttsd2si", "cvtsd2si"):
            return [self.read_u64_operand(ops[1], fp=True)]
        if mn in ("sqrtsd",):
            return [self.read_u64_operand(ops[1], fp=True)]
        if mn == "sqrtpd":
            lo, hi = self.read_xmm_or_mem128(ops[1])
            return [lo, hi]
        if info.lanes == 2:
            dlo, dhi = self.regs.read_xmm128(ops[0].id)
            slo, shi = self.read_xmm_or_mem128(ops[1])
            return [dlo, slo, dhi, shi]
        # Scalar binary: dst lane0 op src64.
        a = self.regs.xmm[ops[0].id][0]
        b = self.read_u64_operand(ops[1], fp=True)
        return [a, b]

    def _exact_evaluator(self):
        """``ieee_op`` under the current MXCSR rounding mode."""
        mode = rounding_mode(self.regs.mxcsr)
        return lambda op, *src: ieee_op(op, *src, mode=mode)

    def _evaluate_fp(self, instr: Instruction, evaluate) -> list:
        """Apply ``evaluate(op, *operands)`` per lane of ``instr``:
        :func:`repro.fpu.fast.evaluate` for result bits, or the exact
        oracle for :class:`~repro.fpu.ieee.FPResult`\\ s with flags."""
        ieee = instr.info.ieee
        src = self._fp_sources(instr)
        mn = instr.mnemonic
        if mn == "vfmadd213sd":
            return [evaluate("fma", src[0], src[1], src[2])]
        if mn in ("sqrtsd", "cvtsi2sd", "cvttsd2si", "cvtsd2si"):
            return [evaluate(ieee, src[0])]
        if mn == "sqrtpd":
            return [evaluate(ieee, src[0]), evaluate(ieee, src[1])]
        if instr.info.lanes == 2:
            return [evaluate(ieee, src[0], src[1]),
                    evaluate(ieee, src[2], src[3])]
        return [evaluate(ieee, src[0], src[1])]

    def _commit_fp(self, instr: Instruction, values: list[int]) -> None:
        mn = instr.mnemonic
        ops = instr.operands
        regs = self.regs
        if mn in ("ucomisd", "comisd"):
            packed = values[0]
            f = regs.flags
            f.zf = bool(packed & 1)
            f.pf = bool(packed & 2)
            f.cf = bool(packed & 4)
            f.sf = False
            f.of = False
            return
        if mn in ("cvttsd2si", "cvtsd2si"):
            self.write_u64_operand(ops[0], values[0], fp=False)
            return
        if instr.info.lanes == 2:
            regs.write_xmm128(ops[0].id, values[0], values[1])
            return
        # Scalar result -> low lane, high lane preserved.
        regs.write_xmm_lane(ops[0].id, 0, values[0])

    # --------------------------------------------------------- FP bitwise
    def _exec_fp_bitwise(self, instr: Instruction):
        self.fp_quantum_touched = True
        self.regs.fp_dirty |= instr.xmm_writes()
        mn = instr.mnemonic
        ops = instr.operands
        dlo, dhi = self.regs.read_xmm128(ops[0].id)
        slo, shi = self.read_xmm_or_mem128(ops[1])
        if mn == "xorpd":
            lo, hi = dlo ^ slo, dhi ^ shi
        elif mn == "andpd":
            lo, hi = dlo & slo, dhi & shi
        elif mn == "orpd":
            lo, hi = dlo | slo, dhi | shi
        else:  # andnpd: dst = ~dst & src
            lo, hi = (~dlo & U64) & slo, (~dhi & U64) & shi
        self.regs.write_xmm128(ops[0].id, lo, hi)
        self.regs.rip = instr.addr + instr.size
        return True

    # ------------------------------------------------------------ FP moves
    def _exec_fp_mov(self, instr: Instruction):
        self.fp_quantum_touched = True
        self.regs.fp_dirty |= instr.xmm_writes()
        mn = instr.mnemonic
        regs = self.regs
        if mn == "shufpd":
            dst, src, imm = instr.operands
            dlo, dhi = regs.read_xmm128(dst.id)
            slo, shi = self.read_xmm_or_mem128(src)
            ctrl = imm.value
            regs.write_xmm128(
                dst.id,
                dhi if ctrl & 1 else dlo,
                shi if ctrl & 2 else slo,
            )
            regs.rip = instr.addr + instr.size
            return True
        dst, src = instr.operands
        if mn == "movsd":
            if isinstance(dst, Xmm) and isinstance(src, Xmm):
                regs.write_xmm_lane(dst.id, 0, regs.xmm[src.id][0])
            elif isinstance(dst, Xmm):
                regs.write_xmm128(dst.id, self.read_u64_operand(src, fp=True), 0)
            else:
                self.write_u64_operand(dst, regs.xmm[src.id][0], fp=True)
        elif mn in ("movapd", "movupd"):
            if isinstance(dst, Xmm):
                lo, hi = self.read_xmm_or_mem128(src)
                regs.write_xmm128(dst.id, lo, hi)
            else:
                lo, hi = regs.read_xmm128(src.id)
                ea = self.effective_address(dst)
                self.mem.observed_store(ea, lo, 8, True)
                self.mem.observed_store(ea + 8, hi, 8, True)
        elif mn == "movhpd":
            if isinstance(dst, Xmm):
                regs.write_xmm_lane(dst.id, 1, self.read_u64_operand(src, fp=True))
            else:
                self.write_u64_operand(dst, regs.xmm[src.id][1], fp=True)
        elif mn == "movlpd":
            if isinstance(dst, Xmm):
                regs.write_xmm_lane(dst.id, 0, self.read_u64_operand(src, fp=True))
            else:
                self.write_u64_operand(dst, regs.xmm[src.id][0], fp=True)
        elif mn == "movq":
            if isinstance(dst, Xmm):
                value = self.read_u64_operand(src, fp=isinstance(src, Mem))
                regs.write_xmm128(dst.id, value, 0)
            elif isinstance(src, Xmm):
                # The porous path: FP bits flow into the integer world.
                self.write_u64_operand(dst, regs.xmm[src.id][0],
                                       fp=isinstance(dst, Mem))
            else:
                raise MachineError("movq needs an XMM operand")
        elif mn == "movddup":
            lo = self.read_u64_operand(src, fp=True)
            regs.write_xmm128(dst.id, lo, lo)
        elif mn == "unpcklpd":
            slo, _ = self.read_xmm_or_mem128(src)
            regs.write_xmm_lane(dst.id, 1, slo)   # dst.hi = src.lo
        elif mn == "unpckhpd":
            dlo, dhi = regs.read_xmm128(dst.id)
            _, shi = self.read_xmm_or_mem128(src)
            regs.write_xmm128(dst.id, dhi, shi)   # dst = {dst.hi, src.hi}
        else:  # pragma: no cover
            raise MachineError(f"unimplemented FP move {mn}")
        regs.rip = instr.addr + instr.size
        return True

    # ------------------------------------------------------------ int moves
    def _exec_int_mov(self, instr: Instruction):
        mn = instr.mnemonic
        ops = instr.operands
        regs = self.regs
        if mn == "mov":
            dst, src = ops
            value = self.read_sized_operand(src, fp=False)
            if isinstance(dst, Mem) and dst.size != 8:
                self.mem.observed_store(self.effective_address(dst), value, dst.size, False)
            else:
                self.write_u64_operand(dst, value, fp=False)
        elif mn == "lea":
            dst, src = ops
            regs.write_gpr(dst.id, self.effective_address(src))
        elif mn == "push":
            self.push(self.read_u64_operand(ops[0], fp=False))
        elif mn == "pop":
            self.write_u64_operand(ops[0], self.pop(), fp=False)
        elif mn == "xchg":
            a, b = ops
            va = self.read_u64_operand(a, fp=False)
            vb = self.read_u64_operand(b, fp=False)
            self.write_u64_operand(a, vb, fp=False)
            self.write_u64_operand(b, va, fp=False)
        regs.rip = instr.addr + instr.size
        return True

    # -------------------------------------------------------------- int ALU
    def _exec_int_alu(self, instr: Instruction):
        mn = instr.mnemonic
        ops = instr.operands
        f = self.regs.flags
        if mn in ("add", "sub", "cmp"):
            a = self.read_u64_operand(ops[0], fp=False)
            b = self.read_u64_operand(ops[1], fp=False)
            if mn == "add":
                r = (a + b) & U64
                f.cf = (a + b) > U64
                f.of = (s64(a) + s64(b)) != s64(r)
            else:
                r = (a - b) & U64
                f.cf = a < b
                f.of = (s64(a) - s64(b)) != s64(r)
            _set_zsp(f, r)
            if mn != "cmp":
                self.write_u64_operand(ops[0], r, fp=False)
        elif mn in ("and", "or", "xor", "test"):
            a = self.read_u64_operand(ops[0], fp=False)
            b = self.read_u64_operand(ops[1], fp=False)
            r = a & b if mn in ("and", "test") else (a | b if mn == "or" else a ^ b)
            f.cf = f.of = False
            _set_zsp(f, r)
            if mn != "test":
                self.write_u64_operand(ops[0], r, fp=False)
        elif mn == "imul":
            a = s64(self.read_u64_operand(ops[0], fp=False))
            b = s64(self.read_u64_operand(ops[1], fp=False))
            full = a * b
            r = full & U64
            f.cf = f.of = s64(r) != full
            _set_zsp(f, r)
            self.write_u64_operand(ops[0], r, fp=False)
        elif mn in ("shl", "shr", "sar"):
            a = self.read_u64_operand(ops[0], fp=False)
            count = self.read_u64_operand(ops[1], fp=False) & 63
            if count:
                if mn == "shl":
                    f.cf = bool((a >> (64 - count)) & 1)
                    r = (a << count) & U64
                elif mn == "shr":
                    f.cf = bool((a >> (count - 1)) & 1)
                    r = a >> count
                else:
                    f.cf = bool((a >> (count - 1)) & 1)
                    r = (s64(a) >> count) & U64
                _set_zsp(f, r)
                self.write_u64_operand(ops[0], r, fp=False)
        elif mn == "inc":
            a = self.read_u64_operand(ops[0], fp=False)
            r = (a + 1) & U64
            f.of = s64(a) + 1 != s64(r)
            _set_zsp(f, r)
            self.write_u64_operand(ops[0], r, fp=False)
        elif mn == "dec":
            a = self.read_u64_operand(ops[0], fp=False)
            r = (a - 1) & U64
            f.of = s64(a) - 1 != s64(r)
            _set_zsp(f, r)
            self.write_u64_operand(ops[0], r, fp=False)
        elif mn == "neg":
            a = self.read_u64_operand(ops[0], fp=False)
            r = (-a) & U64
            f.cf = a != 0
            f.of = a == (1 << 63)
            _set_zsp(f, r)
            self.write_u64_operand(ops[0], r, fp=False)
        elif mn == "not":
            a = self.read_u64_operand(ops[0], fp=False)
            self.write_u64_operand(ops[0], (~a) & U64, fp=False)
        self.regs.rip = instr.addr + instr.size
        return True

    # --------------------------------------------------------- control flow
    def _exec_control(self, instr: Instruction):
        mn = instr.mnemonic
        next_rip = instr.addr + instr.size
        if mn == "jmp":
            self.regs.rip = self._branch_target(instr.operands[0])
        elif mn == "call":
            target = self._branch_target(instr.operands[0])
            host = self.program.host_functions.get(target)
            if host is not None:
                self.cycles += host.cost
                self.work_cycles += host.cost
                self.regs.rip = next_rip
                host.fn(self)
            else:
                self.push(next_rip)
                self.regs.rip = target
        elif mn == "ret":
            addr = self.pop()
            if addr == RETURN_SENTINEL:
                self.halted = True
            else:
                self.regs.rip = addr
        else:  # conditional jumps
            taken = CONDITION_CODES[mn](self.regs.flags)
            self.regs.rip = self._branch_target(instr.operands[0]) if taken else next_rip
        return True

    def _branch_target(self, op) -> int:
        if isinstance(op, Label):
            if op.addr is not None and op.addr != -1:
                return op.addr
            # External symbol: dynamic (PLT-style) binding via the
            # rewritable symbol table -- the interposition point.
            return self.program.resolve(op.name)
        if isinstance(op, Reg):
            return self.regs.gpr[op.id]
        raise MachineError(f"bad branch target {op!r}")

    # --------------------------------------------------------------- system
    def _exec_sys(self, instr: Instruction):
        mn = instr.mnemonic
        if mn == "hlt":
            self.halted = True
            return True
        if mn == "int3":
            self.bp_trap_count += 1
            self._deliver(Trap(TrapKind.BP, instr.addr, instr))
            return False
        # nop
        self.regs.rip = instr.addr + instr.size
        return True


def _set_zsp(f: Flags, r: int) -> None:
    f.zf = r == 0
    f.sf = bool(r >> 63)
    f.pf = _PARITY[r & 0xFF]


def _gpr_id(name: str) -> int:
    from repro.machine.isa import GPR_IDS

    return GPR_IDS[name]


_PARITY = [bin(i).count("1") % 2 == 0 for i in range(256)]


#: Mnemonic -> the ``CPU`` method that executes it, unbound: a table of
#: bound methods per CPU would tie each CPU into a reference cycle.
_BY_CLASS = {
    OpClass.FP_ARITH: CPU._exec_fp, OpClass.FP_CVT: CPU._exec_fp,
    OpClass.FP_BITWISE: CPU._exec_fp_bitwise, OpClass.FP_MOV: CPU._exec_fp_mov,
    OpClass.INT_MOV: CPU._exec_int_mov, OpClass.INT_ALU: CPU._exec_int_alu,
    OpClass.CONTROL: CPU._exec_control,
}
_DISPATCH = {mn: _BY_CLASS.get(info.opclass, CPU._exec_sys) for mn, info in OPCODES.items()}
