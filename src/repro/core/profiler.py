"""The PIN-like memory-escape profiler (§5.1).

Instruments every memory operation of a *native* profiling run with
shadow memory:

- an FP-typed store marks its 8-byte block "contains a float";
- an integer store (or stack release) unmarks the block;
- an integer load from a marked block records the loading instruction
  as a patch site.

Developers "patch their application for FPVM by simply profiling it
with the same workload" — the harness does exactly that before an
instrumented run.  The profiler finds a subset of the static
analysis's sites because it observes one concrete execution.

The pass runs on the chained engine.  A program that may spawn a
thread runs in 32-step round-robin quanta, as the scheduler would; one
that provably cannot (:func:`may_spawn`) runs its only thread in one
dispatch of the same budget, rounded up to whole quanta, so the engine
builds whole superblocks instead of slicing one at every quantum edge.
RIP moves only after an instruction's memory traffic.  One bind-time
probe per process (``SuperblockCache.probe``) wraps exactly the
micro-op functions that move ``rsp`` (and the single-step fallback);
every thread runs the same blocks, so a wrapper unwinds the stack of
the thread it is called with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.isa import Label, OpClass, Reg
from repro.machine.program import Program


@dataclass
class ProfileResult:
    patch_sites: set[int] = field(default_factory=set)
    fp_stores: int = 0
    int_loads_of_floats: int = 0
    #: addresses of memory blocks that ever held a float (diagnostics).
    ever_marked: set[int] = field(default_factory=set)


_RSP = Reg("rsp")
#: instructions that move ``rsp`` without naming it as an operand.
_STACK_MNEMONICS = frozenset({"push", "pop", "call", "ret"})
#: steps per thread per round-robin turn.
QUANTUM = 32


def may_spawn(program: Program) -> bool:
    """Whether a run of ``program`` might call ``thread_create``: some
    control transfer has a register target, or its label resolves (as
    ``CPU._branch_target`` resolves it) to that host function.  Read
    the program only after ``Process`` has installed the thread API."""
    spawners = {addr for addr, host in program.host_functions.items()
                if host.name == "thread_create"}
    symbols = program.symbols
    for instr in program.instructions:
        if instr.opclass is not OpClass.CONTROL:
            continue
        for op in instr.operands:
            if isinstance(op, Reg):
                return True
            if isinstance(op, Label):
                addr = op.addr
                if addr is None or addr == -1:
                    addr = symbols.get(op.name)
                if addr in spawners:
                    return True
    return False


class MemoryEscapeProfiler:
    """Owns a profiling run over an uninstrumented program."""

    def __init__(self, program: Program):
        # Never instrument the caller's program object.
        self.program = program.copy()
        self.program.clear_patches()
        self.result = ProfileResult()
        self._marked: set[int] = set()
        self._regs = None   # registers of the thread now running
        #: tid -> stack floor: ``rsp`` after the thread's last instruction.
        self._floors: dict[int, int] = {}

    # ---------------------------------------------------------- observer
    def _observe(self, addr: int, size: int, kind: str, value: int) -> None:
        block = addr & ~7
        if kind == "fp_store":
            self._marked.add(block)
            if size == 16:
                self._marked.add(block + 8)
            self.result.fp_stores += 1
            self.result.ever_marked.add(block)
        elif kind == "int_store":
            self._marked.discard(block)
        elif kind == "int_load":
            if block in self._marked:
                self.result.patch_sites.add(self._regs.rip)
                self.result.int_loads_of_floats += 1
        # fp_load: no shadow change.

    def _unwind_stack(self, tid: int, rsp: int) -> None:
        """Stack unwinding unmarks released slots (§5.1's unmark list)."""
        floor = self._floors[tid]
        if rsp > floor:
            marked = self._marked
            # Every marked block is 8-aligned: walk the released blocks
            # when there are fewer of them than marked blocks.
            start = (floor + 7) & ~7
            if (rsp - start + 7) >> 3 < len(marked):
                for b in range(start, rsp, 8):
                    marked.discard(b)
            else:
                for b in [b for b in marked if floor <= b < rsp]:
                    marked.discard(b)
        self._floors[tid] = rsp

    def _attach(self, process, thread) -> None:
        """Start ``thread``'s stack floor before it first runs."""
        self._floors[thread.tid] = thread.regs.gpr[7]

    def _probe(self, uop, fn):
        """The unwinding wrapper of ``fn(cpu)``, or ``fn`` itself when
        ``uop`` cannot move ``rsp``."""
        if uop is not None and uop.mnemonic not in _STACK_MNEMONICS \
                and _RSP not in uop.operands:
            return fn
        unwind = self._unwind_stack

        def unwinding(cpu):
            out = fn(cpu)
            unwind(cpu.tid, cpu.regs.gpr[7])
            return out
        return unwinding

    # --------------------------------------------------------------- run
    def run(self, max_steps: int = 50_000_000) -> ProfileResult:
        """Drive a fresh, isolated process under instrumentation — PIN
        instruments the whole process, spawned threads included, and
        profiling must never have side effects on the process being
        virtualized.

        A program that cannot spawn (:func:`may_spawn`) runs its one
        thread in one dispatch.  Both drives retire the same
        instructions in the same order: a lone thread's round-robin is
        its quanta back to back, and both stop at the first whole
        quantum at or past ``max_steps``."""
        from repro.machine.process import Process

        process = Process(self.program)
        process.mem.observers.append(self._observe)
        process.sb_cache.probe = self._probe
        self._attach(process, process.main)
        process.on_thread_spawn.append(self._attach)
        if may_spawn(self.program):
            steps = 0
            while steps < max_steps:
                runnable = process.alive()
                if not runnable:
                    break
                for thread in runnable:
                    self._regs = thread.regs
                    steps += thread.run_quantum(QUANTUM)
        else:
            self._regs = process.main.regs
            process.main.run_quantum(-(-max_steps // QUANTUM) * QUANTUM)
        process.close()
        return self.result


def profile_patch_sites(program: Program, max_steps: int = 50_000_000) -> set[int]:
    """Convenience wrapper: the set of instruction addresses needing
    correctness patches, per one profiled execution."""
    return MemoryEscapeProfiler(program).run(max_steps).patch_sites
