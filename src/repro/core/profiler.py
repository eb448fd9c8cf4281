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

The pass runs on the chained engine in 32-step round-robin quanta; RIP
moves only after an instruction's memory traffic, and a bind-time
``CPU.probe`` unwinds the stack after exactly the closures that move
``rsp`` (and the single-step fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.isa import Reg
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
            dead = [b for b in self._marked if floor <= b < rsp]
            for b in dead:
                self._marked.discard(b)
        self._floors[tid] = rsp

    def _attach(self, process, thread) -> None:
        """Install the unwind probe on ``thread`` before it first runs."""
        regs = thread.regs
        tid = thread.tid
        unwind = self._unwind_stack
        self._floors[tid] = regs.gpr[7]

        def probe(uop, fn):
            if uop is not None and uop.mnemonic not in _STACK_MNEMONICS \
                    and _RSP not in uop.operands:
                return fn

            def unwinding():
                out = fn()
                unwind(tid, regs.gpr[7])
                return out
            return unwinding
        thread.probe = probe

    # --------------------------------------------------------------- run
    def run(self, max_steps: int = 50_000_000) -> ProfileResult:
        """Drive a fresh, isolated process under instrumentation — PIN
        instruments the whole process, spawned threads included, and
        profiling must never have side effects on the process being
        virtualized."""
        from repro.machine.process import Process

        process = Process(self.program)
        process.mem.observers.append(self._observe)
        self._attach(process, process.main)
        process.on_thread_spawn.append(self._attach)
        steps = 0
        while steps < max_steps:
            runnable = process.alive()
            if not runnable:
                break
            for thread in runnable:
                self._regs = thread.regs
                steps += thread.run_quantum(32)
        # Threads and engines form cycles: free the bound blocks now.
        process.sb_cache.evict_all()
        return self.result


def profile_patch_sites(program: Program, max_steps: int = 50_000_000) -> set[int]:
    """Convenience wrapper: the set of instruction addresses needing
    correctness patches, per one profiled execution."""
    return MemoryEscapeProfiler(program).run(max_steps).patch_sites
