"""The step-wise reference for the §5.1 profiler.

:class:`MemoryEscapeProfiler` runs its pass on the chained engine,
reading each access's instruction address from the running thread's
RIP and unwinding the stack only after instructions that move ``rsp``.
This oracle is the pass it replaced: the same shadow memory, driven
one ``CPU.step`` at a time in the same 32-step round-robin, recording
the address before each step and checking ``rsp`` after every one.
It always uses the round-robin, and its stack unwind scans the whole
marked set, so it shares neither the one-dispatch drive nor the
bounded unwind with the pass it checks.
"""

from types import SimpleNamespace

from repro.core.profiler import MemoryEscapeProfiler, ProfileResult
from repro.machine.process import Process


class SteppedProfiler(MemoryEscapeProfiler):
    def _unwind_stack(self, tid: int, rsp: int) -> None:
        floor = self._floors[tid]
        if rsp > floor:
            for b in {b for b in self._marked if floor <= b < rsp}:
                self._marked.discard(b)
        self._floors[tid] = rsp

    def run(self, max_steps: int = 50_000_000) -> ProfileResult:
        process = Process(self.program)
        process.mem.observers.append(self._observe)
        floors = self._floors
        steps = 0
        while steps < max_steps:
            runnable = process.alive()
            if not runnable:
                break
            for thread in runnable:
                regs = thread.regs
                floors.setdefault(thread.tid, regs.gpr[7])
                for _ in range(32):
                    if thread.halted or thread.blocked:
                        break
                    self._regs = SimpleNamespace(rip=regs.rip)
                    thread.step()
                    self._unwind_stack(thread.tid, regs.gpr[7])
                    steps += 1
        return self.result
