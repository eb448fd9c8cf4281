"""Processes and threads (§2.1).

FPVM "intercepts the startup of new threads using pthread or clone()
so that FPVM can create an execution context for each thread", and its
constructors re-run on fork so subprocesses stay virtualized (a forked
child is one more :class:`Process` for FPVM to attach to).  This
module provides the substrate: a :class:`Process` owns the address
space and a set of :class:`~repro.machine.cpu.CPU` thread contexts
scheduled round-robin on one simulated core, plus pthread-flavoured
host functions (``thread_create`` / ``thread_join``) that binaries can
call.

Interception hooks: ``Process.on_thread_spawn`` callbacks fire for
every new thread — that is where FPVM attaches per-thread state (mxcsr
unmasking, device registration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeadlockError, StepLimitError
from repro.machine.cpu import CPU, RETURN_SENTINEL
from repro.machine.isa import GPR_IDS
from repro.machine.program import HostFunction, Program, STACK_TOP

#: each thread gets a 64 KiB stack carved below the previous one.
THREAD_STACK_STRIDE = 0x1_0000

RDI = GPR_IDS["rdi"]
RSI = GPR_IDS["rsi"]
RAX = GPR_IDS["rax"]


class Process:
    """One simulated process: shared memory, N thread contexts."""

    def __init__(
        self,
        program: Program,
        costs=None,
        max_instructions: int = 100_000_000,
        uops: bool | None = None,
        lazy_fp: bool = True,
    ):
        from repro.machine.costs import DEFAULT_COSTS
        from repro.core.telemetry import SchedulerStats
        from repro.machine.uops import SuperblockCache

        self.program = program
        self.costs = costs or DEFAULT_COSTS
        self.max_instructions = max_instructions
        main = CPU(program, self.costs, max_instructions, uops=uops)
        main.tid = 0
        main.process = self
        #: the process-wide superblock cache: one set of blocks and one
        #: cursor into ``Program.patch_events``, shared by every thread
        #: CPU, so a patch made by any thread drops the blocks *covering
        #: that site* in one sync while unrelated warm state survives.
        #: Installed on each CPU before its engine exists (engines
        #: capture it at creation).
        self.sb_cache = SuperblockCache()
        main._sb_cache = self.sb_cache
        self.threads: list[CPU] = [main]
        self.mem = main.mem
        self._joins: dict[int, int] = {}  # waiting tid -> awaited tid
        self._next_stack = STACK_TOP - THREAD_STACK_STRIDE
        #: fired as fn(process, new_thread_cpu) on every spawn.
        self.on_thread_spawn: list = []
        #: (waiting_tid, awaited_tid) in the order joins were satisfied
        #: — the scheduler-order observable the conformance axis checks.
        self.join_log: list[tuple[int, int]] = []
        #: batched-quantum telemetry, accumulated across run() calls.
        self.sched = SchedulerStats()
        #: lazy-FP discipline (§3.1): a per-process FP owner, zero
        #: save/restore for quanta that touch no FP, and a modeled
        #: #NM-style switch (dirty lanes only) at the first FP touch by
        #: a non-owner thread.  False = the eager full-bank spill at
        #: every context switch (the xsave-everything baseline).
        self.lazy_fp = lazy_fp
        #: the thread owning the FP unit; None = no thread has touched
        #: FP state yet.
        self.fp_owner: CPU | None = None
        #: last thread a quantum was dispatched to (eager-spill and
        #: save-elision accounting both key on actual context switches).
        self._fp_prev_dispatch: CPU | None = None
        self._install_thread_api()

    @property
    def main(self) -> CPU:
        return self.threads[0]

    @property
    def kernel(self):
        return self.main.kernel

    @kernel.setter
    def kernel(self, kernel) -> None:
        for t in self.threads:
            t.kernel = kernel

    # -------------------------------------------------------------- spawn
    def spawn(self, entry: int, arg: int = 0) -> int:
        """clone()-alike: a new thread context sharing the address
        space, starting at ``entry`` with ``arg`` in rdi.

        The thread core is built through :meth:`CPU._init_core` — the
        same path ``CPU.__init__`` uses — so every per-core field
        (including the uop pipeline's) exists on spawned threads; only
        memory, stdout, kernel and FP mode are then rebound to the
        process-shared state.
        """
        thread = CPU.__new__(CPU)
        thread._init_core(
            self.program,
            self.costs,
            self.max_instructions,
            uops=self.main.uops_enabled,
        )
        thread.mem = self.mem                      # shared address space
        thread.output = self.main.output           # shared stdout
        thread.kernel = self.main.kernel
        thread.fp_disabled = self.main.fp_disabled
        thread._sb_cache = self.sb_cache           # shared block cache
        thread.process = self

        rsp = self._next_stack - 64
        self._next_stack -= THREAD_STACK_STRIDE
        thread.regs.write_gpr(GPR_IDS["rsp"], rsp)
        self.mem.write_u64(rsp, RETURN_SENTINEL)
        thread.regs.rip = entry
        thread.regs.write_gpr(RDI, arg)
        thread.tid = len(self.threads)
        self.threads.append(thread)
        for hook in self.on_thread_spawn:
            hook(self, thread)
        return thread.tid

    # ---------------------------------------------------------------- run
    def alive(self) -> list[CPU]:
        out = []
        for t in self.threads:
            if t.halted:
                continue
            awaited = self._joins.get(t.tid)
            if awaited is not None:
                if self.threads[awaited].halted:
                    del self._joins[t.tid]  # join satisfied
                    t.blocked = False
                    self.join_log.append((t.tid, awaited))
                else:
                    continue                # still blocked
            out.append(t)
        return out

    def run(self, quantum: int = 64, max_steps: int | None = None) -> None:
        """Round-robin scheduling until every thread halts.

        Each scheduler quantum is one batched :meth:`CPU.run_quantum`
        dispatch: with the uop pipeline enabled the whole quantum runs
        as superblock dispatches inside the engine; with it disabled
        (``CPU(uops=False)``, the ``interp`` tier) the dispatch degrades
        to the seed's single-step loop.  Either way the step accounting
        is identical to ``quantum × thread.step()``, so batched and
        step-wise scheduling are bit-identical in every observable.
        """
        limit = max_steps if max_steps is not None else self.max_instructions
        sched = self.sched
        sched.quantum = quantum
        lazy = self.lazy_fp
        steps = 0
        while True:
            runnable = self.alive()
            if not runnable:
                if all(t.halted for t in self.threads):
                    return
                raise DeadlockError("deadlock: all live threads blocked in join")
            for thread in runnable:
                switched_in = thread is not self._fp_prev_dispatch
                if not lazy and switched_in:
                    self._fp_eager_switch(thread)
                self._fp_prev_dispatch = thread
                retired = thread.run_quantum(min(quantum, limit - steps))
                sched.record(thread.tid, retired)
                if lazy:
                    touched = thread.fp_quantum_touched
                    thread.fp_quantum_touched = False
                    if touched and thread is not self.fp_owner:
                        self._fp_nm_switch(thread)
                    elif switched_in:
                        sched.fp_saves_elided += 1
                steps += retired
                if steps >= limit and not all(t.halted for t in self.threads):
                    raise StepLimitError(f"process exceeded {limit} steps")

    # ------------------------------------------------------ lazy FP (§3.1)
    def _fp_nm_switch(self, thread: CPU) -> None:
        """Modeled #NM-style ownership switch: the incoming thread's
        first FP touch this quantum found the unit owned by another
        thread.  Spill only the outgoing owner's *dirty* lanes, reload
        only the lanes ever spilled for the incoming one, and charge
        the per-lane costs — the whole point of the lazy discipline.

        Thread register banks are private in this simulation, so the
        spill/reload below is the modeled *host-side* work (the part
        eager mode pays on every context switch); the live bank stays
        authoritative throughout — which also keeps GC pointer updates
        into parked threads' registers intact."""
        costs = self.costs
        sched = self.sched
        prev = self.fp_owner
        lanes_saved = 0
        if prev is not None:
            dirty = prev.regs.fp_dirty
            lanes_saved = dirty.bit_count()
            if lanes_saved:
                save = prev._fp_save
                if save is None:
                    save = prev._fp_save = {}
                regs_xmm = prev.regs.xmm
                m = dirty
                while m:
                    bit = m & -m
                    idx = bit.bit_length() - 1
                    save[idx] = regs_xmm[idx >> 1][idx & 1]
                    m ^= bit
                prev.regs.fp_live |= dirty
                prev.regs.fp_dirty = 0
        live = thread.regs.fp_live
        lanes_restored = live.bit_count()
        if lanes_restored and thread._fp_save:
            # reload traffic for previously spilled lanes (the values
            # already match the live bank — private banks never drift).
            _ = list(thread._fp_save.values())
        cost = (costs.fp_nm_switch
                + lanes_saved * costs.fp_lane_save
                + lanes_restored * costs.fp_lane_restore)
        thread.cycles += cost
        thread.work_cycles += cost
        sched.fp_switches += 1
        sched.fp_lanes_saved += lanes_saved
        sched.fp_lanes_restored += lanes_restored
        self.fp_owner = thread

    def _fp_eager_switch(self, thread: CPU) -> None:
        """Eager baseline (``lazy_fp=False``): every context switch spills
        the outgoing thread's whole XMM bank and reloads the incoming
        one's, FP user or not — the host-side copy work lazy mode
        elides."""
        prev = self._fp_prev_dispatch
        if prev is not None:
            prev._fp_save = [lanes[:] for lanes in prev.regs.xmm]
        save = thread._fp_save
        _ = [row[:] for row in (save if save is not None else thread.regs.xmm)]
        cost = self.costs.fp_full_switch
        thread.cycles += cost
        thread.work_cycles += cost
        self.sched.fp_eager_switches += 1

    def close(self) -> None:
        """Free what a run left bound (the superblock cache) and break
        the reference cycles each thread keeps (its engine's references
        back to it, its link back to this process), so the process and
        its threads are freed as soon as the caller drops them, with no
        cyclic collection.  Counters stay readable; the process is not
        run again."""
        self.sb_cache.evict_all()
        for thread in self.threads:
            thread.process = None
            if thread._uop_engine is not None:
                thread._uop_engine.close()

    @property
    def total_cycles(self) -> int:
        """Aggregate CPU time across threads (one simulated core)."""
        return sum(t.cycles for t in self.threads)

    # ----------------------------------------------------------- host API
    def _install_thread_api(self) -> None:
        """The host functions dispatch through ``cpu.process`` (set per
        thread), not a closure over this Process — so a *copied*
        program run elsewhere (e.g. the §5.1 profiling pass) spawns
        into its own process, never into this one."""
        program = self.program
        if "thread_create" in program.symbols:
            return  # already installed (e.g. program reuse)
        for spec in THREAD_API:
            program.register_host_function(
                HostFunction(spec.name, spec.fn, cost=spec.cost)
            )


def _owning_process(cpu) -> "Process":
    if cpu.process is None:
        raise RuntimeError(
            "thread API used by a CPU that is not part of a Process"
        )
    return cpu.process


def _thread_create(cpu) -> None:
    proc = _owning_process(cpu)
    entry = cpu.regs.gpr[RDI]
    arg = cpu.regs.gpr[RSI]
    tid = proc.spawn(entry, arg)
    cpu.regs.write_gpr(RAX, tid)


def _thread_join(cpu) -> None:
    proc = _owning_process(cpu)
    tid = cpu.regs.gpr[RDI]
    if not 0 <= tid < len(proc.threads):
        raise RuntimeError(f"join of unknown thread {tid}")
    if not proc.threads[tid].halted:
        proc._joins[cpu.tid] = tid
        cpu.blocked = True
    cpu.regs.write_gpr(RAX, 0)


@dataclass(frozen=True)
class ThreadHostFn:
    """Spec for one pthread-flavoured host function — single source of
    truth for registration (:meth:`Process._install_thread_api`) and the
    generated ISA reference (:mod:`repro.machine.isadoc`)."""

    name: str
    fn: object
    cost: int
    signature: str
    description: str


THREAD_API: tuple[ThreadHostFn, ...] = (
    ThreadHostFn(
        "thread_create",
        _thread_create,
        450,
        "rdi=entry, rsi=arg → rax=tid",
        "pthread_create-alike: spawns a thread CPU sharing the address "
        "space, starting at `entry` with `arg` in rdi on a fresh 64 KiB "
        "stack; fires `Process.on_thread_spawn` hooks (where FPVM "
        "attaches per-thread state).",
    ),
    ThreadHostFn(
        "thread_join",
        _thread_join,
        120,
        "rdi=tid → rax=0",
        "pthread_join-alike: blocks the calling thread until thread "
        "`tid` halts (no-op if it already has); the scheduler parks the "
        "caller and wakes it when the join is satisfied.",
    ),
)
