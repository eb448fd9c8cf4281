"""One set of superblocks per process.

Micro-op functions are bound over the process's memory and take the
running thread's CPU when called, so a block one thread builds runs
unchanged on every thread of its ``Process``: each instruction is bound
once per process, a thread entering another's block mid-body behaves
exactly like the interpreter, a #XF a shared function returns goes to
the thread that ran it, and the §5.1 pass's shared unwind wrappers act
on the running thread's stack."""

import pytest

from repro.core.profiler import MemoryEscapeProfiler
from repro.core.vm import FPVM, FPVMConfig
from repro.harness.configs import named_configs
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import TIERS
from repro.machine.process import Process
from repro.machine.registers import MXCSR_FPVM
from repro.workloads import build_program, get_workload

from tests.core.reference_profiler import SteppedProfiler
from tests.machine.flags import pack_flags


#: steps a run may take: about five times the largest run below, so a
#: thread running on another's registers fails fast instead of spinning.
MAX_STEPS = 100_000


def _stat(proc, name, threads=None):
    return sum(getattr(t.uop_stats, name) for t in (threads or proc.threads)
               if t.uop_stats is not None)


def _seq_short_run(threads, fp_threads, quantum=64, scale=400):
    proc = Process(build_program("mixed_mt", scale, threads=threads, fp_threads=fp_threads))
    FPVM(named_configs("boxed_ieee")["SEQ_SHORT"]).attach_process(proc, LinuxKernel())
    proc.run(quantum=quantum, max_steps=MAX_STEPS)
    return proc


def test_mixed_mt_binds_once_per_process():
    """mixed_mt@400 under SEQ_SHORT at quantum 64 (the ``mixed_mt_proc``
    benchmark op): the threads' counts sum to what the process cache
    holds, 37 blocks and 81 functions, where binding per thread built
    81 blocks and bound 156 functions."""
    proc = _seq_short_run(6, 2)
    cache = proc.sb_cache
    assert cache.invalidated_blocks == cache.evictions == 0
    blocks = cache.blocks.values()
    bodies = {u.addr for b in blocks for u in b.uops}
    tails = {b.uops[-1].end if b.uops else b.entry for b in blocks if b.tail is not None}
    assert _stat(proc, "blocks_built") == len(cache.blocks) == 37
    assert _stat(proc, "uops_bound") == len(bodies) + len(tails) == 81
    assert _stat(proc, "block_runs") == 2498
    assert _stat(proc, "partial_block_runs") == 274
    assert proc.total_cycles == 1_609_613


@pytest.mark.parametrize("quantum", [7, 64])
def test_workers_bind_the_same_with_2_and_6(quantum):
    """Two workers or six running the same worker text bind it the
    same: the workers' per-thread counts sum to the same totals."""
    sums = []
    for threads, fp_threads in ((2, 1), (6, 2)):
        proc = _seq_short_run(threads, fp_threads, quantum, scale=100)
        workers = proc.threads[1:]
        assert len(workers) == threads
        sums.append((_stat(proc, "blocks_built", workers),
                     _stat(proc, "uops_bound", workers)))
    assert sums[0] == sums[1]
    assert sums[0][1] > 0


# ------------------------------------------------- cross-thread entry
def _thread_state(t) -> dict:
    regs = t.regs
    return {"gpr": list(regs.gpr), "xmm": [list(x) for x in regs.xmm],
            "flags": pack_flags(regs.flags), "rip": regs.rip, "mxcsr": regs.mxcsr,
            "cycles": t.cycles, "work": t.work_cycles, "count": t.instruction_count,
            "classes": dict(t.retired_by_class), "fp_dirty": regs.fp_dirty,
            "fp_traps": t.fp_trap_count, "bp_traps": t.bp_trap_count}


def _shared_run(tier: str, mode: str, quantum: int):
    """Two FP workers of mixed_mt running one loop, scheduled with
    ``quantum``; every per-thread observable, the ledger and the
    process."""
    proc = Process(build_program("mixed_mt", 40, threads=2, fp_threads=2), uops=TIERS[tier])
    kernel = LinuxKernel()
    vm = None
    if mode == "native":
        proc.kernel = kernel
    else:
        vm = FPVM(getattr(FPVMConfig, mode)()).attach_process(proc, kernel)
    proc.run(quantum=quantum, max_steps=MAX_STEPS)
    state = {"threads": [_thread_state(t) for t in proc.threads],
             "output": list(proc.main.output),
             "ledger": vm.ledger.snapshot() if vm else None}
    return state, proc


@pytest.mark.parametrize("quantum", [7, 64])
@pytest.mark.parametrize("mode", ["native", "seq_short", "none"])
def test_block_entered_mid_body_by_another_thread_matches_interp(mode, quantum):
    """The second worker binds nothing: it runs the first worker's
    functions, stops inside their bodies at quantum edges and resumes
    there.  Under ``none`` every trap is a signal whose sigreturn
    replaces the thread's register lists."""
    got, proc = _shared_run("chained", mode, quantum)
    want, _ = _shared_run("interp", mode, quantum)
    first, second = proc.threads[1], proc.threads[2]
    assert first.uop_stats.uops_bound > 0
    assert second.uop_stats.uops_bound == 0
    assert second.uop_stats.partial_block_runs > 0
    assert second.uop_stats.block_runs > 0
    if mode != "native":
        assert all(t["fp_traps"] > 0 for t in got["threads"][1:])
    assert got == want


# ------------------------------------------------------------- #XF exit
XF_SRC = """
.data
a: .double 1.0
b: .double 3.0
.text
worker:
  movsd xmm0, [rip + a]
  divsd xmm0, [rip + b]
  addsd xmm0, [rip + b]
  ret
main:
  mov rdi, worker
  mov rsi, 0
  call thread_create
  mov rdi, worker
  mov rsi, 1
  call thread_create
  mov rdi, 1
  call thread_join
  mov rdi, 2
  call thread_join
  hlt
"""


class _RecordingKernel:
    """Records who each trap went to and masks that thread's MXCSR, so
    the trapping instruction retires when it runs again."""

    def __init__(self):
        self.traps = []

    def deliver_trap(self, cpu, trap):
        self.traps.append((cpu.tid, trap.addr))
        cpu.regs.mxcsr |= 0x1F80


def test_xf_from_a_shared_block_goes_to_the_running_thread():
    proc = Process(assemble(XF_SRC), uops=True)
    kernel = _RecordingKernel()
    proc.kernel = kernel
    main = proc.main
    while len(proc.threads) < 3:
        main.run_quantum(1)
    first, second = proc.threads[1], proc.threads[2]
    first.run_quantum(100)                    # builds the block, masked
    assert first.halted and not kernel.traps
    second.regs.mxcsr = MXCSR_FPVM            # unmasked: divsd traps
    second.run_quantum(100)
    assert second.halted
    divsd = next(i.addr for i in proc.program.instructions if i.mnemonic == "divsd")
    assert kernel.traps == [(2, divsd)]
    assert second.uop_stats.fp_trap_exits == 1 and second.fp_trap_count == 1
    assert first.uop_stats.fp_trap_exits == 0 and first.fp_trap_count == 0
    assert second.uop_stats.uops_bound == 0   # it ran the first thread's block
    # The trapped divsd re-ran on the second thread, masked, and the
    # whole worker retired there.
    assert second.instruction_count == first.instruction_count
    assert second.regs.xmm[0][0] == first.regs.xmm[0][0]


# ------------------------------------------------------ §5.1 profiler
#: the pass's result on each workload's quick scale: (sites, FP stores,
#: integer loads of floats), as binding per thread found them.
PASS_RESULTS = {"mixed_mt": (set(), 2, 0), "lorenz_mt": (set(), 12, 0)}


@pytest.mark.parametrize("name", sorted(PASS_RESULTS))
def test_profiler_unwinds_the_running_thread(name, passes, monkeypatch):
    w = get_workload(name)
    program = w.build_program(w.quick_scale or w.default_scale)
    unwinds = []
    profiler = MemoryEscapeProfiler(program)
    real = profiler._unwind_stack

    def spy(tid, rsp):
        unwinds.append((tid, rsp, profiler._regs, profiler._regs.gpr[7]))
        real(tid, rsp)
    monkeypatch.setattr(profiler, "_unwind_stack", spy)
    result = profiler.run()

    proc = passes[0]
    assert (result.patch_sites, result.fp_stores,
            result.int_loads_of_floats) == PASS_RESULTS[name]
    assert len({tid for tid, *_ in unwinds}) == len(proc.threads) > 2
    for tid, rsp, running, running_rsp in unwinds:
        assert running is proc.threads[tid].regs and rsp == running_rsp
    # Threads past the second run blocks the others built.
    assert any(t.uop_stats.uops_bound == 0 and t.uop_stats.block_runs
               for t in proc.threads)

    reference = SteppedProfiler(program)
    assert result == reference.run()
    assert (profiler._marked, profiler._floors) == (reference._marked, reference._floors)
