"""Batched superblock scheduling: `CPU.run_quantum` budget semantics,
the scheduler's quantum telemetry, and batched-vs-stepwise parity for
multi-threaded processes — bare and FPVM-attached."""

import pytest

from repro.core.telemetry import snapshot
from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, ENGINE_TIERS, TIERS
from repro.machine.hostlib import install_host_library
from repro.machine.process import Process
from repro.workloads import build_program

QUANTA = (1, 7, 64)

#: three workers with staggered FP loop lengths: they halt in different
#: scheduler rounds, and main's reverse-order joins park and resume at
#: different times.
_MT_SRC = """
.data
counts: .quad 30, 60, 90
vals: .double 1.0, 1.5, 2.0
k: .double 0.125

.text
worker:
  mov rbx, counts
  mov rcx, [rbx + rdi*8]
  mov rbx, vals
  movsd xmm0, [rbx + rdi*8]
  movsd xmm1, [rip + k]
wloop:
  mulsd xmm0, xmm1
  addsd xmm0, xmm1
  dec rcx
  jne wloop
  mov rbx, vals
  movsd [rbx + rdi*8], xmm0
  ret

main:
  mov rdi, worker
  mov rsi, 0
  call thread_create
  mov rdi, worker
  mov rsi, 1
  call thread_create
  mov rdi, worker
  mov rsi, 2
  call thread_create
  mov rdi, 3
  call thread_join
  mov rdi, 2
  call thread_join
  mov rdi, 1
  call thread_join
  movsd xmm0, [rip + vals]
  call print_f64
  movsd xmm0, [rip + vals + 8]
  call print_f64
  movsd xmm0, [rip + vals + 16]
  call print_f64
  hlt
"""

#: a single-threaded FP loop for run_quantum unit tests.
_LOOP_SRC = """
.data
x: .double 1.0
k: .double 1.0009765625

.text
main:
  mov rcx, 50
  movsd xmm0, [rip + x]
  movsd xmm1, [rip + k]
lp:
  mulsd xmm0, xmm1
  dec rcx
  jne lp
  movsd [rip + x], xmm0
  hlt
"""


def _loop_cpu(uops: bool) -> CPU:
    cpu = CPU(assemble(_LOOP_SRC), uops=uops)
    cpu.kernel = LinuxKernel()
    return cpu


def _mt_process(uops: bool, config: FPVMConfig | None = None):
    program = assemble(_MT_SRC)
    install_host_library(program)
    proc = Process(program, uops=uops)
    kernel = LinuxKernel()
    vm = None
    if config is None:
        proc.kernel = kernel
    else:
        vm = FPVM(config).attach_process(proc, kernel)
    return proc, vm


def _fingerprint(proc: Process) -> dict:
    return {
        "output": tuple(proc.main.output),
        "threads": tuple(
            (t.tid, t.cycles, t.work_cycles, t.instruction_count,
             t.fp_trap_count, t.bp_trap_count)
            for t in proc.threads
        ),
        "join_log": tuple(proc.join_log),
    }


# ------------------------------------------------------- run_quantum
#: the interpreter's and the chained engine's ``uops`` flag; the test
#: ids stay ``[False]``/``[True]``.
_RUN_QUANTUM_UOPS = list(TIERS.values())


class TestRunQuantum:
    @pytest.mark.parametrize("uops", _RUN_QUANTUM_UOPS)
    def test_zero_budget_is_a_noop(self, uops):
        cpu = _loop_cpu(uops)
        assert cpu.run_quantum(0) == 0
        assert cpu.instruction_count == 0

    @pytest.mark.parametrize("uops", _RUN_QUANTUM_UOPS)
    def test_budget_exhaustion_stops_midway(self, uops):
        cpu = _loop_cpu(uops)
        assert cpu.run_quantum(5) == 5
        assert not cpu.halted
        assert cpu.instruction_count == 5

    @pytest.mark.parametrize("uops", _RUN_QUANTUM_UOPS)
    def test_runs_to_halt_within_budget(self, uops):
        cpu = _loop_cpu(uops)
        taken = cpu.run_quantum(10_000)
        assert cpu.halted
        assert taken < 10_000
        reference = _loop_cpu(False)
        reference.run()
        assert taken == reference.instruction_count

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("tier", ENGINE_TIERS)
    def test_budget_never_exceeded(self, budget, tier):
        """Superblock bodies must not run past the budget edge: the
        engine retires a partial body instead.  The whole ledger must also
        match the stepwise seed: exact budget accounting is worthless
        if the batched run books different cycles or traps."""
        cpu = _loop_cpu(TIERS[tier])
        total = 0
        while not cpu.halted:
            taken = cpu.run_quantum(budget)
            assert 0 < taken <= budget
            total += taken
        reference = _loop_cpu(False)
        reference.run()
        assert total == reference.instruction_count
        # trap/cycle ledger parity with the stepwise seed.
        assert cpu.instruction_count == reference.instruction_count
        assert cpu.cycles == reference.cycles
        assert cpu.work_cycles == reference.work_cycles
        assert cpu.fp_trap_count == reference.fp_trap_count
        assert cpu.bp_trap_count == reference.bp_trap_count

    def test_halted_cpu_returns_zero(self):
        cpu = _loop_cpu(True)
        cpu.run_quantum(10_000)
        assert cpu.halted
        assert cpu.run_quantum(64) == 0

    def test_blocked_cpu_returns_zero(self):
        cpu = _loop_cpu(True)
        cpu.blocked = True
        assert cpu.run_quantum(64) == 0
        assert cpu.instruction_count == 0

    def test_quantum_exit_reasons_recorded(self):
        cpu = _loop_cpu(True)
        cpu.run_quantum(7)
        cpu.run_quantum(10_000)
        stats = cpu.uop_stats
        assert stats.quantum_dispatches == 2
        assert stats.quantum_exits["budget"] == 1
        assert stats.quantum_exits["halted"] == 1


# -------------------------------------------------- scheduler telemetry
class TestSchedulerStats:
    def test_quanta_recorded_per_thread(self):
        proc, _ = _mt_process(uops=True)
        proc.run(quantum=7)
        sched = proc.sched
        assert sched.quantum == 7
        assert sched.dispatches > 0
        assert sched.steps == sum(s for _, s in sched.per_thread.values())
        assert set(sched.per_thread) == {0, 1, 2, 3}
        assert 0 < sched.quantum_efficiency <= 7
        doc = snapshot(sched, "sched")
        assert doc["sched.dispatches"] == sched.dispatches
        assert "sched.quantum" not in doc       # a setting, not a count

    def test_efficiency_grows_with_quantum(self):
        """Larger quanta amortize more work per dispatch — the whole
        point of batched superblock scheduling."""
        effs = {}
        for quantum in (1, 64):
            proc, _ = _mt_process(uops=True)
            proc.run(quantum=quantum)
            effs[quantum] = proc.sched.quantum_efficiency
        assert effs[1] <= 1.0
        assert effs[64] > 2 * effs[1]

    def test_host_perf_uop_stats_sum_every_thread(self):
        """``HostPerf.metrics`` of a Process run covers every thread,
        not only main: its step counters equal the per-thread sum."""
        from repro.harness.runner import _process_host_perf

        proc = Process(build_program("lorenz_mt", scale=30, threads=4),
                       uops=True)
        proc.kernel = LinuxKernel()
        proc.run()
        merged = _process_host_perf(proc, seconds=1.0).metrics
        keys = ("uops_retired", "single_steps", "fp_trap_exits")
        per_thread = sum(getattr(t.uop_stats, k)
                         for t in proc.threads for k in keys)
        assert sum(merged[f"uop.{k}"] for k in keys) == per_thread
        main_only = sum(getattr(proc.main.uop_stats, k) for k in keys)
        assert per_thread > main_only          # the workers are counted
        assert merged["uop.quantum_dispatches"] == proc.sched.dispatches


# ------------------------------------------------------ batched parity
class TestBatchedParity:
    @pytest.mark.parametrize("quantum", QUANTA)
    def test_native_parity(self, quantum):
        runs = {}
        for uops in (False, True):
            proc, _ = _mt_process(uops=uops)
            proc.run(quantum=quantum)
            runs[uops] = _fingerprint(proc)
        assert runs[False] == runs[True]

    @pytest.mark.parametrize("quantum", QUANTA)
    @pytest.mark.parametrize("factory", [FPVMConfig.seq, FPVMConfig.short,
                                         FPVMConfig.seq_short],
                             ids=["seq", "short", "seq_short"])
    def test_attached_parity(self, quantum, factory):
        """FPVM-attached MT runs: every acceleration mode, batched vs
        stepwise, per-thread ledgers and join order bit-identical."""
        runs = {}
        for uops in (False, True):
            proc, vm = _mt_process(uops=uops, config=factory())
            proc.run(quantum=quantum)
            runs[uops] = _fingerprint(proc)
            assert vm.telemetry.traps > 0
        assert runs[False] == runs[True]

    def test_lorenz_mt_parity(self):
        runs = {}
        for uops in (False, True):
            proc = Process(build_program("lorenz_mt", scale=30, threads=4),
                           uops=uops)
            proc.kernel = LinuxKernel()
            proc.run()
            runs[uops] = _fingerprint(proc)
        assert runs[False] == runs[True]
        assert len(runs[True]["output"]) == 12  # x, y, z per shard


# --------------------------------------------------- FPVM MT semantics
class TestAttachedThreads:
    def test_on_thread_spawn_propagates_uops(self):
        for uops in (False, True):
            proc, _ = _mt_process(uops=uops,
                                  config=FPVMConfig.seq_short())
            proc.run(quantum=7)
            assert all(t.uops_enabled == uops for t in proc.threads)

    def test_spawned_threads_run_superblocks(self):
        proc, _ = _mt_process(uops=True, config=FPVMConfig.seq_short())
        proc.run(quantum=64)
        worker_stats = [t.uop_stats for t in proc.threads[1:]]
        assert all(s is not None for s in worker_stats)
        assert any(s.block_runs > 0 for s in worker_stats)

    def test_join_while_trapping(self):
        """Main parks in thread_join while the awaited worker is still
        mid-trap-storm; the batched scheduler must keep delivering the
        worker's traps and wake main with bit-identical state."""
        proc, vm = _mt_process(uops=True, config=FPVMConfig.seq())
        proc.run(quantum=7)
        assert proc.join_log  # at least one join actually parked
        assert vm.telemetry.traps > 0
        assert all(t.fp_trap_count > 0 for t in proc.threads[1:])
        native, _ = _mt_process(uops=False)
        native.run(quantum=7)
        assert tuple(proc.main.output) == tuple(native.main.output)
