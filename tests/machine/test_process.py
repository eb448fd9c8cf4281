"""Process/thread substrate tests, and FPVM per-thread virtualization
(§2.1: thread startup interception, per-thread contexts)."""

import pytest

from repro.core.vm import FPVM, FPVMConfig
from repro.fpu import bits as B
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.hostlib import install_host_library
from repro.machine.process import Process
from repro.machine.registers import MXCSR_DEFAULT

from .forking import fork

f2b = B.float_to_bits

#: main spawns a worker that sums doubles into its own accumulator
#: slot; main sums into another; main joins then prints both.
THREADED_SRC = """
.data
step: .double 0.1
acc: .double 0.0, 0.0
n: .quad 40
.text
worker:
  ; rdi = accumulator index
  mov rcx, [rip + n]
  mov rbx, acc
  xorpd xmm0, xmm0
wtop:
  addsd xmm0, [rip + step]
  dec rcx
  jne wtop
  movsd [rbx + rdi*8], xmm0
  ret

main:
  mov rdi, worker
  mov rsi, 1
  call thread_create
  mov r12, rax          ; worker tid
  mov rdi, 0
  call worker_inline
  mov rdi, r12
  call thread_join
  movsd xmm0, [rip + acc]
  call print_f64
  movsd xmm0, [rip + acc + 8]
  call print_f64
  hlt

worker_inline:
  mov rcx, [rip + n]
  mov rbx, acc
  xorpd xmm0, xmm0
itop:
  addsd xmm0, [rip + step]
  dec rcx
  jne itop
  movsd [rbx + rdi*8], xmm0
  ret
"""


def build_process():
    prog = assemble(THREADED_SRC)
    install_host_library(prog)
    proc = Process(prog)
    proc.kernel = LinuxKernel()
    return proc


EXPECTED = None


def expected_output():
    global EXPECTED
    if EXPECTED is None:
        proc = build_process()
        proc.run()
        EXPECTED = list(proc.main.output)
    return EXPECTED


class TestProcessSubstrate:
    def test_two_threads_compute(self):
        out = expected_output()
        assert len(out) == 2
        assert out[0] == out[1]  # same loop, same result
        assert float(out[0]) == pytest.approx(4.0, abs=1e-9)

    def test_thread_ids(self):
        proc = build_process()
        proc.run()
        assert [t.tid for t in proc.threads] == [0, 1]
        assert all(t.halted for t in proc.threads)

    def test_shared_memory(self):
        proc = build_process()
        proc.run()
        acc = proc.program.symbols["acc"]
        assert proc.mem.read_u64(acc) != 0
        assert proc.mem.read_u64(acc + 8) != 0

    def test_join_blocks_until_done(self):
        # The main thread's second print depends on the worker's store;
        # with the join in place the outputs are deterministic.
        assert expected_output() == expected_output()

    def test_total_cycles_aggregates(self):
        proc = build_process()
        proc.run()
        assert proc.total_cycles > proc.main.cycles
        assert proc.total_cycles == sum(t.cycles for t in proc.threads)

    def test_join_unknown_thread_fails(self):
        prog = assemble("main:\n  mov rdi, 99\n  call thread_join\n  hlt\n")
        install_host_library(prog)
        proc = Process(prog)
        proc.kernel = LinuxKernel()
        with pytest.raises(RuntimeError, match="unknown thread"):
            proc.run()

    def test_fork_copies_memory(self):
        proc = build_process()
        proc.run()
        child = fork(proc)
        acc = proc.program.symbols["acc"]
        assert child.mem.read_u64(acc) == proc.mem.read_u64(acc)
        child.mem.write_u64(acc, 0)
        assert proc.mem.read_u64(acc) != 0  # isolated after fork


class TestFPVMMultithreaded:
    @pytest.mark.parametrize("config", [
        FPVMConfig.none(), FPVMConfig.seq_short(),
    ], ids=["NONE", "SEQ_SHORT"])
    def test_bit_for_bit_across_threads(self, config):
        proc = build_process()
        kernel = LinuxKernel()
        vm = FPVM(config).attach_process(proc, kernel)
        proc.run()
        assert proc.main.output == expected_output()
        assert vm.telemetry.traps > 0

    def test_spawned_thread_gets_context(self):
        proc = build_process()
        kernel = LinuxKernel()
        vm = FPVM(FPVMConfig.seq_short()).attach_process(proc, kernel)
        proc.run()
        from repro.machine.registers import MXCSR_FPVM

        worker = proc.threads[1]
        assert worker.regs.mxcsr == MXCSR_FPVM
        assert kernel.fpvm_module.is_registered(worker)

    def test_both_threads_trap(self):
        proc = build_process()
        kernel = LinuxKernel()
        FPVM(FPVMConfig.seq_short()).attach_process(proc, kernel)
        proc.run()
        assert proc.threads[0].fp_trap_count > 0
        assert proc.threads[1].fp_trap_count > 0

    def test_gc_sees_other_threads_registers(self):
        """A boxed value live only in a descheduled thread's register
        must survive GC triggered from another thread."""
        proc = build_process()
        kernel = LinuxKernel()
        vm = FPVM(FPVMConfig.seq_short(gc_threshold=8)).attach_process(proc, kernel)
        proc.run(quantum=4)  # fine interleaving to stress cross-thread GC
        assert proc.main.output == expected_output()
        assert vm.telemetry.gc_runs > 0

    def test_detach_revokes_all_threads(self):
        """Detach closes every thread's registration and restores every
        thread's FP environment, not just the main thread's."""
        proc = build_process()
        kernel = LinuxKernel()
        vm = FPVM(FPVMConfig.seq_short(trap_all_fp=True)).attach_process(proc, kernel)
        proc.run()
        assert len(proc.threads) > 1
        vm.detach()
        for t in proc.threads:
            assert not kernel.fpvm_module.is_registered(t)
            assert t.regs.mxcsr == MXCSR_DEFAULT
            assert t.fp_disabled is False

    def test_signal_path_multithreaded(self):
        proc = build_process()
        kernel = LinuxKernel()
        FPVM(FPVMConfig.none()).attach_process(proc, kernel)
        proc.run()
        assert proc.main.output == expected_output()

    def test_forked_child_revirtualizes(self):
        """§2.1: FPVM's constructors run on every fork so subprocesses
        stay virtualized — the child re-attaches and still traps."""
        proc = build_process()
        child = fork(proc)
        kernel = LinuxKernel()
        vm = FPVM(FPVMConfig.seq_short()).attach_process(child, kernel)
        child.run()
        assert vm.telemetry.traps > 0
        assert child.main.output == expected_output()
