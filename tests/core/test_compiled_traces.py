"""The compiled-trace tier of the sequence emulator: promotion at the
heat threshold, bit-identical replay, the disable knobs, and eviction
when the program's patch state changes."""

from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library


# A tight loop whose emulated trace is identical every iteration, so
# the heat counter reaches any small threshold quickly.
LOOP_SRC = """
.data
a: .double 0.1
b: .double 0.7
n: .quad 40
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + a]
top:
  addsd xmm0, [rip + b]
  mulsd xmm0, [rip + a]
  subsd xmm0, [rip + b]
  dec rcx
  jne top
  call print_f64
  hlt
"""


def run_fpvm(source: str, config: FPVMConfig):
    prog = assemble(source)
    install_host_library(prog)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    cpu.run()
    return cpu, vm


def _summary(cpu, vm):
    t = vm.telemetry
    return (
        cpu.cycles, cpu.instruction_count, tuple(cpu.output),
        cpu.fp_trap_count, cpu.bp_trap_count,
        t.sequences, t.emulated_instructions, t.traps,
        t.decode_hits, t.decode_misses,
        vm.ledger.snapshot(),
    )


class TestPromotion:
    def test_hot_trace_promoted_and_replayed(self):
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short(trace_compile_threshold=2))
        t = vm.telemetry
        assert t.compiled_traces >= 1
        assert t.compiled_trace_hits > 0
        assert vm.sequencer.compiled
        trace = next(iter(vm.sequencer.compiled.values()))
        assert len(trace.steps) >= 2

    def test_threshold_zero_disables_tier(self):
        _, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short(trace_compile_threshold=0))
        assert vm.telemetry.compiled_traces == 0
        assert vm.telemetry.compiled_trace_hits == 0
        assert not vm.sequencer.compiled

    def test_uops_off_disables_promotion(self):
        _, vm = run_fpvm(
            LOOP_SRC,
            FPVMConfig.seq_short(uops=False, trace_compile_threshold=2),
        )
        assert vm.uops_enabled is False
        assert vm.telemetry.compiled_traces == 0


class TestReplayEquivalence:
    def test_compiled_tier_bit_identical(self):
        """Everything the simulation model observes — cycles, ledger,
        trap counts, decode-cache traffic, sequence records — must be
        unchanged by which tier ran the traces."""
        base_cpu, base_vm = run_fpvm(
            LOOP_SRC, FPVMConfig.seq_short(trace_compile_threshold=0))
        fast_cpu, fast_vm = run_fpvm(
            LOOP_SRC, FPVMConfig.seq_short(trace_compile_threshold=2))
        assert fast_vm.telemetry.compiled_trace_hits > 0  # the tier ran
        assert _summary(base_cpu, base_vm) == _summary(fast_cpu, fast_vm)


class TestEviction:
    def test_patch_mid_trace_evicts_compiled_trace(self):
        """Regression: an int3 planted inside an already-compiled trace
        must fire on the next run.  A stale compiled trace would emulate
        straight through the patch site (replay skips patch lookups by
        design), so the epoch flush is the only thing standing between
        us and a silently skipped correctness hook."""
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short(trace_compile_threshold=2))
        assert vm.sequencer.compiled
        trace = next(iter(vm.sequencer.compiled.values()))
        mid_addr = trace.steps[1][0]  # strictly inside the trace body

        assert cpu.bp_trap_count == 0
        vm.program.patch_int3(mid_addr)

        cpu.halted = False
        cpu.resume_at(vm.program.entry)
        cpu.run()

        assert cpu.bp_trap_count > 0, (
            "int3 never fired: a stale compiled trace ran through the "
            "patch site"
        )
        # The sequencer saw the new epoch and dropped the old tier.  The
        # patched address may legitimately re-appear as a trace *entry*
        # (the CPU delivers the int3 before the FP trap there) but never
        # again strictly inside a trace body.
        assert vm.sequencer._epoch == vm.program.patch_seq
        assert mid_addr not in {
            a for t in vm.sequencer.compiled.values() for a, _ in t.steps[1:]
        }
