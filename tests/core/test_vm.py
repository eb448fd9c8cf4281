"""End-to-end FPVM tests: attach, trap-and-emulate, sequence emulation,
short-circuiting, GC under load, and the bit-for-bit guarantee."""

import pytest

from repro.core.vm import FPVM, FPVMConfig
from repro.errors import ConfigError
from repro.fpu import bits as B
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library

f2b = B.float_to_bits

LOOP_SRC = """
.data
a: .double 0.1
b: .double 0.2
n: .quad 25
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


def run_native(source: str) -> CPU:
    prog = assemble(source)
    install_host_library(prog)
    cpu = CPU(prog)
    cpu.kernel = LinuxKernel()
    cpu.run()
    return cpu


def run_fpvm(source: str, config: FPVMConfig):
    prog = assemble(source)
    install_host_library(prog)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    cpu.run()
    return cpu, vm


ALL_CONFIGS = [
    ("NONE", FPVMConfig.none()),
    ("SEQ", FPVMConfig.seq()),
    ("SHORT", FPVMConfig.short()),
    ("SEQ_SHORT", FPVMConfig.seq_short()),
]


@pytest.mark.parametrize("name,config", ALL_CONFIGS)
class TestBitForBit:
    def test_output_identical_to_native(self, name, config):
        """§6: Boxed IEEE must give bit-for-bit equal results."""
        native = run_native(LOOP_SRC)
        cpu, _ = run_fpvm(LOOP_SRC, config)
        assert cpu.output == native.output

    def test_register_state_demotes_to_native(self, name, config):
        native = run_native(LOOP_SRC)
        cpu, vm = run_fpvm(LOOP_SRC, config)
        got = vm.emulator.demote_bits(cpu.regs.xmm[0][0])
        assert got == native.regs.xmm[0][0]


class TestTrapBehaviour:
    def test_every_config_traps(self):
        for _, config in ALL_CONFIGS:
            _, vm = run_fpvm(LOOP_SRC, config)
            assert vm.telemetry.traps > 0

    def test_sequence_emulation_reduces_traps(self):
        _, vm_none = run_fpvm(LOOP_SRC, FPVMConfig.none())
        _, vm_seq = run_fpvm(LOOP_SRC, FPVMConfig.seq())
        assert vm_seq.telemetry.traps < vm_none.telemetry.traps
        assert vm_seq.telemetry.avg_sequence_length > 1.5

    def test_emulated_instruction_counts_match(self):
        # SEQ emulates the same FP work, just batched differently.
        _, vm_none = run_fpvm(LOOP_SRC, FPVMConfig.none())
        _, vm_seq = run_fpvm(LOOP_SRC, FPVMConfig.seq())
        assert vm_seq.telemetry.emulated_instructions >= vm_none.telemetry.emulated_instructions

    def test_short_circuit_uses_device(self):
        _, vm = run_fpvm(LOOP_SRC, FPVMConfig.short())
        assert vm.telemetry.short_circuit_traps == vm.telemetry.traps
        assert vm.kernel.signal_counts.get(8, 0) == 0  # no SIGFPE

    def test_signal_path_used_without_short(self):
        _, vm = run_fpvm(LOOP_SRC, FPVMConfig.none())
        assert vm.telemetry.short_circuit_traps == 0
        assert vm.kernel.signal_counts[8] == vm.telemetry.traps

    def test_short_circuit_cheaper(self):
        cpu_none, _ = run_fpvm(LOOP_SRC, FPVMConfig.none())
        cpu_short, _ = run_fpvm(LOOP_SRC, FPVMConfig.short())
        assert cpu_short.cycles < cpu_none.cycles / 2

    def test_seq_short_cheapest(self):
        cycles = {}
        for name, config in ALL_CONFIGS:
            cpu, _ = run_fpvm(LOOP_SRC, config)
            cycles[name] = cpu.cycles
        assert cycles["SEQ_SHORT"] == min(cycles.values())
        assert cycles["NONE"] == max(cycles.values())


class TestLedger:
    def test_categories_populated(self):
        _, vm = run_fpvm(LOOP_SRC, FPVMConfig.none())
        led = vm.ledger.by_category
        for cat in ("hw", "kernel", "ret", "decache", "bind", "emul", "altmath"):
            assert led[cat] > 0, cat

    def test_decode_misses_only_first_encounter(self):
        _, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq())
        assert vm.telemetry.decode_misses <= 8  # distinct FP instrs
        assert vm.telemetry.decode_hits > vm.telemetry.decode_misses

    def test_amortized_breakdown_sums_to_total(self):
        _, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short())
        n = vm.telemetry.emulated_instructions
        am = vm.ledger.amortized(n)
        assert sum(am.values()) == pytest.approx(vm.ledger.total() / n)

    def test_kernel_category_drops_with_short(self):
        _, vm_none = run_fpvm(LOOP_SRC, FPVMConfig.none())
        _, vm_short = run_fpvm(LOOP_SRC, FPVMConfig.short())
        n1 = vm_none.telemetry.emulated_instructions
        n2 = vm_short.telemetry.emulated_instructions
        k1 = vm_none.ledger.by_category["kernel"] / n1
        k2 = vm_short.ledger.by_category["kernel"] / n2
        assert k1 / k2 > 8  # the 8x delegation reduction

    def test_cpu_cycles_include_ledger(self):
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.none())
        assert cpu.cycles >= vm.ledger.total()


GC_SRC = """
.data
a: .double 0.3
n: .quad 3000
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + a]
top:
  addsd xmm0, [rip + a]
  dec rcx
  jne top
  call print_f64
  hlt
"""


class TestGCUnderLoad:
    def test_gc_triggers_and_bounds_heap(self):
        _, vm = run_fpvm(GC_SRC, FPVMConfig.seq_short(gc_threshold=512))
        assert vm.telemetry.gc_runs >= 1
        assert vm.telemetry.gc_objects_collected > 0
        # The loop keeps one live value; heap must stay bounded.
        assert vm.allocator.live_count < 2048

    def test_gc_cycles_charged(self):
        _, vm = run_fpvm(GC_SRC, FPVMConfig.seq_short(gc_threshold=512))
        assert vm.ledger.by_category["gc"] > 0

    def test_result_correct_despite_gc(self):
        native = run_native(GC_SRC)
        cpu, _ = run_fpvm(GC_SRC, FPVMConfig.seq_short(gc_threshold=256))
        assert cpu.output == native.output


NEGATION_SRC = """
.data
a: .double 0.1
signmask: .quad 0x8000000000000000, 0
.text
main:
  movsd xmm0, [rip + a]
  addsd xmm0, [rip + a]   ; traps? no - exact. force inexact:
  mulsd xmm0, [rip + a]   ; boxed now
  xorpd xmm0, [rip + signmask]  ; native sign flip of a boxed value
  addsd xmm0, [rip + a]   ; consumes negated box
  call print_f64
  hlt
"""


class TestNegationConvention:
    def test_native_xorpd_on_boxed_composes(self):
        native = run_native(NEGATION_SRC)
        cpu, _ = run_fpvm(NEGATION_SRC, FPVMConfig.none())
        assert cpu.output == native.output

    def test_seq_emulated_xorpd_composes(self):
        native = run_native(NEGATION_SRC)
        cpu, _ = run_fpvm(NEGATION_SRC, FPVMConfig.seq_short())
        assert cpu.output == native.output


LIBM_SRC = """
.data
x: .double 0.5
.text
main:
  movsd xmm0, [rip + x]
  mulsd xmm0, [rip + x]   ; 0.25, boxed (inexact? no! exact) ... still traps on nothing
  addsd xmm0, [rip + x]   ; 0.75 exact, no trap
  call sin
  call print_f64
  hlt
"""


class TestForeignFunctions:
    def test_libm_wrapper_boxes_result(self):
        cpu, vm = run_fpvm(LIBM_SRC, FPVMConfig.seq_short())
        native = run_native(LIBM_SRC)
        assert cpu.output == native.output
        assert vm.telemetry.libm_calls >= 1

    def test_print_wrapper_demotes(self):
        src = """
.data
a: .double 0.1
b: .double 0.2
.text
main:
  movsd xmm0, [rip + a]
  addsd xmm0, [rip + b]   ; traps; result boxed
  call print_f64
  hlt
"""
        cpu, vm = run_fpvm(src, FPVMConfig.none())
        assert cpu.output == [repr(0.1 + 0.2)]
        assert vm.telemetry.fcall_traps >= 1
        assert vm.telemetry.demotions >= 1

    def test_without_wrappers_prints_nan(self):
        """The paper's footnote-5 failure mode, demonstrated."""
        src = """
.data
a: .double 0.1
b: .double 0.2
.text
main:
  movsd xmm0, [rip + a]
  addsd xmm0, [rip + b]
  call print_f64
  hlt
"""
        cpu, _ = run_fpvm(src, FPVMConfig.none(wrap_foreign=False))
        assert cpu.output in (["nan"], ["-nan"])


class TestAttachDetach:
    def test_detach_restores_masking(self):
        prog = assemble(LOOP_SRC)
        install_host_library(prog)
        cpu = CPU(prog)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(FPVMConfig.short()).attach(cpu, kernel)
        assert kernel.fpvm_module.is_registered(cpu)
        vm.detach()
        assert not kernel.fpvm_module.is_registered(cpu)
        from repro.machine.registers import MXCSR_DEFAULT

        assert cpu.regs.mxcsr == MXCSR_DEFAULT

    def test_bad_patch_site_source_rejected(self):
        prog = assemble(LOOP_SRC)
        install_host_library(prog)
        cpu = CPU(prog)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        with pytest.raises(ValueError):
            FPVM(FPVMConfig.none(patch_site_source="bogus")).attach(cpu, kernel)


class TestAltmathSwap:
    """§6.4: 'Switching to MPFR is straightforward — FPVM is simply
    reconfigured in seconds.'"""

    def test_mpfr_run_works(self):
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short(altmath="mpfr"))
        assert vm.telemetry.traps > 0
        assert len(cpu.output) == 1

    def test_mpfr_closer_to_exact_than_double(self):
        # sum of 0.1 500 times: MPFR-virtualized beats native binary64.
        src = """
.data
tenth: .double 0.1
n: .quad 500
.text
main:
  mov rcx, [rip + n]
  xorpd xmm0, xmm0
top:
  addsd xmm0, [rip + tenth]
  dec rcx
  jne top
  call print_f64
  hlt
"""
        native = run_native(src)
        cpu, _ = run_fpvm(src, FPVMConfig.seq_short(altmath="mpfr"))
        exact = 500 * 0.1
        native_err = abs(float(native.output[0]) - 50.0000000000000004)
        # Reference: the exactly-computed sum of 500 binary64 0.1's.
        from fractions import Fraction

        true_sum = float(500 * Fraction(0.1))
        fpvm_err = abs(float(cpu.output[0]) - true_sum)
        native_err = abs(float(native.output[0]) - true_sum)
        assert fpvm_err <= native_err
        assert fpvm_err == 0.0  # 200 bits is exact here after demotion

    def test_interval_and_rational_and_posit_run(self):
        for system in ("interval", "rational", "posit"):
            cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short(altmath=system))
            assert vm.telemetry.traps > 0
            assert len(cpu.output) == 1


@pytest.mark.parametrize("field,value", [
    ("patch_site_source", "bogus"),
    ("altmath", "nope"),
    ("decode_cache_capacity", 0),
    ("decode_cache_capacity", -5),
    ("box_capacity", -1),
    ("gc_threshold", -1),
])
def test_bad_config_field_is_a_config_error(field, value):
    """Every field value FPVM cannot run fails at ``FPVM(config)`` with
    the typed :class:`ConfigError`, before any state is built."""
    with pytest.raises(ConfigError, match=field if field != "altmath"
                       else "unknown altmath"):
        FPVM(FPVMConfig(**{field: value}))


def test_zero_stays_a_valid_config_value():
    vm = FPVM(FPVMConfig(gc_threshold=0, box_capacity=0))
    assert (vm.config.gc_threshold, vm.config.box_capacity) == (0, 0)


def test_bad_patch_site_is_a_config_error():
    """A ``patch_sites`` address with no instruction there fails
    ``attach`` with :class:`ConfigError` naming it, before the VM, the
    thread or the program changes."""
    from repro.harness import runner
    from repro.machine.registers import MXCSR_DEFAULT

    with pytest.raises(ConfigError, match="0x123"):
        runner.run_fpvm("lorenz", FPVMConfig.seq(patch_sites=frozenset({0x123})),
                        scale=20)
    prog = assemble(LOOP_SRC)
    install_host_library(prog)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    good = prog.instructions[0].addr
    vm = FPVM(FPVMConfig.seq(patch_sites=frozenset({good, 0x123})))
    with pytest.raises(ConfigError, match="0x123"):
        vm.attach(cpu, kernel)
    assert vm.cpu is None and not vm.attached
    assert cpu.regs.mxcsr == MXCSR_DEFAULT
    assert prog.patches == {} and prog.patch_seq == 0
    assert "print_f64$fpvm" not in prog.symbols


@pytest.mark.xfail(strict=True, reason=(
    "attach installs the foreign-call wrappers before the profiling pass, "
    "whose program copy shares the rewritten symbol table and so runs the "
    "live VM's libm wrappers"))
def test_attach_profiling_leaves_vm_untouched():
    """The §5.1 profiling pass is a separate, native execution: right
    after ``attach`` the VM has counted nothing and charged nothing."""
    from repro.core.telemetry import snapshot
    from repro.workloads import build_program

    cpu = CPU(build_program("fbench", scale=4))
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig.none()).attach(cpu, kernel)
    assert {k: v for k, v in snapshot(vm.telemetry).items() if v} == {}
    assert vm.ledger.total() == 0
    assert cpu.cycles == 0
