"""Correctness instrumentation tests (§2.6, §5): static analysis vs
profiler, int3 vs magic traps, magic page rendezvous, wrappers."""

import pytest

from repro.core.analysis import find_memory_escapes
from repro.core.correctness import (
    MAGIC_COOKIE,
    MagicTrampoline,
    map_magic_page,
    register_demotion_handler,
)
from repro.core.profiler import MemoryEscapeProfiler, profile_patch_sites
from repro.core.vm import FPVM, FPVMConfig
from repro.core.wrappers import install_wrappers
from repro.errors import MagicPageCorruptionError
from repro.fpu import bits as B
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library
from repro.machine.program import MAGIC_PAGE_ADDR

f2b = B.float_to_bits

#: A program whose FP result escapes to the integer world: it stores a
#: (possibly boxed) double and reads the sign bit via an integer load —
#: the paper's canonical memory-escape (e.g. what printf does inside).
ESCAPE_SRC = """
.data
a: .double 0.1
b: .double 0.2
one: .double 1.0
slot: .space 8
.text
main:
  movsd xmm0, [rip + a]
  mulsd xmm0, [rip + b]     ; 0.02, inexact: traps, result boxed
  subsd xmm0, [rip + one]   ; boxed - 1.0 = -0.98: negative boxed value
  movsd [rip + slot], xmm0  ; FP store: box escapes to memory
  mov rax, [rip + slot]     ; integer load of the escaped value
  shr rax, 63               ; extract the sign bit
  mov rdi, rax
  call print_i64
  hlt
"""


#: An integer store over a float clears the mark: no site.
INT_STORE_SRC = """
.data
a: .double 1.5
slot: .space 8
.text
main:
  movsd xmm0, [rip + a]
  movsd [rip + slot], xmm0
  mov rbx, 42
  mov [rip + slot], rbx   ; integer store clears the mark
  mov rax, [rip + slot]   ; integer load of integer data: fine
  hlt
"""

#: An indirect FP store taints the static analysis's whole summary
#: bucket; the profiler sees the load never reads a float.
INDIRECT_STORE_SRC = """
.data
a: .double 1.0
arr: .space 64
x: .quad 5
.text
main:
  mov rbx, arr
  movsd xmm0, [rip + a]
  movsd [rbx], xmm0        ; indirect FP store: summary bucket tainted
  mov rax, [rip + x]       ; even this direct int load is now suspect
  hlt
"""

ESCAPE_PROGRAMS = {"escape": ESCAPE_SRC, "int_store": INT_STORE_SRC,
                   "indirect_store": INDIRECT_STORE_SRC}


def build(source: str):
    prog = assemble(source)
    install_host_library(prog)
    return prog


def run_fpvm(source: str, config: FPVMConfig):
    prog = build(source)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    cpu.run()
    return cpu, vm


class TestProfiler:
    def test_finds_the_escape_site(self):
        prog = build(ESCAPE_SRC)
        sites = profile_patch_sites(prog)
        load_addr = next(
            i.addr for i in prog.instructions
            if i.mnemonic == "mov" and str(i.operands[0]) == "rax"
        )
        assert load_addr in sites

    def test_no_false_positives_on_clean_code(self):
        prog = build(
            ".data\nx: .quad 7\n.text\nmain:\n  mov rax, [rip + x]\n  hlt\n"
        )
        assert profile_patch_sites(prog) == set()

    def test_int_store_unmarks(self):
        assert profile_patch_sites(build(INT_STORE_SRC)) == set()

    def test_profile_result_counters(self):
        result = MemoryEscapeProfiler(build(ESCAPE_SRC)).run()
        assert result.fp_stores >= 1
        assert result.int_loads_of_floats >= 1

    def test_profiler_does_not_mutate_input_program(self):
        prog = build(ESCAPE_SRC)
        prog.patch_int3(prog.instructions[0].addr)
        MemoryEscapeProfiler(prog).run()
        assert prog.instructions[0].addr in prog.patches  # untouched


class TestStaticAnalysis:
    def test_finds_the_escape_site(self):
        prog = build(ESCAPE_SRC)
        result = find_memory_escapes(prog)
        load_addr = next(
            i.addr for i in prog.instructions
            if i.mnemonic == "mov" and str(i.operands[0]) == "rax"
        )
        assert load_addr in result.patch_sites

    def test_conservative_superset_of_profiler(self):
        """§5.1: the profiler identifies fewer instructions."""
        prog = build(ESCAPE_SRC)
        static = find_memory_escapes(prog).patch_sites
        dynamic = profile_patch_sites(prog)
        assert dynamic <= static

    def test_indirect_store_taints_everything(self):
        prog = build(INDIRECT_STORE_SRC)
        result = find_memory_escapes(prog)
        assert result.indirect_tainted
        load_addr = next(
            i.addr for i in prog.instructions
            if i.mnemonic == "mov" and str(i.operands[0]) == "rax"
        )
        assert load_addr in result.patch_sites
        # The profiler, observing the actual run, knows x never held FP.
        assert load_addr not in profile_patch_sites(prog)

    def test_clean_program_no_sites(self):
        prog = build("main:\n  mov rax, 5\n  add rax, 2\n  hlt\n")
        assert find_memory_escapes(prog).patch_sites == set()


class TestEndToEndCorrectness:
    def expected_output(self):
        prog = build(ESCAPE_SRC)
        cpu = CPU(prog)
        cpu.kernel = LinuxKernel()
        cpu.run()
        return cpu.output

    @pytest.mark.parametrize("magic", [True, False], ids=["magic", "int3"])
    def test_sign_bit_correct_with_patches(self, magic):
        native = self.expected_output()
        cpu, vm = run_fpvm(ESCAPE_SRC, FPVMConfig.seq_short(magic_traps=magic))
        assert cpu.output == native == ["1"]  # 0.1*0.2 - 1.0 is negative
        assert vm.telemetry.corr_events >= 1

    def test_sign_bit_wrong_without_patches(self):
        """Disabling correctness instrumentation demonstrates the
        failure: the integer load sees the boxed sNaN's sign bit (0),
        not the value's."""
        cpu, _ = run_fpvm(
            ESCAPE_SRC, FPVMConfig.seq_short(patch_site_source="none")
        )
        assert cpu.output == ["0"]  # wrong: boxed pattern is positive

    def test_magic_cheaper_than_int3(self):
        _, vm_magic = run_fpvm(ESCAPE_SRC, FPVMConfig.seq_short(magic_traps=True))
        _, vm_int3 = run_fpvm(ESCAPE_SRC, FPVMConfig.seq_short(magic_traps=False))
        corr_magic = vm_magic.ledger.by_category["corr"]
        corr_int3 = (
            vm_int3.ledger.by_category["corr"]
            + vm_int3.ledger.by_category["hw"]
            + vm_int3.ledger.by_category["kernel"]
            + vm_int3.ledger.by_category["ret"]
            - vm_magic.ledger.by_category["hw"]
            - vm_magic.ledger.by_category["kernel"]
            - vm_magic.ledger.by_category["ret"]
        )
        # Paper: 14-120x cheaper per trap; here one trap each.
        assert corr_int3 > 5 * corr_magic

    def test_precomputed_patch_sites_used(self):
        prog = build(ESCAPE_SRC)
        sites = profile_patch_sites(prog)
        cpu, vm = run_fpvm(
            ESCAPE_SRC, FPVMConfig.seq_short(patch_sites=frozenset(sites))
        )
        assert cpu.output == ["1"]


class TestMagicPage:
    def test_cookie_and_rendezvous(self):
        prog = build("main:\n  hlt\n")
        cpu = CPU(prog)
        calls = []
        hid = register_demotion_handler(lambda c, a: calls.append(a))
        map_magic_page(cpu, hid)
        cookie = cpu.mem.read_u64(MAGIC_PAGE_ADDR)
        assert cookie == MAGIC_COOKIE
        tramp = MagicTrampoline()
        tramp(cpu, 0x1234)
        tramp(cpu, 0x5678)
        assert calls == [0x1234, 0x5678]
        assert tramp.rendezvous_count == 1  # pointer cached after first

    def test_magic_page_readonly(self):
        prog = build("main:\n  hlt\n")
        cpu = CPU(prog)
        hid = register_demotion_handler(lambda c, a: None)
        map_magic_page(cpu, hid)
        from repro.machine.memory import MemoryFault

        with pytest.raises(MemoryFault):
            cpu.mem.write_u64(MAGIC_PAGE_ADDR, 0)

    def test_finished_vm_is_not_kept_alive(self, monkeypatch):
        """The registry holds ``FPVM._magic_demote`` weakly: once a
        run's result is dropped, its VM (with CPU, program and box heap)
        is collectable and the registry has not grown."""
        import gc
        import weakref

        from repro.core import correctness
        from repro.harness.runner import run_fpvm as run_workload

        vms = []
        attach = FPVM.attach

        def spy(vm, *args, **kwargs):
            vms.append(weakref.ref(vm))
            return attach(vm, *args, **kwargs)

        monkeypatch.setattr(FPVM, "attach", spy)
        gc.collect()
        before = len(correctness._HANDLER_REGISTRY)
        result = run_workload("lorenz", FPVMConfig.seq_short(), scale=20)
        assert result.output and vms
        del result
        gc.collect()
        assert all(ref() is None for ref in vms)
        assert len(correctness._HANDLER_REGISTRY) <= before

    def test_dead_handler_id_is_corruption(self):
        """A magic page naming a handler whose VM has died must fail
        as corruption, never call into a stale object."""
        import gc

        class Owner:
            def demote(self, cpu, addr):
                raise AssertionError("dead handler called")

        owner = Owner()
        hid = register_demotion_handler(owner.demote)
        cpu = CPU(build("main:\n  hlt\n"))
        map_magic_page(cpu, hid)
        del owner
        gc.collect()
        with pytest.raises(MagicPageCorruptionError, match=str(hid)):
            MagicTrampoline()(cpu, 0)

    def test_unmapped_magic_page_fails_loudly(self):
        prog = build("main:\n  hlt\n")
        cpu = CPU(prog)
        cpu.mem.map_page(MAGIC_PAGE_ADDR)  # mapped but no cookie
        tramp = MagicTrampoline()
        with pytest.raises(RuntimeError, match="cookie"):
            tramp(cpu, 0)


class TestWrappers:
    def test_magic_wrap_rebinds_symbols(self):
        prog = build("main:\n  call print_f64\n  hlt\n")
        cpu = CPU(prog)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(FPVMConfig.none(wrap_foreign=False))
        vm.cpu, vm.kernel, vm.program = cpu, kernel, prog
        vm.ledger.bind_cpu(cpu)
        report = install_wrappers(vm, prog)
        assert "print_f64" in report.demote_wrapped
        assert "sin" in report.libm_wrapped
        assert prog.symbols["print_f64"] == prog.symbols["print_f64$fpvm"]

    def test_wrappers_skip_pure_int_functions(self):
        prog = build("main:\n  hlt\n")
        cpu = CPU(prog)
        kernel = LinuxKernel()
        vm = FPVM(FPVMConfig.none(wrap_foreign=False))
        vm.cpu, vm.kernel, vm.program = cpu, kernel, prog
        vm.ledger.bind_cpu(cpu)
        report = install_wrappers(vm, prog)
        assert "print_i64" not in report.demote_wrapped
        assert "print_str" not in report.demote_wrapped

    def test_double_install_is_idempotent(self):
        prog = build("main:\n  hlt\n")
        cpu = CPU(prog)
        kernel = LinuxKernel()
        vm = FPVM(FPVMConfig.none(wrap_foreign=False))
        vm.cpu, vm.kernel, vm.program = cpu, kernel, prog
        vm.ledger.bind_cpu(cpu)
        install_wrappers(vm, prog)
        n = len(prog.host_functions)
        install_wrappers(vm, prog)
        # wrappers are not re-wrapped
        assert sum(1 for h in prog.host_functions.values()
                   if h.name.endswith("$fpvm$fpvm")) == 0
