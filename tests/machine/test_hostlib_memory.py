"""Host library (simulated libc/libm) and memory-substrate tests."""

import math

import pytest

from repro.fpu import bits as B
from repro.kernel.kernel import LinuxKernel
from repro.kernel.signals import SignalContext
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import LIBM_FUNCTIONS, install_host_library
from repro.machine.memory import Memory, MemoryFault, PAGE_SIZE, PROT_READ, PROT_WRITE

f2b = B.float_to_bits


def run(src: str) -> CPU:
    prog = assemble(src)
    install_host_library(prog)
    cpu = CPU(prog)
    cpu.kernel = LinuxKernel()
    cpu.run()
    return cpu


class TestHostLibrary:
    def test_every_libm_function_registered(self):
        added = install_host_library(assemble("main:\n  hlt\n"))
        assert LIBM_FUNCTIONS <= set(added)

    def test_install_idempotent_symbols(self):
        prog = assemble("main:\n  hlt\n")
        added = install_host_library(prog)
        assert added["sin"] == prog.symbols["sin"]
        assert added["print_f64"] in prog.host_functions

    @pytest.mark.parametrize("fn,x", [
        ("sin", 0.7), ("cos", 0.7), ("tan", 0.4), ("atan", 2.0),
        ("asin", 0.5), ("acos", 0.5), ("exp", 1.3), ("log", 5.0),
        ("fabs", -2.5),
    ])
    def test_libm_matches_host_math(self, fn, x):
        cpu = run(
            f".data\nx: .double {x!r}\n.text\nmain:\n"
            f"  movsd xmm0, [rip + x]\n  call {fn}\n  hlt\n"
        )
        want = abs(x) if fn == "fabs" else getattr(math, fn)(x)
        assert B.bits_to_float(cpu.regs.xmm[0][0]) == want

    def test_atan2_and_pow_two_args(self):
        cpu = run(
            ".data\ny: .double 3.0\nx: .double 4.0\n.text\nmain:\n"
            "  movsd xmm0, [rip + y]\n  movsd xmm1, [rip + x]\n"
            "  call atan2\n  hlt\n"
        )
        assert B.bits_to_float(cpu.regs.xmm[0][0]) == math.atan2(3.0, 4.0)

    def test_fmod_by_zero_nan(self):
        cpu = run(
            ".data\na: .double 5.0\nz: .double 0.0\n.text\nmain:\n"
            "  movsd xmm0, [rip + a]\n  movsd xmm1, [rip + z]\n"
            "  call fmod\n  hlt\n"
        )
        assert B.is_nan(cpu.regs.xmm[0][0])

    def test_log_of_zero(self):
        cpu = run(
            ".data\nz: .double 0.0\n.text\nmain:\n"
            "  movsd xmm0, [rip + z]\n  call log\n  hlt\n"
        )
        assert cpu.regs.xmm[0][0] == B.NEG_INF_BITS

    def test_sqrt_domain_error_nan(self):
        cpu = run(
            ".data\nx: .double -1.0\n.text\nmain:\n"
            "  movsd xmm0, [rip + x]\n  call asin\n  hlt\n"
        )
        # asin(-1) is fine; use 2.0 for the domain error
        cpu = run(
            ".data\nx: .double 2.0\n.text\nmain:\n"
            "  movsd xmm0, [rip + x]\n  call asin\n  hlt\n"
        )
        assert B.is_nan(cpu.regs.xmm[0][0])

    def test_sign_f64_bit_inspection(self):
        cpu = run(
            ".data\nx: .double -0.0\n.text\nmain:\n"
            "  movsd xmm0, [rip + x]\n  call sign_f64\n  hlt\n"
        )
        assert cpu.regs.gpr[0] == 1  # rax: even -0.0 has the sign bit

    def test_print_inf(self):
        cpu = run(
            ".data\none: .double 1.0\nz: .double 0.0\n.text\nmain:\n"
            "  movsd xmm0, [rip + one]\n  divsd xmm0, [rip + z]\n"
            "  call print_f64\n  hlt\n"
        )
        assert cpu.output == ["inf"]

    def test_print_pair_format(self):
        cpu = run(
            ".data\na: .double 1.25\nb: .double -2.5\n.text\nmain:\n"
            "  movsd xmm0, [rip + a]\n  movsd xmm1, [rip + b]\n"
            "  call print_f64_pair\n  hlt\n"
        )
        assert cpu.output == ["1.25 -2.5"]


class TestMemorySubstrate:
    def test_protection_enforced(self):
        mem = Memory()
        mem.map_page(0x5000, PROT_READ)
        with pytest.raises(MemoryFault, match="read-only"):
            mem.write_u64(0x5000, 1)

    def test_unreadable_page(self):
        mem = Memory()
        mem.map_page(0x5000, PROT_WRITE)
        with pytest.raises(MemoryFault, match="unreadable"):
            mem.read_u64(0x5000)

    def test_writable_pages_excludes_readonly(self):
        mem = Memory()
        mem.map_page(0x1000, PROT_READ)
        mem.map_page(0x2000, PROT_READ | PROT_WRITE)
        assert 0x2000 in mem.writable_pages()
        assert 0x1000 not in mem.writable_pages()

    def test_protect_unmapped_fails(self):
        mem = Memory()
        with pytest.raises(MemoryFault, match="mprotect"):
            mem.protect(0x7000, PROT_READ)

    def test_cstring(self):
        mem = Memory()
        mem.write_bytes(0x3000, b"hello\x00junk")
        assert mem.read_cstring(0x3000) == "hello"

    def test_sized_uint_round_trip(self):
        mem = Memory()
        for size in (1, 2, 4, 8):
            value = (1 << (8 * size)) - 3
            mem.write_uint(0x4000, value, size)
            assert mem.read_uint(0x4000, size) == value & ((1 << (8 * size)) - 1)

    def test_page_count(self):
        mem = Memory()
        mem.write_u64(0x1000, 1)
        mem.write_u64(0x1000 + PAGE_SIZE, 1)
        assert mem.writable_pages() == [0x1000, 0x1000 + PAGE_SIZE]


class TestSignalContextModes:
    def _cpu(self):
        return CPU(assemble("main:\n  hlt\n"))

    def test_frame_mode_defers(self):
        cpu = self._cpu()
        ctx = SignalContext(cpu, live=False)
        ctx.gpr[3] = 99
        ctx.write_xmm(2, f2b(1.5))
        ctx.rip = 0x1234
        assert cpu.regs.gpr[3] != 99
        ctx.apply()
        assert cpu.regs.gpr[3] == 99
        assert cpu.regs.xmm[2][0] == f2b(1.5)
        assert cpu.regs.rip == 0x1234

    def test_live_mode_immediate(self):
        cpu = self._cpu()
        ctx = SignalContext(cpu, live=True)
        ctx.gpr[3] = 42
        assert cpu.regs.gpr[3] == 42

    def test_mxcsr_round_trip(self):
        cpu = self._cpu()
        ctx = SignalContext(cpu, live=False)
        ctx.mxcsr = 0x1234
        assert cpu.regs.mxcsr != 0x1234
        ctx.apply()
        assert cpu.regs.mxcsr == 0x1234

    def test_flags_object_shared_in_frame(self):
        cpu = self._cpu()
        ctx = SignalContext(cpu, live=False)
        ctx.flags.zf = True
        assert not cpu.regs.flags.zf
        ctx.apply()
        assert cpu.regs.flags.zf
