"""Mini-C compiler tests: semantics of generated code, native and
under FPVM."""

import math

import pytest

from repro.compiler import (
    Bin, Call, Cast, CompileError, FCmp, For, ICmp, IBin, ILet, INum,
    ITrunc, IVar, If, Let, Load, Max, Min, Module, Neg, Num, Print,
    PrintI, PrintPair, Return, Sqrt, Store, Var, While,
)
from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library


def run_module(module: Module, fpvm: FPVMConfig | None = None):
    prog = module.compile()
    install_host_library(prog)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = None
    if fpvm is not None:
        vm = FPVM(fpvm).attach(cpu, kernel)
    cpu.run()
    return cpu, vm


def simple_main(*stmts) -> Module:
    m = Module()
    main = m.function("main")
    for s in stmts:
        main.emit(s)
    return m


class TestExpressions:
    def test_arithmetic(self):
        cpu, _ = run_module(simple_main(
            Print(Bin("/", Bin("-", Bin("*", Num(3.0), Num(4.0)), Num(2.0)), Num(5.0)))
        ))
        assert cpu.output == ["2.0"]

    def test_nested_depth(self):
        # ((((1+2)+3)+4)+5) and right-nested variant
        e = Num(1.0)
        for v in (2.0, 3.0, 4.0, 5.0):
            e = Bin("+", e, Num(v))
        r = Num(5.0)
        for v in (4.0, 3.0, 2.0, 1.0):
            r = Bin("+", Num(v), r)
        cpu, _ = run_module(simple_main(Print(e), Print(r)))
        assert cpu.output == ["15.0", "15.0"]

    def test_neg(self):
        cpu, _ = run_module(simple_main(Print(Neg(Num(2.5)))))
        assert cpu.output == ["-2.5"]

    def test_sqrt_inline(self):
        cpu, _ = run_module(simple_main(Print(Sqrt(Num(16.0)))))
        assert cpu.output == ["4.0"]

    def test_min_max(self):
        cpu, _ = run_module(simple_main(
            Print(Min(Num(2.0), Num(3.0))), Print(Max(Num(2.0), Num(3.0)))
        ))
        assert cpu.output == ["2.0", "3.0"]

    def test_cast_and_trunc(self):
        cpu, _ = run_module(simple_main(
            Print(Cast(INum(7))),
            PrintI(ITrunc(Num(3.9))),
            PrintI(ITrunc(Num(-3.9))),
        ))
        assert cpu.output == ["7.0", "3", "-3"]

    def test_libm_call(self):
        cpu, _ = run_module(simple_main(Print(Call("cos", [Num(0.0)]))))
        assert cpu.output == ["1.0"]

    def test_call_with_live_temporaries(self):
        # 10.0 + sin(0.5)*2.0 : sin is called while 10.0 is live in xmm0.
        cpu, _ = run_module(simple_main(
            Print(Bin("+", Num(10.0), Bin("*", Call("sin", [Num(0.5)]), Num(2.0))))
        ))
        assert float(cpu.output[0]) == pytest.approx(10.0 + math.sin(0.5) * 2.0)

    def test_two_arg_call(self):
        cpu, _ = run_module(simple_main(Print(Call("atan2", [Num(1.0), Num(1.0)]))))
        assert float(cpu.output[0]) == pytest.approx(math.pi / 4)

    def test_too_deep_expression_rejected(self):
        e = Num(1.0)
        for _ in range(14):
            e = Bin("+", Num(1.0), e)
        with pytest.raises(CompileError, match="deep"):
            simple_main(Print(e)).compile()

    def test_unknown_function_rejected(self):
        with pytest.raises(CompileError, match="unknown function"):
            simple_main(Print(Call("nosuch", [Num(1.0)]))).compile()

    def test_undefined_variable_rejected(self):
        with pytest.raises(CompileError, match="undefined variable"):
            simple_main(Print(Var("ghost"))).compile()

    def test_compile_error_is_typed_bad_input(self):
        """A rejected module is bad input, typed in :mod:`repro.errors`
        next to :class:`AssemblerError`."""
        from repro import errors
        assert CompileError is errors.CompileError
        with pytest.raises(ValueError, match="undefined variable"):
            simple_main(Print(Var("ghost"))).compile()


class TestStatements:
    def test_variables(self):
        cpu, _ = run_module(simple_main(
            Let("x", Num(2.0)),
            Let("y", Bin("*", Var("x"), Num(3.0))),
            Let("x", Bin("+", Var("x"), Var("y"))),
            Print(Var("x")),
        ))
        assert cpu.output == ["8.0"]

    def test_int_variables(self):
        cpu, _ = run_module(simple_main(
            ILet("i", INum(5)),
            ILet("j", IBin("*", IVar("i"), INum(3))),
            PrintI(IBin("-", IVar("j"), INum(1))),
        ))
        assert cpu.output == ["14"]

    def test_for_loop_sum(self):
        cpu, _ = run_module(simple_main(
            Let("s", Num(0.0)),
            For("i", INum(0), INum(100), [
                Let("s", Bin("+", Var("s"), Cast(IVar("i")))),
            ]),
            Print(Var("s")),
        ))
        assert cpu.output == ["4950.0"]

    def test_for_empty_range(self):
        cpu, _ = run_module(simple_main(
            Let("s", Num(1.0)),
            For("i", INum(5), INum(5), [Let("s", Num(99.0))]),
            Print(Var("s")),
        ))
        assert cpu.output == ["1.0"]

    def test_nested_loops(self):
        cpu, _ = run_module(simple_main(
            ILet("n", INum(0)),
            For("i", INum(0), INum(4), [
                For("j", INum(0), INum(3), [
                    ILet("n", IBin("+", IVar("n"), INum(1))),
                ]),
            ]),
            PrintI(IVar("n")),
        ))
        assert cpu.output == ["12"]

    def test_while(self):
        cpu, _ = run_module(simple_main(
            Let("x", Num(1.0)),
            While(FCmp("<", Var("x"), Num(100.0)), [
                Let("x", Bin("*", Var("x"), Num(2.0))),
            ]),
            Print(Var("x")),
        ))
        assert cpu.output == ["128.0"]

    def test_if_else(self):
        cpu, _ = run_module(simple_main(
            Let("x", Num(-3.0)),
            If(FCmp("<", Var("x"), Num(0.0)),
               [Print(Neg(Var("x")))],
               [Print(Var("x"))]),
        ))
        assert cpu.output == ["3.0"]

    def test_if_without_else(self):
        cpu, _ = run_module(simple_main(
            Let("x", Num(1.0)),
            If(FCmp(">", Var("x"), Num(0.0)), [Let("x", Num(2.0))]),
            Print(Var("x")),
        ))
        assert cpu.output == ["2.0"]

    def test_int_conditions(self):
        cpu, _ = run_module(simple_main(
            ILet("i", INum(-5)),
            If(ICmp("<", IVar("i"), INum(0)), [PrintI(INum(1))], [PrintI(INum(0))]),
        ))
        assert cpu.output == ["1"]

    def test_print_pair(self):
        cpu, _ = run_module(simple_main(PrintPair(Num(1.5), Num(2.5))))
        assert cpu.output == ["1.5 2.5"]


class TestArrays:
    def test_store_load(self):
        m = Module()
        m.data_array("a", 8)
        main = m.function("main")
        main.emit(For("i", INum(0), INum(8), [
            Store("a", IVar("i"), Bin("*", Cast(IVar("i")), Cast(IVar("i")))),
        ]))
        main.emit(Print(Load("a", INum(5))))
        cpu, _ = run_module(m)
        assert cpu.output == ["25.0"]

    def test_initialized_data(self):
        m = Module()
        m.data_double("coeffs", [1.5, 2.5, 3.5])
        main = m.function("main")
        main.emit(Print(Load("coeffs", INum(1))))
        cpu, _ = run_module(m)
        assert cpu.output == ["2.5"]

    def test_computed_index(self):
        m = Module()
        m.data_double("v", [0.0, 10.0, 20.0, 30.0])
        main = m.function("main")
        main.emit(ILet("i", INum(1)))
        main.emit(Print(Load("v", IBin("+", IBin("<<", IVar("i"), INum(1)), INum(1)))))
        cpu, _ = run_module(m)
        assert cpu.output == ["30.0"]


class TestFunctions:
    def test_user_function(self):
        m = Module()
        f = m.function("hyp", params=("a", "b"))
        f.emit(Return(Sqrt(Bin("+", Bin("*", Var("a"), Var("a")),
                                Bin("*", Var("b"), Var("b"))))))
        main = m.function("main")
        main.emit(Print(Call("hyp", [Num(3.0), Num(4.0)])))
        cpu, _ = run_module(m)
        assert cpu.output == ["5.0"]

    def test_recursive_style_chain(self):
        m = Module()
        inc = m.function("inc", params=("x",))
        inc.emit(Return(Bin("+", Var("x"), Num(1.0))))
        main = m.function("main")
        main.emit(Print(Call("inc", [Call("inc", [Call("inc", [Num(0.0)])])])))
        cpu, _ = run_module(m)
        assert cpu.output == ["3.0"]

    def test_duplicate_function_rejected(self):
        m = Module()
        m.function("f")
        with pytest.raises(CompileError, match="duplicate"):
            m.function("f")

    def test_missing_main_rejected(self):
        m = Module()
        m.function("helper")
        with pytest.raises(CompileError, match="main"):
            m.compile()


class TestUnderFPVM:
    def test_compiled_code_bit_for_bit(self):
        m = Module()
        m.data_array("buf", 16)
        main = m.function("main")
        main.emit(Let("acc", Num(0.0)))
        main.emit(For("i", INum(0), INum(16), [
            Store("buf", IVar("i"),
                  Bin("/", Cast(IBin("+", IVar("i"), INum(1))), Num(7.0))),
            Let("acc", Bin("+", Var("acc"), Load("buf", IVar("i")))),
        ]))
        main.emit(Print(Var("acc")))
        native, _ = run_module(m)
        virt, vm = run_module(m, FPVMConfig.seq_short())
        assert native.output == virt.output
        assert vm.telemetry.traps > 0

    def test_sequences_longer_with_bigger_expressions(self):
        def module(depth: int) -> Module:
            m = Module()
            main = m.function("main")
            main.emit(Let("x", Num(0.1)))
            e = Var("x")
            for _ in range(depth):
                e = Bin("*", Bin("+", e, Num(0.2)), Num(0.3))
            main.emit(For("i", INum(0), INum(20), [Let("x", e)]))
            main.emit(Print(Var("x")))
            return m

        _, vm_small = run_module(module(1), FPVMConfig.seq_short())
        _, vm_big = run_module(module(5), FPVMConfig.seq_short())
        assert (
            vm_big.telemetry.avg_sequence_length
            > vm_small.telemetry.avg_sequence_length
        )
