"""A mini-C compiler targeting the simulated ISA.

The paper's workloads are compiled C/Fortran; their instruction mix —
runs of scalar SSE2 arithmetic threaded with moves, loads of constants,
loop counters, libm calls — is exactly what sequence emulation's
effectiveness depends on (§6.3 notes compiler optimizations such as
unrolling change the sequence-length distribution).  Writing the
workloads against this compiler gives them the same character, and
gives the benchmarks an unrolling knob to ablate.
"""

from repro.compiler.ast import (
    Bin,
    Call,
    Cast,
    FCmp,
    Fma,
    For,
    ICmp,
    If,
    ILet,
    INum,
    ITrunc,
    IBits,
    IVar,
    IBin,
    Let,
    Load,
    Max,
    Min,
    Neg,
    Num,
    Print,
    PrintI,
    PrintPair,
    Return,
    Sqrt,
    Store,
    CallStmt,
    Var,
    While,
)
from repro.compiler.codegen import Function, Module
from repro.errors import CompileError

__all__ = [
    "Bin", "Call", "Cast", "FCmp", "For", "ICmp", "If", "ILet", "INum",
    "Fma", "ITrunc", "IBits", "IVar", "IBin", "Let", "Load", "Max", "Min", "Neg", "Num",
    "Print", "PrintI", "PrintPair", "Return", "Sqrt", "Store", "CallStmt",
    "Var", "While", "CompileError", "Function", "Module",
]
