"""The simulated shared libraries (libc/libm stand-ins).

These functions are *host* implementations: they read raw register bit
patterns and reinterpret them the way real libc does.  That is exactly
why foreign-function correctness instrumentation exists (§2.6, §5.3) —
``print_f64`` on a NaN-boxed value happily prints ``nan`` (the paper's
footnote 5) unless FPVM's wrappers demote the argument first.

Calling convention (SysV-flavoured): double args in xmm0..xmm7 lane 0,
integer/pointer args in rdi, rsi, rdx, rcx, r8, r9; double return in
xmm0 lane 0, integer return in rax.
"""

from __future__ import annotations

import math

from repro.fpu import bits as B
from repro.machine.isa import GPR_IDS
from repro.machine.program import HostFunction, Program

RDI = GPR_IDS["rdi"]
RAX = GPR_IDS["rax"]


def _xmm_arg(cpu, i: int) -> int:
    return cpu.regs.xmm[i][0]


def _set_xmm0(cpu, bits: int) -> None:
    cpu.regs.write_xmm128(0, bits, 0)


def _fmt(bits: int) -> str:
    """printf("%.17g")-style formatting by *bit reinterpretation* —
    boxed NaNs come out as nan/-nan, the paper's failure mode."""
    if B.is_nan(bits):
        return "-nan" if B.is_negative(bits) else "nan"
    value = B.bits_to_float(bits)
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return repr(value)


def _print_f64(cpu) -> None:
    cpu.output.append(_fmt(_xmm_arg(cpu, 0)))


def _print_f64_pair(cpu) -> None:
    cpu.output.append(f"{_fmt(_xmm_arg(cpu, 0))} {_fmt(_xmm_arg(cpu, 1))}")


def _print_i64(cpu) -> None:
    v = cpu.regs.gpr[RDI]
    if v >= 1 << 63:
        v -= 1 << 64
    cpu.output.append(str(v))


def _print_str(cpu) -> None:
    cpu.output.append(cpu.mem.read_cstring(cpu.regs.gpr[RDI]))


def _sign_f64(cpu) -> None:
    """Returns the raw sign bit of xmm0 in rax — deliberate bit-level
    inspection of an FP value (what printf does internally)."""
    cpu.regs.write_gpr(RAX, B.sign_bit(_xmm_arg(cpu, 0)))


def _unary(fn):
    def impl(cpu) -> None:
        x = B.bits_to_float(_xmm_arg(cpu, 0))
        try:
            r = fn(x)
        except (ValueError, OverflowError):
            r = math.nan
        _set_xmm0(cpu, B.float_to_bits(r))

    return impl


def _binary(fn):
    def impl(cpu) -> None:
        x = B.bits_to_float(_xmm_arg(cpu, 0))
        y = B.bits_to_float(_xmm_arg(cpu, 1))
        try:
            r = fn(x, y)
        except (ValueError, OverflowError, ZeroDivisionError):
            r = math.nan
        _set_xmm0(cpu, B.float_to_bits(r))

    return impl


def _fabs(x: float) -> float:
    return abs(x)


#: name -> (implementation, cost cycles, #fp args, returns fp)
_LIBRARY: dict[str, tuple] = {
    # --- the stdio family (foreign-function correctness targets) ---------
    "print_f64": (_print_f64, 400, 1, False),
    "print_f64_pair": (_print_f64_pair, 550, 2, False),
    "print_i64": (_print_i64, 300, 0, False),
    "print_str": (_print_str, 250, 0, False),
    "sign_f64": (_sign_f64, 20, 1, False),
    # --- libm (forward-wrapped straight into altmath under FPVM) ---------
    "sin": (_unary(math.sin), 40, 1, True),
    "cos": (_unary(math.cos), 40, 1, True),
    "tan": (_unary(math.tan), 60, 1, True),
    "asin": (_unary(math.asin), 55, 1, True),
    "acos": (_unary(math.acos), 55, 1, True),
    "atan": (_unary(math.atan), 45, 1, True),
    "exp": (_unary(math.exp), 35, 1, True),
    "log": (_unary(lambda x: math.log(x) if x > 0 else (-math.inf if x == 0 else math.nan)), 35, 1, True),
    "fabs": (_unary(_fabs), 10, 1, True),
    "atan2": (_binary(math.atan2), 60, 2, True),
    "pow": (_binary(lambda x, y: math.pow(x, y)), 80, 2, True),
    "fmod": (_binary(lambda x, y: math.fmod(x, y) if y != 0 else math.nan), 45, 2, True),
}

#: Functions whose wrapper forwards into the alternative arithmetic
#: system (the hand-written libm forward wrappers of §5.3).
LIBM_FUNCTIONS = frozenset(
    ("sin", "cos", "tan", "asin", "acos", "atan", "exp", "log",
     "fabs", "atan2", "pow", "fmod")
)


def install_host_library(program: Program) -> dict[str, int]:
    """Register every library function on ``program``; returns the
    symbol table additions (name -> address)."""
    added = {}
    for name, (fn, cost, fp_args, fp_ret) in _LIBRARY.items():
        host = HostFunction(name=name, fn=fn, cost=cost, fp_args=fp_args, fp_ret=fp_ret)
        added[name] = program.register_host_function(host)
    return added
