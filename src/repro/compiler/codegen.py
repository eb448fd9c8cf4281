"""Code generation: AST -> assembly text -> Program.

Design (deliberately close to what -O1 compilers emit for scalar FP
code, because the workloads' instruction mix is what the paper's
sequence analysis measures):

- double expressions evaluate on a virtual register stack xmm0..xmm12,
  depth-indexed; binary ops combine xmm(d), xmm(d+1) into xmm(d);
- integer expressions use the scratch GPRs rax, rcx, rdx, rsi, r8, r9
  the same way;
- all named variables (double and int) live in rbp-relative stack
  slots; arrays are static data symbols addressed via rbx;
- function calls spill the live xmm depth to a frame scratch area
  (every FP register is caller-save in the SysV ABI);
- ``unroll=N`` on :meth:`Function.loop` duplicates loop bodies, the
  §6.3 knob that lengthens emulatable instruction sequences.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from repro.compiler import ast as A
from repro.errors import CompileError
from repro.machine.assembler import assemble
from repro.machine.program import Program

MAX_FP_DEPTH = 12
_INT_REGS = ("rax", "rcx", "rdx", "rsi", "r8", "r9")

#: libm functions the compiler may call without declaration.
LIBM = frozenset(
    {"sin", "cos", "tan", "asin", "acos", "atan", "atan2", "exp", "log",
     "fabs", "pow", "fmod"}
)
_VOID_HOST = frozenset({"print_f64", "print_f64_pair", "print_i64", "print_str"})


@dataclass
class Function:
    name: str
    params: tuple = ()       # double parameter names (xmm0..)
    iparams: tuple = ()      # integer parameter names (rdi, rsi... reserved)
    body: list = field(default_factory=list)

    def emit(self, stmt) -> None:
        self.body.append(stmt)


class Module:
    """A compilation unit: functions + static data.

    ``fuse_fma=True`` turns ``Bin('+', Bin('*', a, b), c)`` (and the
    commuted form) into fused multiply-adds, like compiling with
    ``-mfma``: fewer instructions, single rounding — which changes both
    numerics and the trap/sequence profile (a studied ablation).
    """

    def __init__(self, fuse_fma: bool = False) -> None:
        self.functions: dict[str, Function] = {}
        self._data_lines: list[str] = []
        self._label_counter = 0
        self.fuse_fma = fuse_fma

    # ----------------------------------------------------------- builders
    def function(self, name: str, params: tuple = ()) -> Function:
        if name in self.functions:
            raise CompileError(f"duplicate function {name!r}")
        fn = Function(name, tuple(params))
        self.functions[name] = fn
        return fn

    def data_double(self, name: str, values) -> None:
        vals = ", ".join(repr(float(v)) for v in values)
        self._data_lines.append(f"{name}: .double {vals}")

    def data_array(self, name: str, count: int) -> None:
        self._data_lines.append(f"{name}: .space {8 * count}")

    # -------------------------------------------------------------- emit
    def compile(self) -> Program:
        return assemble(self.emit_asm())

    def emit_asm(self) -> str:
        if "main" not in self.functions:
            raise CompileError("module has no main()")
        # Compile text first: constants are interned into the data
        # section as function bodies reference them.
        text: list[str] = []
        for fn in self.functions.values():
            text.extend(_FunctionCompiler(self, fn).compile())
        lines: list[str] = []
        if self._data_lines:
            lines.append(".data")
            lines.extend(self._data_lines)
        lines.append(".text")
        lines.extend(text)
        return "\n".join(lines) + "\n"

    def fresh_label(self, stem: str) -> str:
        self._label_counter += 1
        return f".L{stem}_{self._label_counter}"


class _FunctionCompiler:
    def __init__(self, module: Module, fn: Function):
        self.module = module
        self.fn = fn
        self.lines: list[str] = []
        self.slots: dict[str, int] = {}   # var name -> rbp offset (positive)
        self._next_slot = 8
        #: peephole state: the variable slot whose value is known to be
        #: live in xmm0 (elides the store-then-immediately-reload chatter
        #: a real register allocator would avoid).
        self._xmm0_slot: int | None = None

    # ------------------------------------------------------------- frame
    def _slot(self, name: str) -> int:
        off = self.slots.get(name)
        if off is None:
            off = self._next_slot
            self.slots[name] = off
            self._next_slot += 8
        return off

    def _var_ref(self, name: str) -> str:
        if name not in self.slots:
            raise CompileError(f"undefined variable {name!r} in {self.fn.name}")
        return f"[rbp - {self.slots[name]}]"

    # ------------------------------------------------------------ emit
    def compile(self) -> list[str]:
        body_lines: list[str] = []
        self.lines = body_lines
        for name in self.fn.params:
            self._slot(name)
        # Two passes would be cleaner for frame sizing; instead reserve a
        # generous spill region after visiting (offsets are emitted
        # symbolically via rbp so late sizing is safe).
        for i, name in enumerate(self.fn.params):
            if i >= 8:
                raise CompileError("more than 8 double params unsupported")
            body_lines.append(f"  movsd {self._var_ref(name)}, xmm{i}")
        for stmt in self.fn.body:
            self._stmt(stmt)
        if not self.fn.body or not isinstance(self.fn.body[-1], A.Return):
            self._emit_epilogue()

        if self._next_slot > _VAR_BUDGET:
            raise CompileError(
                f"{self.fn.name} declares too many locals "
                f"({self._next_slot // 8} > {_VAR_BUDGET // 8})"
            )
        # Frame: the fixed variable band plus the xmm spill band.
        frame = _VAR_BUDGET + 8 * (MAX_FP_DEPTH + 2)
        frame = (frame + 15) & ~15
        out = [f"{self.fn.name}:"]
        out.append("  push rbp")
        out.append("  mov rbp, rsp")
        out.append(f"  sub rsp, {frame}")
        out.extend(body_lines)
        return out

    def _emit_epilogue(self) -> None:
        self.lines.append("  mov rsp, rbp")
        self.lines.append("  pop rbp")
        self.lines.append("  ret")

    def _asm(self, line: str) -> None:
        self.lines.append(f"  {line}")
        # Peephole bookkeeping: anything that can change xmm0 (or jump
        # somewhere that might) kills the cached slot mapping.
        parts = line.split(None, 2)
        mn = parts[0]
        if mn == "call" or mn.startswith("j") or mn == "ret":
            self._xmm0_slot = None
        elif len(parts) > 1 and parts[1].rstrip(",") == "xmm0":
            self._xmm0_slot = None

    def _label(self, name: str) -> None:
        self.lines.append(f"{name}:")
        self._xmm0_slot = None  # control-flow join: nothing is known

    # ------------------------------------------------------- statements
    def _stmt(self, stmt) -> None:
        if isinstance(stmt, A.Let):
            self._slot(stmt.name)
            self._expr(stmt.expr, 0)
            self._asm(f"movsd {self._var_ref(stmt.name)}, xmm0")
            self._xmm0_slot = self.slots[stmt.name]
        elif isinstance(stmt, A.ILet):
            self._slot(stmt.name)
            self._iexpr(stmt.expr, 0)
            self._asm(f"mov {self._var_ref(stmt.name)}, rax")
            if self._xmm0_slot == self.slots[stmt.name]:
                self._xmm0_slot = None
        elif isinstance(stmt, A.Store):
            self._expr(stmt.expr, 0)
            self._iexpr(stmt.index, 0)
            self._asm(f"mov rbx, {stmt.array}")
            self._asm("movsd [rbx + rax*8], xmm0")
        elif isinstance(stmt, A.For):
            self._for(stmt)
        elif isinstance(stmt, A.While):
            self._while(stmt)
        elif isinstance(stmt, A.If):
            self._if(stmt)
        elif isinstance(stmt, A.Print):
            self._expr(stmt.expr, 0)
            self._asm("call print_f64")
        elif isinstance(stmt, A.PrintPair):
            self._expr(stmt.left, 0)
            self._expr(stmt.right, 1)
            self._asm("call print_f64_pair")
        elif isinstance(stmt, A.PrintI):
            self._iexpr(stmt.expr, 0)
            self._asm("mov rdi, rax")
            self._asm("call print_i64")
        elif isinstance(stmt, A.CallStmt):
            self._call(stmt.call, 0, want_result=False)
        elif isinstance(stmt, A.Return):
            if stmt.expr is not None:
                self._expr(stmt.expr, 0)
            self._emit_epilogue()
        else:
            raise CompileError(f"unknown statement {stmt!r}")

    def _for(self, stmt: A.For) -> None:
        self._slot(stmt.var)
        self._iexpr(stmt.start, 0)
        self._asm(f"mov {self._var_ref(stmt.var)}, rax")
        check = self.module.fresh_label("for_check")
        top = self.module.fresh_label("for_body")
        self._asm(f"jmp {check}")
        self._label(top)
        for s in stmt.body:
            self._stmt(s)
        self._asm(f"mov rax, {self._var_ref(stmt.var)}")
        self._asm("inc rax")
        self._asm(f"mov {self._var_ref(stmt.var)}, rax")
        self._label(check)
        self._iexpr(stmt.end, 1)  # end -> rcx
        self._asm(f"mov rax, {self._var_ref(stmt.var)}")
        self._asm("cmp rax, rcx")
        self._asm(f"jl {top}")

    def _while(self, stmt: A.While) -> None:
        check = self.module.fresh_label("while_check")
        end = self.module.fresh_label("while_end")
        self._label(check)
        self._branch_if_false(stmt.cond, end)
        for s in stmt.body:
            self._stmt(s)
        self._asm(f"jmp {check}")
        self._label(end)

    def _if(self, stmt: A.If) -> None:
        orelse = self.module.fresh_label("else")
        end = self.module.fresh_label("endif")
        self._branch_if_false(stmt.cond, orelse if stmt.orelse else end)
        for s in stmt.then:
            self._stmt(s)
        if stmt.orelse:
            self._asm(f"jmp {end}")
            self._label(orelse)
            for s in stmt.orelse:
                self._stmt(s)
        self._label(end)

    # ------------------------------------------------------- conditions
    _FBRANCH_FALSE = {"<": "jae", "<=": "ja", ">": "jbe", ">=": "jb",
                      "==": "jne", "!=": "je"}
    _IBRANCH_FALSE = {"<": "jge", "<=": "jg", ">": "jle", ">=": "jl",
                      "==": "jne", "!=": "je"}

    def _branch_if_false(self, cond, target: str) -> None:
        if isinstance(cond, A.FCmp):
            self._expr(cond.left, 0)
            self._expr(cond.right, 1)
            self._asm("ucomisd xmm0, xmm1")
            self._asm(f"{self._FBRANCH_FALSE[cond.op]} {target}")
        elif isinstance(cond, A.ICmp):
            self._iexpr(cond.left, 0)
            self._iexpr(cond.right, 1)
            self._asm("cmp rax, rcx")
            self._asm(f"{self._IBRANCH_FALSE[cond.op]} {target}")
        else:
            raise CompileError(f"bad condition {cond!r}")

    # ------------------------------------------------- double expressions
    def _expr(self, expr, depth: int) -> None:
        """Evaluate into xmm{depth}."""
        if depth > MAX_FP_DEPTH:
            raise CompileError("expression too deep: spilling unsupported")
        reg = f"xmm{depth}"
        if isinstance(expr, A.Num):
            label = self._constant(expr.value)
            self._asm(f"movsd {reg}, [rip + {label}]")
        elif isinstance(expr, A.Var):
            if (
                depth == 0
                and self._xmm0_slot is not None
                and self.slots.get(expr.name) == self._xmm0_slot
            ):
                return  # value already live in xmm0 (peephole)
            self._asm(f"movsd {reg}, {self._var_ref(expr.name)}")
        elif isinstance(expr, A.Bin):
            fused = self._try_fuse_fma(expr, depth)
            if not fused:
                self._expr(expr.left, depth)
                self._expr(expr.right, depth + 1)
                op = {"+": "addsd", "-": "subsd", "*": "mulsd", "/": "divsd"}[expr.op]
                self._asm(f"{op} {reg}, xmm{depth + 1}")
        elif isinstance(expr, A.Fma):
            self._emit_fma(expr.a, expr.b, expr.c, depth)
        elif isinstance(expr, A.Neg):
            self._expr(expr.expr, depth)
            self._asm(f"xorpd {reg}, [rip + {self._signmask()}]")
        elif isinstance(expr, A.Sqrt):
            self._expr(expr.expr, depth)
            self._asm(f"sqrtsd {reg}, {reg}")
        elif isinstance(expr, A.Min):
            self._expr(expr.left, depth)
            self._expr(expr.right, depth + 1)
            self._asm(f"minsd {reg}, xmm{depth + 1}")
        elif isinstance(expr, A.Max):
            self._expr(expr.left, depth)
            self._expr(expr.right, depth + 1)
            self._asm(f"maxsd {reg}, xmm{depth + 1}")
        elif isinstance(expr, A.Load):
            self._iexpr(expr.index, 0)
            self._asm(f"mov rbx, {expr.array}")
            self._asm(f"movsd {reg}, [rbx + rax*8]")
        elif isinstance(expr, A.Cast):
            self._iexpr(expr.expr, 0)
            self._asm(f"cvtsi2sd {reg}, rax")
        elif isinstance(expr, A.Call):
            self._call(expr, depth, want_result=True)
        else:
            raise CompileError(f"unknown expression {expr!r}")

    def _try_fuse_fma(self, expr: "A.Bin", depth: int) -> bool:
        if not self.module.fuse_fma or expr.op != "+":
            return False
        if isinstance(expr.left, A.Bin) and expr.left.op == "*":
            self._emit_fma(expr.left.left, expr.left.right, expr.right, depth)
            return True
        if isinstance(expr.right, A.Bin) and expr.right.op == "*":
            self._emit_fma(expr.right.left, expr.right.right, expr.left, depth)
            return True
        return False

    def _emit_fma(self, a, b, c, depth: int) -> None:
        """vfmadd213sd dst, src2, src3: dst = src2*dst + src3."""
        if depth + 2 > MAX_FP_DEPTH:
            raise CompileError("expression too deep: spilling unsupported")
        self._expr(a, depth)          # multiplicand in dst
        self._expr(b, depth + 1)      # multiplier in src2
        self._expr(c, depth + 2)      # addend
        self._asm(f"vfmadd213sd xmm{depth}, xmm{depth + 1}, xmm{depth + 2}")

    def _call(self, call: A.Call, depth: int, want_result: bool) -> None:
        known = call.name in LIBM or call.name in _VOID_HOST or call.name in self.module.functions
        if not known:
            raise CompileError(f"call to unknown function {call.name!r}")
        # Evaluate args above the live depth, then spill live regs.
        for i, arg in enumerate(call.args):
            self._expr(arg, depth + i)
        # Spill xmm0..depth-1 (live temporaries) to the frame scratch.
        for i in range(depth):
            self._asm(f"movsd [rbp - {self._spill_slot(i)}], xmm{i}")
        # Move evaluated args (sitting at xmm{depth}..) down to xmm0..
        for i in range(len(call.args)):
            src = depth + i
            if src != i:
                # Save via scratch slot to avoid clobbering when src < i
                # is impossible here (src = depth+i >= i), direct move ok.
                self._asm(f"movsd xmm{i}, xmm{src}")
        self._asm(f"call {call.name}")
        if want_result and depth != 0:
            self._asm(f"movsd xmm{depth}, xmm0")
        for i in range(depth):
            self._asm(f"movsd xmm{i}, [rbp - {self._spill_slot(i)}]")

    def _spill_slot(self, i: int) -> int:
        # Named variables occupy [rbp-8, rbp-_VAR_BUDGET]; the xmm spill
        # band sits just below that fixed budget, so spill offsets never
        # alias variables declared later in the body.
        return _VAR_BUDGET + 8 * (i + 1)

    # ------------------------------------------------ integer expressions
    def _iexpr(self, expr, depth: int) -> None:
        if depth >= len(_INT_REGS):
            raise CompileError("integer expression too deep")
        reg = _INT_REGS[depth]
        if isinstance(expr, A.INum):
            self._asm(f"mov {reg}, {expr.value}")
        elif isinstance(expr, A.IVar):
            self._asm(f"mov {reg}, {self._var_ref(expr.name)}")
        elif isinstance(expr, A.IBin):
            self._iexpr(expr.left, depth)
            if expr.op in ("<<", ">>") and isinstance(expr.right, A.INum):
                op = "shl" if expr.op == "<<" else "sar"
                self._asm(f"{op} {reg}, {expr.right.value}")
                return
            self._iexpr(expr.right, depth + 1)
            rhs = _INT_REGS[depth + 1]
            op = {"+": "add", "-": "sub", "*": "imul", "&": "and"}.get(expr.op)
            if op is None:
                raise CompileError(f"bad integer op {expr.op!r}")
            self._asm(f"{op} {reg}, {rhs}")
        elif isinstance(expr, A.ITrunc):
            self._expr(expr.expr, MAX_FP_DEPTH)
            self._asm(f"cvttsd2si {reg}, xmm{MAX_FP_DEPTH}")
        elif isinstance(expr, A.IBits):
            if depth + 1 >= len(_INT_REGS):
                raise CompileError("integer expression too deep")
            self._iexpr(expr.index, depth + 1)
            self._asm(f"mov rbx, {expr.array}")
            self._asm(f"mov {reg}, [rbx + {_INT_REGS[depth + 1]}*8]")
        else:
            raise CompileError(f"unknown integer expression {expr!r}")

    # ---------------------------------------------------------- constants
    def _constant(self, value: float) -> str:
        return self.module._intern_double(value)

    def _signmask(self) -> str:
        return self.module._intern_signmask()


#: fixed per-function variable budget (bytes) keeping the spill band
#: clear of named slots.  64 variables is plenty for the workloads.
_VAR_BUDGET = 8 * 64


def _intern_double(self: Module, value: float) -> str:
    key = struct.pack("<d", value)
    cache = getattr(self, "_const_cache", None)
    if cache is None:
        cache = {}
        self._const_cache = cache
    label = cache.get(key)
    if label is None:
        label = f".Lc{len(cache)}"
        cache[key] = label
        self._data_lines.append(f"{label}: .double {value!r}")
    return label


def _intern_signmask(self: Module) -> str:
    if not getattr(self, "_signmask_emitted", False):
        self._data_lines.append(".Lsignmask: .quad 0x8000000000000000, 0")
        self._signmask_emitted = True
    return ".Lsignmask"


Module._intern_double = _intern_double
Module._intern_signmask = _intern_signmask
