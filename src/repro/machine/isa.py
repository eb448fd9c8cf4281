"""ISA definition: registers, operands, instructions, opcode metadata.

The opcode table is the single source of truth consumed by the
assembler, the encoder/decoder, the CPU interpreter, and FPVM's own
emulator (which supports a *subset* — the support gap is what
terminates emulated instruction sequences, §4.2).  Its operand forms
are the only operand shapes an :class:`Instruction` may have.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.errors import EncodingError

GPR_NAMES = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)
XMM_NAMES = tuple(f"xmm{i}" for i in range(16))

GPR_IDS = {name: i for i, name in enumerate(GPR_NAMES)}
XMM_IDS = {name: i for i, name in enumerate(XMM_NAMES)}

RSP = GPR_IDS["rsp"]
RBP = GPR_IDS["rbp"]


@dataclass(frozen=True)
class Reg:
    """A 64-bit general purpose register operand."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in GPR_IDS:
            raise ValueError(f"unknown GPR {self.name!r}")

    @property
    def id(self) -> int:
        return GPR_IDS[self.name]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Xmm:
    """A 128-bit SSE register operand."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in XMM_IDS:
            raise ValueError(f"unknown XMM register {self.name!r}")

    @property
    def id(self) -> int:
        return XMM_IDS[self.name]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """A 64-bit immediate (stored as a signed Python int)."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Mem:
    """A memory operand: ``[base + index*scale + disp]`` or rip-relative.

    ``rip_label`` holds the symbol for ``[rip + sym]`` addressing before
    relocation; after assembly ``disp`` carries the absolute address and
    ``rip_label`` is retained for display only.
    """

    base: str | None = None
    index: str | None = None
    scale: int = 1
    disp: int = 0
    rip_label: str | None = None
    size: int = 8

    def __post_init__(self) -> None:
        if self.base is not None and self.base not in GPR_IDS:
            raise ValueError(f"bad base register {self.base!r}")
        if self.index is not None and self.index not in GPR_IDS:
            raise ValueError(f"bad index register {self.index!r}")
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"bad scale {self.scale}")
        if self.size not in (1, 2, 4, 8, 16):
            raise ValueError(f"bad access size {self.size}")

    def __str__(self) -> str:
        if self.rip_label is not None:
            return f"[rip + {self.rip_label}]"
        parts = []
        if self.base:
            parts.append(self.base)
        if self.index:
            parts.append(f"{self.index}*{self.scale}" if self.scale != 1 else self.index)
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}")
        return "[" + " + ".join(parts) + "]"


@dataclass(frozen=True)
class Label:
    """A code label operand (branch/call target).  After assembly the
    target address is resolved into ``addr``."""

    name: str
    addr: int | None = None

    def __str__(self) -> str:
        return self.name


Operand = Reg | Xmm | Imm | Mem | Label


class OpClass(enum.Enum):
    """Coarse instruction classes used by FPVM and the analyses."""

    FP_ARITH = "fp_arith"      # SSE2 arithmetic: can raise #XF
    FP_BITWISE = "fp_bitwise"  # xorpd/andpd/orpd: no FP exceptions
    FP_MOV = "fp_mov"          # XMM moves (never raise #XF)
    FP_CVT = "fp_cvt"          # conversions (can raise #XF)
    INT_MOV = "int_mov"        # GPR/memory moves, lea, push/pop
    INT_ALU = "int_alu"        # add/sub/imul/logic/shifts/cmp/test
    CONTROL = "control"        # jumps, call, ret
    SYS = "sys"                # int3, nop, hlt

    # Members are singletons compared by identity; Enum's own __hash__
    # hashes ``_name_`` in Python on every dict update.
    __hash__ = object.__hash__


#: The operand kinds an operand form names, in the order forms list them.
OPERAND_KINDS = {"xmm": Xmm, "reg": Reg, "mem": Mem, "imm": Imm, "label": Label}
_KIND_TEXT = {Xmm: "an XMM register", Reg: "a general register", Mem: "memory",
              Imm: "an immediate", Label: "a label"}


def form_shapes(forms: str) -> list[tuple[str, ...]]:
    """The operand shapes ``forms`` admits, as tuples of kind names.
    ``forms`` lists alternatives separated by ``;``, each a
    comma-separated list of positions whose ``/``-separated kinds it
    admits in every combination: ``"xmm, xmm/mem; mem, xmm"`` admits
    ``(xmm, xmm)``, ``(xmm, mem)`` and ``(mem, xmm)``.  The empty text
    admits one shape, no operands."""
    out: list[tuple[str, ...]] = []
    for alternative in forms.split(";"):
        positions = [part.strip().split("/") for part in alternative.split(",")]
        out += itertools.product(*positions) if alternative.strip() else [()]
    return out


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata for one mnemonic."""

    mnemonic: str
    opclass: OpClass
    #: the operand forms every reader runs alike (:func:`form_shapes`);
    #: :class:`Instruction` refuses any other shape.
    forms: str
    #: mnemonic for :func:`repro.fpu.ieee.ieee_op`, if FP arithmetic.
    ieee: str | None = None
    #: number of 64-bit lanes an FP op processes (1=scalar, 2=packed).
    lanes: int = 1
    #: native execution cost in cycles (see machine.costs for the story).
    cost: int = 1
    #: operand count, the forms' length.
    arity: int = 0
    #: the admitted shapes as tuples of operand classes.
    types: frozenset = frozenset()


def _op(mn, cls, forms, ieee=None, lanes=1, cost=1):
    shapes = form_shapes(forms)
    types = frozenset(tuple(OPERAND_KINDS[kind] for kind in shape) for shape in shapes)
    return OpcodeInfo(mn, cls, forms, ieee, lanes, cost, len(shapes[0]), types)


#: The forms shared by families of mnemonics.
_SCALAR = "xmm, xmm/reg/mem/imm"
_PACKED = "xmm, xmm/mem"
_INT2 = "xmm/reg, xmm/reg/mem/imm; mem, xmm/reg/imm"
_INT1 = "xmm/reg/mem"
_TARGET = "reg/label"

_FP_COST = {"add": 4, "sub": 4, "mul": 5, "div": 13, "sqrt": 20, "min": 4, "max": 4}

OPCODES: dict[str, OpcodeInfo] = {}


def _register(info: OpcodeInfo) -> None:
    OPCODES[info.mnemonic] = info


# --- SSE2 scalar double arithmetic -----------------------------------------
for _name, _ieee in [
    ("addsd", "add"), ("subsd", "sub"), ("mulsd", "mul"), ("divsd", "div"),
    ("minsd", "min"), ("maxsd", "max"),
]:
    _register(_op(_name, OpClass.FP_ARITH, _SCALAR, ieee=_ieee, cost=_FP_COST[_ieee]))
_register(_op("sqrtsd", OpClass.FP_ARITH, _SCALAR, ieee="sqrt", cost=_FP_COST["sqrt"]))
# FMA3 (VEX): dst = src2 * dst + src3, fused with a single rounding.
_register(_op("vfmadd213sd", OpClass.FP_ARITH, "xmm, xmm, xmm/reg/mem/imm", ieee="fma",
              cost=5))
_register(_op("ucomisd", OpClass.FP_ARITH, _SCALAR, ieee="ucomi", cost=3))
_register(_op("comisd", OpClass.FP_ARITH, _SCALAR, ieee="comi", cost=3))
for _pred in ("eq", "lt", "le", "unord", "neq", "nlt", "nle", "ord"):
    _register(_op(f"cmp{_pred}sd", OpClass.FP_ARITH, _SCALAR, ieee=f"cmp_{_pred}", cost=4))

# --- SSE2 packed double arithmetic ------------------------------------------
for _name, _ieee in [
    ("addpd", "add"), ("subpd", "sub"), ("mulpd", "mul"), ("divpd", "div"),
    ("minpd", "min"), ("maxpd", "max"),
]:
    _register(_op(_name, OpClass.FP_ARITH, _PACKED, ieee=_ieee, lanes=2,
                  cost=_FP_COST[_ieee]))
_register(_op("sqrtpd", OpClass.FP_ARITH, _PACKED, ieee="sqrt", lanes=2,
              cost=_FP_COST["sqrt"]))

# --- conversions -------------------------------------------------------------
_register(_op("cvtsi2sd", OpClass.FP_CVT, _SCALAR, ieee="cvtsi2sd", cost=5))
_register(_op("cvttsd2si", OpClass.FP_CVT, "reg, xmm/reg/mem/imm", ieee="cvttsd2si", cost=5))
_register(_op("cvtsd2si", OpClass.FP_CVT, "reg, xmm/reg/mem/imm", ieee="cvtsd2si", cost=5))

# --- FP bitwise (sign tricks; raise no FP exceptions) ------------------------
for _name in ("xorpd", "andpd", "orpd", "andnpd"):
    _register(_op(_name, OpClass.FP_BITWISE, _PACKED, cost=1))

# --- XMM moves ---------------------------------------------------------------
for _name, _forms in [
    ("movsd", f"{_SCALAR}; mem, xmm"), ("movapd", f"{_PACKED}; mem, xmm"),
    ("movupd", f"{_PACKED}; mem, xmm"), ("movhpd", f"{_SCALAR}; mem, xmm"),
    ("movlpd", f"{_SCALAR}; mem, xmm"), ("movq", f"{_SCALAR}; reg/mem, xmm"),
    ("movddup", _SCALAR),
]:
    _register(_op(_name, OpClass.FP_MOV, _forms, cost=1))
# Shuffles/unpacks: 2-operand lane rearrangers (shufpd takes an imm8
# control as a third operand).  Deliberately outside the emulator's
# default supported set — part of the "123 ignored" opcodes of §4.2.
_register(_op("unpcklpd", OpClass.FP_MOV, _PACKED, cost=1))
_register(_op("unpckhpd", OpClass.FP_MOV, _PACKED, cost=1))
_register(_op("shufpd", OpClass.FP_MOV, "xmm, xmm/mem, imm", cost=1))

# --- GPR moves ---------------------------------------------------------------
_register(_op("mov", OpClass.INT_MOV, _INT2, cost=1))
_register(_op("lea", OpClass.INT_MOV, "reg, mem", cost=1))
_register(_op("push", OpClass.INT_MOV, "xmm/reg/mem/imm", cost=2))
_register(_op("pop", OpClass.INT_MOV, _INT1, cost=2))
_register(_op("xchg", OpClass.INT_MOV, "xmm/reg, xmm/reg/mem; mem, xmm/reg", cost=2))

# --- integer ALU -------------------------------------------------------------
for _name in ("add", "sub", "and", "or", "xor", "imul", "shl", "shr", "sar"):
    _register(_op(_name, OpClass.INT_ALU, _INT2, cost=3 if _name == "imul" else 1))
for _name in ("cmp", "test"):
    _register(_op(_name, OpClass.INT_ALU, "xmm/reg/imm, xmm/reg/mem/imm; mem, xmm/reg/imm",
                  cost=1))
for _name in ("inc", "dec", "neg", "not"):
    _register(_op(_name, OpClass.INT_ALU, _INT1, cost=1))

# --- control flow ------------------------------------------------------------
for _name in ("jmp", "je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe",
              "ja", "jae", "js", "jns", "jp", "jnp"):
    _register(_op(_name, OpClass.CONTROL, _TARGET, cost=1))
_register(_op("call", OpClass.CONTROL, _TARGET, cost=4))
_register(_op("ret", OpClass.CONTROL, "", cost=4))

# --- system ------------------------------------------------------------------
for _name in ("int3", "nop", "hlt"):
    _register(_op(_name, OpClass.SYS, "", cost=1))

#: Stable numbering for the binary encoding.
OPCODE_IDS: dict[str, int] = {mn: i for i, mn in enumerate(sorted(OPCODES))}
OPCODE_BY_ID: dict[int, str] = {i: mn for mn, i in OPCODE_IDS.items()}

#: Condition code -> RFLAGS predicate, used by the CPU and the emulator.
CONDITION_CODES = {
    "je": lambda f: f.zf,
    "jne": lambda f: not f.zf,
    "jl": lambda f: f.sf != f.of,
    "jle": lambda f: f.zf or (f.sf != f.of),
    "jg": lambda f: (not f.zf) and (f.sf == f.of),
    "jge": lambda f: f.sf == f.of,
    "jb": lambda f: f.cf,
    "jbe": lambda f: f.cf or f.zf,
    "ja": lambda f: (not f.cf) and (not f.zf),
    "jae": lambda f: not f.cf,
    "js": lambda f: f.sf,
    "jns": lambda f: not f.sf,
    "jp": lambda f: f.pf,
    "jnp": lambda f: not f.pf,
}


#: OpClasses that touch FP state at all (reads included) — the lazy-FP
#: #NM trigger set: any retirement in one of these classes by a
#: non-owner thread forces an ownership switch.
FP_TOUCH_CLASSES = frozenset(
    (OpClass.FP_ARITH, OpClass.FP_BITWISE, OpClass.FP_MOV, OpClass.FP_CVT)
)


def xmm_write_mask(instr: "Instruction") -> int:
    """The XMM *lane* mask this instruction architecturally writes
    (bit ``2*xid + lane``), mirroring the interpreter's commit paths
    exactly.  Static per instruction — the micro-op lowering bakes it
    into per-superblock summaries and the interpreter caches it on the
    instruction, so both tiers charge identical dirty sets."""
    info = OPCODES[instr.mnemonic]
    cls = info.opclass
    ops = instr.operands
    if cls in (OpClass.FP_ARITH, OpClass.FP_CVT):
        mn = instr.mnemonic
        if mn in ("ucomisd", "comisd"):       # flags only
            return 0
        if mn in ("cvttsd2si", "cvtsd2si"):   # GPR destination
            return 0
        xid = ops[0].id
        if info.lanes == 2:
            return 0b11 << (2 * xid)
        return 0b01 << (2 * xid)              # scalar: low lane only
    if cls is OpClass.FP_BITWISE:
        return 0b11 << (2 * ops[0].id)
    if cls is OpClass.FP_MOV:
        mn = instr.mnemonic
        dst = ops[0]
        if not isinstance(dst, Xmm):          # store to memory / GPR
            return 0
        base = 2 * dst.id
        if mn == "movsd":
            # reg-reg merges into the low lane; a load zeroes the high.
            if isinstance(ops[1], Xmm):
                return 0b01 << base
            return 0b11 << base
        if mn == "movhpd":
            return 0b10 << base
        if mn in ("movlpd", "unpcklpd"):
            # unpcklpd writes dst.hi = src.lo, dst.lo keeps dst.lo.
            if mn == "unpcklpd":
                return 0b10 << base
            return 0b01 << base
        # shufpd/movapd/movupd/movq/movddup/unpckhpd write both lanes.
        return 0b11 << base
    return 0


@dataclass
class Instruction:
    """One decoded instruction.

    ``addr`` and ``size`` are filled in by the assembler; ``raw`` holds
    the encoded bytes (what Capstone-analog decoding operates on).
    """

    mnemonic: str
    operands: tuple[Operand, ...] = ()
    addr: int = 0
    size: int = 0
    raw: bytes = b""

    def __post_init__(self) -> None:
        info = OPCODES.get(self.mnemonic)
        if info is None:
            raise ValueError(f"unknown mnemonic {self.mnemonic!r}")
        ops = self.operands = tuple(self.operands)
        if tuple(map(type, ops)) not in info.types:
            raise EncodingError(_refusal(info, ops))

    @property
    def info(self) -> OpcodeInfo:
        return OPCODES[self.mnemonic]

    @property
    def opclass(self) -> OpClass:
        return self.info.opclass

    def xmm_writes(self) -> int:
        """Cached :func:`xmm_write_mask` — the interpreter's per-step
        dirty marking reads this once per instruction object."""
        mask = getattr(self, "_xmm_wmask", None)
        if mask is None:
            mask = self._xmm_wmask = xmm_write_mask(self)
        return mask

    def xmm_operands(self) -> int:
        """Cached lane mask over every XMM *operand* (reads and writes,
        both lanes) — the handler's declared clobber set under lazy
        state save: emulating this instruction touches exactly these
        registers host-side."""
        mask = getattr(self, "_xmm_omask", None)
        if mask is None:
            mask = 0
            for op in self.operands:
                if isinstance(op, Xmm):
                    mask |= 0b11 << (2 * op.id)
            self._xmm_omask = mask
        return mask

    def memory_operand(self) -> Mem | None:
        for op in self.operands:
            if isinstance(op, Mem):
                return op
        return None

    def __str__(self) -> str:
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} " + ", ".join(str(o) for o in self.operands)


def _refusal(info: OpcodeInfo, ops: tuple) -> str:
    """Why ``info.forms`` refuse ``ops``: the count, or the first
    operand no admitted shape with the operands before it allows."""
    if len(ops) != info.arity:
        return f"{info.mnemonic} expects {info.arity} operands, got {len(ops)}"
    for pos, op in enumerate(ops):
        head = tuple(map(type, ops[:pos]))
        allowed = {shape[pos] for shape in info.types if shape[:pos] == head}
        if type(op) not in allowed:
            kinds = [_KIND_TEXT[cls] for cls in OPERAND_KINDS.values() if cls in allowed]
            must = kinds[0] if len(kinds) == 1 else f"{', '.join(kinds[:-1])} or {kinds[-1]}"
            got = _KIND_TEXT.get(type(op), "an operand")
            return (f"{info.mnemonic} {('first', 'second', 'third')[pos]} operand "
                    f"must be {must}, got {got} {op}")
    raise AssertionError("an admitted shape")  # pragma: no cover
