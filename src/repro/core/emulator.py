"""The instruction emulator (§2.4).

Emulates one decoded micro-op against the alternative arithmetic
system:

- FP arithmetic promotes (or unboxes) sources, computes in altmath,
  and NaN-boxes the result;
- results that are genuine NaNs ("real NaNs") are stored as the
  canonical quiet NaN rather than boxed (§2.3);
- supported moves (the ~40-opcode subset of §4.2) shuttle raw bit
  patterns — boxed values travel as bits;
- everything else is unsupported and terminates emulation sequences.

Binding (§2.4) happens once per micro-op and VM: :func:`bind` resolves
operands, the dispatch, the altmath op and every constant charge into
a pre-bound step, which per trap computes only effective addresses and
the data-dependent value flow.  The simulated ``bind`` charge is still
made on every emulation; only host work moves.

The default supported-move set deliberately excludes ``movhpd`` /
``movlpd`` (partial vector moves), reproducing the Figure 7 sequence
terminator, and excludes ``andpd``/``orpd`` masks while *supporting*
``xorpd`` (negation) via the sign-bit convention of
:mod:`repro.core.nanbox`.
"""

from __future__ import annotations

from repro.core import nanbox
from repro.errors import ConfigError
from repro.fpu import bits as B
from repro.fpu.ieee import UCOMI_EQUAL, UCOMI_GREATER, UCOMI_LESS, UCOMI_UNORDERED
from repro.machine.isa import GPR_IDS, Label, Mem, Reg, Xmm
from repro.machine.uops import CMP_TABLES, MicroOp

U64 = 0xFFFF_FFFF_FFFF_FFFF
RSP = 7

#: Instructions the emulator can decode, bind and emulate (§4.2's
#: "about 40 move opcodes" plus the arithmetic core and cmpxx family).
DEFAULT_SUPPORTED = frozenset(
    {
        # scalar arithmetic
        "addsd", "subsd", "mulsd", "divsd", "sqrtsd", "minsd", "maxsd",
        "vfmadd213sd",
        # packed arithmetic
        "addpd", "subpd", "mulpd", "divpd", "sqrtpd", "minpd", "maxpd",
        # compares (the family the baseline FPVM omitted; §4.2)
        "ucomisd", "comisd",
        "cmpeqsd", "cmpltsd", "cmplesd", "cmpneqsd", "cmpnltsd",
        "cmpnlesd", "cmpordsd", "cmpunordsd",
        # conversions
        "cvtsi2sd", "cvttsd2si", "cvtsd2si",
        # FP moves (partial-vector movhpd/movlpd intentionally absent)
        "movsd", "movapd", "movupd", "movq",
        # negation via sign-mask xor composes with the box convention
        "xorpd",
        # integer moves (the §4.2 extension)
        "mov", "lea", "push", "pop",
    }
)

#: Every mnemonic the emulator has semantics for: the default set plus
#: the partial moves the move-support ablation enables.  A config that
#: asks for anything else is rejected with :class:`ConfigError`.
EMULATABLE = DEFAULT_SUPPORTED | {"movhpd", "movlpd"}


class Emulator:
    """Per-VM emulator: a cache of pre-bound steps, one per distinct
    micro-op; all other state lives in the VM (allocator, altmath,
    ledger, telemetry)."""

    def __init__(self, vm) -> None:
        self.vm = vm
        self.supported_set = set(vm.config.supported_instructions)
        unknown = self.supported_set - EMULATABLE
        if unknown:
            raise ConfigError(f"supported_instructions names {sorted(unknown)}, "
                              "which the emulator has no semantics for")
        #: MicroOp -> step, built by :func:`bind` on first use.
        self.steps: dict = {}
        self.resolve, self.produce, self.owned = _value_flow(vm)

    # ----------------------------------------------------------- queries
    def supported(self, uop: MicroOp) -> bool:
        return uop.mnemonic in self.supported_set

    def any_source_boxed(self, uop: MicroOp, context) -> bool:
        """Termination rule (2) probe: does any FP source operand hold a
        NaN-boxed value owned by our allocator?"""
        return self.step(uop).probe(context)

    # --------------------------------------------------------- emulation
    def emulate(self, uop: MicroOp, context) -> bool:
        """Emulate one micro-op; returns False if unsupported.  Charges
        bind/emul/altmath and advances nothing — the caller owns RIP."""
        if uop not in self.steps and uop.mnemonic not in self.supported_set:
            return False
        self.step(uop).run(context)
        self.vm.telemetry.emulated_instructions += 1
        return True

    def step(self, uop: MicroOp):
        """The pre-bound step for ``uop``, built on first use."""
        steps = self.steps
        step = steps.get(uop)
        if step is None:
            if len(steps) >= self.vm.decode_cache.capacity:
                steps.clear()  # decode misses lower fresh micro-ops: drop dead steps
            # A module-global lookup: a wrapper installed on ``bind`` sees builds.
            step = steps[uop] = bind(uop, self.vm)
        return step

    def demote_bits(self, bits: int) -> int:
        """Public helper for wrappers/correctness: collapse a boxed
        pattern to plain binary64 (identity on everything else)."""
        vm = self.vm
        if nanbox.is_boxed(bits):
            ptr, negated = nanbox.unbox(bits)
            if vm.allocator.owns(ptr):
                if vm.flow is not None:
                    vm.flow.record_demote(ptr)
                vm.charge("altmath", vm.altmath.costs.demote)
                vm.telemetry.demotions += 1
                out = vm.altmath.demote(vm.allocator.load(ptr))
                if negated:
                    out ^= B.F64_SIGN_MASK
                return out
        return bits


def _value_flow(vm):
    """``(resolve, produce, owned)`` for one VM: bits -> alt value (unbox
    ours, promote the rest); alt value -> canonical NaN or a fresh box
    (``context`` gives GC roots for an emergency collection); is this a
    box we own.  Flow hooks are compiled in only if the VM records."""
    ledger = vm.ledger
    costs = vm.altmath.costs
    charge_load = ledger.charger(("altmath", costs.load))
    charge_neg = ledger.charger(("altmath", costs.op("neg")))
    charge_promote = ledger.charger(("altmath", costs.promote))
    charge_box = ledger.charger(("altmath", costs.box))
    telemetry = vm.telemetry
    owns, load = vm.allocator.owns, vm.allocator.load
    altmath = vm.altmath
    promote, unary, is_nan_value = altmath.promote, altmath.unary, altmath.is_nan_value
    alloc_box = vm.alloc_box
    is_boxed, box_bits = nanbox.is_boxed, nanbox.box_bits
    ptr_mask, sign, qnan = nanbox.NANBOX_PTR_MASK, B.F64_SIGN_MASK, B.CANONICAL_QNAN

    def owned(bits):
        return is_boxed(bits) and owns(bits & ptr_mask)

    def resolve(bits):
        if is_boxed(bits):
            ptr = bits & ptr_mask
            if owns(ptr):
                charge_load()
                value = load(ptr)
                if bits & sign:
                    charge_neg()
                    value = unary("neg", value)
                return value
        charge_promote()
        telemetry.promotions += 1
        return promote(bits)

    def produce(value, context):
        if is_nan_value(value):
            return qnan
        charge_box()
        ptr = alloc_box(value, context)
        telemetry.boxes_allocated += 1
        return box_bits(ptr)

    flow = vm.flow
    if flow is None:
        return resolve, produce, owned
    note_source, note_clamp, note_birth = flow.note_source, flow.note_clamp, flow.note_birth

    def resolve_noted(bits):
        if owned(bits):
            note_source(bits & ptr_mask)
        return resolve(bits)

    def produce_noted(value, context):
        bits = produce(value, context)
        if bits == qnan:  # a clamped real NaN; a box is never qNaN
            note_clamp()
        else:
            note_birth(bits & ptr_mask)
        return bits

    return resolve_noted, produce_noted, owned


# ------------------------------------------------------------ operands
# Accessors take ``(ctx, lane, ea)`` / ``(ctx, value, lane, ea)``; ``ea``
# is computed per emulation before any write.  Steps share them.
def _xmm_access(xid: int):
    return (lambda ctx, lane, ea: ctx.read_xmm(xid, lane),
            lambda ctx, value, lane, ea: ctx.write_xmm(xid, value, lane))


def _gpr_access(rid: int):
    return (lambda ctx, lane, ea: ctx.read_gpr(rid),
            lambda ctx, value, lane, ea: ctx.write_gpr(rid, value))


def _mem_access(size: int, fp: bool):
    return (lambda ctx, lane, ea: ctx.memory.observed_load(ea + 8 * lane, size, fp),
            lambda ctx, value, lane, ea: ctx.memory.observed_store(
                ea + 8 * lane, value, size, fp))


_XMM = tuple(_xmm_access(i) for i in range(16))
_GPR = tuple(_gpr_access(i) for i in range(16))
_MEM = {(size, fp): _mem_access(size, fp) for size in (1, 2, 4, 8, 16) for fp in (False, True)}


def _access(op, fp: bool):
    """``(read, write)`` for one operand."""
    if isinstance(op, Xmm):
        return _XMM[op.id]
    if isinstance(op, Reg):
        return _GPR[op.id]
    if isinstance(op, Mem):
        return _MEM[op.size, fp]
    value = ((op.addr or 0) if isinstance(op, Label) else op.value) & U64

    def unwritable(ctx, v, lane, ea):
        raise ValueError(f"cannot write operand {op}")
    return (lambda ctx, lane, ea: value), unwritable


def _locator(op):
    """``(base, index, scale, disp)`` of a memory operand, else None."""
    if not isinstance(op, Mem):
        return None
    return (GPR_IDS[op.base] if op.base is not None else None,
            GPR_IDS[op.index] if op.index is not None else None,
            op.scale, op.disp)


def _address(ctx, loc) -> int:
    if loc is None:
        return 0
    base, index, scale, ea = loc
    if base is not None:
        ea += ctx.read_gpr(base)
    if index is not None:
        ea += ctx.read_gpr(index) * scale
    return ea & U64


# ------------------------------------------------------------- binding
def bind(uop: MicroOp, vm):
    """Bind one micro-op for one VM into a step.

    ``step.run(context)`` emulates the micro-op with every constant
    charge (``bind`` per operand, ``emul`` dispatch, the op's fixed
    altmath cost) pre-resolved; ``step.probe(context)`` is the
    boxed-source check of sequence termination rule (2), False for
    micro-ops it does not apply to (non-FP ops and ``cvtsi2sd``)."""
    step = _BY_KIND[uop.emu_kind](uop, vm)
    if vm.flow is None:
        return step
    return _FlowStep(step, vm.flow, uop.addr)


class _Step:
    """One micro-op bound for one VM.  ``r0``-``r2`` read operands,
    ``w0`` writes the first one, ``m0``-``m2`` locate memory operands
    (None for the others) and ``arg`` is kind-specific.  ``run``
    charges, computes the effective addresses and calls ``body``; a
    fused sequence trace calls ``body`` and settles ``charges`` itself."""

    __slots__ = ("charge", "lanes", "r0", "r1", "r2", "w0", "m0", "m1", "m2", "arg")

    #: per-operand ``fp`` flag of memory accesses (observers see it).
    FP = (True, True, True)

    def __init__(self, uop: MicroOp, vm) -> None:
        ops = uop.operands
        pad = 3 - len(ops)
        access = [_access(op, fp) for op, fp in zip(ops, self.FP)] + [(None, None)] * pad
        (self.r0, self.w0), (self.r1, _), (self.r2, _) = access
        self.m0, self.m1, self.m2 = [_locator(op) for op in ops] + [None] * pad
        self.lanes = range(uop.lanes)
        costs = vm.costs
        self.charge = vm.ledger.charger(
            ("bind", costs.bind_per_operand * max(len(ops), 1)),
            ("emul", costs.emul_dispatch),
            *self.op_charges(uop, vm.altmath.costs))

    #: the constant ``(category, cycles)`` charges of one emulation.
    charges = property(lambda self: self.charge.charges)

    def op_charges(self, uop: MicroOp, costs) -> tuple:
        """The op's constant ledger charges beyond bind and emul."""
        return ()

    def run(self, ctx) -> None:
        self.charge()
        self.body(ctx, _address(ctx, self.m0), _address(ctx, self.m1))

    def probe(self, ctx) -> bool:
        return False


class _Arith(_Step):
    """FP arithmetic: sources resolve to alt values through the VM's
    value flow, results produce boxes (or the canonical NaN).  ``fn``
    is the altmath method ``ALTMATH``; each lane is charged
    ``costs.op(uop.ieee)``, or the ``COST`` field if set."""

    __slots__ = ("resolve", "produce", "owned", "fn", "counts")
    ALTMATH = "binary"
    COST = None
    #: operands the boxed-source probe reads, lane by lane.
    PROBE = (0, 1)

    def __init__(self, uop: MicroOp, vm) -> None:
        super().__init__(uop, vm)
        emulator = vm.emulator
        self.resolve, self.produce, self.owned = emulator.resolve, emulator.produce, emulator.owned
        self.fn = getattr(vm.altmath, self.ALTMATH)
        self.counts = vm.telemetry.altmath_ops
        self.arg = uop.ieee if uop.emu_kind == "bin" else uop.emu_arg

    def op_charges(self, uop, costs):
        unit = costs.op(uop.ieee) if self.COST is None else getattr(costs, self.COST)
        return (("altmath", unit * uop.lanes),)

    def probe(self, ctx) -> bool:
        readers, locs, owned = (self.r0, self.r1, self.r2), (self.m0, self.m1, self.m2), self.owned
        for lane in self.lanes:
            for i in self.PROBE:
                if owned(readers[i](ctx, lane, _address(ctx, locs[i]))):
                    return True
        return False


class _Bin(_Arith):
    def body(self, ctx, ea0: int, ea1: int) -> None:
        r0, r1, w0, resolve, produce = self.r0, self.r1, self.w0, self.resolve, self.produce
        binary, op, counts = self.fn, self.arg, self.counts
        for lane in self.lanes:
            a = resolve(r0(ctx, lane, ea0))
            b = resolve(r1(ctx, lane, ea1))
            counts[op] += 1
            w0(ctx, produce(binary(op, a, b), ctx), lane, ea0)


class _Sqrt(_Arith):
    ALTMATH = "unary"
    PROBE = (1,)

    def body(self, ctx, ea0: int, ea1: int) -> None:
        for lane in self.lanes:
            value = self.resolve(self.r1(ctx, lane, ea1))
            self.w0(ctx, self.produce(self.fn("sqrt", value), ctx), lane, ea0)


class _Fma(_Arith):
    """dst = src2 * dst + src3 (the 213 operand order)."""

    ALTMATH = "fma"
    PROBE = (0, 1, 2)

    def body(self, ctx, ea0: int, ea1: int) -> None:
        resolve = self.resolve
        mul2 = resolve(self.r1(ctx, 0, ea1))
        mul1 = resolve(self.r0(ctx, 0, ea0))
        addend = resolve(self.r2(ctx, 0, _address(ctx, self.m2)))
        self.counts["fma"] += 1
        self.w0(ctx, self.produce(self.fn(mul2, mul1, addend), ctx), 0, ea0)


class _Cvtsi2sd(_Arith):
    ALTMATH = "from_i64"
    COST = "convert"
    FP = (True, False)
    PROBE = ()  # integer source; never boxed

    def body(self, ctx, ea0: int, ea1: int) -> None:
        self.w0(ctx, self.produce(self.fn(self.r1(ctx, 0, ea1)), ctx), 0, ea0)


class _Cvt2si(_Arith):
    ALTMATH = "to_i64"
    COST = "convert"
    FP = (False, True)
    PROBE = (1,)

    def body(self, ctx, ea0: int, ea1: int) -> None:
        value = self.resolve(self.r1(ctx, 0, ea1))
        self.w0(ctx, self.fn(value, truncate=self.arg), 0, ea0)


class _Compare(_Arith):
    """ucomisd/comisd set flags; cmpXXsd writes an all-ones or zero mask."""

    ALTMATH = "compare"
    COST = "compare"

    def __init__(self, uop: MicroOp, vm) -> None:
        super().__init__(uop, vm)
        if uop.emu_kind == "cmp":
            self.arg = CMP_TABLES[uop.emu_arg]

    def body(self, ctx, ea0: int, ea1: int) -> None:
        a = self.resolve(self.r0(ctx, 0, ea0))
        b = self.resolve(self.r1(ctx, 0, ea1))
        c = self.fn(a, b)
        if self.arg is not None:
            if_unord, fn = self.arg
            hit = if_unord if c is None else fn(c)
            self.w0(ctx, U64 if hit else 0, 0, ea0)
            return
        packed = (
            UCOMI_UNORDERED if c is None
            else UCOMI_EQUAL if c == 0
            else UCOMI_LESS if c < 0
            else UCOMI_GREATER
        )
        flags = ctx.flags
        flags.zf, flags.pf, flags.cf = bool(packed & 1), bool(packed & 2), bool(packed & 4)
        flags.sf = flags.of = False


class _Xorpd(_Step):
    def __init__(self, uop: MicroOp, vm) -> None:
        super().__init__(uop, vm)
        self.arg = vm.emulator.demote_bits

    def body(self, ctx, ea0: int, ea1: int) -> None:
        demote, is_boxed = self.arg, nanbox.is_boxed
        for lane in (0, 1):
            a = self.r0(ctx, lane, ea0)
            b = self.r1(ctx, lane, ea1)
            # Raw xor: correct for plain doubles, and correct for boxed
            # values when the mask only touches the sign bit (the
            # compiler idiom) thanks to the negation convention.
            if is_boxed(a) and (b & ~B.F64_SIGN_MASK):
                # A non-sign mask over a boxed value: demote first.
                a = demote(a)
            if is_boxed(b) and (a & ~B.F64_SIGN_MASK) and not is_boxed(a):
                b = demote(b)
            self.w0(ctx, (a ^ b) & U64, lane, ea0)


class _Move(_Step):
    """FP moves.  movsd/movq/movhpd/movlpd copy one raw lane, ``arg``
    being ``(src_lane, dst_lane, xmm whose high lane to zero or None)``
    (a movsd load and a movq into an XMM register zero it);
    movapd/movupd (``arg`` None) read both lanes, then write both."""

    def __init__(self, uop: MicroOp, vm) -> None:
        super().__init__(uop, vm)
        mn = uop.mnemonic
        dst, src = uop.operands
        dst_xmm = isinstance(dst, Xmm)
        lanes = ((0, 1) if dst_xmm else (1, 0)) if mn == "movhpd" else (0, 0)
        zero = dst_xmm and (mn == "movq" or (mn == "movsd" and not isinstance(src, Xmm)))
        self.arg = None if mn in ("movapd", "movupd") else (*lanes, dst.id if zero else None)

    def body(self, ctx, ea0: int, ea1: int) -> None:
        if self.arg is None:
            lo = self.r1(ctx, 0, ea1)
            hi = self.r1(ctx, 1, ea1)
            self.w0(ctx, lo, 0, ea0)
            self.w0(ctx, hi, 1, ea0)
            return
        src_lane, dst_lane, zero_high = self.arg
        self.w0(ctx, self.r1(ctx, src_lane, ea1), dst_lane, ea0)
        if zero_high is not None:
            ctx.write_xmm(zero_high, 0, 1)


class _IntMove(_Step):
    """mov, lea, push and pop."""

    FP = (False, False)

    def __init__(self, uop: MicroOp, vm) -> None:
        super().__init__(uop, vm)
        self.arg = uop.mnemonic

    def body(self, ctx, ea0: int, ea1: int) -> None:
        mn = self.arg
        if mn == "mov":
            self.w0(ctx, self.r1(ctx, 0, ea1), 0, ea0)
        elif mn == "lea":
            self.w0(ctx, ea1, 0, ea0)
        elif mn == "push":
            rsp = (ctx.read_gpr(RSP) - 8) & U64
            ctx.write_gpr(RSP, rsp)
            ctx.memory.write_u64(rsp, self.r0(ctx, 0, ea0))
        else:  # pop
            rsp = ctx.read_gpr(RSP)
            self.w0(ctx, ctx.memory.read_u64(rsp), 0, ea0)
            ctx.write_gpr(RSP, (rsp + 8) & U64)


_BY_KIND = {"bin": _Bin, "sqrt": _Sqrt, "fma": _Fma, "cvtsi2sd": _Cvtsi2sd,
            "cvt2si": _Cvt2si, "ucomi": _Compare, "cmp": _Compare, "xorpd": _Xorpd,
            "fpmov": _Move, "intmov": _IntMove}


class _FlowStep:
    """A step with the flow recorder's per-op window around its body.
    It carries the wrapped step's charger and locators, so ``run`` and
    a fused trace drive it like any other step."""

    __slots__ = ("step", "begin_op", "end_op", "addr", "charge", "m0", "m1")

    def __init__(self, step, flow, addr: int) -> None:
        self.step, self.addr = step, addr
        self.begin_op, self.end_op = flow.begin_op, flow.end_op
        self.charge, self.m0, self.m1 = step.charge, step.m0, step.m1

    charges = _Step.charges
    run = _Step.run

    def body(self, ctx, ea0: int, ea1: int) -> None:
        self.begin_op(self.addr)
        self.step.body(ctx, ea0, ea1)
        self.end_op()

    def probe(self, ctx) -> bool:
        return self.step.probe(ctx)
