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

Binding (§2.4) happens once per micro-op and VM: :func:`bind` turns the
micro-op into one function specialized to its operand shapes, with
register ids, displacements, the altmath op and every constant charge
resolved, so per trap it computes only effective addresses and the
data-dependent value flow.  The simulated ``bind`` charge is still
made on every emulation; only host work moves.

The default supported-move set deliberately excludes ``movhpd`` /
``movlpd`` (partial vector moves), reproducing the Figure 7 sequence
terminator, and excludes ``andpd``/``orpd`` masks while *supporting*
``xorpd`` (negation) via the sign-bit convention of
:mod:`repro.core.nanbox`.
"""

from __future__ import annotations

from repro.core import nanbox
from repro.core.alloc import FREE
from repro.errors import BoxHeapExhaustedError, ConfigError
from repro.fpu import bits as B
from repro.fpu.ieee import UCOMI_EQUAL, UCOMI_GREATER, UCOMI_LESS, UCOMI_UNORDERED
from repro.machine import codegen
from repro.machine.isa import OpClass, Xmm
from repro.machine.uops import CMP_TABLES, MicroOp, fp_mov_text, int_mov_text

U64 = 0xFFFF_FFFF_FFFF_FFFF

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

#: ``step.run(context, mode)``: RUN emulates; ENTER first applies
#: sequence termination rule (2) where it applies to the kind, returning
#: False without a side effect when no source holds a box we own.
RUN, ENTER = 0, 1


class Emulator:
    """Per-VM emulator: a cache of bound steps, one per distinct
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
        self.resolve, self.owned, self.produce, self.settle = _value_flow(vm)
        #: set by a step run with ENTER whose source read raised (its
        #: charges are not due); the sequence walk and the fused replay
        #: read and clear it.
        self.probe_raised = False
        altmath, flow = vm.altmath, vm.flow
        #: what every generated step of this VM may name (see ``_ENV``).
        self.env = dict(
            resolve=self.resolve, owned=self.owned, produce=self.produce, emu=self,
            slots=vm.allocator.slots, box0=nanbox.box_bits(vm.allocator.base),
            counts=vm.telemetry.altmath_ops,
            demote=self.demote_bits,
            begin_op=flow.begin_op if flow is not None else None,
            end_op=flow.end_op if flow is not None else None,
            **{name: getattr(altmath, name) for name in _ALTMATH})

    # ----------------------------------------------------------- queries
    def supported(self, uop: MicroOp) -> bool:
        return uop.mnemonic in self.supported_set

    # --------------------------------------------------------- emulation
    def emulate(self, uop: MicroOp, context, mode: int = RUN) -> bool:
        """Emulate one micro-op; returns False if unsupported.  With
        ``mode`` ENTER, sequence termination rule (2) applies where it
        applies to the kind: False too when no source holds a box we
        own, with nothing charged, marked or counted.  Charges
        bind/emul/altmath (not for a probe read that raises) and
        advances nothing — the caller owns RIP."""
        if uop not in self.steps and uop.mnemonic not in self.supported_set:
            return False
        step = self.step(uop)
        try:
            if not step.run(context, mode):
                return False
        except BaseException:
            if self.probe_raised:
                self.probe_raised = False
            else:
                step.charge()
            raise
        finally:
            self.settle()
        step.charge()
        if step.writes:
            context.mark(step.writes)
        self.vm.telemetry.emulated_instructions += 1
        return True

    def step(self, uop: MicroOp):
        """The bound step for ``uop``, built on first use."""
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


#: Sign aside, a box's bits lie below ``_TOP`` and those of ours at or
#: above the bits of the box at ``base`` (see :func:`_value_flow`).
_UNSIGNED = ~B.F64_SIGN_MASK & U64
_TOP = nanbox._PATTERN + (1 << nanbox.NANBOX_PTR_BITS)


def _value_flow(vm):
    """``(resolve, owned, produce, settle)`` for one VM: bits -> alt
    value (unbox ours, promote the rest); ``owned(value, bits)``, what
    ``resolve(bits)`` gives for bits already found to box ``value``, one
    of ours (the generated probe fetched it); alt value -> canonical NaN
    or a fresh box (``context`` gives GC roots for an emergency
    collection).  They add their altmath cycles (load, negation,
    promotion, box) to one pending count, which ``settle()`` charges:
    every caller settles before it returns, raising or not, while the
    ledger is still bound to the same CPU.  They are generated from
    :data:`_FLOW` once per box store, so ``resolve`` tests ownership
    inline (:func:`_if_owned`) and makes no calls for it.  Flow hooks
    are wrapped around them only if the VM records."""
    costs = vm.altmath.costs
    allocator, altmath = vm.allocator, vm.altmath
    live = allocator.store.test("box")
    make = codegen.maker(_FLOWS, allocator.store.kind, lambda: _FLOW.format(owned="\n".join(
        _indent(_if_owned("bits", live, _UNBOX), 8))), _GLOBALS, "<value flow>")
    resolve, owned, produce, settle = make(
        vm.ledger, vm.telemetry, allocator.slots, nanbox.box_bits(allocator.base),
        altmath.promote, altmath.unary, altmath.is_nan_value, allocator.alloc,
        vm.alloc_box_after_gc, nanbox.box_bits, costs.load, costs.load + costs.op("neg"),
        costs.promote, costs.box)
    ptr_mask, qnan, owns = nanbox.NANBOX_PTR_MASK, B.CANONICAL_QNAN, allocator.owns

    flow = vm.flow
    if flow is None:
        return resolve, owned, produce, settle
    note_source, note_clamp, note_birth = flow.note_source, flow.note_clamp, flow.note_birth

    def resolve_noted(bits):
        if nanbox.is_boxed(bits) and owns(bits & ptr_mask):
            note_source(bits & ptr_mask)
        return resolve(bits)

    def owned_noted(value, bits):
        note_source(bits & ptr_mask)
        return owned(value, bits)

    def produce_noted(value, context):
        bits = produce(value, context)
        if bits == qnan:  # a clamped real NaN; a box is never qNaN
            note_clamp()
        else:
            note_birth(bits & ptr_mask)
        return bits

    return resolve_noted, owned_noted, produce_noted, settle


#: Source of the ``make`` that builds one VM's value flow (see
#: :func:`_value_flow`); ``{owned}`` stands for the lines of ``resolve``
#: that return the value of a box we own.
_FLOW = """\
def make(ledger, telemetry, slots, box0, promote, unary, is_nan_value, alloc,
         alloc_after_gc, box_bits, load, load_neg, promote_cost, box_cost):
    pending = 0

    def resolve(bits):
        nonlocal pending
{owned}
        pending += promote_cost
        telemetry.promotions += 1
        return promote(bits)

    def owned(value, bits):
        nonlocal pending
        if bits & SIGN:
            pending += load_neg
            return unary("neg", value)
        pending += load
        return value

    def produce(value, context):
        nonlocal pending
        if is_nan_value(value):
            return QNAN
        pending += box_cost
        try:  # vm.alloc_box, inline
            ptr = alloc(value)
        except BoxHeapExhaustedError:
            ptr = alloc_after_gc(value, context)
        telemetry.boxes_allocated += 1
        return SIG | ptr if ptr <= PTR_MASK else box_bits(ptr)  # box_bits raises

    def settle():
        nonlocal pending
        if pending:
            ledger.charge("altmath", pending)
            pending = 0

    return resolve, owned, produce, settle
"""

#: ``resolve``'s lines for the value ``box`` of the box ``bits`` owns.
_UNBOX = ["if bits & SIGN:", "    pending += load_neg", '    return unary("neg", box)',
          "pending += load", "return box"]

#: box store kind -> the ``make`` of :data:`_FLOW` for it.
_FLOWS: dict = {}


def _if_owned(bits: str, live: str, then: list[str]) -> list[str]:
    """Lines that run ``then`` when ``bits`` box a pointer our allocator
    owns, with ``box`` bound to its value: :meth:`BoxAllocator.owns`,
    inline.  One range test of the sign-cleared bits checks the box
    signature and that the pointer is not below ``base``; their offset
    from ``box0`` is the pointer's from ``base``, 16-aligned for a slot;
    past the top slot the index raises; and ``live``, the store's
    liveness test of ``box``, tells a box from an emptied slot."""
    return [f"if box0 <= (u := {bits} & UNSIGNED) < TOP and not (at := u - box0) & 15:",
            "    try:", "        box = slots[at >> 4]", "    except IndexError:", "        pass",
            "    else:", f"        if {live}:", *_indent(then, 12)]


# ------------------------------------------------------------- binding
class _Step:
    """One micro-op bound for one VM.  ``run(context, mode)`` is its
    generated function (modes RUN and ENTER); ``charge`` records
    its constant charges (``bind`` per operand, ``emul`` dispatch, the
    op's fixed altmath cost), kept as ``charge.charges``; ``writes`` is
    the static lazy-FP mask of the XMM lanes a completed run wrote.
    :meth:`Emulator.emulate` charges, runs and marks one instruction;
    the sequence emulator's walk and fused traces run steps directly and
    settle value flow, marks and counts once per trap."""

    __slots__ = ("run", "charge", "writes")

    def __init__(self, run, charge, writes: int) -> None:
        self.run, self.charge, self.writes = run, charge, writes


def bind(uop: MicroOp, vm):
    """Bind one micro-op for one VM into a :class:`_Step`."""
    build, fp, probe, cost = _KINDS[uop.emu_kind]
    ops = uop.operands
    shape, params = codegen.scan(ops)
    writes, body = build(uop, params)
    flow = vm.flow is not None
    if flow:
        params["addr"] = uop.addr
    store = vm.allocator.store
    key = (uop.mnemonic, flow, store.kind, *shape)
    make = codegen.maker(_MAKERS, key, lambda: _source(ops, params, body, fp, probe,
                                                       range(uop.lanes), flow,
                                                       store.test("box")),
                         _GLOBALS, "<emulator step>")
    costs = vm.costs
    charges = [("bind", costs.bind_per_operand * max(len(ops), 1)),
               ("emul", costs.emul_dispatch)]
    if cost is not None:
        altmath = vm.altmath.costs
        unit = altmath.op(uop.ieee) if cost == "op" else getattr(altmath, cost)
        charges.append(("altmath", unit * uop.lanes))
    return _Step(make(vm.emulator.env, **params), vm.ledger.charger(*charges), writes)


def _lanes_mask(op, lanes) -> int:
    """The lazy-FP mask (bit ``2*xid + lane``) of writing ``lanes`` of
    destination ``op``: 0 unless it is an XMM register."""
    mask = 0
    if isinstance(op, Xmm):
        for lane in lanes:
            mask |= 1 << (2 * op.id + lane)
    return mask


#: The altmath methods steps call, looked up on the VM's system when
#: the emulator is built (so a wrapper installed on the class sees them).
_ALTMATH = ("binary", "unary", "fma", "compare", "from_i64", "to_i64")
#: Every name a step may take from ``Emulator.env``.
_ENV = ("resolve", "owned", "produce", "emu", "slots", "box0", "counts", "demote",
        "begin_op", "end_op", *_ALTMATH)


#: Module globals of the generated code.
_GLOBALS = {
    **codegen.GLOBALS, "SIGN": B.F64_SIGN_MASK,
    "SIG_MASK": nanbox._PATTERN_MASK, "SIG": nanbox._PATTERN,
    "UNSIGNED": _UNSIGNED, "TOP": _TOP, "FREE": FREE, "PTR_MASK": nanbox.NANBOX_PTR_MASK,
    "QNAN": B.CANONICAL_QNAN, "BoxHeapExhaustedError": BoxHeapExhaustedError,
    "UCOMI_UNORDERED": UCOMI_UNORDERED, "UCOMI_EQUAL": UCOMI_EQUAL,
    "UCOMI_LESS": UCOMI_LESS, "UCOMI_GREATER": UCOMI_GREATER,
}


#: (mnemonic, flow on, box store kind, *operand shape) -> the ``make`` its source
#: defines.  The source depends on the key alone (operand values are ``make``'s
#: arguments), so one process-wide table serves every VM; it holds one entry per
#: distinct key ever bound, a few dozen.
_MAKERS: dict = {}


def _source(ops, params, body, fp, probe, lanes, flow: bool, live: str) -> str:
    """Source of ``make(env, **params)``, which returns the step
    function, its operand access a context :class:`codegen.Text`'s.
    ``body(t, src, dst)`` emits into ``t``; ``src(pos, lane)`` is a
    source lane's bits, ``src(pos, lane, True)`` its alt value,
    ``dst(lane, value)`` writes operand 0.  ``fp`` gives each operand's
    access kind, and addresses
    are computed once, first (a move, ``fp`` None, does both as the
    CPU).  ``probe`` names the operands rule (2) checks in each of
    ``lanes`` (None: no rule); ``flow`` opens the recorder's op window;
    ``live`` is the store's liveness test of ``box``."""
    t = codegen.Text(ops, ctx=True)
    window = (["begin_op(addr)"], ["end_op()"]) if flow else ([], [])

    def src(pos, lane, value=False):
        return _resolved(t.read(pos, fp[pos], lane=lane), value)

    def dst(lane, value):
        t.write(0, value, fp[0], lane=lane)
    if fp is not None:
        t.hold()
    lines = [*window[0], *t.capture(body, t, src, dst), *window[1], "return True"]
    if probe is not None:
        probed = [(pos, lane) for lane in lanes for pos in probe]
        lines = _entry(t, body, fp, probed, window, live, dst) + lines
    code = [*t.lines, *lines]
    text = "\n".join(code)
    code = [*t.prologue(text), *code]
    # Every name the step reads is a local bound as a default: no
    # cell per value, and the fastest lookup.
    names = [f"{name}=env[{name!r}]" for name in codegen.used(text, _ENV)]
    names += [f"{name}={name}" for name in params]
    return "\n".join([f"def make({', '.join(['env', *params])}):",
                      f"    def step(ctx, mode={RUN}, {', '.join(names)}):",
                      *_indent(code, 8), "    return step", ""])


def _entry(t, body, fp, probed, window, live: str, dst) -> list[str]:
    """The ENTER branch.  It reads the ``probed`` source lanes in
    order until one holds a box we own (:func:`_if_owned`, which
    fetches its value), and returns False if none does; then it
    runs the body on the bits read so far and reads the rest, so it
    reads each source once, except that after the first lane a GPR
    or memory source is read again where a write to a non-XMM
    destination could have changed it.  The owned lane's value is the fetched
    one (``owned``), unless it is read again.  A probe read that
    raises under ENTER sets ``emu.probe_raised``: nothing ran, so the
    step's charges are not due."""
    reread = t.kind(0) != "x"
    lines = []
    for i, (pos, lane) in enumerate(probed):
        v = f"v{pos}{lane}"
        read = t.capture(lambda: t.emit(f"{v} = {t.read(pos, fp[pos], lane=lane)}"))
        if t.kind(pos) == "m":
            read = ["try:", *_indent(read), "except BaseException:",
                    "    emu.probe_raised = True", "    raise"]
        known = probed[:i + 1]

        def entered(p, l, value=False, known=known, found=(pos, lane)):
            if (p, l) not in known or l and reread and t.kind(p) != "x":
                return _resolved(t.read(p, fp[p], lane=l), value)
            if value and (p, l) == found:
                return f"owned(box, v{p}{l})"
            return _resolved(f"v{p}{l}", value)
        lines += [*read, *_if_owned(v, live, [
            *window[0], *t.capture(body, t, entered, dst), *window[1], "return True"])]
    return ["if mode:", *_indent([*lines, "return False"])]


def _indent(lines, n: int = 4) -> list[str]:
    return [" " * n + line for line in lines]


def _resolved(bits: str, value: bool) -> str:
    return f"resolve({bits})" if value else bits


# ---------------------------------------------------------- step kinds
# Each builds one emulation kind's body from ``(uop, params)`` and returns
# ``(lazy-FP mask of the lanes written, body)``; ``body(t, src, dst)``
# emits the source lines into the text ``t`` (see :func:`_source`).
def _bin(uop, params):
    params["op"] = uop.ieee
    lanes = range(uop.lanes)

    def body(t, src, dst):
        for lane in lanes:
            t.emit(f"a = {src(0, lane, True)}")
            t.emit(f"b = {src(1, lane, True)}")
            t.emit("counts[op] += 1")
            dst(lane, "produce(binary(op, a, b), ctx)")
    return _lanes_mask(uop.operands[0], lanes), body


def _sqrt(uop, params):
    lanes = range(uop.lanes)

    def body(t, src, dst):
        for lane in lanes:
            t.emit(f"value = {src(1, lane, True)}")
            dst(lane, 'produce(unary("sqrt", value), ctx)')
    return _lanes_mask(uop.operands[0], lanes), body


def _fma(uop, params):
    """dst = src2 * dst + src3 (the 213 operand order)."""
    def body(t, src, dst):
        t.emit(f"mul2 = {src(1, 0, True)}")
        t.emit(f"mul1 = {src(0, 0, True)}")
        t.emit(f"addend = {src(2, 0, True)}")
        t.emit('counts["fma"] += 1')
        dst(0, "produce(fma(mul2, mul1, addend), ctx)")
    return _lanes_mask(uop.operands[0], (0,)), body


def _cvtsi2sd(uop, params):
    return _lanes_mask(uop.operands[0], (0,)), lambda t, src, dst: dst(
        0, f"produce(from_i64({src(1, 0)}), ctx)")


def _cvt2si(uop, params):
    params["truncate"] = uop.emu_arg

    def body(t, src, dst):
        t.emit(f"value = {src(1, 0, True)}")
        dst(0, "to_i64(value, truncate=truncate)")
    return _lanes_mask(uop.operands[0], (0,)), body


def _compare(uop, params):
    """ucomisd/comisd set flags; cmpXXsd writes an all-ones or zero mask."""
    cmp = uop.emu_kind == "cmp"
    if cmp:
        params["if_unord"], params["pred"] = CMP_TABLES[uop.emu_arg]

    def body(t, src, dst):
        t.emit(f"a = {src(0, 0, True)}")
        t.emit(f"b = {src(1, 0, True)}")
        t.emit("c = compare(a, b)")
        if cmp:
            dst(0, "U64 if (if_unord if c is None else pred(c)) else 0")
        else:
            t.emit("packed = (UCOMI_UNORDERED if c is None else UCOMI_EQUAL if c == 0"
                   " else UCOMI_LESS if c < 0 else UCOMI_GREATER)",
                   "flags = ctx.flags",
                   "flags.zf, flags.pf, flags.cf = bool(packed & 1), bool(packed & 2),"
                   " bool(packed & 4)",
                   "flags.sf = flags.of = False")
    return _lanes_mask(uop.operands[0], (0,) if cmp else ()), body


def _xorpd(uop, params):
    # Raw xor: correct for plain doubles, and correct for boxed values
    # when the mask only touches the sign bit (the compiler idiom)
    # thanks to the negation convention.  A non-sign mask over a boxed
    # value demotes it first.
    def body(t, src, dst):
        for lane in (0, 1):
            t.emit(f"a = {src(0, lane)}")
            t.emit(f"b = {src(1, lane)}")
            t.emit("if a & SIG_MASK == SIG and b & ~SIGN:",
                   "    a = demote(a)",
                   "if b & SIG_MASK == SIG and a & ~SIGN and not a & SIG_MASK == SIG:",
                   "    b = demote(b)")
            dst(lane, "a ^ b")
    return _lanes_mask(uop.operands[0], (0, 1)), body


def _uop_move(uop, params):
    """Moves run the micro-op's move text without its RIP write.  An FP
    move marks the lanes it writes; mov, lea and pop an XMM
    destination's low lane."""
    mn = uop.mnemonic
    if uop.opclass is OpClass.FP_MOV:
        return uop.xmm_writes, lambda t, src, dst: fp_mov_text(t, mn)
    writes = _lanes_mask(uop.operands[0], () if mn == "push" else (0,))
    return writes, lambda t, src, dst: int_mov_text(t, mn)


_FP = (True, True, True)
#: emu_kind -> (builder, per-operand ``fp`` flag of memory accesses
#: (observers see it; None: the move text picks it), operands rule (2)
#: probes or None, the altmath cost field charged per lane: "op" for
#: ``costs.op(uop.ieee)``, None for no altmath charge).
_KINDS = {
    "bin": (_bin, _FP, (0, 1), "op"),
    "sqrt": (_sqrt, _FP, (1,), "op"),
    "fma": (_fma, _FP, (0, 1, 2), "op"),
    "cvtsi2sd": (_cvtsi2sd, (True, False), None, "convert"),
    "cvt2si": (_cvt2si, (False, True), (1,), "convert"),
    "ucomi": (_compare, _FP, (0, 1), "compare"),
    "cmp": (_compare, _FP, (0, 1), "compare"),
    "xorpd": (_xorpd, _FP, None, None),
    "fpmov": (_uop_move, None, None, None),
    "intmov": (_uop_move, None, None, None),
}
