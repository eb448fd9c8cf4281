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
from repro.errors import BoxHeapExhaustedError, ConfigError, MachineError
from repro.fpu import bits as B
from repro.fpu.ieee import UCOMI_EQUAL, UCOMI_GREATER, UCOMI_LESS, UCOMI_UNORDERED
from repro.machine import codegen
from repro.machine.isa import Mem, Reg, Xmm
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
    gen = _Source(ops, fp)
    lanes, body = build(uop, gen)
    flow = vm.flow is not None
    if flow:
        gen.params["addr"] = uop.addr
    store = vm.allocator.store
    key = (uop.mnemonic, flow, store.kind, *gen.shape)
    make = codegen.maker(_MAKERS, key, lambda: gen.source(body, probe, range(uop.lanes), flow,
                                                          store.test("box")),
                         _GLOBALS, "<emulator step>")
    costs = vm.costs
    charges = [("bind", costs.bind_per_operand * max(len(ops), 1)),
               ("emul", costs.emul_dispatch)]
    if cost is not None:
        altmath = vm.altmath.costs
        unit = altmath.op(uop.ieee) if cost == "op" else getattr(altmath, cost)
        charges.append(("altmath", unit * uop.lanes))
    return _Step(make(vm.emulator.env, **gen.params), vm.ledger.charger(*charges),
                 _lanes_mask(ops[0], lanes) if ops else 0)


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


def _cannot_write(message: str, value) -> None:
    raise MachineError(message)


#: Module globals of the generated code.
_GLOBALS = {
    "U64": U64, "RSP": RSP, "SIGN": B.F64_SIGN_MASK, "_cannot_write": _cannot_write,
    "SIG_MASK": nanbox._PATTERN_MASK, "SIG": nanbox._PATTERN,
    "UNSIGNED": _UNSIGNED, "TOP": _TOP, "FREE": FREE, "PTR_MASK": nanbox.NANBOX_PTR_MASK,
    "QNAN": B.CANONICAL_QNAN, "BoxHeapExhaustedError": BoxHeapExhaustedError,
    "UCOMI_UNORDERED": UCOMI_UNORDERED, "UCOMI_EQUAL": UCOMI_EQUAL,
    "UCOMI_LESS": UCOMI_LESS, "UCOMI_GREATER": UCOMI_GREATER,
}


#: (mnemonic, flow on, box store kind, *operand shape) -> the ``make`` its source
#: defines.  The source depends on the key alone (operand values are
#: ``make``'s arguments), so one process-wide table serves every VM; it
#: holds one entry per distinct key ever bound, a few dozen.
_MAKERS: dict = {}


class _Source:
    """The source of one micro-op's step: operand reads and writes as
    text specialized to each operand's kind, and ``params``, the
    per-step values (register ids, displacements, immediates) the text
    names.  XMM and GPR operands index the context's lists; a memory
    operand's effective address is computed once, first, from its
    base, index, scale and displacement."""

    def __init__(self, ops, fp) -> None:
        self.ops, self.fp = ops, fp
        #: the operand kinds the text depends on (with the mnemonic,
        #: the key of the text) and the values it names.
        self.shape, self.params = codegen.scan(ops)
        if ops and self.shape[0] in ("i", "l", "L"):
            self.params["w0"] = f"cannot write operand {ops[0]!r}"
        self.used: set[str] = set()

    def use(self, name: str) -> str:
        """``name`` (``xmm``, ``gpr`` or ``mem``), loaded from the
        context at the top of the step."""
        self.used.add(name)
        return name

    def read(self, pos: int, lane: int) -> str:
        op = self.ops[pos]
        if isinstance(op, Xmm):
            return f"{self.use('xmm')}[x{pos}][{lane}]"
        if isinstance(op, Reg):
            return f"{self.use('gpr')}[r{pos}]"
        if isinstance(op, Mem):
            at = f"ea{pos} + {8 * lane}" if lane else f"ea{pos}"
            return f"{self.use('mem')}.observed_load({at}, {op.size}, {self.fp[pos]})"
        return f"i{pos}"

    def write(self, pos: int, lane: int, value: str) -> str:
        op = self.ops[pos]
        if isinstance(op, Xmm):
            return f"{self.use('xmm')}[x{pos}][{lane}] = ({value}) & U64"
        if isinstance(op, Reg):
            return f"{self.use('gpr')}[r{pos}] = ({value}) & U64"
        if isinstance(op, Mem):
            at = f"ea{pos} + {8 * lane}" if lane else f"ea{pos}"
            return f"{self.use('mem')}.observed_store({at}, {value}, {op.size}, {self.fp[pos]})"
        return f"_cannot_write(w{pos}, {value})"

    def source(self, body, probe, lanes, flow: bool, live: str) -> str:
        """Source of ``make(env, **params)``, which returns the step
        function.  ``body(src)`` gives the emulation's lines,
        ``src(pos, lane)`` the expression for a source lane's bits and
        ``src(pos, lane, True)`` for its alt value; ``probe`` names the
        operands rule (2) checks in each of ``lanes`` (None: the rule
        does not apply); with ``flow`` the body runs inside the flow
        recorder's op window; ``live`` is the box store's liveness test
        of ``box``."""
        window = (["begin_op(addr)"], ["end_op()"]) if flow else ([], [])

        def src(pos, lane, value=False):
            return _resolved(self.read(pos, lane), value)
        lines = [*window[0], *body(src), *window[1], "return True"]
        if probe is not None:
            probed = [(pos, lane) for lane in lanes for pos in probe]
            lines = self._entry(body, probed, window, live) + lines
        prologue = [line for pos, op in enumerate(self.ops) if isinstance(op, Mem)
                    for line in codegen.address(pos, op, self.use("gpr"))]
        loads = [f"{name} = ctx.{attr}" for name, attr in
                 (("xmm", "xmm"), ("gpr", "gpr"), ("mem", "memory")) if name in self.used]
        code = loads + prologue + lines
        text = "\n".join(code)
        # Every name the step reads is a local bound as a default: no
        # cell per value, and the fastest lookup.
        names = [f"{name}=env[{name!r}]" for name in codegen.used(text, _ENV)]
        names += [f"{name}={name}" for name in self.params]
        return "\n".join([f"def make({', '.join(['env', *self.params])}):",
                          f"    def step(ctx, mode={RUN}, {', '.join(names)}):",
                          *_indent(code, 8), "    return step", ""])

    def _entry(self, body, probed, window, live: str) -> list[str]:
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
        reread = not isinstance(self.ops[0], Xmm)
        lines = []
        for i, (pos, lane) in enumerate(probed):
            read = [f"v{pos}{lane} = {self.read(pos, lane)}"]
            if isinstance(self.ops[pos], Mem):
                read = ["try:", *_indent(read), "except BaseException:",
                        "    emu.probe_raised = True", "    raise"]
            known = probed[:i + 1]

            def entered(p, l, value=False, known=known, found=(pos, lane)):
                if (p, l) not in known or (
                        l and reread and not isinstance(self.ops[p], Xmm)):
                    return _resolved(self.read(p, l), value)
                if value and (p, l) == found:
                    return f"owned(box, v{p}{l})"
                return _resolved(f"v{p}{l}", value)
            v = f"v{pos}{lane}"
            lines += [*read, *_if_owned(v, live, [
                *window[0], *body(entered), *window[1], "return True"])]
        return ["if mode:", *_indent([*lines, "return False"])]


def _indent(lines, n: int = 4) -> list[str]:
    return [" " * n + line for line in lines]


def _resolved(bits: str, value: bool) -> str:
    return f"resolve({bits})" if value else bits


# ---------------------------------------------------------- step kinds
# Each builds one emulation kind's body from ``(uop, gen)`` and returns
# ``(lanes of operand 0 written, body)``; ``body(src)`` is the list of
# source lines with ``src(pos, lane)`` standing for a source read and
# ``src(pos, lane, True)`` for its alt value.
def _bin(uop, gen):
    gen.params["op"] = uop.ieee
    lanes = range(uop.lanes)

    def body(src):
        lines = []
        for lane in lanes:
            lines += [f"a = {src(0, lane, True)}",
                      f"b = {src(1, lane, True)}",
                      "counts[op] += 1",
                      gen.write(0, lane, "produce(binary(op, a, b), ctx)")]
        return lines
    return lanes, body


def _sqrt(uop, gen):
    lanes = range(uop.lanes)

    def body(src):
        lines = []
        for lane in lanes:
            lines += [f"value = {src(1, lane, True)}",
                      gen.write(0, lane, 'produce(unary("sqrt", value), ctx)')]
        return lines
    return lanes, body


def _fma(uop, gen):
    """dst = src2 * dst + src3 (the 213 operand order)."""
    return range(uop.lanes), lambda src: [
        f"mul2 = {src(1, 0, True)}",
        f"mul1 = {src(0, 0, True)}",
        f"addend = {src(2, 0, True)}",
        'counts["fma"] += 1',
        gen.write(0, 0, "produce(fma(mul2, mul1, addend), ctx)")]


def _cvtsi2sd(uop, gen):
    return range(uop.lanes), lambda src: [
        gen.write(0, 0, f"produce(from_i64({src(1, 0)}), ctx)")]


def _cvt2si(uop, gen):
    gen.params["truncate"] = uop.emu_arg
    return range(uop.lanes), lambda src: [
        f"value = {src(1, 0, True)}",
        gen.write(0, 0, "to_i64(value, truncate=truncate)")]


def _compare(uop, gen):
    """ucomisd/comisd set flags; cmpXXsd writes an all-ones or zero mask."""
    if uop.emu_kind == "cmp":
        gen.params["if_unord"], gen.params["pred"] = CMP_TABLES[uop.emu_arg]
        lanes = (0,)
        tail = [gen.write(0, 0, "U64 if (if_unord if c is None else pred(c)) else 0")]
    else:
        lanes = ()
        tail = ["packed = (UCOMI_UNORDERED if c is None else UCOMI_EQUAL if c == 0"
                " else UCOMI_LESS if c < 0 else UCOMI_GREATER)",
                "flags = ctx.flags",
                "flags.zf, flags.pf, flags.cf = bool(packed & 1), bool(packed & 2),"
                " bool(packed & 4)",
                "flags.sf = flags.of = False"]
    return lanes, lambda src: [f"a = {src(0, 0, True)}", f"b = {src(1, 0, True)}",
                               "c = compare(a, b)", *tail]


def _xorpd(uop, gen):
    # Raw xor: correct for plain doubles, and correct for boxed values
    # when the mask only touches the sign bit (the compiler idiom)
    # thanks to the negation convention.  A non-sign mask over a boxed
    # value demotes it first.
    def body(src):
        lines = []
        for lane in (0, 1):
            lines += [f"a = {src(0, lane)}", f"b = {src(1, lane)}",
                      "if a & SIG_MASK == SIG and b & ~SIGN:",
                      "    a = demote(a)",
                      "if b & SIG_MASK == SIG and a & ~SIGN and not a & SIG_MASK == SIG:",
                      "    b = demote(b)",
                      gen.write(0, lane, "a ^ b")]
        return lines
    return (0, 1), body


def _move(uop, gen):
    """FP moves.  movapd/movupd read both lanes, then write both;
    movsd/movq/movhpd/movlpd copy one raw lane, and a movsd load or a
    movq into an XMM register zeroes its high lane."""
    mn = uop.mnemonic
    dst, src_op = uop.operands
    if mn in ("movapd", "movupd"):
        return (0, 1), lambda src: [f"lo = {src(1, 0)}", f"hi = {src(1, 1)}",
                                    gen.write(0, 0, "lo"), gen.write(0, 1, "hi")]
    dst_xmm = isinstance(dst, Xmm)
    src_lane, dst_lane = ((0, 1) if dst_xmm else (1, 0)) if mn == "movhpd" else (0, 0)
    zero = dst_xmm and (mn == "movq" or (mn == "movsd" and not isinstance(src_op, Xmm)))

    def body(src):
        lines = [gen.write(0, dst_lane, src(1, src_lane))]
        if zero:
            lines.append(f"{gen.use('xmm')}[x0][1] = 0")
        return lines
    return ((dst_lane, 1) if zero else (dst_lane,)), body


def _intmov(uop, gen):
    """mov, lea, push and pop."""
    mn = uop.mnemonic
    if mn == "mov":
        return (0,), lambda src: [gen.write(0, 0, src(1, 0))]
    if mn == "lea":
        ea = "ea1" if isinstance(uop.operands[1], Mem) else "0"
        return (0,), lambda src: [gen.write(0, 0, ea)]
    gpr, mem = gen.use("gpr"), gen.use("mem")
    if mn == "push":
        return (), lambda src: [f"rsp = {gpr}[RSP] = ({gpr}[RSP] - 8) & U64",
                                f"{mem}.write_u64(rsp, {src(0, 0)})"]
    return (0,), lambda src: [f"rsp = {gpr}[RSP]",  # pop
                              gen.write(0, 0, f"{mem}.read_u64(rsp)"),
                              f"{gpr}[RSP] = (rsp + 8) & U64"]


_FP = (True, True, True)
#: emu_kind -> (builder, per-operand ``fp`` flag of memory accesses
#: (observers see it), operands rule (2) probes or None, the altmath
#: cost field charged per lane: "op" for ``costs.op(uop.ieee)``, None
#: for no altmath charge).
_KINDS = {
    "bin": (_bin, _FP, (0, 1), "op"),
    "sqrt": (_sqrt, _FP, (1,), "op"),
    "fma": (_fma, _FP, (0, 1, 2), "op"),
    "cvtsi2sd": (_cvtsi2sd, (True, False), None, "convert"),
    "cvt2si": (_cvt2si, (False, True), (1,), "convert"),
    "ucomi": (_compare, _FP, (0, 1), "compare"),
    "cmp": (_compare, _FP, (0, 1), "compare"),
    "xorpd": (_xorpd, _FP, None, None),
    "fpmov": (_move, _FP, None, None),
    "intmov": (_intmov, (False, False), None, None),
}
