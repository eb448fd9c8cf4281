"""Per-instruction emulator golden.

The replay oracle cannot see emulator changes: every execution tier
traps into the same emulator.  This file pins the emulator itself, one
instruction at a time, against ``emulator_golden.json``:

- every mnemonic the emulator has semantics for (``DEFAULT_SUPPORTED``
  plus the ``movhpd``/``movlpd`` pair the move-support ablation enables);
- every operand shape the opcode table admits for it
  (``isa.form_shapes`` of its forms), the shapes that the assembler,
  the decoder, the CPU and the emulator all run;
- input classes: plain doubles, owned boxes, sign-flipped boxes, a
  foreign sNaN carrying the box signature, quiet NaNs, signed zeros,
  subnormals, and two mixes of a box with plain operands.

Each case records the boxed-source probe (result and the memory reads
it makes; the generated ENTER branch, run on a twin of the case up to
where it would enter the body), then ``emulate``'s return value,
every register, flag and memory word it changed, the observed memory
traffic in order, ``written_xmm``, the lazy-FP dirty marks, the ledger
and telemetry deltas, and the values of the boxes it allocated.  The
test replays every case in live and frame contexts, with flow
provenance off and on; flow-on runs also match the recorded flow-graph
fingerprint.  Every case whose probe finds a box of ours also runs
with ENTER, which must leave what the RUN record holds.

The fixture holds one digest of the records per ``"mnemonic shape"``
(and one of the flow fingerprints).  Regenerate it only when emulator
semantics change on purpose; ``--dump`` writes the full records, so a
moved digest can be diffed between two checkouts, and ``--diff``
prints every ``(case, input class, field)`` whose value differs
between two dumps, with both values:

    PYTHONPATH=src python tests/core/test_emulator_golden.py --write
    PYTHONPATH=src python tests/core/test_emulator_golden.py --dump out.json
    PYTHONPATH=src python tests/core/test_emulator_golden.py --diff old.json new.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import nanbox
from repro.core.emulator import DEFAULT_SUPPORTED, ENTER, RUN
from repro.core.vm import FPVM, FPVMConfig
from repro.fpu import bits as B
from repro.kernel.signals import SignalContext
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.isa import (
    GPR_IDS, OPCODES, RSP, Imm, Instruction, Mem, Reg, Xmm, form_shapes)
from repro.machine.uops import lower
from tests.core.reference_sequences import rule2_applies

FIXTURE = Path(__file__).with_name("emulator_golden.json")

MNEMONICS = sorted(DEFAULT_SUPPORTED | {"movhpd", "movlpd"})
CLASSES = ("plain", "box", "neg_box", "foreign_snan", "qnan", "zero",
           "subnormal", "box_sign_mask", "plain_box")
VARIANTS = [(live, flow) for live in (True, False) for flow in (False, True)]

XMM_AT = (1, 2, 3)            # xmm operand register per position
GPR_AT = ("rax", "rcx", "rdx")
BASE = "rbx"                  # memory operands: [rbx + disp]
MEM_DISP = (0x20, 0x60, 0xA0)
TEXT_ADDR = 0x40_1000
SEED_RIP = 0x1234             # flow birth site of the input boxes
SOURCE = ".data\nbuf: .space 512\n.text\nmain:\n  hlt\n"

_WORDS64 = struct.Struct("<64Q")
_WORDS8 = struct.Struct("<8Q")
_PLAIN = (1.5, -2.75, 0.3125, 6.0, -0.1, 1e10)


def _slot_value(cls: str, slot: int, alloc_box) -> int:
    """The 64-bit pattern input class ``cls`` puts in operand slot
    ``slot`` (2 * position + lane)."""
    if cls == "plain":
        return B.float_to_bits(_PLAIN[slot])
    if cls == "box":
        return nanbox.box_bits(alloc_box(B.float_to_bits(_PLAIN[slot])))
    if cls == "neg_box":
        return nanbox.box_bits(alloc_box(B.float_to_bits(_PLAIN[slot])), negated=True)
    if cls == "foreign_snan":
        return nanbox.box_bits(0x7_0000 + 8 * slot)
    if cls == "qnan":
        return 0x7FF8_0000_0000_0000 | (0x100 + slot)
    if cls == "zero":
        return B.F64_SIGN_MASK if slot % 2 else 0
    if cls == "subnormal":
        return 1 + 0x1_0000 * slot
    if cls == "box_sign_mask":
        if slot == 0:
            return nanbox.box_bits(alloc_box(B.float_to_bits(_PLAIN[slot])))
        return B.F64_SIGN_MASK
    if cls == "plain_box":
        if slot == 2:
            return nanbox.box_bits(alloc_box(B.float_to_bits(_PLAIN[slot])))
        return B.float_to_bits(_PLAIN[slot])
    raise KeyError(cls)


def _operand(kind: str, pos: int, cls: str, alloc_box):
    if kind == "reg":
        return Reg(GPR_AT[pos])
    if kind == "xmm":
        return Xmm(f"xmm{XMM_AT[pos]}")
    if kind == "mem":
        return Mem(base=BASE, disp=MEM_DISP[pos])
    return Imm(_slot_value(cls, 2 * pos, alloc_box))


@functools.lru_cache(maxsize=None)
def _program():
    return assemble(SOURCE)


def shapes(mnemonic: str):
    return form_shapes(OPCODES[mnemonic].forms)


class Case:
    """One (mnemonic, shape, input class) cell, built fresh per run."""

    def __init__(self, mnemonic: str, shape, cls: str, live: bool, flow: bool,
                 mode: int = RUN):
        supported = DEFAULT_SUPPORTED | {"movhpd", "movlpd"}
        self.vm = vm = FPVM(FPVMConfig.seq_short(supported_instructions=supported,
                                                 flow=flow))
        program = _program()
        self.cpu = cpu = CPU(program)
        vm.ledger.bind_cpu(cpu)
        self.buf = program.symbols["buf"]
        regs = cpu.regs
        self.sp = regs.gpr[RSP]
        for rid in range(16):
            regs.gpr[rid] = 0x1111_0000_0000_0000 + 0x101 * rid
        regs.gpr[RSP] = self.sp
        regs.gpr[GPR_IDS[BASE]] = self.buf
        for xid in range(16):
            regs.xmm[xid][0] = B.float_to_bits(100.0 + xid)
            regs.xmm[xid][1] = B.float_to_bits(-200.0 - xid)
        flags = regs.flags
        flags.zf, flags.pf, flags.cf, flags.sf, flags.of = True, False, True, True, True

        boxes = []

        def alloc_box(bits):
            ptr = vm.allocator.alloc(vm.altmath.promote(bits))
            if vm.flow is not None:
                vm.flow.begin_op(SEED_RIP)
                vm.flow.note_birth(ptr)
            boxes.append(ptr)
            return ptr

        operands = [_operand(k, pos, cls, alloc_box) for pos, k in enumerate(shape)]
        for pos, kind in enumerate(shape):
            if kind == "imm":
                continue
            lo = _slot_value(cls, 2 * pos, alloc_box)
            hi = _slot_value(cls, 2 * pos + 1, alloc_box)
            if kind == "xmm":
                regs.xmm[XMM_AT[pos]][0] = lo
                regs.xmm[XMM_AT[pos]][1] = hi
            elif kind == "reg":
                regs.gpr[GPR_IDS[GPR_AT[pos]]] = lo
            else:
                cpu.mem.write_u64(self.buf + MEM_DISP[pos], lo)
                cpu.mem.write_u64(self.buf + MEM_DISP[pos] + 8, hi)
        # Something recognisable on the stack for pop.
        cpu.mem.write_u64(regs.gpr[RSP], _slot_value(cls, 0, alloc_box))
        regs.fp_dirty = 0
        cpu.fp_quantum_touched = False
        self.input_boxes = set(boxes)
        self.instr = Instruction(mnemonic, tuple(operands), addr=TEXT_ADDR, size=16)
        self.uop = lower(self.instr)
        self.events: list = []
        cpu.mem.observers.append(
            lambda addr, size, kind, value: self.events.append(
                [addr - self.buf, size, kind, f"{value:x}"]))
        self.context = SignalContext(cpu, live=live)
        self.live = live
        self.mode = mode
        self.cell = (mnemonic, shape, cls, live)

    def probe(self) -> tuple[bool, list]:
        """Rule (2)'s probe: does it find a box of ours, and the memory
        reads it makes.  The generated ENTER branch runs on a twin of
        this case that records flow, whose step opens the op window
        (``begin_op``) where the body starts; that call raises."""
        if not rule2_applies(self.uop):
            return False, []
        twin = Case(*self.cell, flow=True)
        emulator = twin.vm.emulator
        emulator.env["begin_op"] = _enter_body
        before = twin._accounting()
        try:
            found = emulator.step(twin.uop).run(twin.context, ENTER)
            assert not found
        except _BodyEntered:
            found = True
        assert twin._accounting() == before, "the probe charged or counted"
        return found, twin.events

    # ------------------------------------------------------------ snapshots
    def _state(self) -> dict:
        regs = self.cpu.regs
        mem = self.cpu.mem
        sp = self.sp
        return {
            "gpr": list(regs.gpr),
            "xmm": [list(lanes) for lanes in regs.xmm],
            "flags": [regs.flags.zf, regs.flags.pf, regs.flags.cf,
                      regs.flags.sf, regs.flags.of],
            "buf": _WORDS64.unpack(mem.read_bytes(self.buf, 512)),
            "stack": _WORDS8.unpack(mem.read_bytes(sp - 32, 64)),
        }

    def _accounting(self) -> dict:
        vm = self.vm
        t = vm.telemetry
        out = {f"ledger.{k}": v for k, v in vm.ledger.by_category.items()}
        for name, value in vars(t).items():
            if isinstance(value, int):
                out[f"telemetry.{name}"] = value
        out.update({f"altmath_ops.{k}": v for k, v in t.altmath_ops.items()})
        out["cpu.cycles"] = self.cpu.cycles
        out["live_boxes"] = vm.allocator.live_count
        return out

    @staticmethod
    def _delta(before: dict, after: dict) -> dict:
        keys = sorted(set(before) | set(after))
        return {k: after.get(k, 0) - before.get(k, 0)
                for k in keys if after.get(k, 0) != before.get(k, 0)}

    def run(self) -> dict:
        vm, ctx = self.vm, self.context
        state0 = self._state()
        acct0 = self._accounting()
        probe, probe_events = self.probe()
        if vm.flow is not None:
            vm.flow.begin_trap(TEXT_ADDR, "invalid")
        ret = vm.emulator.emulate(self.uop, ctx, self.mode)
        if vm.flow is not None:
            vm.flow.end_trap()
        if not self.live:
            # Frame mode: the handler writes the saved context only.
            regs = self.cpu.regs
            assert list(regs.gpr) == state0["gpr"]
            assert [list(lanes) for lanes in regs.xmm] == state0["xmm"]
        written_xmm = ctx.written_xmm
        ctx.apply()
        state1 = self._state()
        regs = self.cpu.regs
        out: dict = {
            "probe": probe,
            "probe_events": probe_events,
            "ret": ret,
            "events": list(self.events),
            "written_xmm": written_xmm,
            "fp_dirty": regs.fp_dirty,
            "fp_touched": self.cpu.fp_quantum_touched,
            "accounting": self._delta(acct0, self._accounting()),
        }
        changed = {}
        produced = []
        for rid, (a, b) in enumerate(zip(state0["gpr"], state1["gpr"])):
            if a != b:
                changed[f"gpr{rid}"] = f"{b:x}"
                produced.append(b)
        for xid in range(16):
            for lane in range(2):
                a, b = state0["xmm"][xid][lane], state1["xmm"][xid][lane]
                if a != b:
                    changed[f"xmm{xid}.{lane}"] = f"{b:x}"
                    produced.append(b)
        for region in ("buf", "stack"):
            for i, (a, b) in enumerate(zip(state0[region], state1[region])):
                if a != b:
                    changed[f"{region}+{8 * i:#x}"] = f"{b:x}"
                    produced.append(b)
        out["changed"] = changed
        out["flags"] = state1["flags"]
        boxes = {}
        for bits in produced:
            if nanbox.is_boxed(bits):
                ptr, _ = nanbox.unbox(bits)
                if vm.allocator.owns(ptr) and ptr not in self.input_boxes:
                    boxes[f"{bits:x}"] = f"{vm.altmath.demote(vm.allocator.load(ptr)):x}"
        out["boxes"] = boxes
        if vm.flow is not None:
            out["flow"] = json.loads(json.dumps(vm.flow.fingerprint()))
        return out


class _BodyEntered(Exception):
    pass


def _enter_body(addr: int) -> None:
    raise _BodyEntered


def run_case(mnemonic, shape, cls, live=True, flow=False, mode=RUN) -> dict:
    return Case(mnemonic, shape, cls, live, flow, mode).run()


def run_shape(mnemonic, shape, live=True, flow=False) -> tuple[dict, dict]:
    """Every input class for one shape: (records, flow fingerprints)."""
    records, flows = {}, {}
    for cls in CLASSES:
        rec = run_case(mnemonic, shape, cls, live, flow)
        flows[cls] = rec.pop("flow", None)
        records[cls] = rec
    return records, flows


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def record() -> dict:
    """Full records per ``"mnemonic shape"``, checked for agreement
    across the four variants."""
    out = {}
    for mnemonic in MNEMONICS:
        for shape in shapes(mnemonic):
            runs = [run_shape(mnemonic, shape, live, flow) for live, flow in VARIANTS]
            assert all(r[0] == runs[0][0] for r in runs), (mnemonic, shape)
            assert runs[1][1] == runs[3][1], (mnemonic, shape)
            out[f"{mnemonic} {','.join(shape)}"] = {"records": runs[0][0],
                                                   "flow": runs[1][1]}
    return out


def diff(a: dict, b: dict) -> list[str]:
    """One line per ``(case, input class, field)`` that differs between
    the ``--dump`` outputs ``a`` and ``b``; a missing case, class or
    field shows as ``None``."""
    lines = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            lines.append(f"{key}: {'only in B' if key not in a else 'only in A'}")
            continue
        records_a, records_b = a[key]["records"], b[key]["records"]
        for cls in sorted(set(records_a) | set(records_b)):
            rec_a = dict(records_a.get(cls) or {}, flow=a[key]["flow"].get(cls))
            rec_b = dict(records_b.get(cls) or {}, flow=b[key]["flow"].get(cls))
            for name in sorted(set(rec_a) | set(rec_b)):
                if rec_a.get(name) != rec_b.get(name):
                    lines.append(f"{key} | {cls} | {name}: "
                                 f"A={json.dumps(rec_a.get(name), sort_keys=True)} "
                                 f"B={json.dumps(rec_b.get(name), sort_keys=True)}")
    return lines


_GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_mnemonic():
    assert {key.split()[0] for key in _GOLDEN} == set(MNEMONICS)


def test_fixture_holds_the_admitted_shapes():
    """One key per shape the opcode table admits: a shape it refuses
    cannot be built, so it has nothing to pin."""
    assert set(_GOLDEN) == {f"{mnemonic} {','.join(shape)}"
                            for mnemonic in MNEMONICS for shape in shapes(mnemonic)}


@pytest.mark.parametrize("mnemonic", MNEMONICS)
def test_emulator_matches_golden(mnemonic):
    keys = [k for k in _GOLDEN if k.split()[0] == mnemonic]
    assert keys
    for key in keys:
        want_records, want_flow = _GOLDEN[key]
        shape = tuple(key.split()[1].split(","))
        for live, flow in VARIANTS:
            records, flows = run_shape(mnemonic, shape, live, flow)
            where = (key, "live" if live else "frame", "flow" if flow else "no flow")
            assert digest(records) == want_records, (where, records)
            if flow:
                assert digest(flows) == want_flow, (where, flows)


@pytest.mark.parametrize("mnemonic", MNEMONICS)
def test_entered_run_matches_run(mnemonic):
    """Where the probe finds a box of ours, ``emulate`` with ENTER (the
    fused replay's merged probe and step, which hands the probed box's
    value to the body) leaves all that the pinned RUN record holds.
    Its memory traffic holds RUN's, perhaps in another order: a memory
    source that the probe read may be read again (``emulator._entry``)."""
    for key in [k for k in _GOLDEN if k.split()[0] == mnemonic]:
        shape = tuple(key.split()[1].split(","))
        for live, flow in VARIANTS:
            for cls in CLASSES:
                want = run_case(mnemonic, shape, cls, live, flow)
                if not want["probe"]:
                    continue
                got = run_case(mnemonic, shape, cls, live, flow, ENTER)
                where = (key, cls, live, flow)
                missing = (Counter(map(str, want.pop("events")))
                           - Counter(map(str, got.pop("events"))))
                assert not missing, where
                assert got == want, where


def test_diff_names_each_moved_field():
    """``--diff`` reports (case, input class, field) with both values."""
    rec = {"probe": True, "written_xmm": 3}
    a = {"addpd xmm,xmm": {"records": {"box": rec, "plain": rec}, "flow": {"box": None}}}
    b = json.loads(json.dumps(a))
    assert diff(a, b) == []
    b["addpd xmm,xmm"]["records"]["box"]["written_xmm"] = 1
    b["movsd xmm,mem"] = a["addpd xmm,xmm"]
    assert diff(a, b) == ["addpd xmm,xmm | box | written_xmm: A=3 B=1",
                          "movsd xmm,mem: only in B"]


if __name__ == "__main__":
    # --write: re-record the digests.  --dump PATH: write the full
    # records, for diffing two checkouts when a digest moves.  --diff A
    # B: what differs between two dumps.
    if len(sys.argv) == 4 and sys.argv[1] == "--diff":
        found = diff(*(json.loads(Path(path).read_text()) for path in sys.argv[2:]))
        print("\n".join(found) if found else "no differences")
        sys.exit(1 if found else 0)
    full = record()
    if sys.argv[1:] == ["--write"]:
        rows = [f"{json.dumps(k)}: {json.dumps([digest(v['records']), digest(v['flow'])])}"
                for k, v in sorted(full.items())]
        FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
        print(f"wrote {FIXTURE}")
    elif len(sys.argv) == 3 and sys.argv[1] == "--dump":
        Path(sys.argv[2]).write_text(json.dumps(full, indent=1, sort_keys=True))
    else:
        sys.exit("usage: test_emulator_golden.py --write | --dump PATH | --diff A B")
