"""Value-flow charges are pooled and settled once per trap, and once per
libm wrapper call, yet land where charging each event did.

The emulator's ``resolve``/``produce`` add their altmath cycles (load,
negation, promotion, box) to one pending count that every exit settles.
:func:`_per_event_value_flow` is the reference: the same value flow
charging each event through the ledger as it happens.  On every exit of
every trap and wrapper call (a fused replay that raises mid-trace, an
early probe stop, a libm wrapper, single-instruction NONE traps) the
CPU's cycles and the ledger must equal the reference's."""

import sys

import pytest

import repro.core.emulator as emulator_mod
import repro.core.wrappers as wrappers_mod
from repro.core import nanbox
from repro.core.emulator import Emulator
from repro.core.sequences import SequenceEmulator
from repro.core.telemetry import snapshot
from repro.core.vm import FPVMConfig
from repro.errors import BoxHeapExhaustedError, UnemulatableTrapError
from repro.fpu import bits as B
from repro.harness.configs import named_configs
from repro.harness.runner import run_fpvm as run_workload, run_fpvm_process
from tests.core.test_compiled_traces import EARLY_STOP_SRC, HEAP_LANES_SRC
from tests.core.test_compiled_traces import run_fpvm as run_source


def _per_event_value_flow(vm):
    """``emulator._value_flow`` with every event charged at once and a
    ``settle`` that has nothing left to do (flow recording off)."""
    assert vm.flow is None
    costs = vm.altmath.costs
    allocator = vm.allocator
    altmath = vm.altmath

    def charge(cycles):
        vm.ledger.charge("altmath", cycles)

    def resolve(bits):
        if nanbox.is_boxed(bits) and allocator.owns(bits & nanbox.NANBOX_PTR_MASK):
            charge(costs.load)
            value = allocator.load(bits & nanbox.NANBOX_PTR_MASK)
            if bits & B.F64_SIGN_MASK:
                charge(costs.op("neg"))
                value = altmath.unary("neg", value)
            return value
        charge(costs.promote)
        vm.telemetry.promotions += 1
        return altmath.promote(bits)

    def produce(value, context):
        if altmath.is_nan_value(value):
            return B.CANONICAL_QNAN
        charge(costs.box)
        ptr = vm.alloc_box(value, context)
        vm.telemetry.boxes_allocated += 1
        return nanbox.box_bits(ptr)

    return resolve, produce, lambda: None


def _exits(run, monkeypatch, *, reference: bool) -> list:
    """``(exit, cpu.cycles, ledger)`` after every trap and libm wrapper
    call of ``run()``, and the fused replay exits taken."""
    trail = []
    handle = SequenceEmulator.handle_fp_trap
    replay = SequenceEmulator._replay
    make_libm = wrappers_mod._make_libm_forward_wrapper

    def handle_spy(self, context, trap):
        try:
            return handle(self, context, trap)
        finally:
            trail.append(("trap", context.cpu.cycles, self.vm.ledger.snapshot()))

    def replay_spy(self, trace, context):
        trail.append(("fused",))
        return replay(self, trace, context)

    def make_libm_spy(vm, host):
        wrapper = make_libm(vm, host)

        def spied(cpu):
            try:
                wrapper(cpu)
            finally:
                trail.append(("libm", cpu.cycles, vm.ledger.snapshot()))
        return spied

    with monkeypatch.context() as m:
        if reference:
            m.setattr(emulator_mod, "_value_flow", _per_event_value_flow)
        m.setattr(SequenceEmulator, "handle_fp_trap", handle_spy)
        m.setattr(SequenceEmulator, "_replay", replay_spy)
        m.setattr(wrappers_mod, "_make_libm_forward_wrapper", make_libm_spy)
        run()
    return trail


def _check(run, monkeypatch, *kinds: str) -> None:
    pooled = _exits(run, monkeypatch, reference=False)
    assert pooled == _exits(run, monkeypatch, reference=True)
    for kind in kinds:
        assert any(row[0] == kind for row in pooled), kind


def test_fused_replay_raising_mid_trace(hot_traces, monkeypatch):
    def run():
        with pytest.raises(BoxHeapExhaustedError):
            run_source(HEAP_LANES_SRC, FPVMConfig.seq_short(box_capacity=6,
                                                           gc_threshold=10**9))
    _check(run, monkeypatch, "fused", "trap")


def test_fused_replay_probe_stop(hot_traces, monkeypatch):
    stops = []
    replay = SequenceEmulator._replay

    def counting(self, trace, context):
        resume = replay(self, trace, context)
        stops.append(resume in trace.addrs)
        return resume
    monkeypatch.setattr(SequenceEmulator, "_replay", counting)
    _check(lambda: run_source(EARLY_STOP_SRC, FPVMConfig.seq_short()), monkeypatch,
           "fused", "trap")
    assert any(stops)


def test_libm_wrapper(monkeypatch):
    _check(lambda: run_workload("double_pendulum", FPVMConfig.seq_short(), scale=4),
           monkeypatch, "libm", "trap")


def test_single_instruction_traps(monkeypatch):
    _check(lambda: run_workload("fbench", FPVMConfig.none(), scale=2), monkeypatch, "trap")


def _probe_then_emulate(self, context, addr, emulated):
    """The interpreted walk reading each rule-(2) step's sources twice:
    the boxed-source probe inside ``_should_stop``, then ``emulate``."""
    vm = self.vm
    by_addr = vm.program.by_addr
    terminator, reason = "", "single"
    while True:
        if addr not in by_addr:
            reason = "no_instruction"
            break
        instr = self._fetch(addr)
        if emulated:
            stop, why = self._should_stop(instr, context)
            if stop:
                terminator, reason = instr.mnemonic, why
                break
        if not vm.emulator.emulate(instr, context):
            raise UnemulatableTrapError(
                f"faulting instruction {instr} at {addr:#x} is not emulatable")
        emulated.append(addr)
        addr += instr.size
        if not vm.config.sequence_emulation:
            nxt = by_addr.get(addr)
            terminator = nxt.mnemonic if nxt is not None else ""
            break
    self._finish(tuple(emulated), terminator, reason)
    return addr


def _trap_trail(run, monkeypatch, *, reference: bool) -> list:
    """``(cycles, ledger, telemetry, trace record)`` after every trap."""
    trail = []
    handle = SequenceEmulator.handle_fp_trap

    def handle_spy(self, context, trap):
        try:
            return handle(self, context, trap)
        finally:
            vm = self.vm
            trail.append((context.cpu.cycles, vm.ledger.snapshot(), snapshot(vm.telemetry),
                          {k: (r.count, r.terminator, r.reason)
                           for k, r in self.stats.traces.items()}))

    with monkeypatch.context() as m:
        if reference:
            m.setattr(SequenceEmulator, "_interpret", _probe_then_emulate)
        m.setattr(SequenceEmulator, "handle_fp_trap", handle_spy)
        run()
    return trail


@pytest.mark.parametrize("name,run", [
    ("lorenz", lambda: run_workload("lorenz", FPVMConfig.seq_short(), scale=40)),
    ("enzo-mpfr", lambda: run_workload("enzo", named_configs("mpfr")["SEQ_SHORT"], scale=6)),
    ("mixed_mt", lambda: run_fpvm_process("mixed_mt", FPVMConfig.seq_short(), scale=40)),
    ("early-stop", lambda: run_source(EARLY_STOP_SRC, FPVMConfig.seq_short())),
    ("raising", lambda: pytest.raises(BoxHeapExhaustedError, run_source, HEAP_LANES_SRC,
                                      FPVMConfig.seq_short(box_capacity=6, gc_threshold=10**9))),
])
def test_interpreted_walk_enters_once(name, run, monkeypatch):
    """The interpreted walk runs each step past the first as one ENTER
    run: no boxed-source probe comes from it, and after every trap the
    cycles, ledger, telemetry and trace statistics equal the walk that
    probes and then emulates."""
    callers = []
    probe = Emulator.any_source_boxed

    def spy(self, uop, context):
        callers.append(sys._getframe(1).f_code.co_name)
        return probe(self, uop, context)
    monkeypatch.setattr(Emulator, "any_source_boxed", spy)
    entered = _trap_trail(run, monkeypatch, reference=False)
    assert "_interpret" not in callers
    reference = _trap_trail(run, monkeypatch, reference=True)
    assert "_should_stop" in callers
    assert len(entered) > 3
    assert entered == reference
