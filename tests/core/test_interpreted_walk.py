"""The interpreted walk (``SequenceEmulator._interpret``) against the
step-wise reference ``stepwise_interpret`` in
``tests/core/reference_sequences.py``, the walk that fetches
(``_fetch``) and emulates (``Emulator.emulate``) one instruction at a
time and so charges, settles, marks and counts each one as it goes.

The walk serves decode-cache hits inline and settles once per trap, so
after every trap, raising or not, both must leave the same resume
address, ``cpu.cycles``, ledger (by category), telemetry counts, trace
statistics, ``written_xmm`` and lazy-FP masks, registers (the context's
and the thread's) and memory, and end the run the same way.  The cases
cover each way a walk ends: a rule-(2) stop, an unsupported terminator,
running off the end of text, an unemulatable first instruction,
sequence emulation off, a step that raises mid-walk (a memory fault, a
full box heap), a probe read that faults under ENTER, decode misses
mid-walk, a corrupt decode-cache entry mid-walk, and the walk a
compiled trace hands its recorded terminator to."""

import hashlib

import pytest

from repro.core.sequences import SequenceEmulator
from repro.core.telemetry import snapshot
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import (
    BoxHeapExhaustedError,
    DecodeCacheCorruptionError,
    MachineError,
    MemoryFault,
    UnemulatableTrapError,
)
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, PROT_READ
from repro.machine.program import MAGIC_PAGE_ADDR
from tests.core.reference_sequences import stepwise_interpret
from tests.core.test_compiled_traces import (
    EARLY_STOP_SRC,
    HEAP_LANES_SRC,
    LOOP_SRC,
    PROBE_FAULT_SRC,
    TERMINATOR_SRC,
    _unreadable_slot,
)
from tests.core.test_sequences import RUN_OFF_TEXT_SRC


# Each lap stores a box 128 bytes further into ``buf``; the lap whose
# store lands in the read-only page (``_read_only_slot``) faults in the
# emulated movsd, a step that started, mid-walk.
STORE_FAULT_SRC = """
.data
a: .double 0.1
b: .double 0.7
n: .quad 60
buf: .space 8192
.text
main:
  mov rcx, [rip + n]
  lea rbx, [rip + buf]
  movsd xmm0, [rip + a]
top:
  addsd xmm0, [rip + b]
  mulsd xmm0, [rip + a]
  movsd [rbx], xmm0
  add rbx, 128
  dec rcx
  jne top
  call print_f64
  hlt
"""


def _read_only_slot(vm) -> None:
    """Make the first page boundary past ``buf + 256`` read-only."""
    page = (vm.program.symbols["buf"] + 256 + PAGE_SIZE - 1) & -PAGE_SIZE
    vm.cpu.mem.protect(page, PROT_READ)


def _cross_wired_entry(vm) -> None:
    """Cache the loop's first instruction under the address of its
    second, so the first walk's second fetch finds a corrupt entry."""
    first = vm.program.symbols["top"]
    second = first + vm.program.by_addr[first].size
    vm.decode_cache.insert(second, vm.program.by_addr[first])


_SMALL_HEAP = dict(box_capacity=6, gc_threshold=10**9)
_NO_ADDSD = FPVMConfig().supported_instructions - {"addsd"}
#: case -> (source, config, error, what to do to the attached VM before
#: the guest runs, what the walk must have met: a trace-statistics
#: reason, or "raise").
CASES = {
    "rule2_stop": (EARLY_STOP_SRC, FPVMConfig.seq_short(), None, None, "no_boxed_source"),
    "unsupported": (LOOP_SRC, FPVMConfig.seq_short(), None, None, "unsupported"),
    "run_off_text": (RUN_OFF_TEXT_SRC, FPVMConfig.seq_short(patch_site_source="none"),
                     MachineError, None, "no_instruction"),
    "unemulatable_first": (RUN_OFF_TEXT_SRC + "  hlt\n", FPVMConfig.seq_short(
        supported_instructions=_NO_ADDSD), UnemulatableTrapError, None, "raise"),
    "sequence_off": (LOOP_SRC, FPVMConfig.short(), None, None, "single"),
    "sequence_off_frame": (LOOP_SRC, FPVMConfig.none(), None, None, "single"),
    "decode_miss": (LOOP_SRC, FPVMConfig.seq_short(decode_cache_capacity=2), None, None,
                    "unsupported"),
    "memory_fault": (STORE_FAULT_SRC, FPVMConfig.seq_short(), MemoryFault,
                     _read_only_slot, "raise"),
    "memory_fault_frame": (STORE_FAULT_SRC, FPVMConfig.seq(), MemoryFault,
                           _read_only_slot, "raise"),
    "box_heap_exhausted": (HEAP_LANES_SRC, FPVMConfig.seq_short(**_SMALL_HEAP),
                           BoxHeapExhaustedError, None, "raise"),
    "probe_read_faults": (PROBE_FAULT_SRC, FPVMConfig.seq_short(), MemoryFault,
                          lambda vm: _unreadable_slot(vm.cpu), "raise"),
    "corrupt_entry": (LOOP_SRC, FPVMConfig.seq_short(), DecodeCacheCorruptionError,
                      _cross_wired_entry, "raise"),
    "flow_rule2_stop": (EARLY_STOP_SRC, FPVMConfig.seq_short(flow=True), None, None,
                        "no_boxed_source"),
    "frame_rule2_stop": (EARLY_STOP_SRC, FPVMConfig.seq(), None, None, "no_boxed_source"),
}


def _memory(cpu) -> str:
    """SHA-256 over every mapped page's (number, protection, contents),
    but the magic page's, which holds a process-wide handler number."""
    h = hashlib.sha256()
    for pno, page in sorted(cpu.mem._pages.items()):
        if pno == MAGIC_PAGE_ADDR >> PAGE_SHIFT:
            continue
        h.update(pno.to_bytes(8, "little") + page.prot.to_bytes(4, "little"))
        h.update(page.data)
    return h.hexdigest()


def _observe(source, config, error, prepare, *, reference, uops, monkeypatch):
    """Everything the run accounts and holds after every trap, the
    final state, and the trace-statistics reasons seen; the walk is the
    reference's with ``reference``."""
    trail = []
    handle = SequenceEmulator.handle_fp_trap

    def spy(self, context, trap):
        resume = "raised"
        try:
            resume = handle(self, context, trap)
            return resume
        finally:
            vm, regs = self.vm, context.cpu.regs
            trail.append((
                resume, context.cpu.cycles, vm.ledger.snapshot(), snapshot(vm.telemetry),
                {k: (r.count, r.terminator, r.reason) for k, r in self.stats.traces.items()},
                context.written_xmm, regs.fp_dirty, regs.fp_live,
                list(context.gpr), [list(lanes) for lanes in context.xmm],
                list(regs.gpr), [list(lanes) for lanes in regs.xmm], _memory(context.cpu)))

    with monkeypatch.context() as m:
        if reference:
            m.setattr(SequenceEmulator, "_interpret", stepwise_interpret)
        m.setattr(SequenceEmulator, "handle_fp_trap", spy)
        prog = assemble(source)
        install_host_library(prog)
        cpu = CPU(prog, uops=uops)
        cpu.kernel = LinuxKernel()
        vm = FPVM(config).attach(cpu, cpu.kernel)
        if prepare is not None:
            prepare(vm)
        if error is None:
            cpu.run()
        else:
            with pytest.raises(error):
                cpu.run()
    final = (cpu.cycles, vm.ledger.snapshot(), snapshot(vm.telemetry), tuple(cpu.output),
             vm.flow.fingerprint() if vm.flow is not None else None, list(cpu.regs.gpr),
             [list(lanes) for lanes in cpu.regs.xmm], _memory(cpu),
             list(vm.decode_cache.entries))
    reasons = {r.reason for r in vm.sequencer.stats.traces.values()}
    return trail, final, reasons


def _check(case: str, monkeypatch, *, uops=False) -> tuple:
    source, config, error, prepare, met = CASES[case]
    walk = _observe(source, config, error, prepare, reference=False, uops=uops,
                    monkeypatch=monkeypatch)
    stepwise = _observe(source, config, error, prepare, reference=True, uops=uops,
                        monkeypatch=monkeypatch)
    assert walk == stepwise
    trail, _, reasons = walk
    assert len(trail) >= 1
    if met == "raise":
        assert trail[-1][0] == "raised"
    else:
        assert met in reasons
    return walk


@pytest.mark.parametrize("case", sorted(CASES))
def test_walk_matches_stepwise(case, monkeypatch):
    """On the ``interp`` tier, which compiles no trace, every trap walks."""
    _, final, _ = _check(case, monkeypatch)
    if case == "decode_miss":  # a two-entry cache: misses past the first instruction
        assert final[2]["decode_misses"] > final[2]["traps"]


def test_walk_after_a_compiled_trace_matches_stepwise(hot_traces, monkeypatch):
    """A fully replayed compiled trace hands its emulated prefix to the
    walk, which starts at the recorded terminator: it stops there or
    goes on.  The reference fetches and checks the terminator itself,
    then walks on from it step by step."""
    handed = []
    interpret = SequenceEmulator._interpret

    def spy(self, context, addr, prefix=()):
        handed.append(bool(prefix))
        return interpret(self, context, addr, prefix)
    monkeypatch.setattr(SequenceEmulator, "_interpret", spy)
    source = TERMINATOR_SRC
    walk = _observe(source, FPVMConfig.seq_short(), None, None, reference=False, uops=None,
                    monkeypatch=monkeypatch)
    assert any(handed)
    stepwise = _observe(source, FPVMConfig.seq_short(), None, None, reference=True,
                        uops=None, monkeypatch=monkeypatch)
    assert walk == stepwise
    assert walk[2] >= {"no_boxed_source"}
