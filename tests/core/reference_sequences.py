"""Step-wise references for the sequence emulator's termination (§4).

Production applies rule (1) in the interpreted walk and rule (2) inside
each bound step's ENTER run.  The references here state both rules
apart from the generated steps:

- rule (1): an instruction the emulator does not support, or a patched
  one, stops a sequence (:func:`unsupported`);
- rule (2): an FP instruction (but ``cvtsi2sd``, whose source is an
  integer) none of whose FP sources holds a box our allocator owns
  stops it (:func:`any_source_boxed`, reading the sources itself).

:func:`stepwise_emulate` stands for the sequence emulator's one loop
(``SequenceEmulator._emulate``), and is the seam the tests patch: a
compiled trace replays one fetch (``SequenceEmulator._fetch``) and one
emulation (``Emulator.emulate``) at a time (:func:`_run_stepwise`),
and every walk, :func:`stepwise_interpret` by default, does the same.
Entered at a fully replayed compiled trace's end, every reference walk
first fetches the recorded terminator and checks it
(:func:`terminator_stops`), then walks on from it, fetching it again:
the compiled tier's known over-count (ROADMAP 1(c)), which production
keeps as one extra decode-cache hit.
"""

from __future__ import annotations

from repro.core import nanbox
from repro.core.emulator import ENTER, RUN
from repro.errors import UnemulatableTrapError
from repro.machine.isa import GPR_IDS, Mem, Reg, Xmm

U64 = (1 << 64) - 1

#: emulation kind -> the operands rule (2) reads: every FP source.
SOURCES = {"bin": (0, 1), "sqrt": (1,), "fma": (0, 1, 2), "cvt2si": (1,),
           "ucomi": (0, 1), "cmp": (0, 1)}


def unsupported(vm, instr) -> bool:
    """Rule (1).  Patched instructions carry correctness hooks that
    emulation would skip, so they stop a sequence too."""
    return instr.addr in vm.program.patches or not vm.emulator.supported(instr)


def rule2_applies(uop) -> bool:
    return uop.fp_trap_capable and uop.mnemonic != "cvtsi2sd"


def _read(context, op, lane: int) -> int:
    if isinstance(op, Xmm):
        return context.xmm[op.id][lane]
    if isinstance(op, Reg):
        return context.gpr[op.id]
    if isinstance(op, Mem):
        ea = op.disp
        if op.base is not None:
            ea += context.gpr[GPR_IDS[op.base]]
        if op.index is not None:
            ea += context.gpr[GPR_IDS[op.index]] * op.scale
        return context.memory.read_uint((ea + 8 * lane) & U64, op.size)
    return op.value & U64


def any_source_boxed(vm, uop, context) -> bool:
    """Rule (2)'s check: does an FP source lane of ``uop`` hold a box
    ``vm``'s allocator owns?  Reads the lanes in order until one does."""
    for lane in range(uop.lanes):
        for pos in SOURCES[uop.emu_kind]:
            bits = _read(context, uop.operands[pos], lane)
            if nanbox.is_boxed(bits) and vm.allocator.owns(nanbox.unbox(bits)[0]):
                return True
    return False


def should_stop(vm, instr, context) -> tuple[bool, str]:
    """Whether ``instr``, past a trap's first instruction, ends the
    sequence, and the trace-statistics reason."""
    if unsupported(vm, instr):
        return True, "unsupported"
    if rule2_applies(instr) and not any_source_boxed(vm, instr, context):
        return True, "no_boxed_source"
    return False, ""


def terminator_stops(seq, context, addr: int, prefix: tuple[int, ...]) -> bool:
    """Fetch and check the recorded terminator at ``addr`` after a full
    replay of the trace ``prefix``; if it stops, finish the sequence."""
    term = seq._fetch(addr)
    stop, why = should_stop(seq.vm, term, context)
    if stop:
        seq._finish(prefix, term.mnemonic, why)
    return stop


def stepwise_interpret(self, context, addr: int, prefix: tuple[int, ...] = ()) -> int:
    """The walk of ``SequenceEmulator._emulate``, one fetch and one
    ``emulate`` per instruction."""
    vm = self.vm
    by_addr = vm.program.by_addr
    if prefix and terminator_stops(self, context, addr, prefix):
        return addr
    emulated = list(prefix)
    terminator = ""
    reason = "single"
    while True:
        if addr not in by_addr:
            reason = "no_instruction"
            break
        instr = self._fetch(addr)
        if emulated and unsupported(vm, instr):
            terminator, reason = instr.mnemonic, "unsupported"
            break
        if not vm.emulator.emulate(instr, context, ENTER if emulated else RUN):
            if not emulated:
                raise UnemulatableTrapError(
                    f"faulting instruction {instr} at {addr:#x} is not emulatable")
            terminator, reason = instr.mnemonic, "no_boxed_source"
            break
        emulated.append(addr)
        addr += instr.size
        if not vm.config.sequence_emulation:
            nxt = by_addr.get(addr)
            terminator = nxt.mnemonic if nxt is not None else ""
            break

    self._finish(tuple(emulated), terminator, reason)
    return addr


def _run_stepwise(self, trace, context, walk=stepwise_interpret) -> int:
    """The trace phase of ``SequenceEmulator._emulate``: one decode-cache
    fetch and emulation at a time, rule (2) checked apart from the step,
    and after a full run ``walk`` from the recorded terminator."""
    vm = self.vm
    vm.telemetry.compiled_trace_hits += 1
    emulated: list[int] = []
    for addr in trace.addrs:
        uop = self._fetch(addr)
        if emulated and rule2_applies(uop) and not any_source_boxed(vm, uop, context):
            # Data-dependent early stop, same as interpreted.
            self._finish(tuple(emulated), uop.mnemonic, "no_boxed_source")
            return addr
        vm.emulator.emulate(uop, context)
        emulated.append(addr)
    return walk(self, context, trace.end, trace.addrs)


def stepwise_emulate(self, context, addr: int, trace=None, walk=stepwise_interpret) -> int:
    """``SequenceEmulator._emulate`` step-wise: a compiled ``trace``
    through :func:`_run_stepwise`, any other trap through ``walk``."""
    if trace is None:
        return walk(self, context, addr)
    return _run_stepwise(self, trace, context, walk)
