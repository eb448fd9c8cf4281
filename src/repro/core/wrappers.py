"""Foreign-function wrapping (§5.3): forward wrappers and magic wraps.

Shared-library functions (the host library) reinterpret FP bits, so any
call must have NaN-boxed argument registers demoted first.  Two
installation mechanisms with identical runtime behaviour:

- **forward wrapping**: LD_PRELOAD-style interposition — the wrapper
  occupies the symbol's slot earlier in the link order.  Hazard: FPVM's
  own calls to the wrapped function now recurse into the wrapper.
- **magic wrapping**: the wrapper is registered under a distinct name
  (``printf$fpvm``) and the program's *symbol table* is rewritten to
  point at it (the Lief move).  FPVM's namespace stays clean.

libm functions get hand-written *forward-into-altmath* wrappers: the
argument is promoted (or unboxed), computed in the alternative
arithmetic system, and the boxed result placed in xmm0 — so ``sin`` of
a 200-bit value stays 200-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import nanbox
from repro.machine.hostlib import LIBM_FUNCTIONS
from repro.machine.program import HostFunction, Program
from repro.machine.registers import restore_lanes

RAX = 0


def _wrapper_clobber_mask(host: HostFunction) -> int:
    """Lane mask a generated wrapper may touch: one low lane per double
    argument register (xmm0..xmmN-1) plus both xmm0 lanes when the call
    produces an FP return.  This is the wrapper's *declared* clobber
    set — under lazy state save the guard saves exactly these lanes
    instead of the whole bank."""
    mask = 0
    for i in range(host.fp_args):
        mask |= 0b01 << (2 * i)
    if host.fp_ret:
        mask |= 0b11
    return mask


def _guard_save(vm, cpu, clobber: int) -> tuple[int, list]:
    """Entry half of the wrapper's state guard: the lanes the wrapper
    is allowed to touch (all 32 when lazy save is off) and a snapshot
    of the XMM bank."""
    mask = clobber if vm.config.lazy_state_save else 0xFFFF_FFFF
    vm.telemetry.fp_wrapper_lanes_saved += mask.bit_count()
    return mask, list(map(tuple, cpu.regs.xmm))


def _guard_restore(vm, cpu, saved: tuple[int, list], written: int) -> None:
    """Exit half: put back every saved lane the wrapper did not
    legitimately write (value-identical in a clean run), and push the
    written lanes into the lazy-FP dirty tracking — wrapper writes
    bypass the CPU's FP exec paths, so this is their funnel."""
    mask, pairs = saved
    restore = mask & ~written
    vm.telemetry.fp_wrapper_lanes_restored += restore.bit_count()
    restore_lanes(cpu.regs.xmm, pairs, restore)
    if written:
        cpu.fp_quantum_touched = True
        cpu.regs.fp_dirty |= written


@dataclass
class WrapReport:
    """What got wrapped (diagnostics + tests)."""

    demote_wrapped: list[str]
    libm_wrapped: list[str]


def install_wrappers(vm, program: Program) -> WrapReport:
    """Generate and install wrappers for every host function that
    consumes or produces doubles."""
    demote_wrapped: list[str] = []
    libm_wrapped: list[str] = []
    for addr, host in list(program.host_functions.items()):
        if host.fp_args == 0 and not host.fp_ret:
            continue
        if host.name.endswith("$fpvm"):
            continue  # already a wrapper (re-attach safety)
        if host.name in LIBM_FUNCTIONS:
            impl = _make_libm_forward_wrapper(vm, host)
            libm_wrapped.append(host.name)
        else:
            impl = _make_demoting_wrapper(vm, host)
            demote_wrapped.append(host.name)
        wrapper = HostFunction(
            name=f"{host.name}$fpvm",
            fn=impl,
            cost=0,  # the wrapper charges its own cost categories
            fp_args=host.fp_args,
            fp_ret=host.fp_ret,
        )
        waddr = program.register_host_function(wrapper)
        # Both mechanisms resolve future calls to the wrapper; magic
        # wrapping does it by symbol-table rewrite, forward wrapping by
        # link-order interposition.  The observable effect is the same
        # ("there is no performance difference", §5.3).
        program.rebind_symbol(host.name, waddr)
    return WrapReport(demote_wrapped, libm_wrapped)


def _make_demoting_wrapper(vm, host: HostFunction):
    """Stub that demotes double argument registers, then tail-calls the
    real function (printf and friends)."""

    clobber = _wrapper_clobber_mask(host)

    def wrapper(cpu) -> None:
        vm.charge("fcall", vm.costs.fcall_wrapper)
        vm.telemetry.fcall_traps += 1
        saved = _guard_save(vm, cpu, clobber)
        written = 0
        for i in range(host.fp_args):
            bits = cpu.regs.xmm[i][0]
            plain = vm.emulator.demote_bits(bits)
            if plain != bits:
                cpu.regs.write_xmm_lane(i, 0, plain)
                written |= 0b01 << (2 * i)
        cpu.cycles += host.cost
        cpu.work_cycles += host.cost
        host.fn(cpu)
        if host.fp_ret:
            # The real function's FP return lands in xmm0 — a result,
            # not a clobber to undo.
            written |= 0b11
        _guard_restore(vm, cpu, saved, written)
        # Postprocessing never needs to promote: FP return registers
        # are caller-save plain doubles (§5.3 footnote 6).

    return wrapper


def _make_libm_forward_wrapper(vm, host: HostFunction):
    """Hand-written libm wrapper: compute in the alternative arithmetic
    system and box the result (§5.3)."""

    clobber = _wrapper_clobber_mask(host) | 0b11  # result always in xmm0

    def wrapper(cpu) -> None:
        vm.charge("fcall", vm.costs.fcall_wrapper)
        vm.telemetry.libm_calls += 1
        saved = _guard_save(vm, cpu, clobber)
        flow = vm.flow
        if flow is not None:
            # wrapper births flow from the call site, outside any trap
            # (birth class "fcall").
            flow.begin_op(getattr(cpu, "rip", 0))
        args = []
        for i in range(host.fp_args):
            bits = cpu.regs.xmm[i][0]
            args.append(vm.emulator.resolve(bits))
        vm.charge("altmath", vm.altmath.costs.libm_fn(host.name))
        result = vm.altmath.libm(host.name, *args)
        if vm.altmath.is_nan_value(result):
            if flow is not None:
                flow.note_clamp()
            out = 0xFFF8_0000_0000_0000  # canonical NaN
        else:
            vm.charge("altmath", vm.altmath.costs.box)
            ptr = vm.alloc_box(result, cpu)
            vm.telemetry.boxes_allocated += 1
            if flow is not None:
                flow.note_birth(ptr)
            out = nanbox.box_bits(ptr)
        if flow is not None:
            flow.end_op()
        cpu.regs.write_xmm128(0, out, 0)
        _guard_restore(vm, cpu, saved, 0b11)

    return wrapper
