"""The trap path's state contract: one copy of the register file per
delivery, and a clobber-masked restore that writes back only what
changed.

The property tests replay random scenarios — a random pre-trap XMM
bank, random handler results reported through ``SignalContext.mark``,
random unmarked scribbles after the entry save — through real
deliveries (frame-mode signals and live short-circuit contexts, eager
and lazy save) and through the foreign-call wrapper guard.  The bank
after the trap and the lane counters must equal what the pair-by-pair
walk below, the restore the handler used to run, gives."""

import random

import pytest

from repro.core.vm import FPVM, FPVMConfig
from repro.core.wrappers import _make_demoting_wrapper
from repro.kernel.kernel import LinuxKernel
from repro.kernel.signals import SIGFPE
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.program import HostFunction
from repro.machine.registers import restore_lanes

FULL = 0xFFFF_FFFF


def restore_lanes_walk(bank, pairs, mask) -> None:
    """The oracle: write back, pair by pair, every lane of ``pairs``
    that ``mask`` selects, whether or not it changed."""
    xid = 0
    while mask:
        lanes = mask & 3
        if lanes == 3:
            bank[xid][:] = pairs[xid]
        elif lanes:
            bank[xid][lanes - 1] = pairs[xid][lanes - 1]
        mask >>= 2
        xid += 1


def _value(r: random.Random, old: int) -> int:
    """A new lane value; sometimes the old one, so an unchanged write
    (which the compare-then-write restore skips) is covered too."""
    return old if r.random() < 0.2 else r.getrandbits(64)


def _lanes(r: random.Random) -> list[int]:
    return [i for i in range(32) if r.random() < 0.15]


def test_restore_lanes_matches_walk():
    for seed in range(2000):
        r = random.Random(seed)
        bank = [[r.getrandbits(64), r.getrandbits(64)] for _ in range(16)]
        pairs = [[_value(r, a), _value(r, b)] for a, b in bank]
        mask = r.getrandbits(32) if r.random() < 0.8 else FULL
        fast, walk = [p[:] for p in bank], [p[:] for p in bank]
        restore_lanes(fast, pairs, mask)
        restore_lanes_walk(walk, pairs, mask)
        assert fast == walk, f"seed {seed}"


# ------------------------------------------------------------ deliveries
def _scenario(seed: int):
    """A trapping instruction, a pre-trap bank, the handler's marked
    writes and the scribbles that follow the entry save."""
    r = random.Random(seed)
    dst, src = r.sample(range(16), 2)
    bank = [[r.getrandbits(64), r.getrandbits(64)] for _ in range(16)]
    writes = {i: _value(r, bank[i >> 1][i & 1]) for i in _lanes(r)}
    scribbles = {i: _value(r, bank[i >> 1][i & 1]) for i in _lanes(r)}
    return f"addsd xmm{dst}, xmm{src}", bank, writes, scribbles


def _expected(bank, writes, scribbles, mask):
    """What the walk leaves: save, scribble, write, restore the saved
    lanes not written."""
    out = [p[:] for p in bank]
    saved = list(map(tuple, out))
    for lanes in (scribbles, writes):
        for i, v in lanes.items():
            out[i >> 1][i & 1] = v
    written = sum(1 << i for i in writes)
    restore = mask & ~written
    restore_lanes_walk(out, saved, restore)
    return out, mask.bit_count(), restore.bit_count()


def _deliver(line, bank, writes, scribbles, *, live, lazy):
    """Run ``line`` once under FPVM with every FP instruction trapping,
    the handler's emulation replaced by ``writes`` (marked) and the
    entry save followed by ``scribbles`` (unmarked)."""
    prog = assemble(f"main:\n  {line}\n  hlt\n")
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig(trap_all_fp=True, trap_short_circuit=live,
                         lazy_state_save=lazy, wrap_foreign=False,
                         patch_site_source="none")).attach(cpu, kernel)
    cpu.regs.xmm = [p[:] for p in bank]
    save = vm._fp_entry_save

    def entry_save(context, trap):
        saved = save(context, trap)
        for i, v in scribbles.items():
            context.xmm[i >> 1][i & 1] = v
        return saved

    def handle_fp_trap(context, trap):
        assert context.live is live
        for i, v in writes.items():
            context.xmm[i >> 1][i & 1] = v
        context.mark(sum(1 << i for i in writes))
        return trap.addr + trap.instruction.size

    vm._fp_entry_save = entry_save
    vm.sequencer.handle_fp_trap = handle_fp_trap
    cpu.run()
    t = vm.telemetry
    assert t.traps == 1
    return cpu.regs.xmm, t.fp_handler_lanes_saved, t.fp_handler_lanes_restored


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("live", [False, True], ids=["frame", "live"])
def test_delivery_restores_like_the_walk(live, lazy):
    for seed in range(120):
        line, bank, writes, scribbles = _scenario(seed)
        mask = (assemble(f"main:\n  {line}\n").instructions[0].xmm_operands()
                if lazy else FULL)
        got = _deliver(line, bank, writes, scribbles, live=live, lazy=lazy)
        assert got == _expected(bank, writes, scribbles, mask), f"seed {seed}"


# ------------------------------------------------------------- wrappers
@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_wrapper_guard_restores_like_the_walk(lazy):
    """The demoting wrapper's guard around a host function that
    scribbles the bank (and, returning a double, writes xmm0)."""
    prog = assemble("main:\n  hlt\n")
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig(lazy_state_save=lazy, wrap_foreign=False,
                         patch_site_source="none")).attach(cpu, kernel)
    for seed in range(300):
        r = random.Random(seed)
        bank = [[r.getrandbits(64), r.getrandbits(64)] for _ in range(16)]
        scribbles = {i: _value(r, bank[i >> 1][i & 1]) for i in _lanes(r)}
        fp_args, fp_ret = r.randint(0, 3), r.random() < 0.5
        ret = (r.getrandbits(64), r.getrandbits(64))

        def body(cpu):
            for i, v in scribbles.items():
                cpu.regs.xmm[i >> 1][i & 1] = v
            if fp_ret:
                cpu.regs.xmm[0][:] = ret

        host = HostFunction("f", body, fp_args=fp_args, fp_ret=fp_ret)
        wrapper = _make_demoting_wrapper(vm, host)
        cpu.regs.xmm = [p[:] for p in bank]
        t = vm.telemetry
        before = (t.fp_wrapper_lanes_saved, t.fp_wrapper_lanes_restored)
        wrapper(cpu)

        clobber = sum(1 << 2 * i for i in range(fp_args)) | (0b11 if fp_ret else 0)
        mask = clobber if lazy else FULL
        written = 0b11 if fp_ret else 0
        out = [p[:] for p in bank]
        saved = list(map(tuple, out))
        for i, v in scribbles.items():
            out[i >> 1][i & 1] = v
        if fp_ret:
            out[0][:] = ret
        restore_lanes_walk(out, saved, mask & ~written)
        assert cpu.regs.xmm == out, f"seed {seed}"
        assert (t.fp_wrapper_lanes_saved - before[0],
                t.fp_wrapper_lanes_restored - before[1]) == (
            mask.bit_count(), (mask & ~written).bit_count()), f"seed {seed}"


# ------------------------------------------------------------ retirement
TWO_TRAPS_SRC = """
.data
a: .double 0.1
.text
main:
  movsd xmm0, [rip + a]
  addsd xmm0, [rip + a]
  addsd xmm0, [rip + a]
  hlt
"""


@pytest.mark.parametrize("live", [False, True], ids=["frame", "live"])
def test_context_retires_at_sigreturn(live):
    """Each delivery builds its own context; sigreturn (or the exit
    stub) retires it, so a context a handler kept reaches no register
    of the thread afterwards.  In frame mode the thread adopts the
    frame's lists, and the next delivery copies them into a fresh
    frame."""
    prog = assemble(TWO_TRAPS_SRC)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig(trap_all_fp=True, trap_short_circuit=live,
                         wrap_foreign=False, patch_site_source="none")).attach(cpu, kernel)
    seen = []
    save = vm._fp_entry_save

    def spy(context, trap):
        seen.append((context, context.xmm, cpu.regs.xmm))
        return save(context, trap)

    vm._fp_entry_save = spy
    cpu.run()
    assert len(seen) == 2
    (first, first_xmm, live_at_first), (second, second_xmm, live_at_second) = seen
    assert first is not second
    for context in (first, second):
        assert context.gpr is context.xmm is context.flags is None
        with pytest.raises(TypeError):
            context.xmm[0][0] = 1
    if live:
        assert first_xmm is live_at_first and second_xmm is live_at_second
        assert cpu.regs.xmm is first_xmm
    else:
        # The frame's lists became the thread's at the first sigreturn;
        # the second frame copied them, sharing no list.
        assert live_at_second is first_xmm
        assert second_xmm is not first_xmm
        assert all(a is not b for a, b in zip(second_xmm, first_xmm))
        assert cpu.regs.xmm is second_xmm


def test_frame_handler_sees_no_live_writes():
    """Nothing writes the live bank while a frame-mode handler runs —
    what lets the live bank serve as the entry save: the bank the
    handler returns to is the frame, and the live lists keep their
    pre-trap values until sigreturn replaces them."""
    prog = assemble(TWO_TRAPS_SRC)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig(trap_all_fp=True, wrap_foreign=False,
                         patch_site_source="none")).attach(cpu, kernel)
    checks = []
    on_sigfpe = kernel.sigactions[SIGFPE]

    def handler(signum, context, trap):
        before = [p[:] for p in cpu.regs.xmm]
        regs_xmm = cpu.regs.xmm
        on_sigfpe(signum, context, trap)
        checks.append(cpu.regs.xmm is regs_xmm and cpu.regs.xmm == before
                      and context.xmm != before)

    kernel.sigaction(SIGFPE, handler)
    cpu.run()
    assert checks == [True, True]
    assert vm.telemetry.signal_traps == 2
