"""Lazy FP state management across quanta (§3.1): ownership tracking,
dirty-summary elision, tier parity, the lazy default, and the
skipped-switch leak fixture."""

import pytest

from repro.conformance.faults import arm_skipped_switch
from repro.conformance.scheduling import process_fingerprint
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, ENGINE_TIERS, TIERS
from repro.machine.process import Process
from repro.workloads import build_program

from .forking import fork

DEADBEEF = 0xDEAD_BEEF_DEAD_BEEF


def _mixed_proc(lazy, *, uops=True, scale=40):
    proc = Process(build_program("mixed_mt", scale, threads=4, fp_threads=2),
                   uops=uops, lazy_fp=lazy)
    from repro.kernel.kernel import LinuxKernel

    proc.kernel = LinuxKernel()
    return proc


# ------------------------------------------------------------- the knob
def test_knob_defaults_on():
    assert Process(assemble("main:\n  hlt\n")).lazy_fp is True
    assert Process(assemble("main:\n  hlt\n"), lazy_fp=False).lazy_fp is False


# ------------------------------------------- ownership, elision, masks
def test_integer_quanta_elide_saves():
    proc = _mixed_proc(lazy=True)
    proc.run()
    sched = proc.sched
    assert sched.fp_switches > 0, "FP workers never triggered a #NM switch"
    assert sched.fp_saves_elided > 0, "integer quanta should elide saves"
    assert sched.fp_eager_switches == 0
    assert proc.fp_owner in proc.threads


def test_eager_mode_spills_every_switch():
    proc = _mixed_proc(lazy=False)
    proc.run()
    sched = proc.sched
    assert sched.fp_eager_switches > 0
    assert sched.fp_switches == 0
    assert sched.fp_saves_elided == 0
    # eager pays a spill on (at least) every dispatch that changed
    # threads; with 5 runnable threads that dwarfs the lazy switch count
    lazy = _mixed_proc(lazy=True)
    lazy.run()
    assert sched.fp_eager_switches > lazy.sched.fp_switches


def test_lazy_and_eager_agree_on_guest_results():
    lazy, eager = _mixed_proc(lazy=True), _mixed_proc(lazy=False)
    lazy.run()
    eager.run()
    assert lazy.main.output == eager.main.output
    assert (sum(t.instruction_count for t in lazy.threads)
            == sum(t.instruction_count for t in eager.threads))


def test_switch_charges_stay_inside_work_cycles():
    """The #NM switch charges both ``cycles`` and ``work_cycles`` so the
    per-thread invariant ``cycles == work_cycles + ledger`` holds (bare
    process: ledger is empty, so the two counters must stay equal)."""
    proc = _mixed_proc(lazy=True)
    proc.run()
    assert proc.sched.fp_switches > 0
    for t in proc.threads:
        assert t.cycles == t.work_cycles


def test_interpreter_marks_exact_dirty_lanes():
    src = (
        ".data\n"
        "a: .double 1.5\n"
        "b: .double 2.25\n"
        ".text\n"
        "main:\n"
        "  movsd xmm3, [rip + a]\n"
        "  movsd xmm7, [rip + b]\n"
        "  addsd xmm3, xmm7\n"
        "  mov rax, 1\n"
        "  hlt\n"
    )
    cpu = CPU(assemble(src), uops=False)
    from repro.kernel.kernel import LinuxKernel

    cpu.kernel = LinuxKernel()
    assert cpu.regs.fp_dirty == 0 and cpu.fp_quantum_touched is False
    cpu.run()
    # movsd reg, [mem] zeroes the high lane too -> both lanes dirty.
    want = (0b11 << (2 * 3)) | (0b11 << (2 * 7))
    assert cpu.regs.fp_dirty == want
    assert cpu.fp_quantum_touched is True


def test_integer_only_code_never_touches():
    cpu = CPU(assemble("main:\n  mov rax, 5\n  add rax, rax\n  hlt\n"),
              uops=False)
    from repro.kernel.kernel import LinuxKernel

    cpu.kernel = LinuxKernel()
    cpu.run()
    assert cpu.regs.fp_dirty == 0
    assert cpu.fp_quantum_touched is False


@pytest.mark.parametrize("tier", ENGINE_TIERS)
def test_batched_dirty_masks_match_stepwise(tier):
    """The lowering-time per-superblock summaries must mark exactly the
    lanes the interpreter marks per instruction — per thread, at every
    quantum size."""
    for quantum in (1, 7, 64):
        ref = _mixed_proc(lazy=True, uops=False)
        got = _mixed_proc(lazy=True, uops=TIERS[tier])
        ref.run(quantum=quantum)
        got.run(quantum=quantum)
        assert ([(t.regs.fp_dirty, t.regs.fp_live) for t in ref.threads]
                == [(t.regs.fp_dirty, t.regs.fp_live) for t in got.threads])
        assert process_fingerprint(ref) == process_fingerprint(got)


@pytest.mark.parametrize("lazy", [True, False])
def test_batched_stepwise_parity_both_disciplines(lazy):
    ref = _mixed_proc(lazy=lazy, uops=False)
    got = _mixed_proc(lazy=lazy, uops=True)
    ref.run(quantum=7)
    got.run(quantum=7)
    assert process_fingerprint(ref) == process_fingerprint(got)


# ------------------------------------------------------------- the seam
def test_skip_switch_seam_leaks_owner_bank():
    clean = _mixed_proc(lazy=True)
    clean.run()
    armed = _mixed_proc(lazy=True)
    arm_skipped_switch(armed)
    armed.run()
    # the seam must not change scheduling, so instruction counts agree;
    # whether output leaks depends on the program reading before writing
    assert (sum(t.instruction_count for t in armed.threads)
            == sum(t.instruction_count for t in clean.threads))
    assert armed.sched.fp_switches == 0, "armed seam still performed switches"


def test_leak_oracle_scenario_detects_the_seam():
    from repro.conformance.faults import run_scenario

    outcome = run_scenario("lazy_fp_leak")
    assert outcome.detected, outcome.detail
    assert outcome.recovered, outcome.detail


# ---------------------------------------------------------------- fork
def test_fork_propagates_fp_ownership_and_masks():
    parent = Process(assemble("main:\n  hlt\n"))
    parent.main.regs.fp_dirty = 0b1010
    parent.main.regs.fp_live = 0b0110
    parent.fp_owner = parent.main
    child = fork(parent)
    assert child.fp_owner is child.main
    assert child.main.regs.fp_dirty == 0b1010
    assert child.main.regs.fp_live == 0b0110
    assert child.lazy_fp == parent.lazy_fp


def test_fork_without_ownership_stays_unowned():
    parent = Process(assemble("main:\n  hlt\n"))
    assert parent.fp_owner is None
    child = fork(parent)
    assert child.fp_owner is None
