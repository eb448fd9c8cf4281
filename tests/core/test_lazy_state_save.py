"""Regression tests for §3.1 clobber-masked handler state save.

``lazy_state_save`` must remain a *behavioural* mode — saving only the
trapped instruction's declared clobber set — not degrade back into a
cost-only knob that merely charges a cheaper entry fee.  The
``fp_scribble_mask`` seam models handler host code trashing XMM
registers: lanes inside the save set must come back, lanes outside it
must observably stay trashed under the lazy discipline (that asymmetry
is exactly what a save-everything degradation would erase)."""

import pytest

from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library

DEADBEEF = 0xDEAD_BEEF_DEAD_BEEF

SRC = """
.data
a: .double 1.5
b: .double 2.25
.text
main:
  movsd xmm0, [rip + a]
  movsd xmm1, [rip + b]
  addsd xmm0, xmm1
  call print_f64
  hlt
"""

#: xmm15 (both lanes, never an operand) plus xmm0's high lane (inside
#: addsd's clobber set, never written by scalar emulation).
SCRIBBLE = (1 << 31) | (1 << 30) | (1 << 1)


def _run(lazy: bool, scribble: int = 0):
    prog = assemble(SRC)
    install_host_library(prog)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig(trap_all_fp=True, lazy_state_save=lazy))
    vm.attach(cpu, kernel)
    vm.fp_scribble_mask = scribble
    cpu.run()
    return cpu, vm


def test_lazy_save_is_masked_not_cost_only():
    ref_cpu, _ = _run(lazy=True)
    lazy_cpu, lazy_vm = _run(lazy=True, scribble=SCRIBBLE)
    eager_cpu, eager_vm = _run(lazy=False, scribble=SCRIBBLE)

    # The guest-visible result survives the trashing in both modes.
    assert lazy_cpu.output == ref_cpu.output
    assert eager_cpu.output == ref_cpu.output

    # Clobber-set lanes are protected: xmm0's high lane was scribbled
    # inside addsd's save set, so the exit stub put it back.
    assert lazy_cpu.regs.xmm[0] == ref_cpu.regs.xmm[0]
    assert lazy_cpu.regs.xmm[1] == ref_cpu.regs.xmm[1]

    # The degradation canary: xmm15 is outside every clobber set, so a
    # genuinely masked save leaves the trashing visible.  If lazy mode
    # quietly saved all 32 lanes again, these would be restored and
    # this assertion is the one that fails.
    assert lazy_cpu.regs.xmm[15] == [DEADBEEF, DEADBEEF]

    # Eager mode saves everything, so the same trashing is invisible.
    assert eager_cpu.regs.xmm[15] == ref_cpu.regs.xmm[15]

    # And the ledger must show the asymmetry: the one arithmetic trap
    # (addsd — plain movsd data movement never traps) saves its 4
    # operand lanes lazily vs. the full 32-lane bank eagerly.
    assert lazy_vm.telemetry.traps == eager_vm.telemetry.traps == 1
    lazy_saved = lazy_vm.telemetry.fp_handler_lanes_saved
    eager_saved = eager_vm.telemetry.fp_handler_lanes_saved
    assert lazy_saved == 4
    assert eager_saved == 32
    assert lazy_vm.telemetry.fp_handler_lanes_restored <= lazy_saved


def test_handler_entry_cost_still_differs():
    """The cost side of the knob rides along with the behavioural side:
    a lazy trap charges the cheap entry stub."""
    _, lazy_vm = _run(lazy=True)
    _, eager_vm = _run(lazy=False)
    assert lazy_vm.costs.handler_entry_lazy < eager_vm.costs.handler_entry
    assert (lazy_vm.ledger.by_category["emul"]
            < eager_vm.ledger.by_category["emul"])


LIBM_SRC = """
.data
x: .double 0.5
.text
main:
  movsd xmm0, [rip + x]
  call sin
  call print_f64
  hlt
"""


def test_wrapper_guard_is_masked_too():
    """Foreign-function wrappers declare per-signature clobber masks:
    a unary libm call saves its argument/result lanes lazily instead of
    the whole bank, with identical guest output."""
    outs, saved = {}, {}
    for lazy in (True, False):
        prog = assemble(LIBM_SRC)
        install_host_library(prog)
        cpu = CPU(prog)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(FPVMConfig(lazy_state_save=lazy))
        vm.attach(cpu, kernel)
        cpu.run()
        outs[lazy] = cpu.output
        saved[lazy] = vm.telemetry.fp_wrapper_lanes_saved
    assert outs[True] == outs[False]
    assert 0 < saved[True] < saved[False]
