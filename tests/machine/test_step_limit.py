"""The step limit of ``CPU.run`` and ``Process.run``: a program that
halts on exactly its ``max_steps``-th step finishes cleanly on every
tier, and a runaway program raises at the limit with the interpreter's
exact ledger."""

import pytest

from repro.errors import StepLimitError
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, TIERS, MachineError
from repro.machine.process import Process

#: an FP loop that halts: superblock bodies, a chainable ``jne`` tail
#: and a fusable cycle, so every tier's budget edge is exercised.
HALTING_SRC = """
.data
k: .double 1.0001
n: .quad 300
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + k]
  movsd xmm1, [rip + k]
top:
  mulsd xmm0, xmm1
  addsd xmm0, xmm1
  dec rcx
  jne top
  hlt
"""

#: never halts; the 3-uop body makes most limits land mid-block.
RUNAWAY_SRC = """
.text
main:
  nop
spin:
  addsd xmm0, xmm1
  inc rax
  add rbx, rax
  jmp spin
"""


def _cpu(src: str, tier: str) -> CPU:
    cpu = CPU(assemble(src), uops=TIERS[tier])
    cpu.kernel = LinuxKernel()
    return cpu


def _halting_steps() -> int:
    cpu = _cpu(HALTING_SRC, "interp")
    cpu.run()
    return cpu.instruction_count          # no traps: one step per retire


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_halt_on_the_last_allowed_step(tier, delta):
    steps = _halting_steps()
    cpu = _cpu(HALTING_SRC, tier)
    limit = steps + delta
    if delta < 0:
        with pytest.raises(MachineError, match=f"exceeded {limit} steps"):
            cpu.run(max_steps=limit)
        assert not cpu.halted
        assert cpu.instruction_count == limit
    else:
        cpu.run(max_steps=limit)
        assert cpu.halted
        assert cpu.instruction_count == steps


@pytest.mark.parametrize("limit", [997, 1000, 5003])
def test_runaway_raises_with_the_interpreter_ledger(limit):
    ledgers = {}
    for tier in TIERS:
        cpu = _cpu(RUNAWAY_SRC, tier)
        with pytest.raises(MachineError, match=f"exceeded {limit} steps"):
            cpu.run(max_steps=limit)
        ledgers[tier] = (cpu.instruction_count, cpu.cycles, cpu.regs.rip,
                         tuple(cpu.regs.gpr))
    assert ledgers["interp"][0] == limit
    for tier, ledger in ledgers.items():
        assert ledger == ledgers["interp"], tier


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_process_halt_on_the_last_allowed_step(tier, delta):
    steps = _halting_steps()
    proc = Process(assemble(HALTING_SRC), uops=TIERS[tier])
    proc.kernel = LinuxKernel()
    if delta < 0:
        with pytest.raises(StepLimitError):
            proc.run(max_steps=steps + delta)
        assert not proc.main.halted
    else:
        proc.run(max_steps=steps + delta)
        assert proc.main.halted
        assert proc.main.instruction_count == steps


def test_run_of_a_blocked_core_raises():
    """Blocking is a scheduler state: a standalone ``run`` of a core
    parked in ``thread_join`` reports it instead of spinning."""
    cpu = _cpu(RUNAWAY_SRC, "chained")
    cpu.blocked = True
    with pytest.raises(MachineError, match="blocked"):
        cpu.run(max_steps=100)
