"""Exception-path accounting: a memory fault raised inside the micro-op
engine escapes with every retire counter, the lazy-FP dirty set and RIP
exactly as the interpreter leaves them, whether the faulting store sits
in the first block of the run, in a block entered through a control
tail, or in a loop whose cached blocks have run many times."""

import pytest

from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, TIERS
from repro.machine.isa import GPR_IDS
from repro.machine.memory import PAGE_SIZE, PROT_READ, PROT_WRITE, MemoryFault

#: A loop whose FP store walks up through memory one slot per lap.  The
#: first block runs from ``main`` through the ``call`` tail, so a fault
#: on lap 0 lands in the run's first block; later laps enter ``top``
#: through the ``jmp`` tail, and the chained tier re-runs the three
#: cached blocks (top, bump, the post-call ``jmp``) every lap.
STORE_WALK_SRC = """
.data
k: .double 1.5
.text
main:
  movsd xmm1, [rip + k]
top:
  mulsd xmm0, xmm1
  movsd [rbx], xmm0
  addsd xmm0, xmm1
  add rbx, 8
  call bump
  jmp top
bump:
  inc rax
  ret
"""

#: a writable page followed by a read-only one; the walk faults on the
#: first store into the read-only page.
_RW_PAGE = 0x700000
_RO_PAGE = _RW_PAGE + PAGE_SIZE

#: laps completed before the faulting store: 0 faults in the first
#: block, 2 in a block entered after a control tail, 12 in a hot loop.
FAULT_LAPS = {"first_block": 0, "after_tail": 2, "hot_loop": 12}


def _run_to_fault(tier: str, laps: int) -> CPU:
    cpu = CPU(assemble(STORE_WALK_SRC), uops=TIERS[tier])
    cpu.kernel = LinuxKernel()
    cpu.mem.map_page(_RW_PAGE, PROT_READ | PROT_WRITE)
    cpu.mem.map_page(_RO_PAGE, PROT_READ)
    cpu.regs.write_gpr(GPR_IDS["rbx"], _RO_PAGE - 8 * laps)
    with pytest.raises(MemoryFault):
        cpu.run(max_steps=10_000)
    return cpu


def _observed(cpu: CPU) -> dict:
    regs = cpu.regs
    return {
        "cycles": cpu.cycles,
        "work_cycles": cpu.work_cycles,
        "instruction_count": cpu.instruction_count,
        "retired_by_class": dict(cpu.retired_by_class),
        "fp_dirty": regs.fp_dirty,
        "rip": regs.rip,
        "gpr": tuple(regs.gpr),
        "xmm": tuple(tuple(lanes) for lanes in regs.xmm),
    }


@pytest.mark.parametrize("place", list(FAULT_LAPS))
@pytest.mark.parametrize("tier", list(TIERS))
def test_fault_accounting_matches_interpreter(tier, place):
    laps = FAULT_LAPS[place]
    cpu = _run_to_fault(tier, laps)
    oracle = _run_to_fault("interp", laps)
    assert _observed(cpu) == _observed(oracle)
    assert cpu.regs.rip == cpu.program.symbols["top"] + \
        cpu.program.by_addr[cpu.program.symbols["top"]].size
    if tier == "chained" and place == "hot_loop":
        stats = cpu.uop_stats
        assert stats.block_runs > stats.blocks_built, "no cached block re-ran"
