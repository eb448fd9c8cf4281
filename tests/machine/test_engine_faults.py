"""Exception-path accounting: a memory fault raised inside the micro-op
engine escapes with every retire counter, the lazy-FP dirty set and RIP
exactly as the interpreter leaves them, and a #XF an FP micro-op decides
inside its block is delivered with the same counters, dirty set and
flags as the interpreter's — whether the faulting instruction sits in
the first block of the run, in a block entered through a control tail,
or in a loop whose cached blocks have run many times."""

import struct

import pytest

from repro.core.vm import FPVM, FPVMConfig
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


#: The same three places for a #XF under FPVM.  ``addsd`` adds 1.0 to
#: xmm0, which starts ``laps`` below 2^53: exact until lap ``laps``,
#: whose 2^53 + 1 is a tie (PE, a trap).  From then on xmm0 holds a
#: NaN box and every lap's ``addsd`` traps again.  The exact ``mulsd``
#: before it makes the trapping micro-op's retired prefix nonempty.
TRAP_WALK_SRC = """
.data
one: .double 1.0
n: .quad 16
.text
main:
  mov rcx, [rip + n]
  movsd xmm1, [rip + one]
top:
  mulsd xmm2, xmm1
  addsd xmm0, xmm1
  movsd xmm3, xmm0
  call bump
  dec rcx
  jne top
  hlt
bump:
  inc rax
  ret
"""


def _run_fpvm(tier: str, laps: int) -> tuple[CPU, list]:
    cpu = CPU(assemble(TRAP_WALK_SRC), uops=TIERS[tier])
    kernel = LinuxKernel()
    cpu.kernel = kernel
    FPVM(FPVMConfig.none(patch_site_source="none")).attach(cpu, kernel)
    cpu.regs.xmm[0][0] = struct.unpack(
        "<Q", struct.pack("<d", 2.0 ** 53 - laps))[0]
    delivered = []
    deliver = kernel.deliver_trap

    def recording(cpu, trap):
        # What the handler sees on entry: the whole retired prefix is
        # charged, the trapped instruction's lanes are dirty.
        delivered.append((trap.fp_flags, trap.addr, cpu.cycles,
                          cpu.instruction_count, cpu.regs.fp_dirty,
                          cpu.fp_trap_count))
        deliver(cpu, trap)
    kernel.deliver_trap = recording
    cpu.run(max_steps=10_000)
    return cpu, delivered


@pytest.mark.parametrize("place", list(FAULT_LAPS))
@pytest.mark.parametrize("tier", list(TIERS))
def test_fp_trap_exit_accounting_matches_interpreter(tier, place):
    laps = FAULT_LAPS[place]
    cpu, delivered = _run_fpvm(tier, laps)
    oracle, oracle_delivered = _run_fpvm("interp", laps)
    assert delivered == oracle_delivered
    assert delivered[0][1] == cpu.program.symbols["top"] + \
        cpu.program.by_addr[cpu.program.symbols["top"]].size
    assert len(delivered) == 16 - laps
    assert _observed(cpu) == _observed(oracle)
    assert cpu.fp_trap_count == oracle.fp_trap_count
    if tier == "chained":
        stats = cpu.uop_stats
        assert stats.fp_trap_exits == len(delivered)
        if place == "hot_loop":
            assert stats.block_runs > stats.blocks_built, "no cached block re-ran"
