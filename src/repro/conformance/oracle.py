"""The differential oracle: run one (program, config) cell and collect
everything the conformance matrix compares.

Three kinds of evidence per cell:

- **stdout** — the program's printed output, compared bit-for-bit
  (prints demote, so every backend must agree with itself across
  configs, and Boxed IEEE must agree with native).
- **final-memory digest** — a SHA-256 over the data segment with any
  still-boxed words *purely* demoted first (no charges, no telemetry),
  so runs that leave boxes in memory at different GC phases still
  digest equal when they computed equal values.
- **ledger/telemetry invariants** — exact accounting identities that
  must hold for any clean run of any configuration (see
  :func:`check_invariants`).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from repro.core import nanbox
from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.machine.program import PatchKind, Program

#: generous per-cell step budget — every plan program finishes well
#: under this; hitting it means a livelock the fault layer should have
#: caught.
DEFAULT_MAX_STEPS = 5_000_000


@dataclass
class CellRun:
    """One executed cell: a program under one config (or native)."""

    config_name: str
    output: tuple[str, ...]
    memory_digest: str
    cycles: int
    instructions: int
    invariant_failures: list[str] = field(default_factory=list)
    telemetry: object = None
    ledger: dict = field(default_factory=dict)


def run_native(program: Program, max_steps: int = DEFAULT_MAX_STEPS) -> CellRun:
    """The oracle's ground truth: the same image with no FPVM attached."""
    cpu = CPU(program)
    cpu.kernel = LinuxKernel()
    cpu.run(max_steps=max_steps)
    return CellRun(
        config_name="native",
        output=tuple(cpu.output),
        memory_digest=memory_digest(cpu),
        cycles=cpu.cycles,
        instructions=cpu.instruction_count,
    )


def run_cell(
    program: Program,
    config: FPVMConfig,
    config_name: str = "",
    max_steps: int = DEFAULT_MAX_STEPS,
    uops: bool | None = None,
) -> CellRun:
    """Attach FPVM with ``config`` to a CPU on the ``uops`` tier, run
    to completion, verify the accounting invariants, and capture the
    comparable state."""
    cpu = CPU(program, uops=uops)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    cpu.run(max_steps=max_steps)
    return CellRun(
        config_name=config_name,
        output=tuple(cpu.output),
        memory_digest=memory_digest(cpu, vm),
        cycles=cpu.cycles,
        instructions=cpu.instruction_count,
        invariant_failures=check_invariants(cpu, vm),
        telemetry=vm.telemetry,
        ledger=vm.ledger.snapshot(),
    )


# -------------------------------------------------------------- digest
def _pure_demote(vm, bits: int) -> int:
    """Collapse an owned boxed pattern to plain binary64 without
    touching charges or telemetry (identity on everything else)."""
    if vm is not None and nanbox.is_boxed(bits):
        ptr, negated = nanbox.unbox(bits)
        if vm.allocator.owns(ptr):
            out = vm.altmath.demote(vm.allocator.load(ptr))
            if negated:
                out ^= 1 << 63
            return out
    return bits


def memory_digest(cpu, vm=None) -> str:
    """SHA-256 of the final data segment, word by word, with owned
    boxed values demoted through the run's own altmath system.

    Boxed words differ across runs even for equal values (box pointers
    depend on allocation/GC history), so the raw bytes can never be
    compared; the demoted view can.
    """
    program = cpu.program
    h = hashlib.sha256()
    addr = program.data_base
    end = addr + len(program.data)
    while addr + 8 <= end:
        bits = _pure_demote(vm, cpu.mem.read_u64(addr))
        h.update(struct.pack("<Q", bits))
        addr += 8
    return h.hexdigest()


# ---------------------------------------------------------- invariants
def check_invariants(cpu, vm) -> list[str]:
    """Exact accounting identities for a clean (fault-free) run.

    Every violation is returned as a human-readable string; an empty
    list means the CycleLedger, Telemetry, and CPU counters form a
    closed, consistent account of the run.
    """
    failures: list[str] = []
    t = vm.telemetry
    ledger = vm.ledger

    # 1. Cycle closure: every simulated cycle is either guest work
    #    (retired instruction + host-library body costs) or an overhead
    #    cycle recorded in exactly one ledger category.
    expect = cpu.work_cycles + ledger.total()
    if cpu.cycles != expect:
        failures.append(
            f"cycle closure: cpu.cycles={cpu.cycles} != "
            f"work_cycles({cpu.work_cycles}) + ledger({ledger.total()})"
        )

    # 2. Every handled trap came through exactly one delivery path.
    if t.traps != t.signal_traps + t.short_circuit_traps:
        failures.append(
            f"trap paths: traps={t.traps} != signal({t.signal_traps}) "
            f"+ short_circuit({t.short_circuit_traps})"
        )

    # 3. The CPU and FPVM agree on how many #XF traps occurred (no
    #    spurious deliveries happen without fault injection).
    if cpu.fp_trap_count != t.traps:
        failures.append(
            f"trap count: cpu.fp_trap_count={cpu.fp_trap_count} != "
            f"telemetry.traps={t.traps}"
        )
    if t.spurious_traps:
        failures.append(f"{t.spurious_traps} spurious deliveries in a clean run")

    # 4. Correctness events match the patch sites that fired: every
    #    magic-trampoline invocation and every int3 breakpoint trap runs
    #    the demotion handler exactly once.
    tramp_calls = sum(
        p.trampoline.call_count
        for p in vm.program.patches.values()
        if p.kind is PatchKind.MAGIC_CALL
    )
    if t.corr_events != tramp_calls + cpu.bp_trap_count:
        failures.append(
            f"corr events: {t.corr_events} != trampoline calls "
            f"({tramp_calls}) + int3 traps ({cpu.bp_trap_count})"
        )

    # 5-7. Foreign calls and decode traffic price out to exactly their
    #      ledger categories.
    costs, cycles = vm.costs, ledger.by_category
    for category, expect in (
            ("fcall", (t.fcall_traps + t.libm_calls) * costs.fcall_wrapper),
            ("decache", (t.decode_hits + t.decode_misses) * costs.decode_cache_hit),
            ("decode", t.decode_misses * costs.decode_miss)):
        if cycles[category] != expect:
            failures.append(f"{category} cycles: ledger {cycles[category]} "
                            f"!= {expect} priced from telemetry counts")

    # 8. The §6.3 trace statistics account for every emulated
    #    instruction and every sequence.
    stats = vm.trace_stats
    for name, want in (("emulated_instructions", stats.total_emulated()),
                       ("sequences", stats.total_sequences())):
        if getattr(t, name) != want:
            failures.append(f"{name}: telemetry {getattr(t, name)} "
                            f"!= trace statistics {want}")
    return failures
