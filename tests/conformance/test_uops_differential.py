"""Differential conformance: the fuzz grammar executed with the uop
pipeline forced ON (``chained``) vs. forced OFF (``interp``) must be
indistinguishable in every observable — registers, stdout, memory
digests, cycle/instruction counts, trap counts, and the attached-mode
accounting invariants.

The hypothesis sweep carries the ``slow`` marker; the deterministic
seeds below keep the property in tier-1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import oracle
from repro.conformance.generators import fuzz_program
from repro.core.vm import FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from tests.machine.flags import pack_flags

SEEDS = [0, 1, 3, 5, 9, 11, 17, 23, 31, 47]
#: the native differential also covers seeds whose loops re-run the
#: same superblocks many times.
NATIVE_SEEDS = sorted({*SEEDS, 6, 27})


def _native_fingerprint(seed: int, uops: bool):
    cpu = CPU(fuzz_program(seed), uops=uops)
    cpu.kernel = LinuxKernel()
    cpu.run(max_steps=oracle.DEFAULT_MAX_STEPS)
    regs = cpu.regs
    return {
        "rip": regs.rip,
        "gpr": tuple(regs.gpr),
        "xmm": tuple(tuple(lanes) for lanes in regs.xmm),
        "flags": pack_flags(regs.flags),
        "mxcsr": regs.mxcsr,
        "halted": cpu.halted,
        "output": tuple(cpu.output),
        "digest": oracle.memory_digest(cpu),
        "cycles": cpu.cycles,
        "work_cycles": cpu.work_cycles,
        "instructions": cpu.instruction_count,
        "fp_traps": cpu.fp_trap_count,
        "bp_traps": cpu.bp_trap_count,
        "retired": dict(cpu.retired_by_class),
    }


@pytest.mark.parametrize("seed", NATIVE_SEEDS)
def test_native_differential(seed):
    """Raw machine, no FPVM: superblocks vs. single-step."""
    assert _native_fingerprint(seed, uops=False) == _native_fingerprint(seed, uops=True)


@pytest.mark.slow
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_random_programs_identical_across_tiers(seed):
    assert _native_fingerprint(seed, uops=False) == _native_fingerprint(seed, uops=True)


def _cell_fingerprint(run: oracle.CellRun):
    t = run.telemetry
    return {
        "output": run.output,
        "digest": run.memory_digest,
        "cycles": run.cycles,
        "instructions": run.instructions,
        "ledger": run.ledger,
        "traps": t.traps,
        "sequences": t.sequences,
        "emulated": t.emulated_instructions,
        "decode_hits": t.decode_hits,
        "decode_misses": t.decode_misses,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_attached_differential(seed, hot_traces):
    """Full FPVM attach: the uop pipeline *and* the compiled sequence
    tier (forced hot with a low threshold) against the seed
    interpreter."""
    base = oracle.run_cell(
        fuzz_program(seed),
        FPVMConfig.seq_short(),
        "interp",
        uops=False,
    )
    fast = oracle.run_cell(
        fuzz_program(seed),
        FPVMConfig.seq_short(),
        "chained",
        uops=True,
    )
    assert base.invariant_failures == []
    assert fast.invariant_failures == []
    assert _cell_fingerprint(base) == _cell_fingerprint(fast)


def test_compiled_tier_exercised_somewhere(hot_traces):
    """Guard against the attached differential silently testing nothing:
    at least one fuzz seed must actually promote and replay a trace."""
    total_hits = 0
    for seed in SEEDS:
        run = oracle.run_cell(
            fuzz_program(seed),
            FPVMConfig.seq_short(),
            "chained",
            uops=True,
        )
        total_hits += run.telemetry.compiled_trace_hits
    assert total_hits > 0
