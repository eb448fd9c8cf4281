"""Three-tier differential fuzz: random loop programs executed by the
seed interpreter, the chained dispatcher, and the fused trace JIT must
be indistinguishable in every architectural
observable — registers, memory digests, and the cycle ledger.

The hypothesis sweep carries the ``slow`` marker; a deterministic
smoke pair stays in tier-1 so the property is exercised on every run
and guarded against vacuity (the traced tier must actually fuse)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import oracle
from repro.conformance.generators import fuzz_program
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU, ENGINE_TIERS, TIERS

#: threshold 1: the small fuzz loops (2-6 iterations) must fuse, or the
#: traced tier would silently degrade to plain chaining.
TRACE_THRESHOLD = 1


def _run_tier(seed: int, tier: str):
    uops, trace = TIERS[tier]
    cpu = CPU(fuzz_program(seed), uops=uops, trace=trace)
    cpu.kernel = LinuxKernel()
    if trace:
        cpu.trace_stabilize_threshold = TRACE_THRESHOLD
    cpu.run(max_steps=oracle.DEFAULT_MAX_STEPS)
    regs = cpu.regs
    fingerprint = {
        "rip": regs.rip,
        "gpr": tuple(regs.gpr),
        "xmm": tuple(tuple(lanes) for lanes in regs.xmm),
        "flags": regs.flags.pack(),
        "mxcsr": regs.mxcsr,
        "output": tuple(cpu.output),
        "digest": oracle.memory_digest(cpu),
        "cycles": cpu.cycles,
        "work_cycles": cpu.work_cycles,
        "instructions": cpu.instruction_count,
        "fp_traps": cpu.fp_trap_count,
        "bp_traps": cpu.bp_trap_count,
        "retired": dict(cpu.retired_by_class),
        "halted": cpu.halted,
    }
    return fingerprint, cpu.uop_stats


def _assert_tiers_identical(seed: int) -> int:
    """Run every tier on one seed; returns the traced tier's fused
    step count (for the vacuity guard)."""
    base, _ = _run_tier(seed, "interp")
    trace_steps = 0
    for tier in ENGINE_TIERS:
        fp, stats = _run_tier(seed, tier)
        assert fp == base, f"seed {seed}: tier {tier} diverged"
        if tier == "traced":
            trace_steps = stats.trace_steps
    return trace_steps


@pytest.mark.parametrize("seed", [0, 6, 27])
def test_three_tier_smoke(seed):
    """Deterministic tier-1 slice of the property, vacuity-guarded:
    these seeds are known to fuse traces at threshold 1."""
    assert _assert_tiers_identical(seed) > 0


@pytest.mark.slow
class TestTraceTierFuzz:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_programs_identical_across_all_tiers(self, seed):
        _assert_tiers_identical(seed)

    def test_fuzz_population_exercises_traces(self):
        """The sweep must not pass by never compiling a trace."""
        fused = sum(_assert_tiers_identical(seed) for seed in range(10))
        assert fused > 0
