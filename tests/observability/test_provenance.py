"""Exception-flow observability: the NaN-provenance lifecycle.

Three contracts under test:

1. **Lifecycle** — boxes are born at the right (rip, class) sites,
   propagate along edges, and die for the right reasons (consumed,
   clamped, demoted, collected) on the trap-diverse storm workloads.
2. **Tier independence** — the interpreter and chained tiers produce
   the *same* flow graph for the same guest, because the
   recorder sits behind the one trap/emulate seam they all share.
3. **Purity** — recording provenance never alters architectural state:
   with flow on vs off, stdout, the demoted memory digest, simulated
   cycles, and instruction counts are bit-identical (hypothesis-fuzzed
   over generated programs), and flow is off by default.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import oracle
from repro.conformance.generators import fuzz_program
from repro.core.vm import FPVMConfig
from repro.fpu.ieee import FPFlags
from repro.harness.runner import run_fpvm
from repro.machine.cpu import TIERS
from repro.observability import (
    KILL_REASONS,
    TRAP_CLASSES,
    FlowRecorder,
    classify_flags,
)

pytestmark = pytest.mark.flow

def birth_classes(flow: FlowRecorder) -> Counter:
    """Births per trap class, summed over birth sites."""
    out: Counter = Counter()
    for (_rip, cls), n in flow.births.items():
        out[cls] += n
    return out


def run_tier(workload: str, tier: str, scale: int, **config_kwargs):
    cfg = FPVMConfig.seq_short(flow=True, **config_kwargs)
    return run_fpvm(workload, cfg, scale=scale, uops=TIERS[tier])


# ------------------------------------------------------------ classify
class TestClassify:
    def test_disabled(self):
        assert classify_flags(None) == "disabled"
        assert classify_flags(FPFlags()) == "disabled"

    def test_priority_matches_cost_model(self):
        # invalid > divzero > denormal > overflow > underflow > inexact
        assert classify_flags(FPFlags(invalid=True, inexact=True)) == "invalid"
        assert classify_flags(FPFlags(zero_divide=True, inexact=True)) == "divzero"
        assert classify_flags(FPFlags(denormal=True, underflow=True)) == "denormal"
        assert classify_flags(FPFlags(overflow=True, inexact=True)) == "overflow"
        assert classify_flags(FPFlags(underflow=True, inexact=True)) == "underflow"
        assert classify_flags(FPFlags(inexact=True)) == "inexact"


# ------------------------------------------------------ recorder units
class TestRecorder:
    def test_birth_edge_kill(self):
        r = FlowRecorder()
        r.begin_trap(0x10, "denormal")
        r.begin_op(0x10)
        r.note_birth(ptr=100)
        r.end_op()
        r.end_trap()

        r.begin_trap(0x20, "invalid")
        r.begin_op(0x20)
        r.note_source(100)
        r.note_birth(ptr=104)
        r.end_op()
        r.end_trap()

        assert r.births == {(0x10, "denormal"): 1, (0x20, "invalid"): 1}
        assert r.edges == {((0x10, "denormal"), (0x20, "invalid")): 1}
        assert not r.kills

    def test_consumed_and_clamped(self):
        r = FlowRecorder()
        r.begin_trap(0x10, "overflow")
        r.begin_op(0x10)
        r.note_birth(ptr=100)
        r.end_op()
        r.end_trap()
        # a compare consumes the box: no produce drains the source.
        r.begin_trap(0x20, "invalid")
        r.begin_op(0x20)
        r.note_source(100)
        r.end_op()
        r.end_trap()
        # inf - inf produces a real NaN: clamp kills the sources.
        r.begin_trap(0x30, "invalid")
        r.begin_op(0x30)
        r.note_source(100)
        r.note_clamp()
        r.end_op()
        r.end_trap()
        assert r.kills_by_reason() == {"consumed": 1, "clamped": 1}

    def test_ptr_reuse_gets_new_generation(self):
        r = FlowRecorder()
        r.begin_op(0x10)
        r.note_birth(ptr=100)
        gen1 = r.live[100][0]
        r.on_free([100])
        r.begin_op(0x20)
        r.note_birth(ptr=100)  # free-list reuse of the same slot
        gen2, site = r.live[100]
        assert gen2 > gen1
        assert site == (0x20, "fcall")
        assert r.kills_by_reason() == {"collected": 1}

    def test_unowned_sources_ignored(self):
        r = FlowRecorder()
        r.begin_op(0x10)
        r.note_source(999)  # never born: foreign/stale pointer
        r.note_birth(ptr=100)
        assert not r.edges


# ------------------------------------------------- lifecycle on storms
class TestStormLifecycle:
    def test_denorm_storm_birth_classes(self):
        result = run_tier("denorm_storm", "chained", scale=30)
        classes = birth_classes(result.flow)
        # under SEQ_SHORT the boxed-accumulator adds are emulated inside
        # the preceding trap's sequence window, so the rare classes show;
        # the adds' own invalid births need trap-per-op (NONE, below).
        for cls in ("denormal", "underflow", "inexact"):
            assert classes.get(cls, 0) >= 30, (cls, classes)
        none = run_fpvm("denorm_storm", FPVMConfig.none(flow=True), scale=30)
        assert birth_classes(none.flow)["invalid"] >= 30

    def test_range_storm_covers_remaining_classes_and_kills(self):
        result = run_tier("range_storm", "chained", scale=30)
        traps = result.flow.traps_by_class
        for cls in ("overflow", "divzero", "invalid", "inexact"):
            assert traps.get(cls, 0) >= 30, (cls, dict(traps))
        kills = result.flow.kills_by_reason()
        assert kills.get("consumed", 0) >= 30
        assert kills.get("clamped", 0) >= 30

    def test_storms_cover_every_trap_class(self):
        seen = set()
        for w in ("denorm_storm", "range_storm"):
            seen |= set(run_tier(w, "chained", scale=20).flow.traps_by_class)
        assert seen >= set(TRAP_CLASSES)

    def test_gc_sweep_records_collected_kills(self):
        result = run_tier("denorm_storm", "chained", scale=40, gc_threshold=64)
        kills = result.flow.kills_by_reason()
        assert result.gc_runs > 0
        assert kills.get("collected", 0) > 0
        assert set(kills) <= set(KILL_REASONS)

    def test_host_perf_carries_flow_summary(self):
        result = run_tier("range_storm", "chained", scale=10)
        flow = result.flow
        assert sum(flow.births.values()) > 0
        assert set(flow.kills_by_reason()) <= set(KILL_REASONS)


# ------------------------------------------------- tier independence
@pytest.mark.parametrize("workload,scale", [
    ("denorm_storm", 25), ("range_storm", 20), ("lorenz", 15),
])
def test_all_tiers_produce_identical_flow_graphs(workload, scale):
    runs = {t: run_tier(workload, t, scale) for t in TIERS}
    ref = runs["interp"]
    ref_fp = ref.flow.fingerprint()
    for tier, result in runs.items():
        assert result.output == ref.output, tier
        assert result.cycles == ref.cycles, tier
        assert result.flow.fingerprint() == ref_fp, (
            f"{tier} tier flow graph diverges from the interpreter")


# ----------------------------------------------------------- purity
def test_flow_disabled_by_default():
    assert FPVMConfig().flow is False
    result = run_fpvm("denorm_storm", FPVMConfig.seq_short(), scale=5)
    assert result.flow is None


@given(seed=st.integers(min_value=0, max_value=63))
@settings(max_examples=10, deadline=None)
def test_provenance_never_alters_architectural_state(seed):
    """Flow on vs off: bit-identical guest observables on fuzzed
    programs (a fresh image per run — attach mutates the image)."""
    off = oracle.run_cell(fuzz_program(seed), FPVMConfig.seq_short(), "flow_off")
    on = oracle.run_cell(fuzz_program(seed),
                         FPVMConfig.seq_short(flow=True), "flow_on")
    assert on.output == off.output
    assert on.memory_digest == off.memory_digest
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    assert not on.invariant_failures


@pytest.mark.parametrize("workload,scale", [
    ("denorm_storm", 30), ("lorenz", 20),
])
def test_provenance_pure_on_workloads(workload, scale):
    off = run_fpvm(workload, FPVMConfig.seq_short(), scale=scale)
    on = run_fpvm(workload, FPVMConfig.seq_short(flow=True), scale=scale)
    assert on.output == off.output
    assert on.cycles == off.cycles
    assert on.traps == off.traps
