"""The scheduling conformance axis: batched superblock quanta vs the
seed step-wise scheduler must be bit-identical at every quantum and
every engine tier (chained, traced), and the guest-visible
result must be quantum-independent."""

import pytest

from repro.conformance import scheduling
from repro.kernel.kernel import LinuxKernel
from repro.machine.process import Process


@pytest.fixture(scope="module")
def checks():
    return scheduling.sweep()


def test_axis_is_bit_identical(checks):
    bad = [str(c) for c in checks if not c.ok]
    assert not bad, "\n".join(bad)


def test_axis_covers_every_cell(checks):
    cells = {(c.program, c.mode, c.tier, c.quantum) for c in checks}
    expected = {
        (program, mode, tier, quantum)
        for program in scheduling.PROGRAMS
        for mode in scheduling.ATTACH_MODES
        for tier in scheduling.ENGINE_TIERS
        for quantum in (*scheduling.QUANTA, 0)  # 0 = cross-quantum check
    }
    assert cells == expected
    assert len(checks) == len(expected) == scheduling.cell_count()


def test_staggered_joins_actually_park():
    """Guard against the axis silently testing nothing: the staggered
    program must park at least one join (main blocks on a worker that
    is still running) and print one value per shard."""
    fp = scheduling.run_schedule(
        scheduling.PROGRAMS["staggered"], quantum=7, tier="traced")
    assert fp["join_log"]
    assert len(fp["output"]) == 3


def test_traced_cells_actually_fuse():
    """Guard: the ``traced`` tier must compile at least one fused trace
    under the axis workloads at the default scheduler quantum — else
    its cells silently collapse into re-testing plain chaining."""
    proc = Process(scheduling.PROGRAMS["staggered"](), uops=True, trace=True)
    proc.kernel = LinuxKernel()
    proc.run(quantum=64)
    compiles = sum(t.uop_stats.trace_compiles for t in proc.threads
                   if t.uop_stats is not None)
    assert compiles > 0, "traced tier never fused a chain cycle"
    assert proc.sb_cache.cached_traces > 0


def test_attached_mode_actually_traps():
    """Guard: the seq_short cells must virtualize the workers — every
    thread, not just main, takes FP traps."""
    fp = scheduling.run_schedule(
        scheduling.PROGRAMS["staggered"], quantum=7, tier="traced",
        mode="seq_short")
    fp_traps = {tid: fp_count for tid, _, _, _, fp_count, _ in fp["threads"]}
    assert all(fp_traps[tid] > 0 for tid in (1, 2, 3))
