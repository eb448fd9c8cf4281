"""The scheduling conformance axis: batched superblock quanta vs the
seed step-wise scheduler must be bit-identical at every quantum and
every engine tier, and the guest-visible result must be
quantum-independent."""

import pytest

from repro.conformance import scheduling


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
        scheduling.PROGRAMS["staggered"], quantum=7, tier="chained")
    assert fp["join_log"]
    assert len(fp["output"]) == 3


def test_attached_mode_actually_traps():
    """Guard: the seq_short cells must virtualize the workers — every
    thread, not just main, takes FP traps."""
    fp = scheduling.run_schedule(
        scheduling.PROGRAMS["staggered"], quantum=7, tier="chained",
        mode="seq_short")
    fp_traps = {tid: fp_count for tid, _, _, _, fp_count, _ in fp["threads"]}
    assert all(fp_traps[tid] > 0 for tid in (1, 2, 3))
