"""The one metrics model: parts merge exactly into wholes.

Thread snapshots merge into the process snapshot.  A counter on a
shared object (a process's superblock cache) is reported once, by that
object, however many threads observe its syncs.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.telemetry import merge, rates, snapshot
from repro.core.vm import FPVMConfig
from repro.harness.runner import (
    _process_host_perf,
    run_fpvm,
    run_fpvm_process,
    run_native,
    run_native_process,
)
from repro.kernel.kernel import LinuxKernel
from repro.machine.process import Process
from repro.workloads import build_program


def _namespace(m: dict, *spaces: str) -> dict:
    return {k: v for k, v in m.items() if k.split(".")[0] in spaces}


# ------------------------------------------------- thread -> process
RUNS = {
    "native_cpu": lambda: run_native("lorenz", 60),
    "fpvm_cpu": lambda: run_fpvm("lorenz", FPVMConfig.seq_short(), scale=60),
    "native_process": lambda: run_native_process("mixed_mt", 60),
    "fpvm_process": lambda: run_fpvm_process(
        "mixed_mt", FPVMConfig.seq_short(), scale=60),
}


@pytest.mark.parametrize("shape", sorted(RUNS))
def test_threads_merge_to_the_run(shape):
    result = RUNS[shape]()
    host = result.host
    m = host.metrics
    assert m["cpu.cycles"] == result.cycles
    assert m["cpu.instructions"] == host.instructions
    assert rates(m)["superblock_hit_rate"] > 0.5    # the engine really ran
    if shape.startswith("fpvm"):
        assert _namespace(m, "fpvm") == snapshot(result.telemetry, "fpvm")
        assert m["cpu.fp_traps"] == m["fpvm.traps"] > 0
    else:
        assert not _namespace(m, "fpvm")
    if host.threads is None:
        return
    threads = [t["metrics"] for t in host.threads]
    assert len(threads) > 1
    # every additive key of the threads is the process's, exactly.
    merged = merge(*threads)
    assert _namespace(m, "cpu", "uop") == merged
    # the process-owned counters are nobody's thread counters ...
    assert not any(_namespace(t, "sched", "sbcache", "fpvm") for t in threads)
    # ... and still reconcile with them.
    assert sum(t["dispatches"] for t in host.threads) == m["sched.dispatches"]
    assert m["uop.quantum_dispatches"] == m["sched.dispatches"]
    assert m["sched.steps"] == (m["cpu.instructions"] + m["cpu.fp_traps"]
                                + m["cpu.bp_traps"])
    assert host.sched == _strip(_namespace(m, "sched"))
    # lazy FP switching ran and its counters reach the run's metrics.
    assert m["sched.fp_switches"] > 0 and m["sched.fp_saves_elided"] > 0


def _strip(m: dict) -> dict:
    return {k.split(".", 1)[1]: v for k, v in m.items()}


def test_shared_cache_counters_reported_once():
    """Two patch rounds on a running ``lorenz_mt`` Process, each round's
    sync seen first by a different thread: the reported per-site
    counters are the cache's own, not a sum of thread copies."""
    proc = Process(build_program("lorenz_mt", 400), uops=True)
    proc.kernel = LinuxKernel()
    for _ in range(20):
        for t in list(proc.threads):
            t.run_quantum(64)
    prog, cache = proc.main.program, proc.sb_cache
    entries = sorted(cache.blocks)[:5]
    live = [t for t in proc.threads if not (t.halted or t.blocked)]
    assert len(entries) == 5 and len(live) >= 2
    for first in live[:2]:
        for addr in entries:
            prog.patch_int3(addr)
            prog.unpatch(addr)
        first.run_quantum(64)
        for t in proc.threads:
            t.run_quantum(64)
    assert cache.invalidated_blocks > 0 and cache.survived_blocks > 0
    m = _process_host_perf(proc, 1.0).metrics
    assert m["sbcache.invalidated_blocks"] == cache.invalidated_blocks
    assert m["sbcache.survived_blocks"] == cache.survived_blocks


# ------------------------------------------------------ merge algebra
_counts = st.dictionaries(st.sampled_from(["cpu.cycles", "uop.block_runs",
                                           "sched.steps"]),
                          st.integers(0, 10**12))
_hists = st.dictionaries(
    st.sampled_from(["uop.quantum_exits", "fpvm.altmath_ops"]),
    st.dictionaries(st.sampled_from(["budget", "halted", "add", "mul"]),
                    st.integers(0, 10**9)))
_snapshots = st.builds(lambda c, h: {**c, **h}, _counts, _hists)


@settings(max_examples=200, deadline=None)
@given(_snapshots, _snapshots, _snapshots)
def test_merge_is_exact_associative_and_commutative(x, y, z):
    before = copy.deepcopy((x, y, z))
    assert merge(merge(x, y), z) == merge(x, merge(y, z)) == merge(x, y, z)
    assert merge(x, y) == merge(y, x)
    assert merge(x) == x
    assert merge() == {}
    assert (x, y, z) == before                    # inputs untouched
    total = merge(x, y)
    for key in x.keys() & y.keys():
        if isinstance(x[key], dict):
            for k in x[key].keys() | y[key].keys():
                assert total[key][k] == x[key].get(k, 0) + y[key].get(k, 0)
        else:
            assert total[key] == x[key] + y[key]
