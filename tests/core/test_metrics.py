"""The one metrics model: parts merge exactly into wholes.

Thread snapshots merge into the process snapshot, guests merge into the
fleet summary, and the fleet equals the serial oracle.  A counter on a
shared object (a process's superblock cache) is reported once, by that
object, however many threads observe its syncs.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.telemetry import merge, rates, snapshot
from repro.core.vm import FPVMConfig
from repro.fleet import FleetScheduler, make_batch, run_guest
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
    entries = sorted({e for view in cache.views.values() for e in view})[:5]
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


# --------------------------------------------------- guest -> fleet
@pytest.fixture(scope="module")
def jobs():
    return (make_batch("mixed_mt", 2, scale=30)
            + make_batch("lorenz", 2, scale=60, start_id=2))


@pytest.fixture(scope="module")
def oracle(jobs):
    return merge(*(run_guest(job, None).metrics for job in jobs))


@pytest.mark.parametrize("workers", [0, 2])
def test_guests_merge_to_the_fleet(jobs, oracle, workers):
    report = FleetScheduler(workers=workers).run(jobs)
    assert not report.failed and len(report.results) == len(jobs)
    fleet = report.fleet
    merged = merge(*(r.metrics for r in report.results))
    assert {k: fleet[k] for k in merged} == merged
    assert fleet["guests"] == len(jobs)
    per_worker = [{k: v for k, v in w.items() if "." in k}
                  for w in fleet["per_worker"].values()]
    assert merge(*per_worker) == merged
    assert sum(w["guests"] for w in fleet["per_worker"].values()) == len(jobs)
    # The serial cold oracle: equal on everything but what warm guests
    # share (COW pages, the template's cache), which they don't copy.
    warm_only = ("mem", "sbcache")
    assert ({k: v for k, v in merged.items() if k.split(".")[0] not in warm_only}
            == {k: v for k, v in oracle.items() if k.split(".")[0] not in warm_only})
    assert not _namespace(merged, "sbcache")
    assert merged["mem.cow_faults"] > 0


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
