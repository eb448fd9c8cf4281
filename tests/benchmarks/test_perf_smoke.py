"""Host-throughput regression gate (``pytest -m perf_smoke``).

Runs the pipeline benchmark at quick scales and compares each
workload's *speedup ratio* (chained vs. the interpreter, a ratio of
medians) against the committed baseline.  The ratio is
machine-independent — both tiers slow down together on a loaded or
slower host — so the gate stays meaningful in CI, unlike absolute
instructions/sec.  A vacuity guard rides along: the chained tier must
actually run superblocks (a lorenz row whose ``uop_hit_rate`` is under
``bench_pipeline.MIN_UOP_HIT_RATE`` fails) — a silently disabled tier
would otherwise sail through the ratio gate."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINE = REPO / "benchmarks" / "baselines" / "BENCH_pipeline.json"

#: A run below ``baseline_speedup * (1 - TOLERANCE)`` fails the gate.
TOLERANCE = 0.30


def _load_bench_module():
    path = REPO / "benchmarks" / "bench_pipeline.py"
    spec = importlib.util.spec_from_file_location("bench_pipeline", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.perf_smoke
def test_pipeline_speedup_no_regression(tmp_path):
    bench = _load_bench_module()
    out = tmp_path / "BENCH_pipeline.json"
    assert bench.main(["--quick", "--out", str(out)]) == 0

    current_doc = json.loads(out.read_text())
    baseline_doc = json.loads(BASELINE.read_text())
    current = {r["workload"]: r for r in current_doc["results"]}
    baseline = {r["workload"]: r for r in baseline_doc["results"]}
    assert set(current) == set(baseline)

    failures = []
    for workload, base in baseline.items():
        row = current[workload]
        assert row["identical_results"], f"{workload}: simulated results diverged"
        floor = base["chain_speedup"] * (1 - TOLERANCE)
        if row["chain_speedup"] < floor:
            failures.append(
                f"{workload}: chain_speedup {row['chain_speedup']:.2f}x < "
                f"floor {floor:.2f}x (baseline {base['chain_speedup']:.2f}x)"
            )
        if workload.startswith("lorenz"):
            # vacuity: the chained tier really ran superblocks.
            hit_rate = row["rates"]["uop_hit_rate"]
            if hit_rate < bench.MIN_UOP_HIT_RATE:
                failures.append(
                    f"{workload}: chained tier uop_hit_rate {hit_rate:.4f} "
                    f"< {bench.MIN_UOP_HIT_RATE}")
        if workload == "patch_churn":
            # the per-site invalidation gate: warm blocks must
            # demonstrably survive each patch event (a wholesale flush
            # would zero survived_blocks and sink the ratio).
            if not row["metrics"]["sbcache.survived_blocks"]:
                failures.append(
                    "patch_churn: zero superblocks survived a churn sync")
            if not row.get("churn_events"):
                failures.append("patch_churn: zero churn events (vacuous row)")

    # ------------------------------------------------ lazy-FP ablation
    # The §3.1 gate: lazy-on must beat lazy-off on the mostly-integer
    # ensemble and must never regress lorenz_mt.  The host-seconds
    # ratio gets the usual tolerance; the simulated-cycle ratio is
    # deterministic, so it gets a hard floor instead.
    cur_abl = {r["workload"]: r for r in current_doc.get("lazy_ablation", [])}
    base_abl = {r["workload"]: r for r in baseline_doc.get("lazy_ablation", [])}
    assert set(cur_abl) == set(base_abl), "lazy ablation rows changed"
    for workload, base in base_abl.items():
        row = cur_abl[workload]
        floor = base["lazy_host_speedup"] * (1 - TOLERANCE)
        if row["lazy_host_speedup"] < floor:
            failures.append(
                f"{workload}: lazy host speedup {row['lazy_host_speedup']:.2f}x "
                f"< floor {floor:.2f}x (baseline {base['lazy_host_speedup']:.2f}x)")
        if row["lazy_cycle_speedup"] < base["lazy_cycle_speedup"] * 0.95:
            failures.append(
                f"{workload}: lazy cycle speedup {row['lazy_cycle_speedup']:.2f}x "
                f"< {base['lazy_cycle_speedup'] * 0.95:.2f}x — switch charges "
                f"drifted (deterministic metric)")
        if not row["fp_switches"] or not row["fp_saves_elided"]:
            failures.append(f"{workload}: lazy ablation row is vacuous")
    if "mixed_mt" in cur_abl and cur_abl["mixed_mt"]["lazy_host_speedup"] < 1.0:
        failures.append(
            "mixed_mt: lazy-on is slower than eager on the host — "
            "the elision machinery costs more than it saves")
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------- flow gate
@pytest.mark.perf_smoke
def test_flow_disabled_is_free():
    """The flow-off contract: provenance recording off (the
    default) must cost nothing on the virtualized hot path.  The
    disabled run can never be slower than the enabled one beyond host
    noise (the enabled path does strictly more work), the simulated
    observables are bit-identical either way, and a vacuity guard
    proves the enabled path actually records — a silently-None
    recorder would make the perf half of this gate meaningless."""
    from repro.core.vm import FPVMConfig
    from repro.harness.runner import run_fpvm

    def best_of(flow: bool, reps: int = 3):
        best = None
        for _ in range(reps):
            r = run_fpvm("lorenz", FPVMConfig.seq_short(flow=flow),
                         scale=150, uops=True)
            if best is None or r.host.seconds < best.host.seconds:
                best = r
        return best

    off = best_of(flow=False)
    on = best_of(flow=True)
    assert off.flow is None and on.flow is not None
    # bit-identity: recording is observation, never behavior.
    assert off.output == on.output
    assert off.cycles == on.cycles
    assert off.traps == on.traps
    # perf: disabled-path guards must stay within noise of free.
    assert off.host.seconds <= on.host.seconds * (1 + TOLERANCE), (
        f"flow-off {off.host.seconds:.3f}s slower than flow-on "
        f"{on.host.seconds:.3f}s beyond {TOLERANCE:.0%} noise")

    # vacuity: the enabled path records real provenance on the storm.
    storm = run_fpvm("denorm_storm", FPVMConfig.seq_short(flow=True),
                     scale=40, uops=True)
    assert sum(storm.flow.births.values()) > 0, (
        "flow enabled but zero births recorded")
    assert storm.flow.traps_by_class.get("denormal", 0) > 0, (
        "denorm_storm raised no denormal traps — the storm is vacuous")
