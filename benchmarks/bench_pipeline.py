"""Host-throughput benchmark for the micro-op pipeline.

Runs each workload on every execution tier of
:data:`repro.machine.cpu.TIERS` — the seed single-step interpreter
(``interp``) and chained superblocks (``chained``) — asserts the
simulated results are bit-identical across tiers (cycles, instruction
count, stdout),
and reports host wall-clock guest-instructions/sec for each, writing
``BENCH_pipeline.json``.  Every timing is the median of ``--reps``
repetitions (tiers interleaved rep by rep, so host drift hits them
alike) with its interquartile range in the matching ``*_iqr`` field;
speedups are ratios of medians.  Each row runs in a fresh interpreter,
so caches and collector state left behind by one workload cannot slow
the tiers of the next.
Multi-threaded workloads (``lorenz_mt``) run under the Process
scheduler, comparing batched superblock quanta against the seed
step-wise scheduler with per-thread cycle/trap parity checks.  Chained
rows on the lorenz workloads must retire almost every instruction
through superblocks (``MIN_UOP_HIT_RATE``), so a silently disabled
engine fails loudly instead of benchmarking the interpreter twice.

Usage:
    PYTHONPATH=src python benchmarks/bench_pipeline.py [--quick] [--out PATH]

``--quick`` runs reduced scales (the perf-smoke CI job); the default
scales match the ISSUE acceptance run.  The committed baseline lives at
``benchmarks/baselines/BENCH_pipeline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import repro
from repro.core.telemetry import rates, run_metrics
from repro.harness.runner import run_native, run_native_process
from repro.machine.cpu import ENGINE_TIERS, TIERS
from repro.workloads import get_workload

#: (workload, full_scale, quick_scale)
WORKLOADS = [
    ("fbench", None, 6),    # None = the registry's default scale
    ("lorenz", None, 150),
    ("lorenz_mt", 2000, 300),
    ("mixed_mt", 2000, 300),
]
REPS = 7


def _median_iqr(samples: list[float]) -> tuple[float, float]:
    """Median and interquartile range of one rep series."""
    if len(samples) < 2:
        return samples[0], 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q3 - q1


def _tier_fields(samples: dict[str, list[float]], n: int) -> dict:
    """Per tier ``<tier>_seconds`` (median), ``<tier>_seconds_iqr`` and
    ``<tier>_ips`` for ``n`` guest instructions, plus the chained
    speedup over the interpreter (a ratio of medians)."""
    row = {}
    for label, series in samples.items():
        med, iqr = _median_iqr(series)
        row[f"{label}_seconds"] = med
        row[f"{label}_seconds_iqr"] = iqr
        row[f"{label}_ips"] = n / med
    row["chain_speedup"] = row["interp_seconds"] / row["chained_seconds"]
    return row


def _thread_fingerprint(result) -> list | None:
    """Per-thread (cycles, instructions, traps) — the batched-vs-stepwise
    ledger parity check for Process runs."""
    if result.host.threads is None:
        return None
    keys = ("cpu.cycles", "cpu.instructions", "cpu.fp_traps", "cpu.bp_traps")
    return [(t["tid"], *(t["metrics"][k] for k in keys))
            for t in result.host.threads]


#: vacuity floor for the chained tier: the share of instructions it
#: retires through superblocks (``uop_hit_rate``).  Every quick row
#: reads above 0.9999; an engine that silently single-steps reads 0.
MIN_UOP_HIT_RATE = 0.9


def bench_one(workload: str, scale: int | None, reps: int = REPS) -> dict:
    """Median-of-``reps`` for each tier, with result-equality checks."""
    runner = (run_native_process if get_workload(workload).requires_process
              else run_native)
    runs = {}
    samples: dict[str, list[float]] = {label: [] for label in TIERS}
    for _ in range(reps):
        for label, uops in TIERS.items():
            runs[label] = runner(workload, scale, uops=uops)
            samples[label].append(runs[label].host.seconds)

    interp = runs["interp"]
    for label in ENGINE_TIERS:
        other = runs[label]
        identical = (
            interp.cycles == other.cycles
            and interp.instructions == other.instructions
            and interp.output == other.output
            and _thread_fingerprint(interp) == _thread_fingerprint(other)
        )
        if not identical:
            raise AssertionError(
                f"{workload}: {label} tier diverged from the interpreter "
                f"(cycles {interp.cycles} vs {other.cycles}, "
                f"instructions {interp.instructions} vs {other.instructions})"
            )

    chained = runs["chained"]
    chained_rates = rates(chained.host.metrics)
    hit_rate = chained_rates.get("uop_hit_rate", 0.0)
    if workload.startswith("lorenz") and hit_rate < MIN_UOP_HIT_RATE:
        raise AssertionError(
            f"{workload}: chained tier retired {hit_rate:.4f} of its "
            f"instructions through superblocks (< {MIN_UOP_HIT_RATE}) — "
            f"the engine is silently off"
        )
    n = chained.instructions
    row = {
        "workload": workload,
        "scale": scale,
        "instructions": n,
        "simulated_cycles": chained.cycles,
        "identical_results": True,
        **_tier_fields(samples, n),
        "metrics": chained.host.metrics,
        "rates": chained_rates,
    }
    if chained.host.sched is not None:
        row["sched"] = chained.host.sched
        row["threads"] = len(chained.host.threads)
    return row


#: patch-churn row: scheduler quantum, and K — re-patch every K quanta.
CHURN_QUANTUM = 64
CHURN_QUANTA = 25
#: (full_scale, quick_scale) for the churn row's lorenz guest.
CHURN_SCALES = (2000, 600)


def _churn_tramp(cpu, rip):
    """Inert pre-hook: the churn is about patch *events*, not hook work."""


def churn_one(scale: int, reps: int = REPS, quantum: int = CHURN_QUANTUM,
              every: int = CHURN_QUANTA) -> dict:
    """The ``patch_churn`` row: lorenz with a patch re-applied at a
    startup-only site every ``every`` scheduler quanta.

    Quantum boundaries land at identical retirement counts in every
    tier, so all tiers see the same patch-event schedule and must stay
    bit-identical.  The site executes only once (before the first
    churn), so the events are pure invalidation traffic: under per-site
    invalidation the hot loop's superblocks survive every event
    (``survived_blocks``), keeping the chained tier fast under churn —
    the wholesale-flush scheme would rebuild the world every ``every``
    quanta instead.
    """
    from repro.kernel.kernel import LinuxKernel
    from repro.machine.cpu import CPU
    from repro.workloads import build_program

    runs = {}
    samples: dict[str, list[float]] = {label: [] for label in TIERS}
    for _ in range(reps):
        for label, uops in TIERS.items():
            program = build_program("lorenz", scale)
            cpu = CPU(program, uops=uops)
            cpu.kernel = LinuxKernel()
            site = program.entry
            churns = 0
            quanta = 0
            t0 = time.perf_counter()
            while not cpu.halted:
                cpu.run_quantum(quantum)
                quanta += 1
                if quanta % every == 0 and not cpu.halted:
                    if churns:
                        program.unpatch(site)
                    program.patch_call(site, _churn_tramp)
                    churns += 1
            samples[label].append(time.perf_counter() - t0)
            runs[label] = (cpu, churns)

    interp_cpu, churns = runs["interp"]
    if not churns:
        raise AssertionError(
            f"patch_churn: zero churn events at scale {scale} — the run "
            f"is too short for quantum {quantum} x {every}")
    for label in ENGINE_TIERS:
        other, other_churns = runs[label]
        identical = (
            interp_cpu.cycles == other.cycles
            and interp_cpu.instruction_count == other.instruction_count
            and interp_cpu.output == other.output
            and churns == other_churns
        )
        if not identical:
            raise AssertionError(
                f"patch_churn: {label} tier diverged from the interpreter "
                f"under churn (cycles {interp_cpu.cycles} vs {other.cycles})"
            )

    chained_cpu = runs["chained"][0]
    metrics = run_metrics([chained_cpu], (chained_cpu._sb_cache, "sbcache"))
    if not metrics["sbcache.survived_blocks"]:
        raise AssertionError(
            "patch_churn: zero superblocks survived a sync — per-site "
            "invalidation is silently degraded to a wholesale flush")
    n = interp_cpu.instruction_count
    return {
        "workload": "patch_churn",
        "scale": scale,
        "instructions": n,
        "simulated_cycles": chained_cpu.cycles,
        "churn_events": churns,
        "identical_results": True,
        **_tier_fields(samples, n),
        "metrics": metrics,
    }


#: lazy-FP ablation rows: (workload, full_scale, quick_scale).  Run at
#: a small quantum so scheduler dispatches — where the eager full-bank
#: spill/reload lives — are frequent relative to guest work; that is
#: the regime the §3.1 lazy discipline targets.
ABLATION_WORKLOADS = [
    ("lorenz_mt", 2000, 300),
    ("mixed_mt", 2000, 300),
]
ABLATION_QUANTUM = 16


def ablation_one(workload: str, scale: int | None, reps: int = REPS) -> dict:
    """One ``lazy_fp`` on/off pair: same workload, same quantum,
    median-of-``reps`` host seconds each way, with guest-result equality
    and switch-machinery vacuity checks."""
    runs = {}
    samples: dict[str, list[float]] = {"lazy": [], "eager": []}
    for _ in range(reps):
        for label, lazy in (("lazy", True), ("eager", False)):
            runs[label] = run_native_process(workload, scale,
                                             quantum=ABLATION_QUANTUM,
                                             lazy_fp=lazy)
            samples[label].append(runs[label].host.seconds)

    lazy_r, eager_r = runs["lazy"], runs["eager"]
    lazy_secs, lazy_iqr = _median_iqr(samples["lazy"])
    eager_secs, eager_iqr = _median_iqr(samples["eager"])
    if (lazy_r.output != eager_r.output
            or lazy_r.instructions != eager_r.instructions):
        raise AssertionError(
            f"{workload}: lazy and eager FP switching disagree on guest "
            f"results — the discipline leaked into guest state")
    sched = lazy_r.host.sched
    if not sched["fp_switches"] or not sched["fp_saves_elided"]:
        raise AssertionError(
            f"{workload}: lazy run never exercised the switch machinery "
            f"(sched: {sched}) — the ablation row is vacuous")
    if not eager_r.host.sched["fp_eager_switches"]:
        raise AssertionError(
            f"{workload}: eager run performed zero full-bank switches — "
            f"lazy_fp=False is silently ignored")
    return {
        "workload": workload,
        "scale": scale,
        "quantum": ABLATION_QUANTUM,
        "lazy_seconds": lazy_secs,
        "lazy_seconds_iqr": lazy_iqr,
        "eager_seconds": eager_secs,
        "eager_seconds_iqr": eager_iqr,
        #: host wall-clock win from eliding the per-dispatch spill.
        "lazy_host_speedup": eager_secs / lazy_secs,
        "lazy_cycles": lazy_r.cycles,
        "eager_cycles": eager_r.cycles,
        #: simulated-cycle win — deterministic, machine-independent.
        "lazy_cycle_speedup": eager_r.cycles / lazy_r.cycles,
        "fp_switches": sched["fp_switches"],
        "fp_saves_elided": sched["fp_saves_elided"],
        "fp_eager_switches": eager_r.host.sched["fp_eager_switches"],
    }


#: row kind -> ``fn(workload, scale, reps)`` producing that row.
ROW_KINDS = {
    "tier": bench_one,
    "churn": lambda workload, scale, reps: churn_one(scale, reps),
    "ablation": ablation_one,
}


def fresh_row(kind: str, workload: str, scale: int | None, reps: int) -> dict:
    """One ``ROW_KINDS`` row, measured in a child interpreter."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, __file__, "--row", kind, workload,
         "default" if scale is None else str(scale), "--reps", str(reps)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{kind} row {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="reduced scales (CI perf-smoke)")
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path(__file__).parent / "results" / "BENCH_pipeline.json")
    ap.add_argument("--reps", type=int, default=REPS)
    ap.add_argument("--row", nargs=3, metavar=("KIND", "WORKLOAD", "SCALE"),
                    help="measure one row in this interpreter and print it "
                         "as JSON (what each child of a full run does)")
    args = ap.parse_args(argv)

    if args.row:
        kind, workload, scale = args.row
        scale = None if scale == "default" else int(scale)
        print(json.dumps(ROW_KINDS[kind](workload, scale, args.reps)))
        return 0

    results = []
    for workload, full, quick in WORKLOADS:
        scale = quick if args.quick else full
        row = fresh_row("tier", workload, scale, args.reps)
        results.append(row)
        print(f"{workload:>10}: interp {row['interp_ips']:>10,.0f} i/s | "
              f"chained {row['chained_ips']:>10,.0f} i/s "
              f"({row['chain_speedup']:.2f}x) | "
              f"identical={row['identical_results']}")

    churn_scale = CHURN_SCALES[1] if args.quick else CHURN_SCALES[0]
    row = fresh_row("churn", "lorenz", churn_scale, args.reps)
    results.append(row)
    print(f"{'patch_churn':>10}: interp {row['interp_ips']:>10,.0f} i/s | "
          f"chained {row['chained_ips']:>10,.0f} i/s "
          f"({row['chain_speedup']:.2f}x under {row['churn_events']} "
          f"churn events, "
          f"{row['metrics']['sbcache.survived_blocks']} blocks survived)")

    ablation = []
    for workload, full, quick in ABLATION_WORKLOADS:
        scale = quick if args.quick else full
        row = fresh_row("ablation", workload, scale, args.reps)
        ablation.append(row)
        print(f"{workload:>10}: lazy FP {row['lazy_seconds']:.3f}s vs eager "
              f"{row['eager_seconds']:.3f}s "
              f"({row['lazy_host_speedup']:.2f}x host, "
              f"{row['lazy_cycle_speedup']:.2f}x simulated cycles; "
              f"{row['fp_switches']} switches, "
              f"{row['fp_saves_elided']} saves elided)")

    doc = {
        "benchmark": "uop_pipeline",
        "quick": args.quick,
        "reps": args.reps,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": results,
        "min_chain_speedup": min(r["chain_speedup"] for r in results),
        #: lazy_fp on/off pairs (separate from ``results`` so the
        #: tier-ratio minima above stay defined over tier rows only).
        "lazy_ablation": ablation,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out} (min chain speedup "
          f"{doc['min_chain_speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
