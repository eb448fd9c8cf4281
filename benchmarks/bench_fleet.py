"""Fleet-serving throughput benchmark.

Runs a homogeneous lorenz batch cold + serial first (the oracle), then
through the multiprocess fleet at 1, 2 and 4 workers, asserting every
configuration's per-guest ledgers are **bit-identical** to the oracle
(output, simulated cycles, instruction counts, trap counts) before any
throughput number is reported.  Each worker count runs ``--reps``
times; guests/sec comes from the median batch wall time, reported with
its interquartile range, and p50/p99 guest latency from the median
run.  Writes ``BENCH_fleet.json``.

A vacuity guard keeps the benchmark honest: every warm batch must
report ``cow_faults > 0`` — a batch with zero COW faults means the
guests silently stopped sharing the template image and the benchmark is
measuring private-copy execution.

Scaling gates are **core-aware**: the ≥1.6x (2 workers) and ≥2.5x
(4 workers) guests/sec floors vs 1 worker are enforced only when the
host exposes enough cores to make them physically possible (CI's
ubuntu runners do; a 1-core sandbox cannot parallelize anything and is
gated on correctness + vacuity only).

Usage:
    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

from repro.fleet import FleetScheduler, make_batch, run_guest

WORKLOAD = "lorenz"
#: (guests, per-guest scale) — full sizes the per-guest work so that
#: fork + dispatch overhead is well amortized.
FULL = (32, 600)
QUICK = (12, 200)
WORKER_COUNTS = (1, 2, 4)

#: acceptance floors (guests/sec vs the 1-worker pool), enforced only
#: when the host has at least this many cores.
SCALING_FLOORS = {2: 1.6, 4: 2.5}


def host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_batch(jobs, workers: int, reps: int):
    """``reps`` fleet runs at a fixed worker count; returns the median
    run's report, the median wall time and its interquartile range."""
    reports = []
    for _ in range(reps):
        report = FleetScheduler(workers=workers).run(jobs)
        if report.failed or report.rejected:
            raise AssertionError(
                f"fleet run (workers={workers}) dropped jobs: "
                f"failed={report.failed} rejected={report.rejected}")
        reports.append(report)
    walls = sorted(r.wall_seconds for r in reports)
    iqr = 0.0
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        iqr = q3 - q1
    reports.sort(key=lambda r: r.wall_seconds)
    return reports[(len(reports) - 1) // 2], statistics.median(walls), iqr


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="reduced batch (CI perf-smoke)")
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path(__file__).parent / "results" / "BENCH_fleet.json")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)

    guests, scale = QUICK if args.quick else FULL
    cores = host_cores()
    jobs = make_batch(WORKLOAD, guests, scale=scale)

    # the oracle: every guest cold (fresh build + load, no sharing),
    # strictly serial — exactly what run_native would do per guest.
    t0 = time.perf_counter()
    oracle = {j.job_id: run_guest(j, None) for j in jobs}
    serial_seconds = time.perf_counter() - t0
    oracle_fp = {jid: r.fingerprint() for jid, r in oracle.items()}
    serial_cycles = sum(r.cycles for r in oracle.values())
    print(f"serial oracle: {guests} x {WORKLOAD}@{scale} in "
          f"{serial_seconds:.3f}s ({guests / serial_seconds:.1f} guests/sec)")

    rows = []
    gps = {}
    for workers in WORKER_COUNTS:
        report, wall, wall_iqr = run_batch(jobs, workers, args.reps)
        fleet = report.fleet
        if report.fingerprints() != oracle_fp:
            bad = [jid for jid, fp in report.fingerprints().items()
                   if oracle_fp.get(jid) != fp]
            raise AssertionError(
                f"fleet (workers={workers}) diverged from the serial "
                f"oracle on jobs {bad}")
        if fleet["cpu.cycles"] != serial_cycles:
            raise AssertionError(
                f"fleet (workers={workers}) cycle total {fleet['cpu.cycles']} "
                f"!= serial {serial_cycles}")
        if fleet["mem.cow_faults"] == 0:
            raise AssertionError(
                f"fleet (workers={workers}) reported zero COW faults — "
                "guests are not sharing the template image")
        gps[workers] = fleet["guests"] / wall
        rows.append({
            "workers": workers,
            "guests": fleet["guests"],
            "wall_seconds": wall,
            "wall_seconds_iqr": wall_iqr,
            "guests_per_sec": gps[workers],
            "p50_latency": fleet["p50_latency"],
            "p99_latency": fleet["p99_latency"],
            "cow_faults": fleet["mem.cow_faults"],
            "identical_results": True,
            "per_worker": fleet["per_worker"],
        })
        print(f"workers={workers}: {gps[workers]:>8.1f} guests/sec "
              f"(wall IQR {wall_iqr * 1e3:.1f} ms) | "
              f"p50 {fleet['p50_latency'] * 1e3:6.2f} ms | "
              f"p99 {fleet['p99_latency'] * 1e3:6.2f} ms | "
              f"cow faults {fleet['mem.cow_faults']} | identical=True")

    scaling = {w: gps[w] / gps[1] for w in WORKER_COUNTS if w != 1}
    enforced = {}
    for w, floor in SCALING_FLOORS.items():
        if cores >= w:
            enforced[w] = floor
            if scaling[w] < floor:
                raise AssertionError(
                    f"{w}-worker scaling {scaling[w]:.2f}x is below the "
                    f"{floor}x floor (host has {cores} cores)")
        else:
            print(f"note: {w}-worker {floor}x floor not enforced "
                  f"(host has only {cores} core(s))")

    doc = {
        "benchmark": "fleet",
        "quick": args.quick,
        "reps": args.reps,
        "workload": WORKLOAD,
        "guests": guests,
        "scale": scale,
        "python": platform.python_version(),
        "cores": cores,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "serial_seconds": serial_seconds,
        "serial_guests_per_sec": guests / serial_seconds,
        "serial_cycles": serial_cycles,
        "results": rows,
        "scaling_vs_1_worker": {str(w): s for w, s in scaling.items()},
        "floors_enforced": {str(w): f for w, f in enforced.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out} (2w scaling {scaling[2]:.2f}x, "
          f"4w scaling {scaling[4]:.2f}x, cores={cores})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
