"""Fleet-serving throughput gate (``pytest -m perf_smoke``).

Runs the fleet benchmark at quick scale and gates on:

- **bit-identity**: every worker count's per-guest ledgers match the
  cold serial oracle (the benchmark itself asserts this; the gate
  re-checks the recorded flag);
- **COW vacuity**: zero COW faults means guests stopped sharing the
  template image — the benchmark would be measuring private-copy
  execution and its numbers would be meaningless;
- **scaling floors**: guests/sec at 2 workers must be >= 1.6x the
  1-worker pool (and 4 workers >= 2.5x) — enforced only when the host
  exposes enough cores (CI's runners do; a 1-core sandbox physically
  cannot scale and is gated on correctness + vacuity only).

The floors are ratios of same-host runs, so the gate is
machine-independent like the pipeline speedup gate next door.
"""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINE = REPO / "benchmarks" / "baselines" / "BENCH_fleet.json"


def _load_bench_module():
    path = REPO / "benchmarks" / "bench_fleet.py"
    spec = importlib.util.spec_from_file_location("bench_fleet", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.perf_smoke
def test_fleet_scaling_gate(tmp_path):
    bench = _load_bench_module()
    out = tmp_path / "BENCH_fleet.json"
    # bench.main raises AssertionError itself on divergence, zero COW
    # faults, or a missed (enforceable) floor.
    assert bench.main(["--quick", "--out", str(out)]) == 0

    doc = json.loads(out.read_text())
    for row in doc["results"]:
        assert row["identical_results"], (
            f"workers={row['workers']}: ledgers diverged from serial")
        assert row["cow_faults"] > 0, (
            f"workers={row['workers']}: zero COW faults — image sharing "
            "is silently off (vacuous benchmark)")

    floors = dict(bench.SCALING_FLOORS)
    cores = doc["cores"]
    scaling = {int(w): s for w, s in doc["scaling_vs_1_worker"].items()}
    for w, floor in floors.items():
        if cores < w:
            continue  # physically impossible on this host
        assert scaling[w] >= floor, (
            f"{w}-worker scaling {scaling[w]:.2f}x below the {floor}x "
            f"floor on a {cores}-core host")


@pytest.mark.perf_smoke
def test_fleet_baseline_shape():
    """The committed baseline must exist and carry the fields the gate
    reads, so a refactor can't silently orphan it."""
    doc = json.loads(BASELINE.read_text())
    assert doc["benchmark"] == "fleet"
    assert {r["workers"] for r in doc["results"]} == {1, 2, 4}
    assert all(r["identical_results"] for r in doc["results"])
    assert all(r["cow_faults"] > 0 for r in doc["results"])
    assert set(doc["scaling_vs_1_worker"]) == {"2", "4"}
