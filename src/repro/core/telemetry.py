"""Cycle ledger and run telemetry.

The ledger accumulates cycles in exactly the categories of the paper's
per-instruction breakdown figures (1, 6, 13): hw, kernel, decache,
decode, bind, emul, altmath, gc, corr, fcall, ret.  Amortization is
over *emulated instructions*, matching the figures' x-axes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.machine.costs import LEDGER_CATEGORIES


class CycleLedger:
    """Categorised cycle accounting; also pushes every charge into the
    CPU's global cycle counter so wall-clock totals stay consistent."""

    def __init__(self, cpu=None) -> None:
        self.by_category: dict[str, int] = {c: 0 for c in LEDGER_CATEGORIES}
        self.counters: Counter = Counter()
        self._cpu = cpu
        self._chargers: dict = {}

    def bind_cpu(self, cpu) -> None:
        self._cpu = cpu

    def charge(self, category: str, cycles: int, *, cpu_time: bool = True) -> None:
        """Record ``cycles`` under ``category``.

        ``cpu_time=False`` records accounting-only charges for cycles
        already added to the CPU by someone else (the kernel charges
        the CPU itself and routes the category here).
        """
        if category not in self.by_category:
            raise KeyError(f"unknown ledger category {category!r}")
        self.by_category[category] += cycles
        if cpu_time and self._cpu is not None:
            self._cpu.cycles += cycles

    def charger(self, *charges: tuple[str, int]):
        """A zero-argument function that records one to three fixed
        ``(category, cycles)`` charges, for callers that repeat the same
        ones (the emulator's pre-bound steps).  Categories are checked
        once, and equal sets share one function; the cycles go to
        whichever CPU is bound when it runs."""
        charge = self._chargers.get(charges)
        if charge is not None:
            return charge
        assert 1 <= len(charges) <= 3, charges
        for category, _ in charges:
            if category not in self.by_category:
                raise KeyError(f"unknown ledger category {category!r}")
        by_category = self.by_category
        total = sum(cycles for _, cycles in charges)
        # Unrolled over three, padded with empty charges.
        (c1, n1), (c2, n2), (c3, n3) = (charges + ((charges[0][0], 0),) * 2)[:3]

        def charge() -> None:
            by_category[c1] += n1
            by_category[c2] += n2
            by_category[c3] += n3
            cpu = self._cpu
            if cpu is not None:
                cpu.cycles += total
        self._chargers[charges] = charge
        return charge

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def total(self) -> int:
        return sum(self.by_category.values())

    def amortized(self, emulated_instructions: int | None = None) -> dict[str, float]:
        """Cycles per emulated instruction, by category (Figure 1/6/13
        bars)."""
        n = emulated_instructions
        if n is None:
            n = self.counters.get("emulated_instructions", 0)
        if n == 0:
            return {c: 0.0 for c in self.by_category}
        return {c: v / n for c, v in self.by_category.items()}

    def snapshot(self) -> dict[str, int]:
        return dict(self.by_category)


class SchedulerStats:
    """Host-side telemetry for the process scheduler's batched quanta.

    One record per :meth:`repro.machine.process.Process.run` lifetime:
    every scheduler dispatch (one ``thread.run_quantum(budget)`` call)
    records which thread ran and how many steps it actually took, so
    quantum efficiency — instructions retired per dispatch, the measure
    of how much work each batched dispatch amortizes — is observable
    globally and per thread.
    """

    __slots__ = ("quantum", "dispatches", "steps", "per_thread",
                 "fp_switches", "fp_saves_elided", "fp_lanes_saved",
                 "fp_lanes_restored", "fp_eager_switches")

    def __init__(self) -> None:
        #: quantum size of the most recent run() driving this record.
        self.quantum = 0
        self.dispatches = 0
        self.steps = 0
        #: tid -> [dispatches, steps]
        self.per_thread: dict[int, list[int]] = {}
        #: lazy-FP discipline (§3.1): modeled #NM ownership switches,
        #: dispatches whose eager-mode XMM spill was elided, and the
        #: dirty / live lane traffic the switches actually moved.
        self.fp_switches = 0
        self.fp_saves_elided = 0
        self.fp_lanes_saved = 0
        self.fp_lanes_restored = 0
        #: full-bank spills performed when lazy FP is disabled.
        self.fp_eager_switches = 0

    def record(self, tid: int, retired: int) -> None:
        self.dispatches += 1
        self.steps += retired
        cell = self.per_thread.get(tid)
        if cell is None:
            self.per_thread[tid] = [1, retired]
        else:
            cell[0] += 1
            cell[1] += retired

    @property
    def quantum_efficiency(self) -> float:
        """Mean instructions retired per scheduler dispatch."""
        return self.steps / self.dispatches if self.dispatches else 0.0

    def as_dict(self) -> dict:
        return {
            "quantum": self.quantum,
            "dispatches": self.dispatches,
            "steps": self.steps,
            "quantum_efficiency": self.quantum_efficiency,
            "fp_switches": self.fp_switches,
            "fp_saves_elided": self.fp_saves_elided,
            "fp_lanes_saved": self.fp_lanes_saved,
            "fp_lanes_restored": self.fp_lanes_restored,
            "fp_eager_switches": self.fp_eager_switches,
            "per_thread": {
                tid: {"dispatches": d, "steps": s}
                for tid, (d, s) in sorted(self.per_thread.items())
            },
        }


def aggregate_uop_stats(stats_dicts) -> dict:
    """Sum per-thread ``UopStats.as_dict()`` records into one: scalar
    counters add, dict counters (exit reasons, histograms) merge key by
    key, and ``uop_hit_rate`` is recomputed from the summed counters."""
    out: dict = {}
    for stats in stats_dicts:
        if not stats:
            continue
        for key, value in stats.items():
            if isinstance(value, dict):
                out.setdefault(key, Counter()).update(value)
            else:
                out[key] = out.get(key, 0) + value
    total = (out.get("uops_retired", 0) + out.get("single_steps", 0)
             + out.get("slow_fallbacks", 0))
    out["uop_hit_rate"] = out.get("uops_retired", 0) / total if total else 0.0
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) over an
    unsorted sequence — the p50/p99 the fleet front-end reports.
    Returns 0.0 for an empty sequence."""
    vals = sorted(values)
    if not vals:
        return 0.0
    if len(vals) == 1:
        return float(vals[0])
    rank = (q / 100.0) * (len(vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(vals) - 1)
    frac = rank - lo
    return float(vals[lo]) + (float(vals[hi]) - float(vals[lo])) * frac


def aggregate_fleet_stats(
    rows,
    wall_seconds: float,
    workers: int,
    retries: int = 0,
    crashes: int = 0,
    rejected: int = 0,
    failed: int = 0,
) -> dict:
    """Merge per-guest result rows into the fleet-level summary.

    ``rows`` is one dict per completed guest with at least ``seconds``
    (guest latency), ``cycles``, ``instructions``, ``fp_traps``,
    ``bp_traps``, ``cow_faults``, ``worker`` (worker id), and
    optionally ``uop`` (the guest's merged ``UopStats.as_dict()``).
    Aggregation is exact — every guest's ledger is summed, never
    sampled — so fleet totals reconcile against serial execution to
    the cycle (the Mhatre & Chandran exactness property).  The
    per-worker section carries the warm-cache reuse rate: superblock
    hit rate (block dispatches served from cache vs built).
    """
    latencies = [r["seconds"] for r in rows]
    per_worker: dict = {}
    for r in rows:
        w = per_worker.setdefault(r["worker"], {
            "guests": 0, "cycles": 0, "instructions": 0, "cow_faults": 0,
            "fp_switches": 0, "fp_saves_elided": 0,
            "block_runs": 0, "blocks_built": 0,
        })
        w["guests"] += 1
        w["cycles"] += r["cycles"]
        w["instructions"] += r["instructions"]
        w["cow_faults"] += r.get("cow_faults", 0)
        w["fp_switches"] += r.get("fp_switches", 0)
        w["fp_saves_elided"] += r.get("fp_saves_elided", 0)
        uop = r.get("uop") or {}
        w["block_runs"] += uop.get("block_runs", 0)
        w["blocks_built"] += uop.get("blocks_built", 0)
    for w in per_worker.values():
        dispatches = w["block_runs"] + w["blocks_built"]
        w["superblock_hit_rate"] = (w["block_runs"] / dispatches
                                    if dispatches else 0.0)
    return {
        "guests": len(rows),
        "workers": workers,
        "wall_seconds": wall_seconds,
        "guests_per_sec": len(rows) / wall_seconds if wall_seconds > 0 else 0.0,
        "p50_latency": percentile(latencies, 50),
        "p99_latency": percentile(latencies, 99),
        "max_latency": max(latencies) if latencies else 0.0,
        "cycles": sum(r["cycles"] for r in rows),
        "instructions": sum(r["instructions"] for r in rows),
        "fp_traps": sum(r.get("fp_traps", 0) for r in rows),
        "bp_traps": sum(r.get("bp_traps", 0) for r in rows),
        "cow_faults": sum(r.get("cow_faults", 0) for r in rows),
        "fp_switches": sum(r.get("fp_switches", 0) for r in rows),
        "fp_saves_elided": sum(r.get("fp_saves_elided", 0) for r in rows),
        "retries": retries,
        "crashes": crashes,
        "rejected": rejected,
        "failed": failed,
        "per_worker": {w: per_worker[w] for w in sorted(per_worker)},
    }


@dataclass
class Telemetry:
    """Everything a run reports besides the ledger."""

    traps: int = 0
    signal_traps: int = 0
    short_circuit_traps: int = 0
    #: deliveries rejected by the handler's sanity check (context RIP
    #: disagrees with the trap address — e.g. a duplicated signal).
    spurious_traps: int = 0
    #: collections forced by box-heap exhaustion rather than the
    #: allocation-count threshold.
    emergency_gc_runs: int = 0
    emulated_instructions: int = 0
    sequences: int = 0
    decode_hits: int = 0
    decode_misses: int = 0
    #: traces promoted into compiled closures (§4.2 trace cache made
    #: literal) and the number of trap handlings served from them.
    compiled_traces: int = 0
    compiled_trace_hits: int = 0
    gc_runs: int = 0
    gc_objects_collected: int = 0
    promotions: int = 0
    demotions: int = 0
    boxes_allocated: int = 0
    corr_events: int = 0
    fcall_events: int = 0
    altmath_ops: Counter = field(default_factory=Counter)

    @property
    def avg_sequence_length(self) -> float:
        if self.sequences == 0:
            return 0.0
        return self.emulated_instructions / self.sequences
