"""Cycle ledger and the one metrics model.

The ledger accumulates cycles in exactly the categories of the paper's
per-instruction breakdown figures (1, 6, 13): hw, kernel, decache,
decode, bind, emul, altmath, gc, corr, fcall, ret.  Amortization is
over *emulated instructions*, matching the figures' x-axes.

Every other number is an event counted once, on a plain attribute of
the object that owns it.  :func:`snapshot` names a holder's counts
``namespace.field`` (``fpvm.*`` :class:`Telemetry`, ``uop.*`` a thread's
``UopStats``, ``sched.*`` :class:`SchedulerStats`, ``sbcache.*`` the
``SuperblockCache`` and ``cpu.*``); :func:`merge` adds snapshots
exactly at every level, thread to process; :func:`rates`
derives ratios from merged counts only.  Settings and gauges (a
holder's ``UNMERGED``) are not counts and stay out.  A shared object's
counters are reported once, by that object.  See the "Metrics model"
section of ``docs/architecture.md``.
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
        ones (the emulator's pre-bound steps and value flow).  Categories
        are checked once, and equal sets share one function, which keeps
        them as its ``charges``; the cycles go to whichever CPU is bound
        when it runs."""
        charge = self._chargers.get(charges)
        if charge is not None:
            return charge
        assert 1 <= len(charges) <= 3, charges
        for category, _ in charges:
            if category not in self.by_category:
                raise KeyError(f"unknown ledger category {category!r}")
        by_category = self.by_category
        total = sum(cycles for _, cycles in charges)
        if len(charges) == 1:
            # One update: the value flow's load/promote/box charges.
            (c1, n1), = charges

            def charge() -> None:
                by_category[c1] += n1
                cpu = self._cpu
                if cpu is not None:
                    cpu.cycles += total
        else:
            # Two or three (a step's bind, emul and its op's altmath
            # cost): unrolled over three, padded with an empty charge.
            (c1, n1), (c2, n2), (c3, n3) = (charges + ((charges[0][0], 0),))[:3]

            def charge() -> None:
                by_category[c1] += n1
                by_category[c2] += n2
                by_category[c3] += n3
                cpu = self._cpu
                if cpu is not None:
                    cpu.cycles += total
        charge.charges = charges
        self._chargers[charges] = charge
        return charge

    def total(self) -> int:
        return sum(self.by_category.values())

    def amortized(self, n: int) -> dict[str, float]:
        """Cycles per emulated instruction (``n`` of them), by category
        (Figure 1/6/13 bars)."""
        if n == 0:
            return {c: 0.0 for c in self.by_category}
        return {c: v / n for c, v in self.by_category.items()}

    def snapshot(self) -> dict[str, int]:
        return dict(self.by_category)


def snapshot(holder, ns: str = "") -> dict:
    """``holder``'s counts as ``{"ns.field": value}``: every int field
    and every :class:`Counter` histogram (as a plain dict), minus the
    names in the holder's ``UNMERGED``.  An empty ``ns`` leaves the
    field names bare."""
    prefix = f"{ns}." if ns else ""
    skip = getattr(holder, "UNMERGED", ())
    out: dict = {}
    for name in getattr(holder, "__slots__", None) or vars(holder):
        if name[0] == "_" or name in skip:
            continue
        value = getattr(holder, name)
        if isinstance(value, Counter):
            out[prefix + name] = dict(value)
        elif type(value) is int:
            out[prefix + name] = value
    return out


def merge(*snapshots: dict) -> dict:
    """The exact, associative and commutative sum of ``snapshots``:
    ints add, histograms add key by key.  The inputs are not modified."""
    out: dict = {}
    for snap in snapshots:
        for key, value in snap.items():
            if isinstance(value, dict):
                acc = out.setdefault(key, {})
                for k, v in value.items():
                    acc[k] = acc.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rates(m: dict) -> dict:
    """The ratios a merged snapshot ``m`` supports, each computed from
    its summed counts (never by averaging its parts' ratios)."""
    out = {}
    if "uop.uops_retired" in m:
        retired = m["uop.uops_retired"]
        out["uop_hit_rate"] = _ratio(
            retired, retired + m["uop.single_steps"] + m["uop.fp_trap_exits"])
        out["superblock_hit_rate"] = _ratio(
            m["uop.block_runs"], m["uop.block_runs"] + m["uop.blocks_built"])
    if "sched.dispatches" in m:
        out["quantum_efficiency"] = _ratio(m["sched.steps"], m["sched.dispatches"])
    if "fpvm.sequences" in m:
        out["avg_sequence_length"] = _ratio(
            m["fpvm.emulated_instructions"], m["fpvm.sequences"])
    return out


def thread_metrics(cpu) -> dict:
    """One thread CPU's snapshot: its architectural counts and, once the
    chained engine has run on it, that engine's ``uop.*`` counters."""
    out = {"cpu.instructions": cpu.instruction_count, "cpu.cycles": cpu.cycles,
           "cpu.fp_traps": cpu.fp_trap_count, "cpu.bp_traps": cpu.bp_trap_count}
    if cpu.uop_stats is not None:
        out.update(snapshot(cpu.uop_stats, "uop"))
    return out


def run_metrics(cpus, *owners: tuple) -> dict:
    """A run's snapshot: the merge of its threads' snapshots and one
    snapshot per shared owner, given as ``(holder, namespace)`` pairs
    (a None holder is skipped)."""
    return merge(*map(thread_metrics, cpus),
                 *(snapshot(h, ns) for h, ns in owners if h is not None))


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

    #: a setting, not a count.
    UNMERGED = ("quantum",)

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
        return rates(snapshot(self, "sched"))["quantum_efficiency"]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) over an
    unsorted sequence (the benchmark's run-time quartiles and trap
    latency percentiles).  Returns 0.0 for an empty sequence."""
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


@dataclass
class Telemetry:
    """Everything an FPVM counts besides the ledger's cycles."""

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
    #: literal), the number of trap handlings served from them, and
    #: the ones a patch at one of their sites dropped.
    compiled_traces: int = 0
    compiled_trace_hits: int = 0
    dropped_traces: int = 0
    gc_runs: int = 0
    gc_objects_collected: int = 0
    promotions: int = 0
    demotions: int = 0
    boxes_allocated: int = 0
    corr_events: int = 0
    #: foreign calls through a demoting wrapper / a libm forward wrapper.
    fcall_traps: int = 0
    libm_calls: int = 0
    #: XMM lanes the handler's and the wrappers' state guards saved and
    #: restored (§3.1's clobber-masked lazy save).
    fp_handler_lanes_saved: int = 0
    fp_handler_lanes_restored: int = 0
    fp_wrapper_lanes_saved: int = 0
    fp_wrapper_lanes_restored: int = 0
    altmath_ops: Counter = field(default_factory=Counter)

    @property
    def avg_sequence_length(self) -> float:
        return rates(snapshot(self, "fpvm"))["avg_sequence_length"]
