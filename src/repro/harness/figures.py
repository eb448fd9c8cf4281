"""Per-figure data generators for every figure in the paper's §6 (plus
the §2.3/§3/§5.2 cost microbenchmarks).

Each ``figureN`` function returns plain data structures; rendering to
the paper-style ASCII lives in :mod:`repro.harness.report`.  A
:class:`Suite` instance caches the 6-workload x 4-config run matrix so
Figures 1/4/5/6 (and the MPFR 11/12/13) share executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.configs import CONFIG_ORDER, named_configs
from repro.harness.runner import Comparison, run_comparison, run_fpvm, run_native
from repro.machine.costs import DEFAULT_COSTS, LEDGER_CATEGORIES
from repro.workloads import WORKLOAD_NAMES

#: figure order used in the paper's bar groups.
FIGURE_WORKLOADS = ("double_pendulum", "enzo", "fbench", "ffbench", "lorenz", "three_body")


class Suite:
    """Cached full run matrix for one alternative arithmetic system."""

    def __init__(self, altmath: str = "boxed_ieee", scale_overrides: dict | None = None,
                 **config_common):
        self.altmath = altmath
        self.scale_overrides = scale_overrides or {}
        self.config_common = config_common
        self._comparisons: dict[str, Comparison] = {}

    def comparison(self, workload: str) -> Comparison:
        comp = self._comparisons.get(workload)
        if comp is None:
            comp = run_comparison(
                workload,
                named_configs(self.altmath, **self.config_common),
                scale=self.scale_overrides.get(workload),
            )
            self._comparisons[workload] = comp
        return comp

    def all(self, workloads=FIGURE_WORKLOADS) -> dict[str, Comparison]:
        return {w: self.comparison(w) for w in workloads}


# ---------------------------------------------------------------- Figure 1
def figure1(suite: Suite, workloads=FIGURE_WORKLOADS) -> dict[str, dict[str, float]]:
    """Baseline (NONE) amortized per-instruction cost breakdown."""
    out = {}
    for w in workloads:
        out[w] = suite.comparison(w).runs["NONE"].amortized()
    return out


# ------------------------------------------------- §2.3/§3 microbenchmarks
@dataclass
class TrapCostTable:
    """The paper's headline trap-machinery constants, measured from
    single-trap runs rather than read out of the cost table."""

    hw_trap: float
    signal_delivery: float
    sigreturn: float
    short_delivery: float
    short_return: float
    signal_total: float
    short_total: float

    @property
    def delegation_reduction(self) -> float:
        """Figure 2's ~8x claim: (kern+ret) signal vs short-circuit."""
        return (self.signal_delivery + self.sigreturn) / (
            self.short_delivery + self.short_return
        )

    @property
    def total_reduction(self) -> float:
        """hw+kern+ret: 5980 -> ~760 in the paper."""
        return self.signal_total / self.short_total


def trap_microbenchmark() -> TrapCostTable:
    """Measure delivery costs with a minimal one-trap program, isolating
    the machinery from emulation (emulation costs are identical in both
    runs and subtracted out via the ledger)."""
    from repro.core.vm import FPVMConfig

    def one_trap(short: bool):
        cfg = (FPVMConfig.short() if short else FPVMConfig.none()).with_(
            patch_site_source="none", wrap_foreign=False)
        result = run_fpvm("lorenz", cfg, scale=4)
        n = max(result.traps, 1)
        return {k: v / n for k, v in result.ledger.items()}

    signal = one_trap(short=False)
    short = one_trap(short=True)
    c = DEFAULT_COSTS
    return TrapCostTable(
        hw_trap=signal["hw"],
        signal_delivery=signal["kernel"],
        sigreturn=signal["ret"],
        short_delivery=short["kernel"],
        short_return=short["ret"],
        signal_total=signal["hw"] + signal["kernel"] + signal["ret"],
        short_total=short["hw"] + short["kernel"] + short["ret"],
    )


def figure2(suite: Suite | None = None) -> TrapCostTable:
    """Figure 2 is the short-circuit delivery diagram; its quantitative
    content is the microbenchmark table."""
    return trap_microbenchmark()


# ------------------------------------------- per-class trap microbenchmark
#: class-pure single-op kernels: both operands are constants reloaded
#: from ``.data`` every iteration, so the op keeps its true #XF class on
#: every trap (a boxed operand would turn every later trap into Invalid).
#: Ordered by the dispatcher's classification priority.
TRAP_CLASS_KERNELS = (
    ("invalid", "/", 0.0, 0.0),
    ("divzero", "/", 1.0, 0.0),
    ("denormal", "*", 1e-310, 1.0),
    ("overflow", "*", 1e308, 1e10),
    ("underflow", "*", 1e-160, 1e-165),
    ("inexact", "/", 1.0, 3.0),
)


@dataclass
class TrapClassRow:
    """Measured per-trap delivery cost for one #XF trap class."""

    trap_class: str
    traps: int
    hw_per_trap: float
    signal_per_trap: float  # hw + kern + ret down the SIGFPE path
    short_per_trap: float   # hw + kern + ret through the short circuit

    @property
    def reduction(self) -> float:
        return self.signal_per_trap / max(self.short_per_trap, 1e-9)


def _class_pure_program(op: str, a: float, b: float, scale: int):
    from repro.compiler import Bin, For, INum, Let, Module, Num
    from repro.machine.hostlib import install_host_library

    m = Module()
    main = m.function("main")
    main.emit(For("t", INum(0), INum(scale), [Let("x", Bin(op, Num(a), Num(b)))]))
    program = m.compile()
    install_host_library(program)
    return program


def trap_class_microbenchmark(scale: int = 40) -> list[TrapClassRow]:
    """Per-trap delivery cost broken out by #XF class, measured on
    class-pure kernels (one constant-operand op per iteration).  The
    hardware dispatch column carries the Wittmann et al. microcode
    assist surcharge for denormal/underflow (and smaller ones for
    overflow/divide-by-zero); invalid and inexact pay the base cost."""
    from repro.core.vm import FPVM, FPVMConfig
    from repro.kernel.kernel import LinuxKernel
    from repro.machine.cpu import CPU

    def one(op, a, b, short: bool):
        cfg = (FPVMConfig.short() if short else FPVMConfig.none()).with_(
            patch_site_source="none", wrap_foreign=False)
        cpu = CPU(_class_pure_program(op, a, b, scale))
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(cfg).attach(cpu, kernel)
        cpu.run()
        n = max(vm.telemetry.traps, 1)
        ledger = vm.ledger.snapshot()
        per = {k: v / n for k, v in ledger.items()}
        return n, per.get("hw", 0.0) + per.get("kernel", 0.0) + per.get("ret", 0.0), per.get("hw", 0.0)

    rows = []
    for cls, op, a, b in TRAP_CLASS_KERNELS:
        traps, signal_per, hw_per = one(op, a, b, short=False)
        _, short_per, _ = one(op, a, b, short=True)
        rows.append(TrapClassRow(
            trap_class=cls,
            traps=traps,
            hw_per_trap=hw_per,
            signal_per_trap=signal_per,
            short_per_trap=short_per,
        ))
    return rows


# ------------------------------------------------------------ trap heatmap
#: small fixed scales so the heatmap figure is quick and deterministic;
#: the two storms show class diversity, lorenz anchors the common case.
HEATMAP_WORKLOADS = ("denorm_storm", "range_storm", "lorenz")
_HEATMAP_SCALES = {"denorm_storm": 60, "range_storm": 50, "lorenz": 40}


def trap_heatmap(workloads=HEATMAP_WORKLOADS, scales: dict | None = None):
    """Per-RIP trap heatmaps + NaN-flow graphs under the NONE config
    (trap-everything exposes every class at its true site) with flow
    recording forced on.  Returns ``{workload: (recorder, program)}``."""
    from repro.core.vm import FPVMConfig

    merged = dict(_HEATMAP_SCALES)
    merged.update(scales or {})
    out = {}
    for w in workloads:
        result = run_fpvm(w, FPVMConfig.none(flow=True), scale=merged.get(w))
        out[w] = (result.flow, result.program)
    return out


# ---------------------------------------------------------------- Figure 3
@dataclass
class MagicTrapCosts:
    int3_per_event: float
    magic_per_event: float

    @property
    def reduction(self) -> float:
        return self.int3_per_event / self.magic_per_event


def figure3() -> MagicTrapCosts:
    """Per-correctness-event cost: int3+SIGTRAP vs magic trap, measured
    on the corr-heavy three-body workload."""
    from repro.core.vm import FPVMConfig

    def corr_cost(magic: bool) -> float:
        cfg = FPVMConfig.seq_short(magic_traps=magic)
        result = run_fpvm("three_body", cfg, scale=16)
        events = max(result.telemetry.corr_events, 1)
        corr = result.ledger["corr"]
        if not magic:
            # int3 events ride the hw+kernel+ret path; attribute the
            # per-event share of those categories measured against the
            # magic run's (which has none for corr).
            per_bp = (
                DEFAULT_COSTS.hw_trap
                + DEFAULT_COSTS.kernel_internal
                + DEFAULT_COSTS.signal_deliver
                + DEFAULT_COSTS.sigreturn
            )
            return corr / events + per_bp
        return corr / events

    return MagicTrapCosts(int3_per_event=corr_cost(False), magic_per_event=corr_cost(True))


# ------------------------------------------------------------- Figures 4/11
def figure4(suite: Suite, workloads=FIGURE_WORKLOADS) -> dict[str, dict[str, float]]:
    """End-to-end slowdown by workload and config."""
    return {
        w: {c: suite.comparison(w).slowdown(c) for c in CONFIG_ORDER}
        for w in workloads
    }


# ------------------------------------------------------------- Figures 5/12
def figure5(suite: Suite, workloads=FIGURE_WORKLOADS) -> dict[str, dict[str, float]]:
    """Slowdown relative to the altmath lower bound (1.0 = perfect)."""
    return {
        w: {c: suite.comparison(w).slowdown_from_lower_bound(c) for c in CONFIG_ORDER}
        for w in workloads
    }


# ------------------------------------------------------------- Figures 6/13
@dataclass
class BreakdownRow:
    config: str
    amortized: dict[str, float]
    speedup_vs_none: float


def figure6(suite: Suite, workloads=FIGURE_WORKLOADS) -> dict[str, list[BreakdownRow]]:
    """Per-config amortized breakdowns + the per-instruction speedup
    factor annotated on each bar of the paper's Figure 6."""
    out = {}
    for w in workloads:
        comp = suite.comparison(w)
        none_total = sum(comp.runs["NONE"].amortized().values())
        rows = []
        for c in CONFIG_ORDER:
            am = comp.runs[c].amortized()
            total = sum(am.values())
            rows.append(BreakdownRow(c, am, none_total / total if total else 0.0))
        out[w] = rows
    return out


# ---------------------------------------------------------------- Figure 7
def figure7(suite: Suite, workload: str = "lorenz", rank: int = 2) -> str:
    """An example instruction trace: the paper prints Lorenz's 3rd most
    popular trace (rank index 2) with its terminator starred."""
    comp = suite.comparison(workload)
    stats = comp.runs["SEQ_SHORT"].trace_stats
    ranked = stats.by_popularity()
    rec = ranked[min(rank, len(ranked) - 1)]
    program = comp.runs["SEQ_SHORT"].program
    share = 100.0 * rec.count / max(stats.total_sequences(), 1)
    header = (
        f"# {workload} trace rank {rank + 1}: {rec.length} instructions, "
        f"{rec.count} encounters ({share:.1f}% of traces), "
        f"terminated by {rec.terminator} ({rec.reason})\n"
    )
    return header + stats.format_trace(rec, program)


# ---------------------------------------------------------------- Figure 8
def figure8(suite: Suite, workloads=FIGURE_WORKLOADS) -> dict[str, list[float]]:
    """Rank-popularity CDF (% of emulated instructions vs rank)."""
    return {
        w: suite.comparison(w).runs["SEQ_SHORT"].trace_stats.rank_popularity_cdf()
        for w in workloads
    }


# ---------------------------------------------------------------- Figure 9
def figure9(suite: Suite, workloads=FIGURE_WORKLOADS) -> dict[str, list[tuple[int, float]]]:
    """Sequence-length CDF."""
    return {
        w: suite.comparison(w).runs["SEQ_SHORT"].trace_stats.length_cdf()
        for w in workloads
    }


# --------------------------------------------------------------- Figure 10
@dataclass
class CacheSizing:
    workload: str
    weighted_by_rank: list[float]
    convergence_rank: int
    average_length: float
    cache_entries: int  # convergence_rank * average_length (paper's sizing)

    @property
    def cache_bytes(self) -> int:
        return self.cache_entries * 1024  # <= 1KB per entry (§6.3)


def figure10(suite: Suite, workloads=FIGURE_WORKLOADS) -> dict[str, CacheSizing]:
    out = {}
    for w in workloads:
        stats = suite.comparison(w).runs["SEQ_SHORT"].trace_stats
        weighted = stats.weighted_length_by_rank()
        avg = stats.average_sequence_length()
        # Convergence: first rank within 5% of the final average.
        conv = len(weighted)
        for i, v in enumerate(weighted):
            if avg and abs(v - avg) / avg < 0.05:
                conv = i + 1
                break
        out[w] = CacheSizing(
            workload=w,
            weighted_by_rank=weighted,
            convergence_rank=conv,
            average_length=avg,
            cache_entries=int(conv * max(avg, 1.0)),
        )
    return out


# ------------------------------------------------------- profiler vs static
@dataclass
class PatchSiteComparison:
    workload: str
    static_sites: int
    profiler_sites: int
    profiler_subset: bool


def profiler_vs_static(workloads=FIGURE_WORKLOADS) -> list[PatchSiteComparison]:
    """§5.1's precision claim: profiling finds a subset of the static
    analysis's patch sites."""
    from repro.core.analysis import find_memory_escapes
    from repro.core.profiler import profile_patch_sites
    from repro.workloads import build_program

    out = []
    for w in workloads:
        program = build_program(w)
        static = find_memory_escapes(program).patch_sites
        dynamic = profile_patch_sites(program)
        out.append(
            PatchSiteComparison(w, len(static), len(dynamic), dynamic <= static)
        )
    return out
