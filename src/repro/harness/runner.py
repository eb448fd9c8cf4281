"""Run driver: native and virtualized executions with telemetry.

Patch-site discovery (the §5.1 profiling run) is cached per workload
build so a four-config comparison profiles once, like a developer
would ("patch their application for FPVM by simply profiling it with
the same workload").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.profiler import profile_patch_sites
from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.workloads import build_program


@dataclass
class HostPerf:
    """Host-throughput layer: how fast the *simulator itself* ran.

    Orthogonal to the simulated-cycle model — two runs with identical
    ``cycles`` can differ wildly here depending on the execution tier
    (micro-op pipeline vs. single-step interpretation)."""

    seconds: float = 0.0
    #: natively retired guest instructions (every thread for Process
    #: runs); emulated ones are counted separately below.
    instructions: int = 0
    #: guest instructions FPVM emulated instead (0 for native runs).
    emulated_instructions: int = 0
    #: micro-op engine counters (UopStats.as_dict()), if the pipeline
    #: ran — summed over every thread for Process runs.
    uop_stats: dict | None = None
    #: compiled-trace tier counters, if an FPVM was attached.
    compiled_traces: int = 0
    compiled_trace_hits: int = 0
    #: per-thread breakdown for Process runs: one dict per thread with
    #: instructions/cycles/traps, host throughput share, scheduler
    #: dispatches, and the thread's superblock quantum-exit reasons.
    threads: list | None = None
    #: scheduler-level telemetry (SchedulerStats.as_dict()): dispatches,
    #: steps, and quantum efficiency = instructions retired per dispatch.
    sched: dict | None = None
    #: fused trace-JIT summary (telemetry.aggregate_trace_stats):
    #: compiles/recompiles, side-exit breakdown, trace-length histogram.
    trace: dict | None = None
    #: fleet summary (telemetry.aggregate_fleet_stats) when this perf
    #: record describes a multiprocess fleet batch rather than one run:
    #: guests/sec, p50/p99 guest latency, COW faults, retries/crashes,
    #: and per-worker warm-cache hit rates.
    fleet: dict | None = None
    #: exception-flow summary (FlowRecorder.as_dict()) when the run had
    #: the ``FPVM_FLOW`` knob / ``flow`` config field on, else None.
    flow: dict | None = None

    @property
    def ips(self) -> float:
        """Host wall-clock guest-instructions per second, counting the
        instructions FPVM emulated as well as the native ones."""
        guest = self.instructions + self.emulated_instructions
        return guest / self.seconds if self.seconds > 0 else 0.0


@dataclass
class NativeResult:
    workload: str
    cycles: int
    instructions: int
    output: list[str]
    host: HostPerf | None = None


@dataclass
class FPVMResult:
    workload: str
    config_name: str
    cycles: int
    output: list[str]
    ledger: dict[str, int]
    emulated_instructions: int
    traps: int
    avg_sequence_length: float
    gc_runs: int
    trace_stats: object  # TraceStatistics or None
    telemetry: object
    program: object
    host: HostPerf | None = None
    #: the run's FlowRecorder (full provenance graph) when exception-
    #: flow observability was enabled, else None.
    flow: object = None

    @property
    def altmath_cycles(self) -> int:
        return self.ledger["altmath"]

    def amortized(self) -> dict[str, float]:
        n = max(self.emulated_instructions, 1)
        return {k: v / n for k, v in self.ledger.items()}


@dataclass
class Comparison:
    """Native baseline + any number of virtualized runs."""

    workload: str
    native: NativeResult
    runs: dict[str, FPVMResult] = field(default_factory=dict)

    def slowdown(self, config_name: str) -> float:
        """Figure 4/11: wall-cycles ratio vs native."""
        return self.runs[config_name].cycles / self.native.cycles

    def lower_bound_cycles(self, config_name: str) -> int:
        """Figure 5's baseline: native + intrinsic altmath time."""
        return self.native.cycles + self.runs[config_name].altmath_cycles

    def slowdown_from_lower_bound(self, config_name: str) -> float:
        """Figure 5/12: 1.0 means zero virtualization overhead."""
        return self.runs[config_name].cycles / self.lower_bound_cycles(config_name)


def _cpu_trace_summary(cpu) -> dict | None:
    """Trace-JIT telemetry for a standalone CPU run, if the pipeline ran."""
    from repro.core.telemetry import aggregate_trace_stats

    stats = cpu.uop_stats
    if stats is None:
        return None
    cache = cpu._sb_cache
    return aggregate_trace_stats(
        [stats.as_dict()],
        cache.as_dict() if cache is not None else None,
    )


def run_native(
    workload: str,
    scale: int | None = None,
    uops: bool | None = None,
    trace: bool | None = None,
    **kw,
) -> NativeResult:
    cpu = CPU(build_program(workload, scale, **kw), uops=uops, trace=trace)
    cpu.kernel = LinuxKernel()
    t0 = time.perf_counter()
    cpu.run()
    seconds = time.perf_counter() - t0
    stats = cpu.uop_stats
    host = HostPerf(
        seconds=seconds,
        instructions=cpu.instruction_count,
        uop_stats=stats.as_dict() if stats is not None else None,
        trace=_cpu_trace_summary(cpu),
    )
    return NativeResult(workload, cpu.cycles, cpu.instruction_count,
                        list(cpu.output), host=host)


def _process_host_perf(proc, seconds: float) -> HostPerf:
    """Aggregate a finished Process run into a HostPerf with per-thread
    breakdown and scheduler telemetry."""
    sched = proc.sched
    per_thread = {tid: s for tid, (d, s) in sched.per_thread.items()}
    total_sched_steps = sched.steps or 1
    threads = []
    for t in proc.threads:
        stats = t.uop_stats
        t_steps = per_thread.get(t.tid, 0)
        threads.append({
            "tid": t.tid,
            "instructions": t.instruction_count,
            "cycles": t.cycles,
            "fp_traps": t.fp_trap_count,
            "bp_traps": t.bp_trap_count,
            # wall clock is shared round-robin; attribute it by the
            # thread's share of scheduler steps.
            "ips": (t.instruction_count
                    / (seconds * t_steps / total_sched_steps)
                    if seconds > 0 and t_steps else 0.0),
            "dispatches": sched.per_thread.get(t.tid, (0, 0))[0],
            "quantum_exits": (dict(stats.quantum_exits)
                              if stats is not None else None),
        })
    total_instructions = sum(t.instruction_count for t in proc.threads)
    from repro.core.telemetry import aggregate_trace_stats, aggregate_uop_stats

    per_thread_stats = [t.uop_stats.as_dict() for t in proc.threads
                        if t.uop_stats is not None]
    uop_stats = (aggregate_uop_stats(per_thread_stats)
                 if per_thread_stats else None)
    trace = (aggregate_trace_stats(per_thread_stats, proc.sb_cache.as_dict())
             if per_thread_stats else None)
    return HostPerf(
        seconds=seconds,
        instructions=total_instructions,
        uop_stats=uop_stats,
        threads=threads,
        sched=sched.as_dict(),
        trace=trace,
    )


def run_native_process(
    workload: str,
    scale: int | None = None,
    uops: bool | None = None,
    trace: bool | None = None,
    quantum: int = 64,
    lazy_fp: bool | None = None,
    **kw,
) -> NativeResult:
    """Run a (typically multi-threaded) workload under the Process
    round-robin scheduler, batching each quantum through the uop
    pipeline unless ``uops=False``."""
    from repro.machine.process import Process

    proc = Process(build_program(workload, scale, **kw), uops=uops,
                   trace=trace, lazy_fp=lazy_fp)
    proc.kernel = LinuxKernel()
    t0 = time.perf_counter()
    proc.run(quantum=quantum)
    seconds = time.perf_counter() - t0
    host = _process_host_perf(proc, seconds)
    return NativeResult(workload, proc.total_cycles, host.instructions,
                        list(proc.main.output), host=host)


def run_fpvm_process(
    workload: str,
    config: FPVMConfig,
    config_name: str = "",
    scale: int | None = None,
    trace: bool | None = None,
    quantum: int = 64,
    lazy_fp: bool | None = None,
    **kw,
) -> FPVMResult:
    """FPVM-attached Process run: every spawned thread is intercepted
    and virtualized (§2.1), scheduled in batched quanta."""
    from repro.machine.process import Process

    program = build_program(workload, scale, **kw)
    proc = Process(program, trace=trace, lazy_fp=lazy_fp)
    kernel = LinuxKernel()
    vm = FPVM(config).attach_process(proc, kernel)
    t0 = time.perf_counter()
    proc.run(quantum=quantum)
    seconds = time.perf_counter() - t0
    t = vm.telemetry
    host = _process_host_perf(proc, seconds)
    host.emulated_instructions = t.emulated_instructions
    host.compiled_traces = t.compiled_traces
    host.compiled_trace_hits = t.compiled_trace_hits
    if vm.flow is not None:
        host.flow = vm.flow.as_dict()
    return FPVMResult(
        workload=workload,
        config_name=config_name or _config_label(config),
        cycles=proc.total_cycles,
        output=list(proc.main.output),
        ledger=vm.ledger.snapshot(),
        emulated_instructions=t.emulated_instructions,
        traps=t.traps,
        avg_sequence_length=t.avg_sequence_length,
        gc_runs=t.gc_runs,
        trace_stats=vm.trace_stats,
        telemetry=t,
        program=program,
        host=host,
        flow=vm.flow,
    )


def run_fpvm(
    workload: str,
    config: FPVMConfig,
    config_name: str = "",
    scale: int | None = None,
    patch_sites: frozenset | None = None,
    trace: bool | None = None,
    **kw,
) -> FPVMResult:
    program = build_program(workload, scale, **kw)
    if patch_sites is not None and config.patch_sites is None:
        config = config.with_(patch_sites=patch_sites)
    cpu = CPU(program, trace=trace)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    t0 = time.perf_counter()
    cpu.run()
    seconds = time.perf_counter() - t0
    t = vm.telemetry
    stats = cpu.uop_stats
    host = HostPerf(
        seconds=seconds,
        instructions=cpu.instruction_count,
        emulated_instructions=t.emulated_instructions,
        uop_stats=stats.as_dict() if stats is not None else None,
        compiled_traces=t.compiled_traces,
        compiled_trace_hits=t.compiled_trace_hits,
        trace=_cpu_trace_summary(cpu),
    )
    if vm.flow is not None:
        host.flow = vm.flow.as_dict()
    return FPVMResult(
        workload=workload,
        config_name=config_name or _config_label(config),
        cycles=cpu.cycles,
        output=list(cpu.output),
        ledger=vm.ledger.snapshot(),
        emulated_instructions=t.emulated_instructions,
        traps=t.traps,
        avg_sequence_length=t.avg_sequence_length,
        gc_runs=t.gc_runs,
        trace_stats=vm.trace_stats,
        telemetry=t,
        program=program,
        host=host,
        flow=vm.flow,
    )


def run_fleet(
    workload: str,
    guests: int,
    workers: int = 2,
    scale: int | None = None,
    quantum: int = 64,
    quotas: dict | None = None,
    **kw,
):
    """Run a homogeneous fleet batch and return its FleetReport with
    ``report.host`` filled in: a fleet-level :class:`HostPerf` whose
    ``seconds`` is batch wall-clock, ``instructions`` is the exact sum
    of every guest's ledger, and ``fleet`` carries guests/sec, p50/p99
    latency, and per-worker cache-reuse rates."""
    from repro.fleet import FleetScheduler, make_batch

    jobs = make_batch(workload, guests, scale=scale, quantum=quantum, **kw)
    report = FleetScheduler(workers=workers, quotas=quotas).run(jobs)
    report.host = HostPerf(
        seconds=report.wall_seconds,
        instructions=report.fleet["instructions"],
        fleet=report.fleet,
    )
    return report


def run_comparison(
    workload: str,
    configs: dict[str, FPVMConfig],
    scale: int | None = None,
    **kw,
) -> Comparison:
    """Native + each config, sharing one profiling pass."""
    native = run_native(workload, scale, **kw)
    sites = frozenset(profile_patch_sites(build_program(workload, scale, **kw)))
    comparison = Comparison(workload, native)
    for name, config in configs.items():
        comparison.runs[name] = run_fpvm(
            workload, config, name, scale, patch_sites=sites, **kw
        )
    return comparison


def _config_label(config: FPVMConfig) -> str:
    if config.sequence_emulation and config.trap_short_circuit:
        return "SEQ_SHORT"
    if config.sequence_emulation:
        return "SEQ"
    if config.trap_short_circuit:
        return "SHORT"
    return "NONE"
