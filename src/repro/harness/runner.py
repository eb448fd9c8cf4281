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
from repro.core.telemetry import run_metrics, snapshot, thread_metrics
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
    #: runs); the ones FPVM emulated are ``fpvm.emulated_instructions``.
    instructions: int = 0
    #: the run's merged snapshot (:func:`repro.core.telemetry.run_metrics`):
    #: ``cpu.*`` and ``uop.*`` over every thread, plus ``sched.*``,
    #: ``sbcache.*`` and ``fpvm.*`` from their one owner each.
    metrics: dict = field(default_factory=dict)
    #: per-thread breakdown for Process runs: one dict per thread with
    #: its ``tid``, scheduler ``dispatches``, host throughput share
    #: (``ips``) and its own snapshot (``metrics``).
    threads: list | None = None
    #: the ``sched.*`` counters without their namespace, for Process runs.
    sched: dict | None = None
    #: always None: native code runs on the chained engine, which has
    #: no compiled-trace tier.  Kept so readers of ``host.trace`` (the
    #: bench_fpvm harness) still find the attribute.
    trace: dict | None = None

    @property
    def ips(self) -> float:
        """Host wall-clock guest-instructions per second, counting the
        instructions FPVM emulated as well as the native ones."""
        guest = self.instructions + self.metrics.get("fpvm.emulated_instructions", 0)
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
    trace_stats: object  # TraceStatistics
    telemetry: object
    program: object
    host: HostPerf | None = None
    #: the run's FlowRecorder (full provenance graph) when exception-
    #: flow observability was enabled, else None.
    flow: object = None

    @property
    def emulated_instructions(self) -> int:
        return self.telemetry.emulated_instructions

    @property
    def traps(self) -> int:
        return self.telemetry.traps

    @property
    def avg_sequence_length(self) -> float:
        return self.telemetry.avg_sequence_length

    @property
    def gc_runs(self) -> int:
        return self.telemetry.gc_runs

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


def run_native(
    workload: str,
    scale: int | None = None,
    uops: bool | None = None,
    **kw,
) -> NativeResult:
    cpu = CPU(build_program(workload, scale, **kw), uops=uops)
    cpu.kernel = LinuxKernel()
    t0 = time.perf_counter()
    cpu.run()
    seconds = time.perf_counter() - t0
    host = HostPerf(seconds, cpu.instruction_count, _cpu_metrics(cpu))
    return NativeResult(workload, cpu.cycles, cpu.instruction_count,
                        list(cpu.output), host=host)


def _cpu_metrics(cpu, vm=None) -> dict:
    """A standalone CPU's snapshot: the thread, its private cache and
    the attached FPVM's telemetry, if any."""
    return run_metrics([cpu], (cpu._sb_cache, "sbcache"),
                       (vm.telemetry if vm else None, "fpvm"))


def _process_host_perf(proc, seconds: float, vm=None) -> HostPerf:
    """A finished Process run as a HostPerf: the process snapshot, one
    snapshot per thread, and the scheduler counters."""
    sched = proc.sched
    total_sched_steps = sched.steps or 1
    threads = []
    for t in proc.threads:
        dispatches, t_steps = sched.per_thread.get(t.tid, (0, 0))
        threads.append({
            "tid": t.tid,
            "dispatches": dispatches,
            # wall clock is shared round-robin; attribute it by the
            # thread's share of scheduler steps.
            "ips": (t.instruction_count
                    / (seconds * t_steps / total_sched_steps)
                    if seconds > 0 and t_steps else 0.0),
            "metrics": thread_metrics(t),
        })
    metrics = run_metrics(proc.threads, (sched, "sched"),
                          (proc.sb_cache, "sbcache"),
                          (vm.telemetry if vm else None, "fpvm"))
    return HostPerf(seconds, metrics["cpu.instructions"], metrics, threads,
                    sched=snapshot(sched))


def run_native_process(
    workload: str,
    scale: int | None = None,
    uops: bool | None = None,
    quantum: int = 64,
    lazy_fp: bool | None = None,
    **kw,
) -> NativeResult:
    """Run a (typically multi-threaded) workload under the Process
    round-robin scheduler, batching each quantum through the uop
    pipeline unless ``uops=False``."""
    from repro.machine.process import Process

    proc = Process(build_program(workload, scale, **kw), uops=uops,
                   lazy_fp=lazy_fp)
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
    uops: bool | None = None,
    quantum: int = 64,
    lazy_fp: bool | None = None,
    **kw,
) -> FPVMResult:
    """FPVM-attached Process run: every spawned thread is intercepted
    and virtualized (§2.1), scheduled in batched quanta."""
    from repro.machine.process import Process

    program = build_program(workload, scale, **kw)
    proc = Process(program, uops=uops, lazy_fp=lazy_fp)
    kernel = LinuxKernel()
    vm = FPVM(config).attach_process(proc, kernel)
    t0 = time.perf_counter()
    proc.run(quantum=quantum)
    seconds = time.perf_counter() - t0
    return FPVMResult(
        workload=workload,
        config_name=config_name or _config_label(config),
        cycles=proc.total_cycles,
        output=list(proc.main.output),
        ledger=vm.ledger.snapshot(),
        trace_stats=vm.trace_stats,
        telemetry=vm.telemetry,
        program=program,
        host=_process_host_perf(proc, seconds, vm),
        flow=vm.flow,
    )


def run_fpvm(
    workload: str,
    config: FPVMConfig,
    config_name: str = "",
    scale: int | None = None,
    patch_sites: frozenset | None = None,
    uops: bool | None = None,
    **kw,
) -> FPVMResult:
    program = build_program(workload, scale, **kw)
    if patch_sites is not None and config.patch_sites is None:
        config = config.with_(patch_sites=patch_sites)
    cpu = CPU(program, uops=uops)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    t0 = time.perf_counter()
    cpu.run()
    seconds = time.perf_counter() - t0
    return FPVMResult(
        workload=workload,
        config_name=config_name or _config_label(config),
        cycles=cpu.cycles,
        output=list(cpu.output),
        ledger=vm.ledger.snapshot(),
        trace_stats=vm.trace_stats,
        telemetry=vm.telemetry,
        program=program,
        host=HostPerf(seconds, cpu.instruction_count, _cpu_metrics(cpu, vm)),
        flow=vm.flow,
    )


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
