"""Scheduling conformance axis: batched superblock dispatch vs the
seed step-wise scheduler.

``Process.run`` drives every scheduler quantum as one
:meth:`CPU.run_quantum` dispatch, retiring whole superblocks per
scheduling decision.  That must be a pure host-side speedup: for every
quantum and every attachment mode (bare machine or FPVM-attached), the
batched scheduler must be bit-identical to the seed single-step loop in
every guest-visible observable — stdout, the per-thread
cycle/instruction/trap ledgers, the order joins were satisfied, the
final-memory digest, and total simulated cycles.

:func:`sweep` runs the axis over each program × attach mode × quantum
× engine tier (:data:`~repro.machine.cpu.ENGINE_TIERS`: the
``chained`` superblock engine) against the stepwise seed
(``interp``), plus a cross-quantum check per tier that the batched
runs agree with *each other*: the axis programs synchronize only
through ``thread_join``, so their results must not depend on the
scheduling granularity either.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.conformance import oracle
from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import ENGINE_TIERS, TIERS
from repro.machine.hostlib import install_host_library
from repro.machine.process import Process
from repro.workloads import build_program

#: scheduler quanta swept by the axis — degenerate (1 step per
#: dispatch), odd (7, so superblock bodies straddle quantum
#: boundaries and the engine retires partial bodies at the budget
#: edge), and the scheduler default (64).
QUANTA = (1, 7, 64)

def cell_count() -> int:
    """Number of cells :func:`sweep` emits — per program × mode × tier,
    one cell per quantum plus the cross-quantum agreement check."""
    return (len(PROGRAMS) * len(ATTACH_MODES) * len(ENGINE_TIERS)
            * (len(QUANTA) + 1))


def _staggered_source(threads: int = 3, base: int = 24) -> str:
    """Workers with *staggered* loop lengths: shard ``i`` runs
    ``base * (i + 1)`` FP iterations, so workers halt in different
    scheduler rounds and main's joins (issued in reverse tid order)
    park and resume at different times — the join-order observable."""
    counts = ", ".join(str(base * (i + 1)) for i in range(threads))
    vals = ", ".join(repr(1.0 + 0.5 * i) for i in range(threads))
    lines = [
        ".data",
        f"counts: .quad {counts}",
        f"vals: .double {vals}",
        "k: .double 0.125",
        "",
        ".text",
        "worker:",
        "  ; rdi = shard index",
        "  mov rbx, counts",
        "  mov rcx, [rbx + rdi*8]",
        "  mov rbx, vals",
        "  movsd xmm0, [rbx + rdi*8]",
        "  movsd xmm1, [rip + k]",
        "sloop:",
        "  mulsd xmm0, xmm1",
        "  addsd xmm0, xmm1",
        "  dec rcx",
        "  jne sloop",
        "  mov rbx, vals",
        "  movsd [rbx + rdi*8], xmm0",
        "  ret",
        "",
        "main:",
    ]
    for i in range(threads):
        lines += [
            "  mov rdi, worker",
            f"  mov rsi, {i}",
            "  call thread_create",
        ]
    for tid in range(threads, 0, -1):  # reverse join order
        lines += [
            f"  mov rdi, {tid}",
            "  call thread_join",
        ]
    for i in range(threads):
        lines += [
            f"  movsd xmm0, [rip + vals + {8 * i}]",
            "  call print_f64",
        ]
    lines.append("  hlt")
    return "\n".join(lines) + "\n"


def _staggered_program():
    program = assemble(_staggered_source())
    install_host_library(program)
    return program


def _lorenz_mt_program():
    return build_program("lorenz_mt", scale=40, threads=3)


def _mixed_mt_program():
    return build_program("mixed_mt", scale=30, threads=4, fp_threads=2)


def _denorm_storm_program():
    return build_program("denorm_storm", scale=60)


#: label -> zero-arg Program factory.  ``staggered`` exercises the
#: join-order/park-resume machinery; ``lorenz_mt`` is the evaluation
#: workload (long straight-line FP bodies, the superblock best case);
#: ``mixed_mt`` alternates integer-only and FP quanta, so the lazy-FP
#: ownership switching (§3.1) must stay bit-identical across tiers and
#: quanta too; ``denorm_storm`` puts the rare trap classes (denormal,
#: underflow) on the scheduling axis, so preemption mid-trap-storm
#: cannot perturb rare-class delivery either.
PROGRAMS = {
    "staggered": _staggered_program,
    "lorenz_mt": _lorenz_mt_program,
    "mixed_mt": _mixed_mt_program,
    "denorm_storm": _denorm_storm_program,
}

#: label -> FPVMConfig factory, or None for a bare (unvirtualized)
#: process.  The tier is the Process's, so every mode runs on each.
#: ``none`` delivers every trap as a signal, whose sigreturn hands the
#: frame's register lists to the thread, so a micro-op function must
#: read the running thread's lists at each call.
ATTACH_MODES = {
    "native": None,
    "seq_short": FPVMConfig.seq_short,
    "none": FPVMConfig.none,
}


def process_fingerprint(proc: Process, vm=None) -> dict:
    """Every guest-visible observable of a finished Process run."""
    return {
        "output": tuple(proc.main.output),
        "threads": tuple(
            (t.tid, t.cycles, t.work_cycles, t.instruction_count,
             t.fp_trap_count, t.bp_trap_count)
            for t in proc.threads
        ),
        "join_log": tuple(proc.join_log),
        "digest": oracle.memory_digest(proc.main, vm),
        "cycles": proc.total_cycles,
    }


def run_schedule(
    factory,
    quantum: int,
    tier: str,
    mode: str = "native",
    max_steps: int = oracle.DEFAULT_MAX_STEPS,
) -> dict:
    """One run of ``factory()`` under the given quantum/tier/mode,
    returning its :func:`process_fingerprint`."""
    config_factory = ATTACH_MODES[mode]
    proc = Process(factory(), uops=TIERS[tier])
    kernel = LinuxKernel()
    vm = None
    if config_factory is None:
        proc.kernel = kernel
    else:
        vm = FPVM(config_factory()).attach_process(proc, kernel)
    proc.run(quantum=quantum, max_steps=max_steps)
    return process_fingerprint(proc, vm)


@dataclass
class SchedCheck:
    """One cell of the axis.  ``quantum == 0`` marks the cross-quantum
    agreement check over that tier's batched runs."""

    program: str
    mode: str
    quantum: int
    ok: bool
    detail: str = ""
    tier: str = "chained"

    @property
    def label(self) -> str:
        q = f"q={self.quantum}" if self.quantum else "cross-quantum"
        return f"{self.program}/{self.mode}/{self.tier}/{q}"

    def __str__(self) -> str:
        return f"{self.label}: {'ok' if self.ok else 'FAIL ' + self.detail}"


def _diff_keys(a: dict, b: dict) -> list[str]:
    return sorted(k for k in a if a[k] != b[k])


def sweep(progress=None) -> list[SchedCheck]:
    """The full axis: every program × mode × quantum × engine tier
    (:data:`~repro.machine.cpu.ENGINE_TIERS`, each with its ``uops``
    flag pinned whatever the CPU default), each tier vs stepwise, plus
    each tier's cross-quantum agreement check."""
    checks: list[SchedCheck] = []

    def emit(check: SchedCheck) -> None:
        checks.append(check)
        if progress is not None:
            progress(check)

    for pname, factory in PROGRAMS.items():
        for mode in ATTACH_MODES:
            tiered: dict[str, dict[int, dict]] = {t: {} for t in ENGINE_TIERS}
            for quantum in QUANTA:
                # one stepwise reference run shared by every tier.
                stepwise = run_schedule(factory, quantum, "interp", mode=mode)
                for tier in ENGINE_TIERS:
                    got = run_schedule(factory, quantum, tier, mode=mode)
                    tiered[tier][quantum] = got
                    bad = _diff_keys(stepwise, got)
                    emit(SchedCheck(
                        pname, mode, quantum, not bad,
                        "" if not bad
                        else f"{tier} != stepwise in: " + ", ".join(bad),
                        tier=tier,
                    ))
            # Across quanta only the guest-visible *result* is pinned:
            # join park order and per-thread cycle/trap attribution are
            # scheduling observables (e.g. whichever thread reaches a
            # shared patch site first pays its promotion), so they vary
            # with the quantum — which is exactly why the cells above
            # compare batched vs stepwise at *equal* quantum.
            for tier, by_quantum in tiered.items():
                first = by_quantum[QUANTA[0]]
                bad = sorted({
                    key
                    for quantum in QUANTA[1:]
                    for key in _diff_keys(first, by_quantum[quantum])
                    if key in ("output", "digest")
                })
                emit(SchedCheck(
                    pname, mode, 0, not bad,
                    "" if not bad
                    else "quantum-dependent results in: " + ", ".join(bad),
                    tier=tier,
                ))
    return checks


def render_checks(checks: list[SchedCheck]) -> str:
    failed = [c for c in checks if not c.ok]
    lines = [f"  {c}" for c in (failed or checks)]
    verdict = (f"{len(failed)}/{len(checks)} cells FAILED" if failed
               else f"all {len(checks)} cells bit-identical")
    return "\n".join(lines + [f"scheduling axis: {verdict}"])
