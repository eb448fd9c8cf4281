"""Fault injection for the FPVM trap pipeline.

Each scenario perturbs exactly one link of the chain the paper's
design leans on — signal delivery, the magic page, the decode cache,
the box heap, the kernel-module registration — then runs a real
workload and checks that the VM either **recovers** (completes with
output bit-identical to a clean run) or **fails loudly** with the
matching typed :class:`~repro.errors.FPVMFaultError` subclass.  A
silent wrong answer is the one outcome no scenario tolerates.

Scenarios are registered in :data:`SCENARIOS`; ``run_scenario(name)``
returns a :class:`FaultOutcome`, and ``tests/conformance/
test_faults.py`` pins the expected behaviour of every one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.conformance import oracle
from repro.core.correctness import MAGIC_COOKIE
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import (
    BoxHeapExhaustedError,
    DeadlockError,
    DecodeCacheCorruptionError,
    DeviceProtocolError,
    FPVMFaultError,
    MagicPageCorruptionError,
    StepLimitError,
    TrapStormError,
)
from repro.kernel.kernel import LinuxKernel
from repro.kernel.signals import SIGFPE, SignalContext
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, TIERS
from repro.machine.hostlib import install_host_library
from repro.machine.isa import OpClass
from repro.machine.memory import PROT_READ, PROT_WRITE
from repro.machine.process import Process
from repro.machine.program import MAGIC_PAGE_ADDR
from repro.workloads import build_program

MAX_STEPS = 2_000_000


@dataclass
class FaultOutcome:
    """What one injected fault produced."""

    scenario: str
    description: str
    #: the VM noticed the fault (recovered from it or raised on it).
    detected: bool
    #: the run completed with output bit-identical to a clean run.
    recovered: bool
    #: the FPVMFaultError subclass name, for raise-style detections.
    error: str | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.detected

    def __str__(self) -> str:
        verdict = ("recovered" if self.recovered
                   else f"raised {self.error}" if self.error
                   else "UNDETECTED")
        return f"{self.scenario:<28} {verdict:<32} {self.detail}"


# ------------------------------------------------------- faulty kernel
class FaultInjectingKernel(LinuxKernel):
    """A LinuxKernel whose general-purpose signal delivery misbehaves
    on demand: SIGFPE deliveries can be dropped (lost interrupt) or
    duplicated (the classic can't-trust-signal-counts POSIX hazard)."""

    def __init__(self, drop_fpe: int = 0, duplicate_fpe: bool = False):
        super().__init__()
        #: number of SIGFPE deliveries to swallow (-1 = all of them).
        self.drop_fpe = drop_fpe
        self.duplicate_fpe = duplicate_fpe
        self.dropped = 0
        self.duplicated = 0

    def _signal_path(self, cpu, signum: int, trap) -> None:
        if signum == SIGFPE and (self.drop_fpe == -1 or self.dropped < self.drop_fpe):
            # The frame is never built and the handler never runs; the
            # faulting instruction simply re-executes and re-faults.
            self.dropped += 1
            return
        super()._signal_path(cpu, signum, trap)
        if signum == SIGFPE and self.duplicate_fpe:
            # Deliver the *same* trap again: by now the handler has
            # moved RIP past the faulting instruction, so the handler's
            # fault-style sanity check must flag the copy as spurious.
            self.duplicated += 1
            handler = self.sigactions.get(signum)
            self._charge(cpu, "kernel",
                         self.costs.kernel_internal + self.costs.signal_deliver)
            context = SignalContext(cpu, live=False)
            handler(signum, context, trap)
            self._charge(cpu, "ret", self.costs.sigreturn)
            context.apply()


# ------------------------------------------------------------- helpers
def _attach(config: FPVMConfig, kernel: LinuxKernel | None = None,
            workload: str = "lorenz", scale: int = 60):
    program = build_program(workload, scale)
    cpu = CPU(program)
    kernel = kernel or LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    return cpu, kernel, vm


def _clean_output(config: FPVMConfig, workload: str = "lorenz",
                  scale: int = 60) -> tuple[str, ...]:
    cpu, _, _ = _attach(config, workload=workload, scale=scale)
    cpu.run(max_steps=MAX_STEPS)
    return tuple(cpu.output)


def _outcome_from_run(name: str, description: str, cpu, clean: tuple[str, ...],
                      detail: str) -> FaultOutcome:
    try:
        cpu.run(max_steps=MAX_STEPS)
    except FPVMFaultError as err:
        return FaultOutcome(name, description, detected=True, recovered=False,
                            error=type(err).__name__, detail=str(err))
    recovered = tuple(cpu.output) == clean
    return FaultOutcome(name, description, detected=recovered,
                        recovered=recovered,
                        detail=detail if recovered else "output diverged silently")


# ----------------------------------------------------------- scenarios
def dropped_delivery_persistent() -> FaultOutcome:
    """Every SIGFPE delivery is lost.  The faulting instruction re-
    executes forever with no retired instructions in between — the
    kernel's livelock detector must raise TrapStormError instead of
    spinning."""
    name, desc = "dropped_delivery_persistent", "all SIGFPE deliveries lost"
    kernel = FaultInjectingKernel(drop_fpe=-1)
    cpu, _, _ = _attach(FPVMConfig.seq(), kernel)
    try:
        cpu.run(max_steps=MAX_STEPS)
    except TrapStormError as err:
        return FaultOutcome(name, desc, detected=True, recovered=False,
                            error="TrapStormError",
                            detail=f"after {kernel.dropped} drops: {err}")
    return FaultOutcome(name, desc, detected=False, recovered=False,
                        detail="livelock not detected")


def dropped_delivery_transient() -> FaultOutcome:
    """A handful of deliveries are lost, then delivery resumes.  #XF is
    fault-style, so the instruction re-faults and the late delivery
    succeeds — the run must self-heal bit-identically."""
    name, desc = "dropped_delivery_transient", "3 SIGFPE deliveries lost"
    clean = _clean_output(FPVMConfig.seq())
    kernel = FaultInjectingKernel(drop_fpe=3)
    cpu, _, _ = _attach(FPVMConfig.seq(), kernel)
    outcome = _outcome_from_run(name, desc, cpu, clean, "")
    if outcome.recovered:
        if kernel.dropped == 0:
            return FaultOutcome(name, desc, detected=False, recovered=True,
                                detail="no deliveries were actually dropped")
        outcome.detail = f"self-healed after {kernel.dropped} lost deliveries"
    return outcome


def duplicated_delivery() -> FaultOutcome:
    """Every SIGFPE is delivered twice.  The second copy arrives with
    the context RIP already advanced; the handler's fault-style sanity
    check must reject it as spurious and the output stay identical."""
    name, desc = "duplicated_delivery", "every SIGFPE delivered twice"
    clean = _clean_output(FPVMConfig.seq())
    kernel = FaultInjectingKernel(duplicate_fpe=True)
    cpu, _, vm = _attach(FPVMConfig.seq(), kernel)
    outcome = _outcome_from_run(name, desc, cpu, clean, "")
    if outcome.recovered:
        if vm.telemetry.spurious_traps == 0:
            return FaultOutcome(name, desc, detected=False, recovered=True,
                                detail="no spurious deliveries flagged")
        outcome.detail = (f"{vm.telemetry.spurious_traps} duplicate "
                          "deliveries flagged spurious and ignored")
    return outcome


def magic_page_corruption() -> FaultOutcome:
    """The magic-page cookie is overwritten after attach.  The first
    trampoline rendezvous must refuse the bogus page rather than jump
    through an attacker-controlled 'handler pointer'."""
    name, desc = "magic_page_corruption", "magic-page cookie overwritten"
    # three_body has a real profiler patch site, so a trampoline fires.
    cpu, _, _ = _attach(FPVMConfig.seq_short(), workload="three_body", scale=8)
    cpu.mem.protect(MAGIC_PAGE_ADDR, PROT_READ | PROT_WRITE)
    cpu.mem.write_bytes(MAGIC_PAGE_ADDR,
                        struct.pack("<Q", MAGIC_COOKIE ^ 0xFFFF))
    cpu.mem.protect(MAGIC_PAGE_ADDR, PROT_READ)
    try:
        cpu.run(max_steps=MAX_STEPS)
    except MagicPageCorruptionError as err:
        return FaultOutcome(name, desc, detected=True, recovered=False,
                            error="MagicPageCorruptionError", detail=str(err))
    return FaultOutcome(name, desc, detected=False, recovered=False,
                        detail="trampoline trusted a corrupt magic page")


def decode_cache_poison() -> FaultOutcome:
    """Decode-cache entries are cross-wired so a lookup returns the
    instruction from a different address.  The cache's integrity check
    must catch the aliased entry before it is emulated."""
    name, desc = "decode_cache_poison", "decode cache entries cross-wired"
    cpu, _, vm = _attach(FPVMConfig.seq())
    fp_addrs = [a for a, i in cpu.program.by_addr.items()
                if i.info.opclass in (OpClass.FP_ARITH, OpClass.FP_CVT)]
    for addr in fp_addrs:
        other = fp_addrs[0] if addr != fp_addrs[0] else fp_addrs[1]
        vm.decode_cache.insert(addr, cpu.program.by_addr[other])
    try:
        cpu.run(max_steps=MAX_STEPS)
    except DecodeCacheCorruptionError as err:
        return FaultOutcome(name, desc, detected=True, recovered=False,
                            error="DecodeCacheCorruptionError", detail=str(err))
    return FaultOutcome(name, desc, detected=False, recovered=False,
                        detail="poisoned entry emulated without complaint")


def decode_cache_thrash() -> FaultOutcome:
    """A 2-entry decode cache (pathological eviction pressure).  Pure
    performance fault: everything re-decodes, nothing may change."""
    name, desc = "decode_cache_thrash", "decode cache capacity forced to 2"
    clean = _clean_output(FPVMConfig.seq_short())
    config = FPVMConfig.seq_short(decode_cache_capacity=2)
    cpu, _, vm = _attach(config)
    outcome = _outcome_from_run(name, desc, cpu, clean, "")
    if outcome.recovered:
        outcome.detail = (f"bit-identical under {vm.telemetry.decode_misses} "
                          f"misses / {vm.telemetry.decode_hits} hits")
    return outcome


def box_heap_pressure() -> FaultOutcome:
    """The box heap is capped with threshold-GC disabled, so only the
    exhaustion path can reclaim.  Emergency collections must keep the
    run alive and bit-identical."""
    name, desc = "box_heap_pressure", "box heap capped at 64 live boxes, GC threshold off"
    clean = _clean_output(FPVMConfig.seq_short())
    config = FPVMConfig.seq_short(box_capacity=64, gc_threshold=10**9)
    cpu, _, vm = _attach(config)
    outcome = _outcome_from_run(name, desc, cpu, clean, "")
    if outcome.recovered:
        if vm.telemetry.emergency_gc_runs == 0:
            outcome.detail = "capacity never reached (cap too high to test)"
            outcome.detected = False
        else:
            outcome.detail = (f"{vm.telemetry.emergency_gc_runs} emergency "
                              "collections, output bit-identical")
    return outcome


def box_heap_exhaustion() -> FaultOutcome:
    """A 2-box heap cannot hold the workload's live values even after
    an emergency collection — the typed exhaustion error must surface
    instead of an arbitrary wrong answer."""
    name, desc = "box_heap_exhaustion", "box heap capped below the live set"
    config = FPVMConfig.seq_short(box_capacity=2, gc_threshold=10**9)
    cpu, _, _ = _attach(config)
    try:
        cpu.run(max_steps=MAX_STEPS)
    except BoxHeapExhaustedError as err:
        return FaultOutcome(name, desc, detected=True, recovered=False,
                            error="BoxHeapExhaustedError", detail=str(err))
    return FaultOutcome(name, desc, detected=False, recovered=False,
                        detail="live set squeezed into 2 boxes (cap untested)")


def device_registration_revoked() -> FaultOutcome:
    """The /dev/fpvm_dev registration is revoked mid-flight (fd closed,
    module unloaded).  Traps must degrade to the always-installed
    SIGFPE fallback path, not die."""
    name, desc = "device_registration_revoked", "short-circuit registration revoked before run"
    clean = _clean_output(FPVMConfig.seq_short())
    cpu, _, vm = _attach(FPVMConfig.seq_short())
    vm._device_handle.close()
    outcome = _outcome_from_run(name, desc, cpu, clean, "")
    if outcome.recovered:
        t = vm.telemetry
        if t.short_circuit_traps or not t.signal_traps:
            return FaultOutcome(name, desc, detected=False, recovered=True,
                                detail="traps did not use the fallback path")
        outcome.detail = (f"all {t.signal_traps} traps rerouted through "
                          "the SIGFPE fallback")
    return outcome


def device_entry_clobbered() -> FaultOutcome:
    """The kernel module's entry-point table is corrupted (registration
    present but pointing nowhere).  The module must refuse delivery
    with the typed protocol error, never jump to a junk stub."""
    name, desc = "device_entry_clobbered", "device entry table corrupted"
    cpu, kernel, _ = _attach(FPVMConfig.seq_short())
    kernel.fpvm_module._entries[id(cpu)] = None
    try:
        cpu.run(max_steps=MAX_STEPS)
    except DeviceProtocolError as err:
        return FaultOutcome(name, desc, detected=True, recovered=False,
                            error=type(err).__name__, detail=str(err))
    return FaultOutcome(name, desc, detected=False, recovered=False,
                        detail="clobbered entry delivered without complaint")


_DEADLOCK_SRC = """
.text
worker:
  mov rdi, 0
  call thread_join      ; join main — which is joining us
  ret
main:
  mov rdi, worker
  mov rsi, 0
  call thread_create
  mov rdi, rax
  call thread_join      ; join the worker — the cycle closes
  hlt
"""

_SPIN_SRC = """
.text
main:
spin:
  jmp spin
"""


def scheduler_deadlock() -> FaultOutcome:
    """A join cycle: main joins the worker while the worker joins main.
    Every live thread is parked, so the scheduler must raise the typed
    DeadlockError instead of spinning or returning quietly."""
    name, desc = "scheduler_deadlock", "main and worker join each other"
    proc = Process(assemble(_DEADLOCK_SRC))
    proc.kernel = LinuxKernel()
    try:
        proc.run(max_steps=MAX_STEPS)
    except DeadlockError as err:
        return FaultOutcome(name, desc, detected=True, recovered=False,
                            error="DeadlockError", detail=str(err))
    return FaultOutcome(name, desc, detected=False, recovered=False,
                        detail="join cycle not detected")


def scheduler_step_limit() -> FaultOutcome:
    """A guest that never terminates (tight jmp loop) against a small
    scheduler step budget — the typed StepLimitError must surface,
    distinguishing guest non-termination from machinery faults."""
    name, desc = "scheduler_step_limit", "infinite loop vs. 1000-step budget"
    proc = Process(assemble(_SPIN_SRC))
    proc.kernel = LinuxKernel()
    try:
        proc.run(max_steps=1000)
    except StepLimitError as err:
        return FaultOutcome(name, desc, detected=True, recovered=False,
                            error="StepLimitError", detail=str(err))
    return FaultOutcome(name, desc, detected=False, recovered=False,
                        detail="runaway process not stopped")


class _CountingTrampoline:
    """A magic-call pre-hook that only counts its firings — the
    observable that tells a stale block from a live patch site."""

    def __init__(self):
        self.calls = 0

    def __call__(self, cpu, addr):
        self.calls += 1


def _drive_patching(cpu, program, site: int, tramp, k: int,
                    quantum: int = 64) -> None:
    """run_quantum() loop that installs ``patch_call(site)`` at the
    first quantum boundary where at least ``k`` instructions have
    retired.  Quantum boundaries land at identical retirement counts
    in every tier, so twin runs see the patch at the same instant."""
    patched = False
    steps = 0
    while not cpu.halted:
        if not patched and cpu.instruction_count >= k:
            program.patch_call(site, tramp)
            patched = True
        steps += cpu.run_quantum(quantum)
        if steps > MAX_STEPS:
            raise StepLimitError(f"patching twin exceeded {MAX_STEPS} steps")


def stale_block_patch() -> FaultOutcome:
    """A correctness patch lands at a non-entry instruction *inside* a
    live superblock mid-run.  The fault being probed: if per-site
    invalidation failed to drop the covering block, its cached body
    would keep executing straight through the new patch site without
    ever firing the pre-hook — a silent wrong answer.  Detection is
    twofold: the chained twin's pre-hook fire count and output must
    match an interpreter twin patched at the identical retirement
    boundary, and the cache must report at least one invalidated
    block."""
    name = "stale_block_patch"
    desc = "patch planted inside a live superblock mid-run"

    # Discovery pass: the chained tier's blocks, then the address an
    # interpreter run retires most often in its second half that lies
    # strictly inside one of them.
    scout = CPU(build_program("lorenz", 60), uops=True)
    scout.kernel = LinuxKernel()
    scout.run(max_steps=MAX_STEPS)
    k = scout.instruction_count // 2
    inside = {a for blk in scout._sb_cache.view(scout).values()
              for a in range(blk.entry + 1, blk.end)
              if a in scout.program.by_addr}
    counter = CPU(build_program("lorenz", 60), uops=False)
    counter.kernel = LinuxKernel()
    heat: dict[int, int] = {}
    while not counter.halted:
        if counter.instruction_count >= k:
            heat[counter.regs.rip] = heat.get(counter.regs.rip, 0) + 1
        counter.step()
    live = [a for a in heat if a in inside]
    if not live:
        return FaultOutcome(name, desc, detected=False, recovered=False,
                            detail="no live superblock to plant a patch in")
    site = max(live, key=lambda a: (heat[a], -a))

    twins = {}
    for tier in ("chained", "interp"):
        program = build_program("lorenz", 60)
        cpu = CPU(program, uops=TIERS[tier])
        cpu.kernel = LinuxKernel()
        tramp = _CountingTrampoline()
        try:
            _drive_patching(cpu, program, site, tramp, k)
        except FPVMFaultError as err:
            return FaultOutcome(name, desc, detected=True, recovered=False,
                                error=type(err).__name__, detail=str(err))
        twins[tier] = (cpu, tramp)

    chained_cpu, chained_tramp = twins["chained"]
    interp_cpu, interp_tramp = twins["interp"]
    dropped = chained_cpu._sb_cache.invalidated_blocks
    identical = (tuple(chained_cpu.output) == tuple(interp_cpu.output)
                 and chained_tramp.calls == interp_tramp.calls)
    if identical and chained_tramp.calls > 0 and dropped >= 1:
        return FaultOutcome(
            name, desc, detected=True, recovered=True,
            detail=(f"site={site:#x} hook fired {chained_tramp.calls}x in "
                    f"both tiers, {dropped} covering block(s) invalidated"))
    return FaultOutcome(
        name, desc, detected=False, recovered=False,
        detail=(f"stale block executed through patch site {site:#x}: hook "
                f"chained={chained_tramp.calls} interp={interp_tramp.calls}"
                f" invalidated_blocks={dropped}"))


def _lazyfp_source(secrets=None, vloops: int = 150, spin: int = 400) -> str:
    """The LazyFP probe program.  A *victim* thread loads a distinct
    secret into every XMM register and keeps dirtying the bank; a
    *probe* thread burns integer-only quanta (so the victim owns the FP
    unit), then stores every XMM register to memory **before writing
    any** — the classic LazyFP read-before-first-write probe.  Main
    joins both and prints the probe's 16 captured values, which for a
    correct ownership switch must all be the fresh-thread init state
    (0.0), never the victim's secrets."""
    if secrets is None:
        secrets = [101.5 + 2.0 * i for i in range(16)]
    lines = [
        ".data",
        f"secrets: .double {', '.join(repr(float(s)) for s in secrets)}",
        f"probe: .double {', '.join('0.0' for _ in range(16))}",
        f"vloops: .quad {vloops}",
        f"spin: .quad {spin}",
        "",
        ".text",
        "victim:",
    ]
    for i in range(16):
        lines.append(f"  movsd xmm{i}, [rip + secrets + {8 * i}]")
    lines += [
        "  mov rcx, [rip + vloops]",
        "vloop:",
        "  addsd xmm0, xmm1",
        "  dec rcx",
        "  jne vloop",
        "  ret",
        "",
        "probe_worker:",
        "  ; integer-only delay: the victim's quanta run meanwhile and",
        "  ; it becomes the FP owner with a fully dirty bank.",
        "  mov rcx, [rip + spin]",
        "ploop:",
        "  dec rcx",
        "  jne ploop",
        "  ; read every register BEFORE writing any",
    ]
    for i in range(16):
        lines.append(f"  movsd [rip + probe + {8 * i}], xmm{i}")
    lines += [
        "  ret",
        "",
        "main:",
        "  mov rdi, victim",
        "  mov rsi, 0",
        "  call thread_create",
        "  mov rdi, probe_worker",
        "  mov rsi, 0",
        "  call thread_create",
        "  mov rdi, 1",
        "  call thread_join",
        "  mov rdi, 2",
        "  call thread_join",
    ]
    for i in range(16):
        lines += [
            f"  movsd xmm0, [rip + probe + {8 * i}]",
            "  call print_f64",
        ]
    lines.append("  hlt")
    return "\n".join(lines) + "\n"


def arm_skipped_switch(proc: Process) -> None:
    """Plant the LazyFP bug class in ``proc``: the #NM-style switch
    updates ownership but silently skips the state swap, so a
    non-owner thread starts its quantum on the owner's XMM bank — the
    stale physical registers a skipped switch would leak.  Covers the
    threads ``proc`` has now and, through ``on_thread_spawn``, every
    later spawn."""
    def skipped_switch(thread) -> None:
        proc.fp_owner = thread

    def leak_into(thread) -> None:
        run_quantum = thread.run_quantum

        def on_owner_bank(budget: int) -> int:
            owner = proc.fp_owner
            if owner is not None and owner is not thread:
                thread.regs.xmm = [lanes[:] for lanes in owner.regs.xmm]
            return run_quantum(budget)

        thread.run_quantum = on_owner_bank

    proc._fp_nm_switch = skipped_switch
    for thread in proc.threads:
        leak_into(thread)
    proc.on_thread_spawn.append(lambda _proc, thread: leak_into(thread))


def _lazyfp_run(tier: str, lazy: bool, armed: bool = False) -> Process:
    program = assemble(_lazyfp_source())
    install_host_library(program)
    proc = Process(program, uops=TIERS[tier], lazy_fp=lazy)
    proc.kernel = LinuxKernel()
    if armed:
        arm_skipped_switch(proc)
    proc.run(max_steps=MAX_STEPS)
    return proc


def lazy_fp_leak() -> FaultOutcome:
    """The LazyFP leak oracle (§3.1).  Fault being probed: a lazy FP
    switch implementation that *skips* the ownership switch would leave
    the previous owner's XMM state readable by the next thread — the
    LazyFP side channel, a silent secret leak.  Detection is
    differential: every lazy-on tier's probe output must be
    bit-identical to the eager reference (all init-state zeros), and
    a run armed with :func:`arm_skipped_switch` must make the probe
    observably capture the victim's secrets — proving the oracle has
    the power to catch a switch that quietly stopped happening."""
    name = "lazy_fp_leak"
    desc = "skipped FP ownership switch leaks stale XMM to a fresh thread"

    ref = _lazyfp_run("interp", lazy=False)
    expect = tuple(ref.main.output)
    for tier in TIERS:
        proc = _lazyfp_run(tier, lazy=True)
        if tuple(proc.main.output) != expect:
            return FaultOutcome(
                name, desc, detected=False, recovered=False,
                detail=f"lazy/{tier} diverged from eager on a clean run")
        if proc.sched.fp_switches == 0 or proc.sched.fp_saves_elided == 0:
            return FaultOutcome(
                name, desc, detected=False, recovered=False,
                detail=f"lazy/{tier} never exercised the switch machinery")
    armed = _lazyfp_run("chained", lazy=True, armed=True)
    if tuple(armed.main.output) != expect:
        return FaultOutcome(
            name, desc, detected=True, recovered=True,
            detail=f"all {len(TIERS)} lazy tiers clean vs eager; armed "
                   "seam observably leaked the victim bank")
    return FaultOutcome(
        name, desc, detected=False, recovered=False,
        detail="armed skip-switch seam produced no observable leak")


#: the registry, in documentation order.
SCENARIOS = {
    fn.__name__: fn
    for fn in (
        dropped_delivery_persistent,
        dropped_delivery_transient,
        duplicated_delivery,
        magic_page_corruption,
        decode_cache_poison,
        decode_cache_thrash,
        box_heap_pressure,
        box_heap_exhaustion,
        device_registration_revoked,
        device_entry_clobbered,
        scheduler_deadlock,
        scheduler_step_limit,
        stale_block_patch,
        lazy_fp_leak,
    )
}


def run_scenario(name: str) -> FaultOutcome:
    return SCENARIOS[name]()


def run_all() -> list[FaultOutcome]:
    return [fn() for fn in SCENARIOS.values()]
