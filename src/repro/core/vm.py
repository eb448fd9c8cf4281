"""The FPVM runtime (§2.1): configuration, attach, trap handlers.

Attachment mirrors the real LD_PRELOAD constructor sequence: install
signal handlers (or open ``/dev/fpvm_dev`` and register the entry stub
when trap short-circuiting is on), unmask the MXCSR exceptions, wrap
foreign functions, find and patch correctness sites, and map the magic
page.  From then on the virtualized program runs natively until the
hardware traps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.altmath import get_altmath
from repro.core import correctness
from repro.core.alloc import STORES, BoxAllocator
from repro.core.decode_cache import DecodeCache
from repro.core.emulator import DEFAULT_SUPPORTED, Emulator
from repro.core.sequences import SequenceEmulator
from repro.core.telemetry import CycleLedger, Telemetry
from repro.core.wrappers import install_wrappers
from repro.core.analysis import find_memory_escapes
from repro.core.profiler import profile_patch_sites
from repro.errors import BoxHeapExhaustedError, ConfigError
from repro.kernel.fpvm_dev import FPVM_IOCTL_REGISTER_ENTRY, FPVMDevice
from repro.kernel.signals import SIGFPE, SIGTRAP, SignalContext
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.program import PatchKind
from repro.machine.registers import ALL_LANES, MXCSR_DEFAULT, MXCSR_FPVM, restore_lanes
from repro.observability import FlowRecorder, classify_flags


@dataclass(frozen=True)
class FPVMConfig:
    """One run configuration (the NONE/SEQ/SHORT/SEQ_SHORT axes of §6,
    plus the §5 correctness machinery and ablation knobs)."""

    altmath: str = "boxed_ieee"
    altmath_kwargs: dict = field(default_factory=dict)
    #: §4 instruction sequence emulation (SEQ).
    sequence_emulation: bool = False
    #: §3 trap short-circuiting via the kernel module (SHORT).
    trap_short_circuit: bool = False
    #: §5.2 magic traps (False = baseline int3 + SIGTRAP).
    magic_traps: bool = True
    #: §5.3 foreign-function wrapping (libm + stdio).
    wrap_foreign: bool = True
    #: §5.1 patch-site discovery: one of :data:`PATCH_SITE_SOURCES`.
    patch_site_source: str = "profiler"
    #: precomputed patch sites (harness caches the profiling run).
    patch_sites: frozenset | None = None
    gc_threshold: int = 4096
    decode_cache_capacity: int = 65536
    supported_instructions: frozenset = DEFAULT_SUPPORTED
    #: §2.3 decreased-precision mode: disable the FP hardware so every
    #: FP instruction traps and is emulated (pair with altmath="lowprec").
    trap_all_fp: bool = False
    #: §3.1 future-work: lazy GPR/FPR save/restore in the entry/exit
    #: stubs (cheaper handler entry at engineering cost in real FPVM).
    lazy_state_save: bool = False
    #: cap on *live* boxes (None = unbounded).  On exhaustion the VM
    #: runs one emergency collection before failing with the typed
    #: :class:`~repro.errors.BoxHeapExhaustedError`.
    box_capacity: int | None = None
    #: exception-flow observability: record NaN-box provenance (birth
    #: RIP + trap class + generation), propagation edges, kill sites
    #: and per-RIP trap heatmaps.  Purely observational: architectural
    #: state and cycle accounting are identical either way.
    flow: bool = False

    # ------------------------------------------------- §6 preset configs
    @classmethod
    def none(cls, **kw) -> "FPVMConfig":
        return cls(sequence_emulation=False, trap_short_circuit=False, **kw)

    @classmethod
    def seq(cls, **kw) -> "FPVMConfig":
        return cls(sequence_emulation=True, trap_short_circuit=False, **kw)

    @classmethod
    def short(cls, **kw) -> "FPVMConfig":
        return cls(sequence_emulation=False, trap_short_circuit=True, **kw)

    @classmethod
    def seq_short(cls, **kw) -> "FPVMConfig":
        return cls(sequence_emulation=True, trap_short_circuit=True, **kw)

    def with_(self, **kw) -> "FPVMConfig":
        return replace(self, **kw)


#: the values ``FPVMConfig.patch_site_source`` may take.
PATCH_SITE_SOURCES = ("profiler", "static", "none")


def _check_config(cfg: FPVMConfig) -> None:
    """Reject field values FPVM cannot run with :class:`ConfigError`
    before any state is built.  Zero stays valid wherever it already
    means something (``gc_threshold=0`` collects at every check)."""
    if cfg.patch_site_source not in PATCH_SITE_SOURCES:
        raise ConfigError(f"patch_site_source {cfg.patch_site_source!r} is "
                          f"not one of {PATCH_SITE_SOURCES}")
    for name, floor in (("decode_cache_capacity", 1), ("gc_threshold", 0)):
        if getattr(cfg, name) < floor:
            raise ConfigError(f"{name} must be >= {floor}, "
                              f"got {getattr(cfg, name)}")
    if cfg.box_capacity is not None and cfg.box_capacity < 0:
        raise ConfigError(f"box_capacity must be >= 0 or None, "
                          f"got {cfg.box_capacity}")


class FPVM:
    """One attached FPVM instance (per process/thread)."""

    def __init__(self, config: FPVMConfig | None = None):
        self.config = config or FPVMConfig()
        _check_config(self.config)
        self.cpu = None
        self.kernel = None
        self.program = None
        self.costs = DEFAULT_COSTS
        self.ledger = CycleLedger()
        self.telemetry = Telemetry()
        try:
            self.altmath = get_altmath(self.config.altmath,
                                       **self.config.altmath_kwargs)
        except KeyError as err:
            raise ConfigError(err.args[0]) from None
        self.allocator = BoxAllocator(gc_threshold=self.config.gc_threshold,
                                      capacity=self.config.box_capacity,
                                      store=STORES[self.altmath.box_store])
        self.decode_cache = DecodeCache(self.config.decode_cache_capacity)
        #: exception-flow recorder, or None when disabled — every hook
        #: site guards on that, so the disabled path costs nothing.
        self.flow = FlowRecorder() if self.config.flow else None
        if self.flow is not None:
            self.allocator.on_free = self.flow.on_free
        self.emulator = Emulator(self)
        self.sequencer = SequenceEmulator(self)
        self._device_handle = None
        self._thread_handles = []
        #: the addresses this attach patched, in patch order.
        self.patched_sites: list[int] = []
        self.process = None
        self.attached = False

    # ------------------------------------------------------------ attach
    def attach(self, cpu, kernel) -> "FPVM":
        """The LD_PRELOAD constructor: runs before the program's main."""
        sites = self.config.patch_sites
        if sites is not None:
            bad = [a for a in sites if a not in cpu.program.by_addr]
            if bad:
                raise ConfigError("patch_sites names no instruction at "
                                  + ", ".join(f"{a:#x}" if isinstance(a, int)
                                              else repr(a) for a in bad))
        self.cpu = cpu
        self.kernel = kernel
        self.program = cpu.program
        self.costs = cpu.costs
        #: the handler-entry cost every delivery charges to ``emul``.
        self._entry_cost = (self.costs.handler_entry_lazy
                            if self.config.lazy_state_save
                            else self.costs.handler_entry)
        # Steps pre-resolve the cost model and compiled traces bind
        # steps: both start cold on every attach.
        self.emulator.steps.clear()
        self.sequencer.reset()
        self.ledger.bind_cpu(cpu)
        kernel.ledger = self.ledger

        # Trap delegation: bespoke device or POSIX signals (§2.1, §3).
        # The SIGFPE handler is installed even when short-circuiting:
        # exactly like the real LD_PRELOAD constructor, it is the
        # fallback path if the device registration is ever revoked
        # (fd closed, module unloaded) — the process degrades to
        # general signal delivery instead of dying.
        kernel.sigaction(SIGFPE, self._on_sigfpe)
        if self.config.trap_short_circuit:
            device = kernel.fpvm_module or FPVMDevice(kernel)
            self._device_handle = device.open(cpu)
            self._device_handle.ioctl(FPVM_IOCTL_REGISTER_ENTRY, self._handle_fp)
        kernel.sigaction(SIGTRAP, self._on_sigtrap)

        # Configure the thread's mxcsr to trap (§2.3).
        cpu.regs.mxcsr = MXCSR_FPVM
        cpu.fp_disabled = self.config.trap_all_fp

        # Foreign function wrapping (§5.3).
        if self.config.wrap_foreign:
            install_wrappers(self, self.program)

        # Magic page + correctness patches (§5.1, §5.2).  Each patch is
        # logged in ``program.patch_events``, so only caches covering
        # these addresses invalidate, and the text the guest reads
        # stays bit-identical throughout.
        handler_id = correctness.register_demotion_handler(self._magic_demote)
        correctness.map_magic_page(cpu, handler_id)
        self.patched_sites = self._discover_patch_sites()
        for addr in self.patched_sites:
            if self.config.magic_traps:
                self.program.patch_call(addr, correctness.MagicTrampoline())
            else:
                self.program.patch_int3(addr)
        self.attached = True
        return self

    def attach_process(self, process, kernel) -> "FPVM":
        """Attach to a multi-threaded process (§2.1): virtualize the
        main thread now and intercept every future thread spawn the way
        the real FPVM intercepts pthread/clone()."""
        self.process = process
        process.kernel = kernel
        self.attach(process.main, kernel)
        process.on_thread_spawn.append(self._on_thread_spawn)
        # Threads spawned before attach (unusual) get contexts too.
        for thread in process.threads[1:]:
            self._on_thread_spawn(process, thread)
        return self

    def _on_thread_spawn(self, process, thread) -> None:
        """Create this thread's execution context: unmask its MXCSR and
        register it for short-circuit delivery."""
        thread.regs.mxcsr = MXCSR_FPVM
        thread.fp_disabled = self.config.trap_all_fp
        thread.kernel = self.kernel
        if self.config.trap_short_circuit:
            handle = self.kernel.fpvm_module.open(thread)
            handle.ioctl(FPVM_IOCTL_REGISTER_ENTRY, self._handle_fp)
            self._thread_handles.append(handle)

    def detach(self) -> None:
        """Shutdown: close the device (revoking registration) and
        restore the default FP environment on every thread."""
        if self._device_handle is not None:
            self._device_handle.close()
            self._device_handle = None
        for handle in self._thread_handles:
            handle.close()
        self._thread_handles.clear()
        threads = (self.process.threads if self.process is not None
                   else [self.cpu] if self.cpu is not None else [])
        for thread in threads:
            thread.regs.mxcsr = MXCSR_DEFAULT
            thread.fp_disabled = False
        self.attached = False

    def _discover_patch_sites(self):
        """Patch-site discovery runs over the program's instruction
        stream, which patches never alter, and every discovered site
        is validated against it before any is patched (the profiler
        copies the program, which resets patch state anyway)."""
        cfg = self.config
        if cfg.patch_sites is not None:
            sites = sorted(cfg.patch_sites)
        elif cfg.patch_site_source == "profiler":
            sites = sorted(profile_patch_sites(self.program))
        elif cfg.patch_site_source == "static":
            sites = sorted(find_memory_escapes(self.program).patch_sites)
        else:  # "none"
            sites = []
        for addr in sites:
            self.program.instruction_at(addr)
        return sites

    # ---------------------------------------------------------- handlers
    def _on_sigfpe(self, signum, context, trap) -> None:
        self._handle_fp(context, trap)

    def _handle_fp(self, context, trap) -> None:
        """Handle one FP trap delivery: the SIGFPE handler's body, and
        the landing pad the short-circuit entry stub jumps to with the
        live ucontext it built (§3.1)."""
        # Charge the thread that trapped (matters under multithreading).
        cpu = context.cpu
        ledger = self.ledger
        ledger.bind_cpu(cpu)
        ledger.by_category["emul"] += self._entry_cost
        cpu.cycles += self._entry_cost
        telemetry = self.telemetry
        # Delivery sanity check: x64 #XF is fault-style, so a genuine
        # delivery always lands with RIP at the faulting instruction.
        # Anything else (e.g. a duplicated signal whose first copy was
        # already handled) is spurious — emulating from a stale trap
        # address would corrupt state, so recover by ignoring it.
        if context.rip != trap.addr:
            telemetry.spurious_traps += 1
            return
        telemetry.traps += 1
        flow = self.flow
        if flow is not None:
            flow.begin_trap(trap.addr, classify_flags(trap.fp_flags))
        mask, saved = self._fp_entry_save(context, trap)
        resume = self.sequencer.handle_fp_trap(context, trap)
        if flow is not None:
            flow.end_trap()
        # Exit-stub restore of the saved lanes the handler did not write
        # as results: host code that trashed them must not leak them.
        restore = mask & ~context.written_xmm
        telemetry.fp_handler_lanes_restored += restore.bit_count()
        restore_lanes(context.xmm, saved, restore)
        context.rip = resume
        if self.allocator.needs_gc():
            self._run_gc(self._gc_roots(context))
        if context.live:
            telemetry.short_circuit_traps += 1
        else:
            telemetry.signal_traps += 1

    # ------------------------------------ clobber-masked state save (§3.1)
    def _fp_entry_save(self, context, trap) -> tuple[int, list]:
        """Entry-stub XMM save: the lane mask (all 32 lanes, or under lazy
        save the trapped instruction's XMM operand lanes, which the
        handler's host-side emulation touches) and the saved bank.  A
        live context's bank is copied; a frame's is the thread's own,
        the frame's source, which nothing writes before sigreturn."""
        if self.config.lazy_state_save:
            instr = context.cpu.program.by_addr.get(trap.addr)
            mask = instr.xmm_operands() if instr is not None else ALL_LANES
            self.telemetry.fp_handler_lanes_saved += mask.bit_count()
        else:
            mask = ALL_LANES
            self.telemetry.fp_handler_lanes_saved += 32
        if context.live:
            return mask, list(map(list.copy, context.xmm))
        return mask, context.cpu.regs.xmm

    def _on_sigtrap(self, signum, context, trap) -> None:
        """Baseline int3 correctness trap: demote then single-step."""
        self.charge("corr", self.costs.corr_handler)
        correctness.demote_instruction_inputs(self, context, trap.addr)
        context.rip = trap.addr
        context.suppress_patch_at = trap.addr

    def _magic_demote(self, cpu, addr: int) -> None:
        """Magic-trap demotion handler (reached via the trampoline and
        magic page; the call overhead was charged by the CPU)."""
        self.ledger.charge("corr", self.costs.magic_call + self.costs.magic_save_restore,
                           cpu_time=False)  # CPU already paid the call
        self.charge("corr", self.costs.corr_handler)
        correctness.demote_instruction_inputs(self, cpu, addr)

    # ------------------------------------------------------------ GC
    def _gc_roots(self, context) -> list[int]:
        """Register roots as seen from a handler: the authoritative
        values live in the (possibly frame-mode) context, plus every
        other thread's live registers (§2.5's per-thread scan)."""
        roots = list(context.gpr)
        for lanes in context.xmm:
            roots.extend(lanes)
        if self.process is not None:
            for thread in self.process.threads:
                if thread is context.cpu:
                    continue
                roots.extend(thread.regs.gpr)
                for lanes in thread.regs.xmm:
                    roots.extend(lanes)
        return roots

    def _run_gc(self, roots: list[int] | None) -> int:
        collected, pages = self.allocator.collect(self.cpu, reg_roots=roots)
        cost = pages * self.costs.gc_per_page
        cost += (collected + self.allocator.live_count) * self.costs.gc_per_object
        self.charge("gc", cost)
        self.telemetry.gc_runs += 1
        self.telemetry.gc_objects_collected += collected
        return collected

    def alloc_box(self, value, context=None) -> int:
        """Allocate a box, falling back to one emergency collection if
        the heap is at capacity.  ``context`` supplies the authoritative
        register roots when called from inside a trap handler; from
        wrapper (host-call) code the live CPU registers are correct."""
        try:
            return self.allocator.alloc(value)
        except BoxHeapExhaustedError:
            return self.alloc_box_after_gc(value, context)

    def alloc_box_after_gc(self, value, context=None) -> int:
        """:meth:`alloc_box` once the heap was found full: one emergency
        collection, then one more allocation."""
        roots = None
        if isinstance(context, SignalContext):
            roots = self._gc_roots(context)
        self.telemetry.emergency_gc_runs += 1
        self._run_gc(roots)
        # Still-full heap raises the typed error to the caller: the
        # live set genuinely exceeds the configured capacity.
        return self.allocator.alloc(value)

    # ------------------------------------------------------- accounting
    def charge(self, category: str, cycles: int) -> None:
        self.ledger.charge(category, cycles)

    # ------------------------------------------------------------ stats
    @property
    def trace_stats(self):
        return self.sequencer.stats
