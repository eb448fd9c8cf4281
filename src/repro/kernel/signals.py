"""POSIX signal machinery: signal numbers, sigaction, ucontext.

A :class:`SignalContext` is the handler-visible ``ucontext_t``: it
exposes the faulted thread's register state for inspection and
mutation as plain lists, ``gpr`` (16 ints) and ``xmm`` (16
``[lane0, lane1]`` pairs).  Two construction modes mirror the two
delivery paths:

- **frame mode** (general signals): the kernel snapshots the register
  state into a signal frame and the lists are the frame's; handler
  mutations are applied back at ``sigreturn`` — faithfully modelling
  that a handler writes to the *saved* context, not live registers.
- **live mode** (trap short-circuiting): the entry stub saves "a
  sufficient amount of state in the format of a ucontext" (§3.1); we
  model this as the live register file's own lists, written in place,
  with FPVM's entry stub saving the lanes its exit stub restores.

Either way a handler reports the XMM lanes it wrote as results with
one :meth:`SignalContext.mark` per batch of writes: that sets the
lazy-FP dirty marks (live or in the frame) and ``written_xmm``, which
the exit restore must not undo.
"""

from __future__ import annotations

from repro.machine.registers import U64, Flags

SIGFPE = 8
SIGTRAP = 5


class SignalContext:
    """The ucontext handed to FPVM's handlers.

    ``gpr`` and ``xmm`` are the register lists the context stands for
    (the live ``cpu.regs`` lists, or the frame snapshot's) and
    ``memory`` is the CPU's memory; handlers read and write them
    directly.  Nothing rebinds ``regs.gpr``/``regs.xmm`` while a
    handler runs: ``RegisterFile.restore`` runs at sigreturn, after
    it.  An XMM write made as a handler *result* must be reported with
    :meth:`mark` (or made through :meth:`write_xmm`)."""

    def __init__(self, cpu, live: bool):
        self.cpu = cpu
        self.live = live
        #: set by a SIGTRAP handler that wants the patched instruction
        #: executed once without re-triggering its pre-hook (the
        #: "single-step over it after demoting" path of §2.6).
        self.suppress_patch_at: int | None = None
        #: lane mask of XMM writes made through this context — the
        #: handler's *results*, which the clobber-masked exit restore
        #: must not undo.
        self.written_xmm = 0
        self.memory = cpu.mem
        if live:
            self._snap = None
            regs = cpu.regs
            self.gpr, self.xmm = regs.gpr, regs.xmm
        else:
            self._snap = snap = cpu.regs.snapshot()
            self.gpr, self.xmm = snap["gpr"], snap["xmm"]

    # ------------------------------------------------------------ registers
    @property
    def rip(self) -> int:
        return self.cpu.regs.rip if self.live else self._snap["rip"]

    @rip.setter
    def rip(self, value: int) -> None:
        if self.live:
            self.cpu.regs.rip = value
        else:
            self._snap["rip"] = value

    def mark(self, mask: int) -> None:
        """Record XMM lanes ``mask`` (bit ``2*xid + lane``) as handler
        results.  Lazy-FP dirty marking: handler-emulated results
        (sequence followers, altmath commits) never pass through the
        CPU's FP exec paths, so this is their one funnel.  Frame mode
        marks the snapshot — apply() pushes it into the live register
        file with the rest of the mutations."""
        self.cpu.fp_quantum_touched = True
        self.written_xmm |= mask
        if self.live:
            self.cpu.regs.fp_dirty |= mask
        else:
            self._snap["fp_dirty"] |= mask

    def write_xmm(self, xid: int, value: int, lane: int = 0) -> None:
        self.xmm[xid][lane] = value & U64
        self.mark(1 << (2 * xid + lane))

    @property
    def flags(self) -> Flags:
        return self.cpu.regs.flags if self.live else self._snap["flags"]

    @property
    def mxcsr(self) -> int:
        return self.cpu.regs.mxcsr if self.live else self._snap["mxcsr"]

    @mxcsr.setter
    def mxcsr(self, value: int) -> None:
        if self.live:
            self.cpu.regs.mxcsr = value
        else:
            self._snap["mxcsr"] = value

    # ------------------------------------------------------------ return
    def apply(self) -> None:
        """sigreturn / exit-stub restore: push handler mutations back
        into the live machine (register restore is a no-op in live mode)."""
        if not self.live:
            self.cpu.regs.restore(self._snap)
        if self.suppress_patch_at is not None:
            self.cpu.resume_at(self.rip, suppress_patch=True)


class SigactionTable:
    """Per-process handler registrations."""

    def __init__(self) -> None:
        self._handlers: dict[int, object] = {}

    def sigaction(self, signum: int, handler) -> None:
        """handler(signum, context) -> None"""
        self._handlers[signum] = handler

    def lookup(self, signum: int):
        return self._handlers.get(signum)
