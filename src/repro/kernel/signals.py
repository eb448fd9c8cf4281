"""POSIX signal machinery: signal numbers, sigaction, ucontext.

A :class:`SignalContext` is the handler-visible ``ucontext_t``: it
exposes the faulted thread's register state for inspection and
mutation.  Two construction modes mirror the two delivery paths:

- **frame mode** (general signals): the kernel snapshots the register
  state into a signal frame; handler mutations are applied back at
  ``sigreturn`` — faithfully modelling that a handler writes to the
  *saved* context, not live registers.
- **live mode** (trap short-circuiting): the entry stub saves "a
  sufficient amount of state in the format of a ucontext" (§3.1); we
  model this as a view over live registers plus an eager snapshot of
  what the exit stub restores.
"""

from __future__ import annotations

from repro.machine.registers import Flags

SIGFPE = 8
SIGTRAP = 5


class SignalContext:
    """The ucontext handed to FPVM's handlers."""

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
        if live:
            self._snap = None
        else:
            self._snap = cpu.regs.snapshot()

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

    def read_gpr(self, rid: int) -> int:
        return self.cpu.regs.gpr[rid] if self.live else self._snap["gpr"][rid]

    def write_gpr(self, rid: int, value: int) -> None:
        if self.live:
            self.cpu.regs.write_gpr(rid, value)
        else:
            self._snap["gpr"][rid] = value & 0xFFFF_FFFF_FFFF_FFFF

    def read_xmm(self, xid: int, lane: int = 0) -> int:
        return (
            self.cpu.regs.xmm[xid][lane] if self.live else self._snap["xmm"][xid][lane]
        )

    def write_xmm(self, xid: int, value: int, lane: int = 0) -> None:
        # Lazy-FP dirty marking: handler-emulated results (sequence
        # followers, altmath commits) never pass through the CPU's FP
        # exec paths, so the context write is their one funnel.  Frame
        # mode marks the snapshot — apply() pushes it into the live
        # register file with the rest of the mutations.
        self.cpu.fp_quantum_touched = True
        self.written_xmm |= 1 << (2 * xid + lane)
        if self.live:
            self.cpu.regs.write_xmm_lane(xid, lane, value)
            self.cpu.regs.fp_dirty |= 1 << (2 * xid + lane)
        else:
            self._snap["xmm"][xid][lane] = value & 0xFFFF_FFFF_FFFF_FFFF
            self._snap["fp_dirty"] |= 1 << (2 * xid + lane)

    @property
    def xmm_bank(self) -> list[list[int]]:
        """The 16 ``[lane0, lane1]`` XMM pairs, live or in the frame,
        for the handler's entry/exit stubs: writes here are neither
        dirt nor results."""
        return self.cpu.regs.xmm if self.live else self._snap["xmm"]

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

    # ------------------------------------------------------------- memory
    @property
    def memory(self):
        return self.cpu.mem

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
