"""POSIX signal machinery: signal numbers and the ucontext.

A :class:`SignalContext` is the handler-visible ``ucontext_t``: it
exposes the faulted thread's register state for inspection and
mutation as plain lists, ``gpr`` (16 ints) and ``xmm`` (16
``[lane0, lane1]`` pairs).  Two construction modes mirror the two
delivery paths:

- **frame mode** (general signals): the kernel copies the register
  state into a signal frame once and the lists are the frame's;
  handler mutations reach the thread at ``sigreturn``, which hands the
  frame's lists to the register file — faithfully modelling that a
  handler writes to the *saved* context, not live registers.  Until
  then nothing writes the live bank, so it doubles as the handler's
  entry save.
- **live mode** (trap short-circuiting): the entry stub saves "a
  sufficient amount of state in the format of a ucontext" (§3.1); we
  model this as the live register file's own lists, written in place,
  with FPVM's entry stub saving the lanes its exit stub restores, and
  the exit stub loading RIP and MXCSR.

Either way a handler reports the XMM lanes it wrote as results with
one :meth:`SignalContext.mark` per batch of writes: that sets the
thread's lazy-FP dirty marks and ``written_xmm``, which
the exit restore must not undo.  :meth:`SignalContext.apply` retires
the context: its register views are cleared, so no alias of the
thread's registers outlives the handler.
"""

from __future__ import annotations

from repro.machine.registers import U64

SIGFPE = 8
SIGTRAP = 5


class SignalContext:
    """The ucontext handed to FPVM's handlers: ``gpr``, ``xmm`` and
    ``flags`` (the thread's own, or the frame's copies), ``rip`` and
    ``mxcsr`` (values :meth:`apply` loads in either mode) and the CPU's
    ``memory``, all read and written directly.  An XMM write made as a
    handler *result* must be reported with :meth:`mark` (or made
    through :meth:`write_xmm`)."""

    #: set by a SIGTRAP handler that wants the patched instruction
    #: executed once without re-triggering its pre-hook (the
    #: "single-step over it after demoting" path of §2.6).
    suppress_patch_at: int | None = None
    #: lane mask of XMM writes made through this context — the
    #: handler's *results*, which the clobber-masked exit restore must
    #: not undo.
    written_xmm = 0

    def __init__(self, cpu, live: bool):
        self.cpu = cpu
        self.live = live
        self.memory = cpu.mem
        regs = cpu.regs
        self.rip = regs.rip
        self.mxcsr = regs.mxcsr
        if live:
            self.gpr, self.xmm, self.flags = regs.gpr, regs.xmm, regs.flags
        else:
            # The signal frame: the one copy of the register file a
            # delivery makes.
            self.gpr = regs.gpr[:]
            self.xmm = list(map(list.copy, regs.xmm))
            self.flags = regs.flags.copy()

    # ------------------------------------------------------------ registers
    def mark(self, mask: int) -> None:
        """Record XMM lanes ``mask`` (bit ``2*xid + lane``) as handler
        results and mark them lazy-FP dirty on the thread, in frame mode
        too (dirt is thread metadata, not frame state): emulated results
        bypass the CPU's FP exec paths, so this is their one funnel."""
        cpu = self.cpu
        cpu.fp_quantum_touched = True
        cpu.regs.fp_dirty |= mask
        self.written_xmm |= mask

    def write_xmm(self, xid: int, value: int, lane: int = 0) -> None:
        self.xmm[xid][lane] = value & U64
        self.mark(1 << (2 * xid + lane))

    # ------------------------------------------------------------ return
    def apply(self) -> None:
        """sigreturn / exit-stub restore: load RIP and MXCSR, in frame
        mode hand the frame's lists and flags to the register file (no
        second copy), then retire the context by clearing its register
        views, so it no longer reaches the thread's registers."""
        regs = self.cpu.regs
        regs.rip = self.rip
        regs.mxcsr = self.mxcsr
        if not self.live:
            regs.gpr, regs.xmm, regs.flags = self.gpr, self.xmm, self.flags
        self.gpr = self.xmm = self.flags = None
        if self.suppress_patch_at is not None:
            self.cpu.resume_at(self.rip, suppress_patch=True)
