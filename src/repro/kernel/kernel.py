"""The kernel trap dispatcher.

Hardware traps enter here (cost ``hw``); the kernel either routes #XF
to the FPVM kernel module's short-circuit path (if the process is
registered, §3.1) or synthesizes a POSIX signal and delivers it through
the general-purpose mechanism (cost ``kernel``), returning to user code
via sigreturn (cost ``ret``).
"""

from __future__ import annotations

from collections import Counter

from repro.errors import TrapStormError
from repro.machine.costs import DEFAULT_COSTS, CostModel
from repro.machine.cpu import MachineError, Trap, TrapKind
from repro.kernel.signals import SIGFPE, SIGTRAP, SignalContext

#: consecutive same-address trap deliveries with zero retired
#: instructions in between before the kernel declares a livelock.  A
#: legitimate trap loop (an FP instruction inside a hot loop) always
#: retires at least the loop back-edge between two traps at the same
#: address, so any honest workload stays at 1.
TRAP_STORM_LIMIT = 16


class _NullLedger:
    """Cycle accounting sink used when FPVM has not attached one."""

    def charge(self, category: str, cycles: int, **kwargs) -> None:
        pass


class LinuxKernel:
    """One simulated kernel instance (one process's view of it)."""

    def __init__(self, costs: CostModel = DEFAULT_COSTS):
        self.costs = costs
        #: per-process handler registrations: signum -> handler(signum, context, trap).
        self.sigactions: dict = {}
        #: installed kernel module (None until FPVM loads it).
        self.fpvm_module = None
        self.ledger = _NullLedger()
        self.trap_counts: Counter = Counter()
        self.signal_counts: Counter = Counter()
        # Livelock detector state: (trap addr, instruction_count) of the
        # previous delivery and how many times it has repeated verbatim.
        self._storm_key: tuple[int, int] | None = None
        self._storm_count = 0

    # ----------------------------------------------------------- syscalls
    def sigaction(self, signum: int, handler) -> None:
        self.sigactions[signum] = handler

    # ----------------------------------------------------- trap dispatch
    def deliver_trap(self, cpu, trap: Trap) -> None:
        """Entry point invoked by the CPU on a hardware trap: count it,
        check for the livelock of a lost delivery (the same address
        faulting while the CPU retires nothing, as an unhandled faulting
        instruction re-executes) and charge the hardware dispatch."""
        kind = trap.kind
        self.trap_counts[kind] += 1
        key = (trap.addr, cpu.instruction_count)
        if key == self._storm_key:
            self._storm_count += 1
            if self._storm_count >= TRAP_STORM_LIMIT:
                raise TrapStormError(
                    f"trap storm: {kind.value} at {trap.addr:#x} "
                    f"delivered {self._storm_count} times with no retired "
                    "instructions (lost delivery?)"
                )
        else:
            self._storm_key = key
            self._storm_count = 1

        if kind is TrapKind.XF:
            # #XF dispatch pays a trap-class-dependent hardware cost
            # (denormal microcode assists etc. — the Wittmann note).
            cost = self.costs.xf_trap_cost(trap.fp_flags)
            cpu.cycles += cost
            self.ledger.charge("hw", cost, cpu_time=False)
            module = self.fpvm_module
            if module is not None and module.is_registered(cpu):
                # Trap short-circuiting: bypass signal infrastructure.
                module.short_circuit(self, cpu, trap)
            else:
                self._signal_path(cpu, SIGFPE, trap)
        elif kind is TrapKind.BP:
            self._charge(cpu, "hw", self.costs.hw_trap)
            self._signal_path(cpu, SIGTRAP, trap)
        else:  # pragma: no cover - only two trap kinds exist
            raise MachineError(f"unknown trap kind {kind}")

    def _signal_path(self, cpu, signum: int, trap: Trap) -> None:
        handler = self.sigactions.get(signum)
        if handler is None:
            name = "SIGFPE" if signum == SIGFPE else "SIGTRAP"
            raise MachineError(
                f"{name} at {trap.addr:#x} with no handler: process killed"
            )
        self.signal_counts[signum] += 1
        # General-purpose delivery: build the signal frame, run handler,
        # then sigreturn hands the (possibly mutated) frame back.
        costs, ledger = self.costs, self.ledger
        cpu.cycles += costs.kernel_internal + costs.signal_deliver
        ledger.charge("kernel", costs.kernel_internal + costs.signal_deliver, cpu_time=False)
        context = SignalContext(cpu, live=False)
        handler(signum, context, trap)
        cpu.cycles += costs.sigreturn
        ledger.charge("ret", costs.sigreturn, cpu_time=False)
        context.apply()

    # -------------------------------------------------------- accounting
    def _charge(self, cpu, category: str, cycles: int) -> None:
        # The kernel owns the CPU-time add; the ledger entry is
        # accounting-only to avoid double charging.
        cpu.cycles += cycles
        self.ledger.charge(category, cycles, cpu_time=False)
