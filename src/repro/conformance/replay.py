"""Differential trace replay: the oracle that keeps the engine honest.

The superblock engine (machine/uops.py) batches retire accounting and
caches bound blocks across control tails — optimizations of exactly the
kind that corrupt state silently: a mis-dispatched block, deferred
accounting settled at the wrong point, or a skipped invalidation
produces a run that *finishes* with plausible-looking output.  This
module pins any ``chained`` execution back to the seed interpreter
step by step:

- :class:`TraceRecorder` runs a program under the seed single-step
  interpreter (``uops=False``) and journals every architectural-state
  delta per retired step — register writes, XMM lanes, flags, MXCSR,
  every memory store (hooked at ``Memory.write_bytes``, the funnel all
  interpreter stores pass through), stdout growth, the cycle and trap
  counters, and the halt bit.
- :class:`Replayer` runs the *chained* uop engine against the journal.
  Step parity (each body micro-op, control tail, and fallback counts
  exactly one ``cpu.step()`` equivalent) means the chained CPU's state
  after ``run_quantum(n)`` must equal the journal's state after ``n``
  seed steps — for every ``n``.  The replayer verifies the final state
  and, on mismatch, binary-searches the first divergent step with a
  fresh chained CPU per probe (fresh, so blocks form naturally
  instead of being suppressed by single-stepping).
- :class:`Divergence` carries the full register/memory/trap context of
  the first divergent step, rendered by :meth:`Divergence.describe`.

:func:`differential_replay` is the pytest-facing entry point: it takes
a zero-arg Program factory (each CPU needs its own image — patches and
data are mutable) and returns a :class:`ReplayReport`.  A corrupted
bound closure — e.g. a planted ``mulsd`` fault in the conformance
tests — is localized to the exact step the chained engine first
retires it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU

#: replay journals hold every per-step delta in memory; test programs
#: must finish well under this.
DEFAULT_REPLAY_STEPS = 500_000

_COUNTER_FIELDS = ("cycles", "instruction_count", "fp_trap_count",
                   "bp_trap_count")


@dataclass(frozen=True)
class StepRecord:
    """The architectural-state delta of one seed interpreter step.

    Register/flag/MXCSR entries are present only when the step changed
    them; counters and ``output_len`` are absolute post-step values
    (cheap to compare without folding)."""

    index: int
    rip: int
    gpr: tuple            # ((reg_id, value), ...)
    xmm: tuple            # ((xmm_id, lane, value), ...)
    flags: int | None     # packed, post-step, if changed
    mxcsr: int | None     # post-step, if changed
    stores: tuple         # ((addr, before_bytes, after_bytes), ...)
    counters: tuple       # absolute (cycles, instrs, fp_traps, bp_traps)
    output_len: int
    halted: bool


class Journal:
    """A recorded seed run: initial register state plus one
    :class:`StepRecord` per step, with a folding cursor that
    reconstructs the full expected state after any step count."""

    def __init__(self, initial: dict, records: list[StepRecord],
                 outputs: list[str]) -> None:
        self.initial = initial
        self.records = records
        self.outputs = outputs

    @property
    def total(self) -> int:
        return len(self.records)

    def state_at(self, n: int) -> dict:
        """The seed interpreter's full expected state after ``n`` steps:
        registers, flags, MXCSR, counters, output length, halt bit, and
        the value of every memory byte any store up to step ``n``
        touched."""
        init = self.initial
        gpr = list(init["gpr"])
        xmm = [list(lanes) for lanes in init["xmm"]]
        state = {
            "rip": init["rip"],
            "flags": init["flags"],
            "mxcsr": init["mxcsr"],
            "counters": (0, 0, 0, 0),
            "output_len": 0,
            "halted": False,
        }
        mem: dict[int, int] = {}
        for rec in self.records[:n]:
            for rid, value in rec.gpr:
                gpr[rid] = value
            for xid, lane, value in rec.xmm:
                xmm[xid][lane] = value
            if rec.flags is not None:
                state["flags"] = rec.flags
            if rec.mxcsr is not None:
                state["mxcsr"] = rec.mxcsr
            for addr, _before, after in rec.stores:
                for i, byte in enumerate(after):
                    mem[addr + i] = byte
            state["rip"] = rec.rip
            state["counters"] = rec.counters
            state["output_len"] = rec.output_len
            state["halted"] = rec.halted
        state["gpr"] = gpr
        state["xmm"] = xmm
        state["mem"] = mem
        return state


class TraceRecorder:
    """Runs the seed interpreter step by step, journaling every
    architectural-state delta."""

    def __init__(self, cpu: CPU) -> None:
        if cpu.uops_enabled:
            raise ValueError("the recorder is the seed oracle: build its "
                             "CPU with uops=False")
        self.cpu = cpu

    def record(self, max_steps: int = DEFAULT_REPLAY_STEPS) -> Journal:
        cpu = self.cpu
        regs = cpu.regs
        mem = cpu.mem
        initial = {
            "gpr": list(regs.gpr),
            "xmm": [list(lanes) for lanes in regs.xmm],
            "rip": regs.rip,
            "flags": regs.flags.pack(),
            "mxcsr": regs.mxcsr,
        }
        records: list[StepRecord] = []
        step_stores: list[tuple] = []

        orig_write = mem.write_bytes

        def hooked_write(addr, data):
            before = mem.read_bytes(addr, len(data))
            orig_write(addr, data)
            step_stores.append((addr, before, bytes(data)))

        mem.write_bytes = hooked_write
        try:
            prev_gpr = list(regs.gpr)
            prev_xmm = [list(lanes) for lanes in regs.xmm]
            prev_flags = initial["flags"]
            prev_mxcsr = initial["mxcsr"]
            while not cpu.halted and len(records) < max_steps:
                step_stores.clear()
                cpu.step()
                gpr_delta = tuple(
                    (i, v) for i, v in enumerate(regs.gpr)
                    if v != prev_gpr[i]
                )
                xmm_delta = tuple(
                    (xid, lane, lanes[lane])
                    for xid, lanes in enumerate(regs.xmm)
                    for lane in (0, 1)
                    if lanes[lane] != prev_xmm[xid][lane]
                )
                flags = regs.flags.pack()
                mxcsr = regs.mxcsr
                records.append(StepRecord(
                    index=len(records),
                    rip=regs.rip,
                    gpr=gpr_delta,
                    xmm=xmm_delta,
                    flags=flags if flags != prev_flags else None,
                    mxcsr=mxcsr if mxcsr != prev_mxcsr else None,
                    stores=tuple(step_stores),
                    counters=(cpu.cycles, cpu.instruction_count,
                              cpu.fp_trap_count, cpu.bp_trap_count),
                    output_len=len(cpu.output),
                    halted=cpu.halted,
                ))
                for i, _ in gpr_delta:
                    prev_gpr[i] = regs.gpr[i]
                for xid, lane, v in xmm_delta:
                    prev_xmm[xid][lane] = v
                prev_flags = flags
                prev_mxcsr = mxcsr
        finally:
            del mem.write_bytes  # restore the class method
        if not cpu.halted:
            raise RuntimeError(
                f"recorder exhausted {max_steps} steps before halt — "
                "raise max_steps or shrink the program")
        return Journal(initial, records, list(cpu.output))


@dataclass
class Divergence:
    """The first step at which the chained engine left the journal."""

    step: int                     # 1-based: state after this many steps
    diffs: list = field(default_factory=list)   # (field, expected, actual)
    record: StepRecord | None = None            # the seed step's delta
    error: str | None = None                    # probe exception, if any

    def describe(self) -> str:
        lines = [f"first divergent step: {self.step}"]
        if self.record is not None:
            rec = self.record
            lines.append(
                f"  seed step {rec.index}: rip -> {rec.rip:#x}, "
                f"counters {rec.counters}, "
                f"{len(rec.stores)} store(s), halted={rec.halted}")
            for rid, value in rec.gpr:
                lines.append(f"    seed wrote gpr[{rid}] = {value:#x}")
            for xid, lane, value in rec.xmm:
                lines.append(f"    seed wrote xmm{xid}[{lane}] = {value:#x}")
            for addr, before, after in rec.stores:
                lines.append(
                    f"    seed stored [{addr:#x}] {before.hex()} -> "
                    f"{after.hex()}")
        if self.error is not None:
            lines.append(f"  chained probe raised: {self.error}")
        for name, expected, actual in self.diffs:
            lines.append(f"  {name}: expected {expected!r}, got {actual!r}")
        return "\n".join(lines)


@dataclass
class ReplayReport:
    """Outcome of one differential replay."""

    ok: bool
    steps: int                    # journal length (seed step count)
    probes: int = 0               # chained CPUs spawned
    divergence: Divergence | None = None

    def describe(self) -> str:
        if self.ok:
            return (f"replay ok: {self.steps} steps bit-identical "
                    f"({self.probes} probe(s))")
        return self.divergence.describe()


class Replayer:
    """Checks a chained execution against a :class:`Journal`.

    ``cpu_factory`` must return a *fresh* chained CPU per call (its own
    Program image, kernel attached, ``uops=True``) — each probe replays
    from the start so blocks and traces form exactly as they would in
    production, rather than being suppressed by stepping."""

    def __init__(self, journal: Journal, cpu_factory) -> None:
        self.journal = journal
        self.cpu_factory = cpu_factory
        self.probes = 0

    # ------------------------------------------------------------ probes
    def _probe(self, n: int) -> tuple[list, str | None]:
        """Run a fresh chained CPU for ``n`` budget steps and diff its
        state against the journal's state after the same count.  Returns
        (diffs, error)."""
        self.probes += 1
        cpu = self.cpu_factory()
        try:
            taken = cpu.run_quantum(n)
        except Exception as exc:  # engine bug: still localizable
            return [("execution", "clean run", type(exc).__name__)], repr(exc)
        expected_taken = min(n, self.journal.total)
        if taken != expected_taken:
            return [("steps_taken", expected_taken, taken)], None
        return self._diff(cpu, self.journal.state_at(taken)), None

    def _diff(self, cpu, state: dict) -> list:
        regs = cpu.regs
        diffs = []
        if regs.rip != state["rip"]:
            diffs.append(("rip", hex(state["rip"]), hex(regs.rip)))
        for rid, expected in enumerate(state["gpr"]):
            if regs.gpr[rid] != expected:
                diffs.append((f"gpr[{rid}]", hex(expected),
                              hex(regs.gpr[rid])))
        for xid, lanes in enumerate(state["xmm"]):
            for lane in (0, 1):
                if regs.xmm[xid][lane] != lanes[lane]:
                    diffs.append((f"xmm{xid}[{lane}]", hex(lanes[lane]),
                                  hex(regs.xmm[xid][lane])))
        if regs.flags.pack() != state["flags"]:
            diffs.append(("flags", state["flags"], regs.flags.pack()))
        if regs.mxcsr != state["mxcsr"]:
            diffs.append(("mxcsr", hex(state["mxcsr"]), hex(regs.mxcsr)))
        actual_counters = (cpu.cycles, cpu.instruction_count,
                           cpu.fp_trap_count, cpu.bp_trap_count)
        for name, expected, actual in zip(_COUNTER_FIELDS,
                                          state["counters"],
                                          actual_counters):
            if expected != actual:
                diffs.append((name, expected, actual))
        expected_out = self.journal.outputs[:state["output_len"]]
        if list(cpu.output) != expected_out:
            diffs.append(("output", tuple(expected_out),
                          tuple(cpu.output)))
        if cpu.halted != state["halted"]:
            diffs.append(("halted", state["halted"], cpu.halted))
        mem = cpu.mem
        for addr, byte in state["mem"].items():
            actual = mem.read_bytes(addr, 1)[0]
            if actual != byte:
                diffs.append((f"mem[{addr:#x}]", byte, actual))
        return diffs

    # -------------------------------------------------------------- run
    def run(self) -> ReplayReport:
        """Full-run check, then binary-search localization on mismatch.

        A probe at ``n`` asks: does an ``n``-budget chained dispatch
        leave the machine bit-identical to ``n`` seed steps?  The
        search returns an adjacent pair — budget ``step - 1`` verified
        identical, budget ``step`` divergent — so the reported step is
        the exact boundary where the chained engine first disagrees
        with the seed.  (Which execution tier retires an instruction
        depends on the budget — a body only runs as a superblock when
        it fits — so for a corruption that later *washes out* of the
        architectural state the pair is exact but not necessarily
        globally minimal; persistent corruptions, the failure mode of
        real engine bugs, are monotone and the boundary is global.)
        """
        journal = self.journal
        total = journal.total
        diffs, error = self._probe(total)
        if not diffs:
            return ReplayReport(ok=True, steps=total, probes=self.probes)
        lo, hi = 0, total               # lo: known-good, hi: known-bad
        hi_diffs, hi_error = diffs, error
        while hi - lo > 1:
            mid = (lo + hi) // 2
            mid_diffs, mid_error = self._probe(mid)
            if mid_diffs:
                hi, hi_diffs, hi_error = mid, mid_diffs, mid_error
            else:
                lo = mid
        divergence = Divergence(
            step=hi,
            diffs=hi_diffs,
            record=journal.records[hi - 1] if hi >= 1 else None,
            error=hi_error,
        )
        return ReplayReport(ok=False, steps=total, probes=self.probes,
                            divergence=divergence)


# -------------------------------------------------------------- harness
def _make_cpu(program, config: FPVMConfig | None, uops: bool) -> CPU:
    cpu = CPU(program, uops=uops)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    if config is not None:
        FPVM(config).attach(cpu, kernel)
    return cpu


def differential_replay(
    program_factory,
    config: FPVMConfig | None = None,
    max_steps: int = DEFAULT_REPLAY_STEPS,
) -> ReplayReport:
    """Record ``program_factory()`` under the seed interpreter, then
    replay the chained engine against the journal.  ``config`` attaches
    an FPVM (same config both sides)."""
    recorder = TraceRecorder(
        _make_cpu(program_factory(), config, uops=False))
    journal = recorder.record(max_steps=max_steps)

    def chained_factory():
        return _make_cpu(program_factory(), config, uops=True)

    return Replayer(journal, chained_factory).run()
