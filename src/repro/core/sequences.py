"""Instruction sequence emulation (§4) and trace statistics (§6.3).

On each #XF trap, FPVM emulates the faulting instruction and then — if
sequence emulation is enabled — keeps decoding/binding/emulating
successive instructions until:

(1) it meets an instruction it cannot decode/bind/emulate (including
    any control flow, any patched instruction, and the deliberately
    unsupported partial moves like ``movhpd``), or
(2) it meets an FP instruction it *could* emulate whose source
    operands carry no NaN-boxed value — emulating it would be
    unwarranted software execution (§4.1), so FPVM returns to the
    program and lets it run (and possibly immediately fault) natively.

The decode cache doubles as the software trace cache: the terminator
is inserted into the cache too, so re-encounters hit on every
instruction (§4.2).

Every distinct trace (sequence of instruction addresses) is recorded
with its hit count and terminator, powering Figures 7-10.  Hot traces
are also compiled (:class:`CompiledTrace`), and the
:class:`SequenceEmulator` alone keeps and invalidates them.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from repro.core.emulator import ENTER, RUN
from repro.errors import UnemulatableTrapError
from repro.machine.uops import MicroOp

#: A trace (emulated address sequence) seen this many times is compiled.
TRACE_COMPILE_THRESHOLD = 8


@dataclass
class TraceRecord:
    addrs: tuple[int, ...]
    count: int = 0
    terminator: str = ""          # mnemonic of the terminating instruction
    reason: str = ""              # "unsupported" | "no_boxed_source" | "single"

    @property
    def length(self) -> int:
        return len(self.addrs)

    @property
    def emulated_instructions(self) -> int:
        return self.count * self.length


class TraceStatistics:
    """The detailed trace profile of §4.2/§6.3."""

    def __init__(self) -> None:
        self.traces: dict[tuple[int, ...], TraceRecord] = {}

    def record(self, addrs: tuple[int, ...], terminator: str, reason: str) -> None:
        rec = self.traces.get(addrs)
        if rec is None:
            rec = TraceRecord(addrs=addrs, terminator=terminator, reason=reason)
            self.traces[addrs] = rec
        rec.count += 1

    # ------------------------------------------------------- aggregates
    def total_sequences(self) -> int:
        return sum(r.count for r in self.traces.values())

    def total_emulated(self) -> int:
        return sum(r.emulated_instructions for r in self.traces.values())

    def by_popularity(self) -> list[TraceRecord]:
        """Traces ranked by emulated-instruction contribution."""
        return sorted(
            self.traces.values(),
            key=lambda r: (-r.emulated_instructions, r.addrs),
        )

    def rank_popularity_cdf(self) -> list[float]:
        """Figure 8: cumulative % of emulated instructions covered by
        the top-k traces, for k = 1..N."""
        total = self.total_emulated()
        if total == 0:
            return []
        out = []
        acc = 0
        for rec in self.by_popularity():
            acc += rec.emulated_instructions
            out.append(100.0 * acc / total)
        return out

    def length_cdf(self) -> list[tuple[int, float]]:
        """Figure 9: CDF over *encountered* sequences of their length."""
        counts = Counter()
        for rec in self.traces.values():
            counts[rec.length] += rec.count
        total = sum(counts.values())
        if total == 0:
            return []
        out = []
        acc = 0
        for length in sorted(counts):
            acc += counts[length]
            out.append((length, 100.0 * acc / total))
        return out

    def weighted_length_by_rank(self) -> list[float]:
        """Figure 10: if only the top-k traces were cached, what would
        the average emulated sequence length be?"""
        out = []
        n_seq = 0
        n_instr = 0
        for rec in self.by_popularity():
            n_seq += rec.count
            n_instr += rec.emulated_instructions
            out.append(n_instr / n_seq)
        return out

    def average_sequence_length(self) -> float:
        seqs = self.total_sequences()
        return self.total_emulated() / seqs if seqs else 0.0

    def format_trace(self, rec: TraceRecord, program) -> str:
        """Figure 7-style dump: the instructions of a trace, with the
        terminator annotated."""
        lines = []
        for addr in rec.addrs:
            lines.append(f"  {program.by_addr[addr]}")
        term_addr = rec.addrs[-1] + program.by_addr[rec.addrs[-1]].size
        term = program.by_addr.get(term_addr)
        if term is not None:
            lines.append(f"* {term}    ; terminator ({rec.reason})")
        return "\n".join(lines)


class CompiledTrace:
    """A hot trace promoted into the compiled tier (§4.2's trace cache
    made literal), with its binding for the VM that compiled it.

    A trap at ``entry`` runs the trace first in its loop, without
    fetches, patch lookups, supported checks or loop control; the
    data-dependent probes of rule (2) still run, inside the steps.
    After a full run the walk goes on from ``end``, the recorded terminator.

    :meth:`SequenceEmulator._fuse` sets the binding from the VM's
    decode-cache entries: ``uops``, the entries it was fused with (None
    until fused); ``steps``, their bound steps, and ``runs``, the
    steps' functions; ``sums``, per ledger category the prefix sums of
    the steps' constant charges; and ``marks``, the prefix ORs of the
    steps' lazy-FP lane masks (``_Step.writes``).  ``stamp`` is the decode cache's
    :attr:`~repro.core.decode_cache.DecodeCache.stamp` when the binding
    was last found current; while it matches, no entry changed.
    """

    __slots__ = ("entry", "addrs", "end", "uops", "steps", "runs", "sums", "marks", "stamp")

    def __init__(self, addrs: tuple[int, ...], end: int) -> None:
        self.entry = addrs[0]
        #: the emulated addresses, in trace order.
        self.addrs = addrs
        #: address of the recorded terminator (first non-emulated instr).
        self.end = end
        self.uops = self.steps = self.runs = self.sums = self.marks = self.stamp = None


class SequenceEmulator:
    """Drives the emulate-until-termination loop for one trap.

    Hot traces — the same emulated address sequence seen
    :data:`TRACE_COMPILE_THRESHOLD` times on the chained tier — are
    promoted into :class:`CompiledTrace`\\ s keyed by entry address in
    ``compiled``, which this emulator alone owns.  One cursor over
    ``Program.patch_events``, advanced at each trap, drops exactly the
    traces covering a changed patch site (a patch appearing mid-trace
    must terminate emulation, and a stale compiled trace would silently
    run through it — so any trace with the site at its entry or inside
    its step list goes; unrelated traces stay warm) and prunes their
    ``_heat`` with them.  :meth:`reset` (run by ``FPVM.attach``) starts
    it cold.

    One loop, :meth:`_emulate`, runs every trap and settles it once.
    A trace runs first in it, fused from the VM's own decode-cache
    entries; without all of them resident and sound the trap walks,
    which charges what a step-wise replay of the trace would.  The
    entries are checked again only after the cache changed (its
    ``stamp`` moved).
    """

    def __init__(self, vm) -> None:
        self.vm = vm
        self.stats = TraceStatistics()
        #: entry address -> :class:`CompiledTrace`.
        self.compiled: dict[int, CompiledTrace] = {}
        self._heat: Counter = Counter()
        self._epoch: int | None = None

    def reset(self) -> None:
        """Forget every compiled trace, its heat and the patch cursor."""
        self.compiled.clear()
        self._heat.clear()
        self._epoch = None

    def handle_fp_trap(self, context, trap) -> int:
        """Emulate starting at the faulting instruction; returns the
        address execution should resume at."""
        vm = self.vm
        addr = trap.addr
        compiled = self.compiled
        seq = vm.program.patch_seq
        if seq != self._epoch:
            # None on first observation: nothing was compiled under an
            # unseen patch state, so the cursor just adopts ``seq``.
            sites = vm.program.sites_since(self._epoch)
            if sites:
                for entry in [e for e, t in compiled.items()
                              if e in sites or any(a in sites for a in t.addrs[1:])]:
                    del compiled[entry]
                    vm.telemetry.dropped_traces += 1
                for key in [k for k in self._heat if any(a in sites for a in k)]:
                    del self._heat[key]
            self._epoch = seq
        trace = compiled.get(addr)
        cache = vm.decode_cache
        if trace is not None and trace.stamp != cache.stamp:
            if cache.resident(trace.addrs) == trace.uops or self._fuse(trace):
                trace.stamp = cache.stamp
            else:
                trace = None
        return self._emulate(context, addr, trace)

    def _emulate(self, context, addr: int, trace: CompiledTrace | None = None) -> int:
        """The emulate-until-termination loop.  A fused ``trace``
        (entered at ``addr``) runs first: its steps, with no fetch and
        no rule-(1) check, rule (2) running inside them; an early stop
        ends the sequence.  The walk then goes on from the recorded
        terminator (or starts at the trap), fetching each instruction
        and checking both rules.

        Every exit (a stop, a raising fetch or step) settles what
        fetching and emulating one at a time (:meth:`_fetch`,
        :meth:`Emulator.emulate`) would: the trace's hits, charges and
        lanes from its prefix sums after one LRU touch, the walk's inline
        hits together, value flow and lane marks once, and a raising
        step's constant charges unless its probe read raised.  A walk
        after a trace charges a second fetch of the terminator once its
        step is charged: the known over-count (docs/architecture.md)."""
        vm = self.vm
        by_addr, patches = vm.program.by_addr, vm.program.patches
        emulator = vm.emulator
        steps, supported = emulator.steps, emulator.supported_set
        entries = vm.decode_cache.entries
        single = not vm.config.sequence_emulation
        terminator, reason = "", "single"
        hits = marks = k = 0  # k: trace steps done
        prefix = ()  # the addresses the trace emulated; the walk's follow
        emulated = []
        walk = trace is None  # else once the trace has run in full
        mode = RUN  # rule (2) applies past the trap's first instruction
        step = None  # the walk's step running; once raised, one that ran past its probe
        try:
            if trace is not None:
                for run in trace.runs:
                    if not run(context, mode):
                        break
                    k += 1
                    mode = ENTER
                prefix = trace.addrs[:k]
                if k < len(trace.addrs):  # data-dependent early stop
                    terminator, reason = trace.uops[k].mnemonic, "no_boxed_source"
                    addr = trace.addrs[k]
                else:  # the walk goes on from the recorded terminator,
                    # its fetches after the trace's (LRU order, evictions)
                    vm.decode_cache.touch(prefix)
                    addr, walk = trace.end, True
            while walk:
                if addr not in by_addr:
                    # Ran off the end of text: nothing to fetch here, and
                    # the CPU faults on it when execution resumes.
                    reason = "no_instruction"
                    break
                instr = entries.get(addr)
                if instr is not None and instr.addr == addr:
                    entries.move_to_end(addr)
                    hits += 1
                else:  # a miss, or a corrupt entry for the lookup to refuse
                    instr = self._fetch(addr)
                # Rule (1).  A patched instruction carries a correctness
                # hook that emulation would skip: hand it back to the CPU.
                if instr.mnemonic in supported and not (mode and addr in patches):
                    step = steps.get(instr) or emulator.step(instr)
                if step is None:
                    if not mode:
                        raise UnemulatableTrapError(
                            f"faulting instruction {instr} at {addr:#x} is not emulatable")
                    terminator, reason = instr.mnemonic, "unsupported"
                    break
                # With ENTER, one run applies rule (2) and emulates.
                if not step.run(context, mode):
                    terminator, reason = instr.mnemonic, "no_boxed_source"
                    step = None
                    break
                step.charge()
                marks |= step.writes
                step = None
                emulated.append(addr)
                mode = ENTER
                addr += instr.size
                if single:
                    nxt = by_addr.get(addr)
                    terminator = nxt.mnemonic if nxt is not None else ""
                    break
        except BaseException:
            if not walk:  # the trace's step k raised
                step = trace.steps[k]
            if step is not None:
                if emulator.probe_raised:
                    emulator.probe_raised = False
                    step = None
                else:
                    step.charge()
            raise
        finally:
            emulator.settle()
            telemetry = vm.telemetry
            if trace is not None:
                # A hit per fetched trace step (every step up to k), in
                # trace order; the charges and lanes of the k done.
                fetched = trace.addrs[:k + 1]
                if not walk:  # the trace phase ended the sequence
                    vm.decode_cache.touch(fetched)
                elif emulated or step is not None:
                    hits += 1  # ROADMAP 1(c): the terminator's second fetch, kept
                hits += len(fetched)
                marks |= trace.marks[k]
                for category, sums in trace.sums:
                    vm.ledger.charge(category, sums[k])
                telemetry.compiled_trace_hits += 1
            if marks:
                context.mark(marks)
            if hits:
                vm.ledger.charge("decache", vm.costs.decode_cache_hit * hits)
                telemetry.decode_hits += hits
            telemetry.emulated_instructions += k + len(emulated)

        self._finish(prefix + tuple(emulated), terminator, reason)
        return addr

    # ------------------------------------------------- compiled tier
    def _fuse(self, trace: CompiledTrace) -> bool:
        """Bind ``trace`` from the decode-cache entries; False, leaving
        it as it was, if one is absent, corrupt or unsupported."""
        emulator = self.vm.emulator
        uops = self.vm.decode_cache.resident(trace.addrs)
        for uop, addr in zip(uops, trace.addrs):
            if uop is None or uop.addr != addr or not emulator.supported(uop):
                return False
        steps = trace.steps = tuple(emulator.step(uop) for uop in uops)
        trace.uops, trace.runs = uops, tuple(step.run for step in steps)
        columns: dict[str, list[int]] = {}
        for i, step in enumerate(steps, 1):
            for category, cycles in step.charge.charges:
                columns.setdefault(category, [0] * (len(steps) + 1))[i] += cycles
        trace.sums = tuple((c, array("q", accumulate(col))) for c, col in columns.items())
        trace.marks = array("Q", accumulate((step.writes for step in steps), or_, initial=0))
        return True

    def _finish(self, addrs: tuple[int, ...], terminator: str, reason: str) -> None:
        """Shared sequence epilogue: telemetry, statistics, and the
        heat-based promotion into the compiled tier."""
        vm = self.vm
        vm.telemetry.sequences += 1
        self.stats.record(addrs, terminator, reason)
        if len(addrs) >= 2 and vm.cpu.uops_enabled and addrs[0] not in self.compiled:
            heat = self._heat
            heat[addrs] += 1
            if heat[addrs] >= TRACE_COMPILE_THRESHOLD:
                self._compile(addrs)

    def _compile(self, addrs: tuple[int, ...]) -> None:
        vm = self.vm
        last = vm.program.by_addr[addrs[-1]]
        self.compiled[addrs[0]] = CompiledTrace(addrs, last.addr + last.size)
        vm.telemetry.compiled_traces += 1
        del self._heat[addrs]

    def _fetch(self, addr: int) -> MicroOp:
        """Decode-cache lookup with cost charging; misses also insert
        the sequence-terminating instruction (trace-cache behaviour)."""
        vm = self.vm
        cached = vm.decode_cache.lookup(addr)
        if cached is not None:
            vm.ledger.charge("decache", vm.costs.decode_cache_hit)
            vm.telemetry.decode_hits += 1
            return cached
        vm.ledger.charge("decache", vm.costs.decode_cache_hit)  # the failed probe
        vm.ledger.charge("decode", vm.costs.decode_miss)
        vm.telemetry.decode_misses += 1
        raw = vm.program.raw_bytes_at(addr)
        return vm.decode_cache.decode_miss(addr, raw)
