"""The compiled-trace tier of the sequence emulator: promotion at the
heat threshold, bit-identical replay, the fused replay against the
step-wise reference (:func:`_run_stepwise`) on every exit, the
interpreted walk of a trace that cannot fuse, the residency stamp that
skips re-checking a fused trace's entries, promotion only on the
chained tier, eviction when the program's patch state changes, and the
cold start on every attach.

Most tests use the ``hot_traces`` fixture (``tests/conftest.py``), which
compiles a trace on its second sighting."""

import pytest

from repro.core.decode_cache import DecodeCache
from repro.core.sequences import TRACE_COMPILE_THRESHOLD, SequenceEmulator
from repro.core.telemetry import snapshot
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import BoxHeapExhaustedError, DecodeCacheCorruptionError, MemoryFault
from repro.harness.runner import run_fpvm as run_workload
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library
from repro.machine.memory import PAGE_SIZE, PROT_WRITE
from tests.core.reference_sequences import any_source_boxed, rule2_applies, stepwise_interpret


# A tight loop whose emulated trace is identical every iteration, so
# the heat counter reaches the threshold quickly.
LOOP_SRC = """
.data
a: .double 0.1
b: .double 0.7
n: .quad 40
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + a]
top:
  addsd xmm0, [rip + b]
  mulsd xmm0, [rip + a]
  subsd xmm0, [rip + b]
  dec rcx
  jne top
  call print_f64
  hlt
"""


def attach(source: str, vm: FPVM, uops: bool | None = None) -> CPU:
    """``vm`` attached to a fresh CPU of the ``uops`` tier running
    ``source``."""
    prog = assemble(source)
    install_host_library(prog)
    cpu = CPU(prog, uops=uops)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm.attach(cpu, kernel)
    return cpu


def run_fpvm(source: str, config: FPVMConfig, uops: bool | None = None):
    vm = FPVM(config)
    cpu = attach(source, vm, uops)
    cpu.run()
    return cpu, vm


def _summary(cpu, vm):
    t = vm.telemetry
    return (
        cpu.cycles, cpu.instruction_count, tuple(cpu.output),
        cpu.fp_trap_count, cpu.bp_trap_count,
        t.sequences, t.emulated_instructions, t.traps,
        t.decode_hits, t.decode_misses,
        vm.ledger.snapshot(),
    )


class TestPromotion:
    def test_hot_trace_promoted_and_replayed(self, hot_traces):
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short())
        t = vm.telemetry
        assert t.compiled_traces >= 1
        assert t.compiled_trace_hits > 0
        assert vm.sequencer.compiled
        trace = next(iter(vm.sequencer.compiled.values()))
        assert len(trace.addrs) >= 2
        assert trace.uops is not None  # fused on replay

    def test_trace_below_threshold_stays_interpreted(self):
        """A trace seen fewer than ``TRACE_COMPILE_THRESHOLD`` times is
        not compiled; one more sighting compiles it."""
        loop = LOOP_SRC.replace("n: .quad 40", "n: .quad {n}")
        below = TRACE_COMPILE_THRESHOLD - 1
        _, vm = run_fpvm(loop.format(n=below), FPVMConfig.seq_short())
        assert vm.telemetry.sequences >= below
        assert vm.telemetry.compiled_traces == 0
        assert vm.telemetry.compiled_trace_hits == 0
        assert not vm.sequencer.compiled
        _, vm = run_fpvm(loop.format(n=below + 2), FPVMConfig.seq_short())
        assert vm.telemetry.compiled_traces == 1
        assert vm.telemetry.compiled_trace_hits == 1

    def test_uops_off_disables_promotion(self, hot_traces):
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short(), uops=False)
        assert cpu.uops_enabled is False
        assert vm.telemetry.compiled_traces == 0


class TestReplayEquivalence:
    def test_compiled_tier_bit_identical(self, hot_traces):
        """Everything the simulation model observes — cycles, ledger,
        trap counts, decode-cache traffic, sequence records — must be
        unchanged by which tier ran the traces (the ``interp`` tier
        compiles none)."""
        base_cpu, base_vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short(), uops=False)
        fast_cpu, fast_vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short())
        assert fast_vm.telemetry.compiled_trace_hits > 0  # the tier ran
        assert _summary(base_cpu, base_vm) == _summary(fast_cpu, fast_vm)


class TestEviction:
    def test_patch_mid_trace_evicts_compiled_trace(self, hot_traces):
        """Regression: an int3 planted inside an already-compiled trace
        must fire on the next run.  A stale compiled trace would emulate
        straight through the patch site (replay skips patch lookups by
        design), so the emulator's patch cursor dropping it is the only
        thing standing between us and a silently skipped correctness
        hook."""
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short())
        compiled = vm.sequencer.compiled
        assert compiled
        trace = next(iter(compiled.values()))
        mid_addr = trace.addrs[1]  # strictly inside the trace body
        assert trace.uops is not None
        covering = [t for t in compiled.values()
                    if mid_addr == t.entry or mid_addr in t.addrs[1:]]
        assert vm.telemetry.dropped_traces == 0

        assert cpu.bp_trap_count == 0
        vm.program.patch_int3(mid_addr)

        cpu.halted = False
        cpu.resume_at(vm.program.entry)
        cpu.run()

        assert cpu.bp_trap_count > 0, (
            "int3 never fired: a stale compiled trace ran through the "
            "patch site"
        )
        # The sequencer's cursor saw the new epoch and dropped exactly
        # the traces covering the site.  The patched address may
        # legitimately re-appear as a trace *entry* (the CPU delivers
        # the int3 before the FP trap there) but never again strictly
        # inside a trace body.
        assert vm.telemetry.dropped_traces == len(covering)
        assert not any(t in compiled.values() for t in covering)
        assert vm.sequencer._epoch == vm.program.patch_seq
        assert mid_addr not in {a for t in compiled.values() for a in t.addrs[1:]}

    def test_patch_outside_traces_keeps_them(self, hot_traces):
        """A patch at an address no compiled trace covers drops none."""
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short())
        compiled = vm.sequencer.compiled
        before = dict(compiled)
        covered = {a for t in before.values() for a in t.addrs}
        site = next(i.addr for i in vm.program.instructions
                    if i.mnemonic == "dec")
        assert before and site not in covered
        vm.program.patch_int3(site)

        cpu.halted = False
        cpu.resume_at(vm.program.entry)
        cpu.run()

        assert cpu.bp_trap_count > 0
        assert vm.telemetry.dropped_traces == 0
        assert all(compiled.get(e) is t for e, t in before.items())


def _delta(after: dict, before: dict) -> dict:
    """``after - before`` for a snapshot or a ledger, histograms key by
    key (zero entries dropped, as a fresh Counter has none)."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = {k: v - before[key].get(k, 0) for k, v in value.items()
                        if v != before[key].get(k, 0)}
        else:
            out[key] = value - before[key]
    return out


#: LOOP_SRC with other constants, a shorter loop and a different
#: trace, behind enough integer work to put its FP code past the end of
#: LOOP_SRC's text.
SHIFTED_SRC = """
.data
a: .double 0.3
b: .double 1.1
n: .quad 25
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + a]
""" + "  mov rax, rcx\n" * 40 + """
top:
  mulsd xmm0, [rip + b]
  addsd xmm0, [rip + a]
  dec rcx
  jne top
  call print_f64
  hlt
"""


class TestAttach:
    def test_reattach_to_another_program_starts_cold(self, hot_traces, monkeypatch):
        """A VM re-attached to a fresh CPU running a different program
        accounts for it exactly like a fresh VM, and replays none of the
        first program's traces.  The second program's FP code lies past
        all of the first program's text, so the VM's other state (its
        decode cache) cannot make the two runs differ."""
        config = FPVMConfig.seq_short(gc_threshold=10**9)
        _, vm = run_fpvm(LOOP_SRC, config)
        first = list(vm.sequencer.compiled.values())
        first_text = {i.addr for i in assemble(LOOP_SRC).instructions}
        assert first
        ledger, telemetry = vm.ledger.snapshot(), snapshot(vm.telemetry)

        replayed = []
        replay = SequenceEmulator._replay

        def spy(self, trace, context):
            replayed.append(trace)
            return replay(self, trace, context)

        monkeypatch.setattr(SequenceEmulator, "_replay", spy)
        cpu = attach(SHIFTED_SRC, vm)
        assert not vm.sequencer.compiled
        cpu.run()
        fresh_cpu, fresh = run_fpvm(SHIFTED_SRC, config)

        assert replayed and not any(t is f for t in replayed for f in first)
        assert min(a for t in replayed for a in t.addrs) > max(first_text)
        assert (cpu.cycles, tuple(cpu.output)) == (fresh_cpu.cycles, tuple(fresh_cpu.output))
        assert _delta(vm.ledger.snapshot(), ledger) == fresh.ledger.snapshot()
        assert _delta(snapshot(vm.telemetry), telemetry) == snapshot(fresh.telemetry)


# Two loops whose compiled trace [addsd, mulsd, subsd] / [addsd, subsd]
# meets a memory slot that holds a box on odd iterations and a plain
# double on even ones: the first stops early at its mulsd probe on
# every other trap, the second's recorded terminator (the mulsd) stops
# it only every other trap.
_SLOT_DATA = """
.data
a: .double 0.1
b: .double 0.7
c: .double 0.3
n: .quad 40
slot: .double 0.5
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + a]
top:
"""
_SLOT_FLIP = """
  dec rcx
  test rcx, 1
  je even
  movsd [rip + slot], xmm0
  jmp next
even:
  movsd xmm5, [rip + c]
  movsd [rip + slot], xmm5
next:
  test rcx, rcx
  jne top
  call print_f64
  hlt
"""
EARLY_STOP_SRC = _SLOT_DATA + """
  movsd xmm1, [rip + c]
  addsd xmm0, [rip + b]
  mulsd xmm1, [rip + slot]
  subsd xmm0, [rip + a]
""" + _SLOT_FLIP
TERMINATOR_SRC = _SLOT_DATA + """
  movsd xmm2, [rip + c]
  addsd xmm0, [rip + b]
  subsd xmm0, [rip + a]
  mulsd xmm2, [rip + slot]
""" + _SLOT_FLIP
# Every iteration parks one box in ``buf``; with a small box heap the
# fused trace's allocation fails mid-replay.
HEAP_SRC = """
.data
a: .double 0.1
b: .double 0.7
n: .quad 40
buf: .space 512
.text
main:
  mov rcx, [rip + n]
  lea rbx, [rip + buf]
  movsd xmm0, [rip + a]
top:
  addsd xmm0, [rip + b]
  mulsd xmm0, [rip + a]
  subsd xmm0, [rip + b]
  movsd [rbx], xmm0
  add rbx, 8
  dec rcx
  jne top
  call print_f64
  hlt
"""
# As HEAP_SRC, but each step writes its own register, so the step whose
# allocation fails writes a lane no earlier step of its trap wrote.
HEAP_LANES_SRC = HEAP_SRC.replace("""
  addsd xmm0, [rip + b]
  mulsd xmm0, [rip + a]
  subsd xmm0, [rip + b]
  movsd [rbx], xmm0
""", """
  addsd xmm0, [rip + b]
  mulsd xmm1, xmm0
  subsd xmm2, xmm1
  movsd [rbx], xmm2
""")
assert HEAP_LANES_SRC != HEAP_SRC

# The compiled trace [ucomisd, movsd] allocates nothing; its recorded
# terminator, the mulsd, finds a box in ``slot`` on every other lap,
# runs on and parks its product in ``buf``.  With a small box heap the
# terminator's allocation fails once the parked boxes fill it.
TERMINATOR_HEAP_SRC = """
.data
a: .double 0.1
c: .double 0.5
two: .double 2.0
n: .quad 40
slot: .double 2.0
buf: .space 512
.text
main:
  mov rcx, [rip + n]
  lea rbx, [rip + buf]
  movsd xmm0, [rip + a]
  addsd xmm0, [rip + c]
top:
  ucomisd xmm0, [rip + a]
  movsd xmm2, [rip + c]
  mulsd xmm2, [rip + slot]
  movsd [rbx], xmm2
  add rbx, 8
  dec rcx
  test rcx, 1
  je even
  movsd xmm5, [rip + two]
  movsd [rip + slot], xmm5
  jmp next
even:
  movsd [rip + slot], xmm0
next:
  test rcx, rcx
  jne top
  call print_f64
  hlt
"""

# Each lap parks a box where the next lap's mulsd reads it; xmm1 is
# plain, so the mulsd's probe reads that memory.  The lap whose slot
# lies in the write-only page (``_unreadable_slot``) faults in the
# probe's read, before the step starts.
PROBE_FAULT_SRC = """
.data
a: .double 0.1
b: .double 0.7
n: .quad 60
buf: .space 8192
.text
main:
  mov rcx, [rip + n]
  lea rbx, [rip + buf]
  movsd xmm0, [rip + a]
top:
  addsd xmm0, [rip + b]
  movsd [rbx + 128], xmm0
  movsd xmm1, [rip + a]
  mulsd xmm1, [rbx]
  add rbx, 128
  dec rcx
  jne top
  call print_f64
  hlt
"""


def _unreadable_slot(cpu) -> None:
    """Make the first page boundary past ``buf + 256`` write-only."""
    page = (cpu.program.symbols["buf"] + 256 + PAGE_SIZE - 1) & -PAGE_SIZE
    cpu.mem.protect(page, PROT_WRITE)


_SMALL_HEAP = dict(box_capacity=6, gc_threshold=10**9)
#: case -> (source, extra config, the fused exit it must take, error).
EXIT_CASES = {
    "early_probe_stop": (EARLY_STOP_SRC, {}, "early", None),
    "terminator_runs_on": (TERMINATOR_SRC, {}, "past", None),
    "box_heap_exhausted": (HEAP_SRC, _SMALL_HEAP, "raise", BoxHeapExhaustedError),
    "box_heap_exhausted_own_lanes": (HEAP_LANES_SRC, _SMALL_HEAP, "raise",
                                     BoxHeapExhaustedError),
    "probe_read_faults": (PROBE_FAULT_SRC, {}, "raise", MemoryFault),
    "terminator_raises": (TERMINATOR_HEAP_SRC, _SMALL_HEAP, "terminator_raises",
                          BoxHeapExhaustedError),
}
#: case -> what to do to the CPU before it runs.
PREPARE = {"probe_read_faults": _unreadable_slot}


def _run_stepwise(self, trace, context) -> int:
    """The replay the fused one stands for (``SequenceEmulator._replay``
    under test): one decode-cache fetch and emulation at a time, rule
    (2) checked apart from the step, and after a full run the step-wise
    walk from the recorded terminator."""
    vm = self.vm
    vm.telemetry.compiled_trace_hits += 1
    emulated: list[int] = []
    for addr in trace.addrs:
        uop = self._fetch(addr)
        if emulated and rule2_applies(uop) and not any_source_boxed(vm, uop, context):
            # Data-dependent early stop, same as interpreted.
            self._finish(tuple(emulated), uop.mnemonic, "no_boxed_source")
            return addr
        vm.emulator.emulate(uop, context)
        emulated.append(addr)
    return stepwise_interpret(self, context, trace.end, trace.addrs)


def _observe(source: str, config: FPVMConfig, error, *, stepwise: bool = False,
             uops: bool | None = None, prepare=None, monkeypatch):
    """Run ``source`` on the ``uops`` tier; return everything the
    simulation accounts (cycles, ledger, telemetry, decode-cache LRU
    order, flow digest), the lazy-FP state (dirty and live masks, each
    trap's ``written_xmm``) and the final register banks, and the fused
    exits taken: an early stop, a stop at the recorded terminator, a
    walk past it, a raise in the trace, or a raise at the terminator
    the walk entered (no instruction done).  ``stepwise`` replays every
    compiled trace through :func:`_run_stepwise` instead;
    ``prepare(cpu)`` runs before the guest."""
    exits = []
    written = []
    replay = SequenceEmulator._replay
    handle = SequenceEmulator.handle_fp_trap
    interpret = SequenceEmulator._interpret

    def written_spy(self, context, trap):
        # Read after the sequence, raising or not: a trap whose body
        # raises never reaches FPVM's exit restore.
        try:
            return handle(self, context, trap)
        finally:
            written.append(context.written_xmm)

    def spy(self, trace, context):
        exits.append("raise")
        resume = replay(self, trace, context)
        exits[-1] = ("term" if resume == trace.end
                     else "early" if resume in trace.addrs else "past")
        return resume

    def walk_spy(self, context, addr, prefix=()):
        done = self.vm.telemetry.emulated_instructions
        try:
            return interpret(self, context, addr, prefix)
        except BaseException:
            if prefix and self.vm.telemetry.emulated_instructions == done:
                exits[-1] = "terminator_raises"
            raise

    with monkeypatch.context() as m:
        m.setattr(SequenceEmulator, "handle_fp_trap", written_spy)
        if stepwise:
            m.setattr(SequenceEmulator, "_fuse", lambda self, trace: True)
            m.setattr(SequenceEmulator, "_replay", _run_stepwise)
        else:
            m.setattr(SequenceEmulator, "_replay", spy)
            m.setattr(SequenceEmulator, "_interpret", walk_spy)
        prog = assemble(source)
        install_host_library(prog)
        cpu = CPU(prog, uops=uops)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(config).attach(cpu, kernel)
        if prepare is not None:
            prepare(cpu)
        if error is None:
            cpu.run()
        else:
            with pytest.raises(error):
                cpu.run()
    regs = cpu.regs
    state = (cpu.cycles, vm.ledger.snapshot(), snapshot(vm.telemetry),
             list(vm.decode_cache.entries), tuple(cpu.output),
             vm.flow.fingerprint() if vm.flow is not None else None,
             regs.fp_dirty, regs.fp_live, written, list(regs.gpr),
             [list(lanes) for lanes in regs.xmm])
    return state, exits


def _check_fused(config: FPVMConfig, case: str, monkeypatch) -> None:
    source, _, exit_kind, error = EXIT_CASES[case]
    prepare = PREPARE.get(case)
    fused, exits = _observe(source, config, error, prepare=prepare,
                            monkeypatch=monkeypatch)
    stepwise, none = _observe(source, config, error, stepwise=True, prepare=prepare,
                              monkeypatch=monkeypatch)
    assert none == []
    assert fused == stepwise
    assert exit_kind in exits


class TestFusedReplay:
    """The fused replay settles and marks exactly what the step-wise
    reference charges and marks, on every exit, with the flow recorder
    on or off, with every trace's entries resident (the default 64K
    decode cache: every trap at a compiled entry runs fused); in live
    contexts (short-circuited traps) and in signal-frame contexts."""

    @pytest.mark.parametrize("flow", [False, True], ids=["flow_off", "flow_on"])
    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_fused_matches_stepwise(self, case, flow, hot_traces, monkeypatch):
        config = FPVMConfig.seq_short(flow=flow, **EXIT_CASES[case][1])
        _check_fused(config, case, monkeypatch)

    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_fused_matches_stepwise_frame_mode(self, case, hot_traces, monkeypatch):
        """SIGFPE delivery without short-circuiting: steps write and
        mark the signal frame's lists, applied at sigreturn."""
        config = FPVMConfig.seq(**EXIT_CASES[case][1])
        _check_fused(config, case, monkeypatch)

    def test_poisoned_entry_after_fusing_still_raises(self, hot_traces):
        """An entry cross-wired after its trace was fused fails the
        entry check, and the interpreted walk's decode-cache integrity
        check raises on it."""
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short())
        trace = next(iter(vm.sequencer.compiled.values()))
        assert trace.uops is not None
        addr, other = trace.addrs[1], trace.addrs[0]
        vm.decode_cache.insert(addr, cpu.program.by_addr[other])
        cpu.halted = False
        cpu.resume_at(cpu.program.entry)
        with pytest.raises(DecodeCacheCorruptionError):
            cpu.run()


class TestResidencyStamp:
    """A fused trace checks its decode-cache entries again only after
    the cache changed: every insert, an evicting one included, moves the
    cache's stamp, and the next trap at the trace's entry re-verifies."""

    def test_every_insert_moves_the_stamp(self):
        program = assemble(LOOP_SRC)
        (a, ia), (b, ib), (c, ic) = list(program.by_addr.items())[:3]
        cache, other = DecodeCache(capacity=2), DecodeCache()
        stamps = [cache.stamp, other.stamp]
        for addr, instr in ((a, ia), (b, ib), (c, ic), (c, ic)):  # evicts a; re-decodes c
            cache.insert(addr, instr)
            stamps.append(cache.stamp)
        assert len(set(stamps)) == len(stamps)
        assert a not in cache
        cache.lookup(b)
        cache.touch((c, b))
        cache.resident((a, b, c))
        assert cache.stamp == stamps[-1]

    @staticmethod
    def _verifications(monkeypatch) -> list:
        """The first address of every entry check from now on."""
        checks = []
        resident = DecodeCache.resident

        def spy(self, addrs):
            checks.append(addrs[0])
            return resident(self, addrs)
        monkeypatch.setattr(DecodeCache, "resident", spy)
        return checks

    @staticmethod
    def _rerun(cpu) -> None:
        cpu.halted = False
        cpu.resume_at(cpu.program.entry)
        cpu.run()

    def test_redecode_mid_trace_reverifies(self, hot_traces, monkeypatch):
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short())
        trace = next(iter(vm.sequencer.compiled.values()))
        cache = vm.decode_cache
        assert trace.uops is not None and trace.stamp == cache.stamp
        checks = self._verifications(monkeypatch)
        hits = vm.telemetry.compiled_trace_hits
        self._rerun(cpu)
        assert checks == []  # nothing inserted: no trap re-checks
        assert vm.telemetry.compiled_trace_hits > hits
        addr = trace.addrs[1]
        stale = trace.uops[1]
        cache.decode_miss(addr, vm.program.raw_bytes_at(addr))
        self._rerun(cpu)
        assert checks and set(checks) == {trace.entry}
        fresh = cache.resident((addr,))[0]
        assert fresh is not stale and trace.uops[1] is fresh  # fused again
        assert trace.stamp == cache.stamp

    def test_eviction_reverifies(self, hot_traces, monkeypatch):
        cpu, vm = run_fpvm(LOOP_SRC, FPVMConfig.seq_short())
        output = list(cpu.output)
        trace = next(iter(vm.sequencer.compiled.values()))
        cache = vm.decode_cache
        assert trace.uops is not None
        checks = self._verifications(monkeypatch)
        cache.capacity = 2
        new = next(a for a in vm.program.by_addr if a not in cache)
        cache.insert(new, vm.program.by_addr[new])
        assert not any(a in cache for a in trace.addrs)
        hits = vm.telemetry.compiled_trace_hits
        cpu.output.clear()
        self._rerun(cpu)
        assert checks and set(checks) == {trace.entry}
        assert vm.telemetry.compiled_trace_hits == hits  # never all resident again
        assert cpu.output == output


class TestUnfusedTrace:
    """With the decode cache thrashing (capacity 2) traces compile but
    their entries are never all resident, so they never fuse: each trap
    at a compiled entry is interpreted.  The chained run then accounts
    exactly like the ``interp`` tier's, which compiles nothing."""

    @pytest.mark.parametrize("flow", [False, True], ids=["flow_off", "flow_on"])
    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_unfused_trace_accounts_like_interp_tier(self, case, flow, hot_traces,
                                                     monkeypatch):
        source, extra, _, error = EXIT_CASES[case]
        config = FPVMConfig.seq_short(flow=flow, decode_cache_capacity=2, **extra)
        prepare = PREPARE.get(case)
        chained, exits = _observe(source, config, error, prepare=prepare,
                                  monkeypatch=monkeypatch)
        interp, _ = _observe(source, config, error, uops=False, prepare=prepare,
                             monkeypatch=monkeypatch)
        assert exits == []
        compiled = chained[2].pop("compiled_traces")
        assert compiled > 0 and interp[2].pop("compiled_traces") == 0
        assert chained[2]["compiled_trace_hits"] == 0
        assert chained == interp


@pytest.mark.xfail(strict=True, reason=(
    "known over-count: a compiled trace whose recorded terminator no "
    "longer stops fetches that terminator twice (once to check it, "
    "once more in the interpreted walk); fixing it moves the committed "
    "bench_fpvm fingerprints"))
def test_compiled_tier_accounts_like_interpreted_enzo():
    """The compiled tier must account exactly like the interpreted walk
    (the ``interp`` tier, which compiles nothing) on enzo under
    SEQ_SHORT.  At scale 10 it makes 23 extra decode-cache hits (6,736
    against 6,713)."""
    runs = [run_workload("enzo", FPVMConfig.seq_short(patch_sites=frozenset()),
                         scale=10, uops=uops)
            for uops in (None, False)]
    assert runs[0].telemetry.compiled_trace_hits > 0
    compiled, interpreted = ((r.cycles, r.ledger, r.telemetry.decode_hits) for r in runs)
    assert compiled == interpreted
