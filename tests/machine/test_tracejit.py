"""The fused trace-JIT tier: stabilization mechanics, side-exit
correctness (budget edge, MXCSR guard, SLOW mid-trace), patch
invalidation — including cross-thread — and the demotion /
re-stabilization cycle.

Every behavioural test carries a bit-exact parity check against the
seed single-step interpreter driven through the *same* schedule of
quanta and external mutations, so the trace tier is never allowed to
buy speed with semantics."""

import pytest

from repro.kernel.kernel import LinuxKernel
from repro.machine import tracejit
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.hostlib import install_host_library
from repro.machine.process import Process

#: 5 steps per lap (4 body uops + jne tail); every FP op is inlineable,
#: so the generated trace carries the MXCSR entry guard.
LOOP_SRC = """
.data
k: .double 1.0001
n: .quad {n}
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + k]
  movsd xmm1, [rip + k]
top:
  mulsd xmm0, xmm1
  addsd xmm0, xmm1
  subsd xmm0, xmm1
  dec rcx
  jne top
  call print_f64
  hlt
"""

#: ``cvtsi2sd`` has no generated twin: it rides in the trace as its
#: bound block closure with the SLOW check — the mid-trace slow-exit
#: path.  (No inline FP op, so the trace has no MXCSR entry guard.)
CVT_SRC = """
.data
n: .quad {n}
.text
main:
  mov rcx, [rip + n]
top:
  dec rcx
  cvtsi2sd xmm1, rcx
  jne top
  hlt
"""

#: two-thread worker loop over disjoint slots of a shared array — the
#: cross-thread invalidation stage (4 steps per lap).
THREADED_SRC = """
.data
k: .double 1.125
vals: .double 1.0, 2.0
n: .quad 60
.text
worker:
  mov rcx, [rip + n]
  mov rbx, vals
  movsd xmm0, [rbx + rdi*8]
  movsd xmm1, [rip + k]
wtop:
  mulsd xmm0, xmm1
  subsd xmm0, xmm1
  dec rcx
  jne wtop
  movsd [rbx + rdi*8], xmm0
  ret

main:
  hlt
"""

#: clears one exception-mask bit: the FP fast-path check fails, but no
#: actual FP exception fires for these operand values, so the seed
#: retires every op without trapping.
UNMASK_BIT = 0x80


def _program(src: str, n: int = 150):
    program = assemble(src.format(n=n))
    install_host_library(program)
    return program


def _cpu(program, uops_on=True, trace=True, threshold=None):
    cpu = CPU(program, uops=uops_on, trace=trace)
    cpu.kernel = LinuxKernel()
    if threshold is not None:
        cpu.trace_stabilize_threshold = threshold
    return cpu


def _fingerprint(cpu):
    regs = cpu.regs
    return {
        "rip": regs.rip,
        "gpr": tuple(regs.gpr),
        "xmm": tuple(tuple(lanes) for lanes in regs.xmm),
        "flags": regs.flags.pack(),
        "mxcsr": regs.mxcsr,
        "cycles": cpu.cycles,
        "instructions": cpu.instruction_count,
        "fp_traps": cpu.fp_trap_count,
        "output": tuple(cpu.output),
        "halted": cpu.halted,
    }


def _drive(cpu, schedule, quantum=64):
    """Run ``cpu`` through ``schedule`` — a list of ``(steps, mutate)``
    phases: retire exactly ``steps``, then apply ``mutate(cpu)`` (or
    nothing) — and then run to halt.  Identical schedules on a traced
    and a seed CPU must produce identical fingerprints."""
    for steps, mutate in schedule:
        left = steps
        while left and not cpu.halted:
            left -= cpu.run_quantum(min(quantum, left))
        if mutate is not None:
            mutate(cpu)
    while not cpu.halted:
        cpu.run_quantum(quantum)


def _unmask(cpu):
    cpu.regs.mxcsr &= ~UNMASK_BIT


def _remask(cpu):
    cpu.regs.mxcsr |= UNMASK_BIT


class TestStabilization:
    def test_hot_loop_fuses_into_one_trace(self):
        cpu = _cpu(_program(LOOP_SRC))
        cpu.run()
        st = cpu.uop_stats.as_dict()
        assert st["trace_compiles"] == 1
        assert st["trace_recompiles"] == 0
        assert st["trace_runs"] >= 1
        # nearly every lap of the 150-iteration loop retires fused.
        assert st["trace_steps"] > 500
        assert st["trace_lengths"] == {1: 1}      # a one-block cycle
        assert st["trace_exits"].get("exit", 0) >= 1
        engine = cpu._uop_engine
        assert engine.cache.cached_traces == 1
        tr = next(iter(engine._traces.values()))
        assert tr.n_steps == 5 and tr.iter_instrs == 5

    def test_threshold_attribute_gates_compilation(self):
        # a threshold beyond the loop's lap count never stabilizes...
        cold = _cpu(_program(LOOP_SRC), threshold=10_000)
        cold.run()
        assert cold.uop_stats.trace_compiles == 0
        # ...while threshold 1 fuses on the first observed cycle.
        hot = _cpu(_program(LOOP_SRC), threshold=1)
        hot.run()
        assert hot.uop_stats.trace_compiles == 1

    def test_cross_run_stabilization_under_small_quanta(self):
        """A quantum smaller than threshold x lap-length cuts every
        chain run before in-run stabilization; accumulated cross-run
        heat must still reach the threshold and fuse."""
        cpu = _cpu(_program(LOOP_SRC), threshold=3)
        while not cpu.halted:
            cpu.run_quantum(7)                    # ~1 lap per dispatch
        assert cpu.uop_stats.trace_compiles == 1

    def test_trace_flag_off_compiles_nothing(self):
        cpu = _cpu(_program(LOOP_SRC), trace=False)
        cpu.run()
        assert cpu._uop_engine.trace_enabled is False
        assert cpu.uop_stats.trace_compiles == 0


class TestParity:
    def test_traced_run_identical_to_stepwise(self):
        traced = _cpu(_program(LOOP_SRC))
        traced.run()
        assert traced.uop_stats.trace_steps > 0   # the tier actually ran
        seed = _cpu(_program(LOOP_SRC), uops_on=False, trace=False)
        seed.run()
        assert _fingerprint(traced) == _fingerprint(seed)

    @pytest.mark.parametrize("quantum", [1, 3, 7, 64])
    def test_quantum_driven_parity(self, quantum):
        traced = _cpu(_program(LOOP_SRC))
        while not traced.halted:
            traced.run_quantum(quantum)
        seed = _cpu(_program(LOOP_SRC), uops_on=False, trace=False)
        seed.run()
        assert _fingerprint(traced) == _fingerprint(seed)

    @pytest.mark.parametrize("budget", [*range(1, 14), 29, 64, 257])
    def test_single_quantum_trajectory(self, budget):
        """Exact step-parity at every budget, including budgets that
        land mid-lap (partial-trace retirement at the quantum edge)."""
        traced = _cpu(_program(LOOP_SRC), threshold=1)
        taken = traced.run_quantum(budget)
        assert taken == budget
        seed = _cpu(_program(LOOP_SRC), uops_on=False, trace=False)
        for _ in range(budget):
            seed.step()
        assert _fingerprint(traced) == _fingerprint(seed)


class TestSideExits:
    def test_budget_edge(self):
        """A 7-step quantum fits one 5-step lap: every trace dispatch
        ends on the budget edge, never a clean exit, and the partial
        remainder retires through the tiers below."""
        cpu = _cpu(_program(LOOP_SRC), threshold=1)
        while not cpu.halted:
            cpu.run_quantum(7)
        st = cpu.uop_stats.as_dict()
        assert st["trace_exits"].get("budget", 0) > 0
        seed = _cpu(_program(LOOP_SRC), uops_on=False, trace=False)
        seed.run()
        assert _fingerprint(cpu) == _fingerprint(seed)

    def test_mxcsr_entry_guard(self):
        """Unmasking an exception bit mid-run flips the FP fast-path
        check: the compiled trace must refuse to enter (exit ``mxcsr``)
        and the lap must retire through the SLOW protocol instead."""
        schedule = [(320, _unmask)]
        traced = _cpu(_program(LOOP_SRC, n=400))
        _drive(traced, schedule)
        st = traced.uop_stats.as_dict()
        assert st["trace_compiles"] >= 1
        assert st["trace_exits"].get("mxcsr", 0) >= 1
        assert st["slow_fallbacks"] > 0           # the laps still retired

        seed = _cpu(_program(LOOP_SRC, n=400), uops_on=False, trace=False)
        _drive(seed, schedule)
        assert _fingerprint(traced) == _fingerprint(seed)

    def test_slow_mid_trace(self):
        """``cvtsi2sd`` rides in the trace as a bound closure.  When it
        returns SLOW the trace must exit at that exact step — the lap's
        retired prefix settled, the faulting step NOT retired — and the
        engine re-executes it through the seed path."""
        schedule = [(100, _unmask)]
        traced = _cpu(_program(CVT_SRC, n=400))
        _drive(traced, schedule)
        st = traced.uop_stats.as_dict()
        assert st["trace_compiles"] >= 1
        assert st["trace_exits"].get("slow", 0) >= 1
        assert st["trace_exits"].get("mxcsr", 0) == 0   # no entry guard here
        assert st["slow_fallbacks"] > 0

        seed = _cpu(_program(CVT_SRC, n=400), uops_on=False, trace=False)
        _drive(seed, schedule)
        assert _fingerprint(traced) == _fingerprint(seed)


class _Trampoline:
    def __init__(self):
        self.calls = 0

    def __call__(self, cpu, addr):
        self.calls += 1


class TestPatchInvalidation:
    def test_patch_epoch_bump_drops_trace(self):
        """A patch landing inside the fused loop must kill the trace
        before the next dispatch: the patch epoch bump flushes the
        shared cache, traces included."""
        prog = _program(LOOP_SRC, n=400)
        tramp = _Trampoline()
        body_addr = prog.symbols["top"]

        def patch(cpu):
            prog.patch_call(body_addr, tramp)

        traced = _cpu(prog)
        _drive(traced, [(320, patch)])
        assert traced.uop_stats.trace_compiles >= 1
        assert tramp.calls > 0, "stale trace ran through the patch site"
        engine = traced._uop_engine
        assert body_addr not in engine._traces
        assert engine.cache.dropped_traces >= 1

        # parity under the same patch schedule (the magic-call hook has
        # host-visible cost, so the seed twin carries the same patch).
        seed_prog = _program(LOOP_SRC, n=400)
        seed_tramp = _Trampoline()

        def seed_patch(cpu):
            seed_prog.patch_call(seed_prog.symbols["top"], seed_tramp)

        seed = _cpu(seed_prog, uops_on=False, trace=False)
        _drive(seed, [(320, seed_patch)])
        assert seed_tramp.calls == tramp.calls
        assert _fingerprint(traced) == _fingerprint(seed)

    def test_cross_thread_patch_invalidates_executing_trace(self):
        """Thread B fuses and is executing the worker-loop trace; a
        patch lands from outside (as thread A's promotion path would).
        B's very next dispatch must drop the trace and honor the patch
        — the shared cache's epoch mirror is the only wall between a
        cross-thread patch and a stale compiled trace."""
        proc = Process(_program(THREADED_SRC), uops=True, trace=True)
        proc.kernel = LinuxKernel()
        prog = proc.main.program
        tid_a = proc.spawn(prog.symbols["worker"], 0)
        tid_b = proc.spawn(prog.symbols["worker"], 1)
        thread_a, thread_b = proc.threads[tid_a], proc.threads[tid_b]

        # B stabilizes and runs the fused loop mid-way through its work.
        thread_b.run_quantum(64)
        st_b = thread_b.uop_stats
        assert st_b.trace_compiles >= 1
        assert prog.symbols["wtop"] in thread_b._engine()._traces

        # the patch lands between B's dispatches (thread A's turn).
        tramp = _Trampoline()
        prog.patch_call(prog.symbols["wtop"], tramp)
        thread_a.run_quantum(10)

        thread_b.run_quantum(60)
        assert tramp.calls > 0, (
            "thread B executed a stale fused trace through thread A's "
            "patch site")
        assert prog.symbols["wtop"] not in thread_b._engine()._traces
        assert proc.sb_cache.dropped_traces >= 1


class TestDemotionCycle:
    def test_demotion_and_restabilization(self):
        """Sustained bad exits tear the trace down; once conditions
        clear, the loop re-stabilizes against a doubled threshold and
        recompiles — and the whole ride stays bit-identical to seed."""
        schedule = [(320, _unmask), (640, _remask)]
        traced = _cpu(_program(LOOP_SRC, n=4000), threshold=3)
        _drive(traced, schedule)
        st = traced.uop_stats.as_dict()
        assert st["trace_compiles"] >= 2          # original + recompile
        assert st["trace_demotions"] >= 1
        assert st["trace_recompiles"] >= 1
        engine = traced._uop_engine
        assert engine._trace_backoff.get(
            traced.program.symbols["top"], 0) >= 1

        seed = _cpu(_program(LOOP_SRC, n=4000), uops_on=False, trace=False)
        _drive(seed, schedule)
        assert _fingerprint(traced) == _fingerprint(seed)

    def test_uncompilable_cycle_backs_off_permanently(self):
        """A cycle whose shape the code generator rejects must not be
        re-proposed every lap: the root is backed off to the cap."""
        engine_cls_src = CVT_SRC  # any loop; we force the reject below
        prog = _program(engine_cls_src, n=200)
        cpu = _cpu(prog, threshold=1)

        def reject(cpu_arg, blocks):
            return None

        orig = tracejit.compile_trace
        tracejit.compile_trace = reject
        try:
            cpu.run()
        finally:
            tracejit.compile_trace = orig
        assert cpu.uop_stats.trace_compiles == 0
        engine = cpu._uop_engine
        assert engine._trace_backoff.get(
            prog.symbols["top"]) == tracejit.BACKOFF_CAP


class TestCodeCacheLRU:
    """The bounded source->code LRU behind ``_compile_source``: cap
    enforcement via ``CODE_CACHE_CAP``, hit/miss/eviction
    counters, and their surfacing through ``UopStats``."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self):
        saved = dict(tracejit._CODE_CACHE)
        tracejit._CODE_CACHE.clear()
        yield
        tracejit._CODE_CACHE.clear()
        tracejit._CODE_CACHE.update(saved)

    @staticmethod
    def _stats_delta():
        return (tracejit.CODE_CACHE_HITS, tracejit.CODE_CACHE_MISSES,
                tracejit.CODE_CACHE_EVICTIONS)

    def test_identical_source_hits(self):
        src = "x = 1\n"
        h0, m0, _ = self._stats_delta()
        c1 = tracejit._compile_source(src, 0x1000)
        c2 = tracejit._compile_source(src, 0x1000)
        h1, m1, _ = self._stats_delta()
        assert c1 is c2
        assert (h1 - h0, m1 - m0) == (1, 1)

    def test_cap_evicts_lru_first(self, monkeypatch):
        monkeypatch.setattr(tracejit, "CODE_CACHE_CAP", 2)
        e0 = tracejit.CODE_CACHE_EVICTIONS
        tracejit._compile_source("a = 1\n", 0)
        tracejit._compile_source("b = 1\n", 0)
        # touch 'a' so 'b' becomes least-recently-used
        tracejit._compile_source("a = 1\n", 0)
        tracejit._compile_source("c = 1\n", 0)
        assert tracejit.CODE_CACHE_EVICTIONS - e0 == 1
        assert "a = 1\n" in tracejit._CODE_CACHE
        assert "b = 1\n" not in tracejit._CODE_CACHE
        assert len(tracejit._CODE_CACHE) == 2

    def test_stats_shape(self):
        stats = tracejit.code_cache_stats()
        assert set(stats) == {"size", "cap", "hits", "misses", "evictions"}

    def test_uop_stats_surface_code_cache_counters(self):
        """A second CPU compiling the same trace source must record the
        reuse in its own UopStats (the per-worker fleet telemetry)."""
        prog = _program(LOOP_SRC, n=200)
        first = _cpu(prog, threshold=1)
        first.run()
        assert first.uop_stats.trace_compiles > 0
        assert first.uop_stats.trace_code_hits == 0
        second = _cpu(prog, threshold=1)
        second.run()
        assert second.uop_stats.trace_code_hits > 0
        assert "trace_code_hits" in second.uop_stats.as_dict()
        assert "trace_code_evictions" in second.uop_stats.as_dict()

    def test_eviction_pressure_surfaces_in_uop_stats(self, monkeypatch):
        """With a cap of 1, compiling two distinct traces back-to-back
        must record an eviction against the engine that triggered it."""
        monkeypatch.setattr(tracejit, "CODE_CACHE_CAP", 1)
        prog_a = _program(LOOP_SRC, n=200)
        prog_b = _program(CVT_SRC, n=200)
        cpu_a = _cpu(prog_a, threshold=1)
        cpu_a.run()
        cpu_b = _cpu(prog_b, threshold=1)
        cpu_b.run()
        assert cpu_b.uop_stats.trace_code_evictions > 0
        assert len(tracejit._CODE_CACHE) == 1
