"""The engine loop across control tails: block dispatch through the
``chained`` tier, quantum budget parity, which tails may skip the
accounting settle, patch invalidation, and the shared per-process block cache under
patching."""

import pytest

from repro.core.telemetry import rates, snapshot
from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine import uops
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, MachineError
from repro.machine.hostlib import install_host_library
from repro.machine.process import Process
from repro.machine.program import PatchKind
from repro.machine.registers import MXCSR_FPVM, RC_DOWN

from tests.fpu.builders import with_rounding
from tests.machine.flags import pack_flags

#: FP loop whose body compiles to one superblock with a ``jne`` tail,
#: dispatched again after every iteration's tail.
LOOP_SRC = """
.data
k: .double 1.0001
n: .quad 150
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

#: call/ret ping-pong around a host call: two pure tails (call f,
#: ret), then a host-call tail that settles the deferred accounting.
CALLRET_SRC = """
.data
k: .double 1.25
n: .quad 40
.text
f:
  mulsd xmm0, xmm1
  ret

main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + k]
  movsd xmm1, [rip + k]
cloop:
  call f
  call print_f64
  dec rcx
  jne cloop
  hlt
"""


def _program(src: str):
    program = assemble(src)
    install_host_library(program)
    return program


def _cpu(program, uops_on=True, config=None):
    cpu = CPU(program, uops=uops_on)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    if config is not None:
        FPVM(config).attach(cpu, kernel)
    return cpu


def _fingerprint(cpu):
    regs = cpu.regs
    return {
        "rip": regs.rip,
        "gpr": tuple(regs.gpr),
        "xmm": tuple(tuple(lanes) for lanes in regs.xmm),
        "flags": pack_flags(regs.flags),
        "mxcsr": regs.mxcsr,
        "cycles": cpu.cycles,
        "instructions": cpu.instruction_count,
        "fp_traps": cpu.fp_trap_count,
        "output": tuple(cpu.output),
        "halted": cpu.halted,
    }


class TestChainMechanics:
    def test_loop_chains_and_stats(self):
        cpu = _cpu(_program(LOOP_SRC))
        cpu.run()
        st = snapshot(cpu.uop_stats)
        assert st["blocks_built"] <= 4           # built once, reused
        assert st["block_runs"] >= 150           # one per iteration
        assert rates(snapshot(cpu.uop_stats, "uop"))["uop_hit_rate"] > 0.99
        assert st["quantum_exits"] == {"halted": 1}

    def test_chained_identical_to_stepwise(self):
        chained = _cpu(_program(LOOP_SRC))
        chained.run()
        stepwise = _cpu(_program(LOOP_SRC), uops_on=False)
        stepwise.run()
        assert _fingerprint(chained) == _fingerprint(stepwise)


class TestTailChainGrades:
    def test_grades_by_mnemonic(self):
        prog = _program(CALLRET_SRC)
        grades = {}
        for instr in prog.instructions:
            uop = uops.lower(instr)
            if uop.opclass is uops.OpClass.CONTROL:
                grades.setdefault(instr.mnemonic, set()).add(
                    (uops._pure_tail(uop, prog),
                     str(instr.operands[0]) if instr.operands else ""))
        assert all(g for g, _ in grades["jne"])
        assert all(g for g, _ in grades["ret"])
        call_grades = {target: g for g, target in grades["call"]}
        assert call_grades["f"] is True          # static guest target
        assert call_grades["print_f64"] is False  # host function: never

    def test_ret_halt_guard(self):
        """A pure ``ret`` tail that halts the core ends the quantum:
        the sentinel leaves RIP pointing *at* the ret, so dispatching
        on from there would re-execute it against a dead stack."""
        cpu = _cpu(_program(".text\nmain:\n  mov rax, 1\n  ret\n"))
        cpu.run()
        st = snapshot(cpu.uop_stats)
        assert cpu.halted
        assert cpu.instruction_count == 2
        assert st["block_runs"] == 1
        assert st["quantum_exits"] == {"halted": 1}


class TestQuantumBudgetParity:
    """run_quantum(n) must equal exactly n seed steps — including
    budgets that land mid-body after a control tail."""

    @pytest.mark.parametrize("budget", [*range(1, 14), 29, 64, 257])
    def test_single_quantum_trajectory(self, budget):
        chained = _cpu(_program(LOOP_SRC))
        taken = chained.run_quantum(budget)
        assert taken == budget                    # loop far from halting

        seed = _cpu(_program(LOOP_SRC), uops_on=False)
        for _ in range(budget):
            seed.step()
        assert _fingerprint(chained) == _fingerprint(seed)

    @pytest.mark.parametrize("quantum", [1, 3, 7, 64])
    def test_run_to_halt_in_quanta(self, quantum):
        chained = _cpu(_program(LOOP_SRC))
        total = 0
        while not chained.halted:
            total += chained.run_quantum(quantum)
            assert total < 10_000
        seed = _cpu(_program(LOOP_SRC), uops_on=False)
        seed.run()
        assert _fingerprint(chained) == _fingerprint(seed)

    def test_partial_block_dispatch_at_budget_edge(self):
        """With a 4-uop loop body and quantum 7, every other dispatch
        ends mid-block; the engine retires the fitting prefix
        through the pipeline instead of seed-stepping the edge."""
        chained = _cpu(_program(LOOP_SRC))
        while not chained.halted:
            chained.run_quantum(7)
        st = snapshot(chained.uop_stats)
        assert st["partial_block_runs"] > 0
        assert st["quantum_exits"].get("budget", 0) > 0

        seed = _cpu(_program(LOOP_SRC), uops_on=False)
        seed.run()
        assert _fingerprint(chained) == _fingerprint(seed)


class _Trampoline:
    def __init__(self):
        self.calls = 0

    def __call__(self, cpu, addr):
        self.calls += 1


class TestChainInvalidation:
    def test_patch_at_link_target_breaks_chain(self):
        """A patched branch target must never run from a cached block:
        the engine loop checks the patch table before every block."""
        prog = _program(LOOP_SRC)
        tramp = _Trampoline()
        prog.patch_call(prog.symbols["top"], tramp)
        assert prog.patches[prog.symbols["top"]].kind is PatchKind.MAGIC_CALL

        chained = _cpu(prog)
        chained.run()
        assert tramp.calls == 150                 # every loop iteration

        st = snapshot(chained.uop_stats)
        assert st["single_steps"] >= 150          # the hook, every lap

        # identical to the stepwise seed under the *same* patch (the
        # magic-call hook has host-visible cycle cost, so both sides
        # must carry it).
        plain_prog = _program(LOOP_SRC)
        plain_tramp = _Trampoline()
        plain_prog.patch_call(plain_prog.symbols["top"], plain_tramp)
        plain = _cpu(plain_prog, uops_on=False)
        plain.run()
        assert plain_tramp.calls == tramp.calls
        assert _fingerprint(chained) == _fingerprint(plain)

    def test_patch_epoch_bump_drops_links(self):
        """Patching after a chained run must drop the covering block;
        re-running the same CPU must see the patch."""
        prog = _program(LOOP_SRC)
        cpu = _cpu(prog)
        cpu.run()
        assert cpu.uop_stats.block_runs > 0

        engine = cpu._uop_engine
        loop_entry = prog.symbols["top"]
        body_addr = prog.by_addr[loop_entry].addr + prog.by_addr[loop_entry].size
        tramp = _Trampoline()
        prog.patch_call(body_addr, tramp)

        cpu.halted = False
        cpu.resume_at(prog.entry)
        try:
            cpu.run(max_steps=80)
        except MachineError:
            pass
        assert tramp.calls > 0, "stale chained superblock ran through a patch"
        assert engine.cache.invalidated_blocks > 0
        assert engine.cache.invalidations > 0

    def test_fp_trap_exit_inside_chained_block(self):
        """Under seq_short virtualization, FP micro-ops in a cached
        block decide #XF themselves: a trapping one hands the engine
        its ``Trap``, which settles the block's accounting and delivers
        it, and the run stays bit-identical to single-stepping."""
        chained = _cpu(_program(LOOP_SRC),
                       config=FPVMConfig.seq_short())
        chained.run()
        st = snapshot(chained.uop_stats)
        assert chained.fp_trap_count > 0

        stepwise = _cpu(_program(LOOP_SRC), uops_on=False,
                        config=FPVMConfig.seq_short())
        stepwise.run()
        assert _fingerprint(chained) == _fingerprint(stepwise)
        # the trap exits must be visible in telemetry, not silent.
        assert st["fp_trap_exits"] > 0

    def _chained_and_interp(self, config, mxcsr=None, src=LOOP_SRC):
        cpus = []
        for uops_on in (True, False):
            cpu = _cpu(_program(src), uops_on=uops_on, config=config)
            if mxcsr is not None:
                cpu.regs.mxcsr = mxcsr
            cpu.run()
            cpus.append(cpu)
        chained, interp = cpus
        assert chained.fp_trap_count > 0
        assert _fingerprint(chained) == _fingerprint(interp)
        return chained.uop_stats

    def test_fp_off_traps_inside_chained_block(self):
        """With the FP unit off (``trap_all_fp``) an FP micro-op in a
        cached block returns its flagless #XF ``Trap`` before reading
        anything, and the engine delivers it as ``_exec_fp`` would.
        The loop's arithmetic is exact, so only the disabled unit traps
        it."""
        stats = self._chained_and_interp(FPVMConfig.seq_short(trap_all_fp=True),
                                         src=LOOP_SRC.replace("1.0001", "1.0"))
        assert stats.fp_trap_exits > 0
        assert stats.block_runs > 0

    def test_directed_rounding_single_steps(self):
        """Under a directed MXCSR.RC the closures' round-to-nearest
        arithmetic does not apply: the engine single-steps every
        instruction, from the checkpoint, and enters no block."""
        stats = self._chained_and_interp(FPVMConfig.seq_short(),
                                         with_rounding(MXCSR_FPVM, RC_DOWN))
        assert stats.single_steps > 0
        assert stats.fp_trap_exits == stats.uops_retired == stats.block_runs == 0

    def test_step_limit_reached_inside_chain(self):
        cpu = _cpu(_program(".text\nmain:\n  nop\nspin:\n  jmp spin\n"))
        with pytest.raises(MachineError):
            cpu.run(max_steps=500)

    def test_infinite_chain_respects_quantum_budget(self):
        cpu = _cpu(_program(".text\nmain:\n  nop\nspin:\n  jmp spin\n"))
        assert cpu.run_quantum(50) == 50
        assert not cpu.halted


class TestHostCallTails:
    def test_host_call_loop_identical_to_stepwise(self):
        """Traceable call/ret tails defer the block accounting; the
        host-call tail settles it first, so print_f64 and the final
        counters match the stepwise seed."""
        cpu = _cpu(_program(CALLRET_SRC))
        cpu.run()
        seed = _cpu(_program(CALLRET_SRC), uops_on=False)
        seed.run()
        assert _fingerprint(cpu) == _fingerprint(seed)
        assert len(cpu.output) == 40


THREADED_SRC = """
.data
k: .double 1.125
vals: .double 1.0, 2.0
n: .quad 60
.text
worker:
  ; rdi = slot index
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


class TestSharedCacheAcrossThreads:
    def test_threads_share_one_cache(self):
        proc = Process(_program(THREADED_SRC), uops=True)
        proc.kernel = LinuxKernel()
        prog = proc.main.program
        proc.spawn(prog.symbols["worker"], 0)
        proc.spawn(prog.symbols["worker"], 1)
        for t in proc.threads:
            assert t._engine().cache is proc.sb_cache

    def test_patch_by_one_thread_invalidates_anothers_links(self):
        """Thread B caches the worker loop, then the patch lands (as a
        promotion by thread A would).  B's very next dispatch must drop
        its covering block and honor the patch."""
        proc = Process(_program(THREADED_SRC), uops=True)
        proc.kernel = LinuxKernel()
        prog = proc.main.program
        tid_a = proc.spawn(prog.symbols["worker"], 0)
        tid_b = proc.spawn(prog.symbols["worker"], 1)
        thread_a, thread_b = proc.threads[tid_a], proc.threads[tid_b]

        # B runs a few quanta: the loop block is cached and re-run.
        thread_b.run_quantum(40)
        assert thread_b.uop_stats.block_runs > 1

        # A (host-side stand-in for its promotion path) patches an
        # address inside the block B cached.
        wtop = prog.symbols["wtop"]
        body_addr = prog.by_addr[wtop].addr + prog.by_addr[wtop].size
        tramp = _Trampoline()
        prog.patch_call(body_addr, tramp)
        thread_a.run_quantum(10)

        thread_b.run_quantum(40)
        assert tramp.calls > 0, (
            "thread B executed a stale cached block through thread A's "
            "patch site")
        assert proc.sb_cache.invalidated_blocks > 0
        assert proc.sb_cache.invalidations > 0


class TestSlicing:
    """A block missed inside a live block's range reuses that block's
    bound closures instead of binding the instructions again."""

    def test_each_address_bound_once_per_process(self, monkeypatch):
        """Quantum 32 ends most dispatches mid-block; every resume must
        slice, so a patch-free run binds each instruction
        at most once per process, however many threads run it
        (mixed_mt's workers share their loops)."""
        from repro.workloads import get_workload

        seen = []
        for bind in ("bind_exec", "bind_control"):
            real = getattr(uops, bind)

            def spy(uop, *args, real=real):
                fn = real(uop, *args)
                if fn is not None:
                    seen.append(uop.addr)
                return fn
            monkeypatch.setattr(uops, bind, spy)

        for name in ("enzo", "mixed_mt"):
            seen.clear()
            w = get_workload(name)
            program = w.build_program(w.quick_scale or w.default_scale)
            proc = Process(program)
            proc.run(quantum=32)
            bound = sum(t.uop_stats.uops_bound for t in proc.threads)
            assert sum(t.uop_stats.partial_block_runs for t in proc.threads) > 100
            assert len(seen) == len(set(seen)) == bound
            assert bound <= len(program.instructions)

    def test_patch_drops_parent_and_suffixes_and_rebinds(self):
        prog = _program(LOOP_SRC)
        cpu = _cpu(prog)
        engine = cpu._engine()
        st = engine.stats
        main, top = prog.symbols["main"], prog.symbols["top"]
        cpu.run_quantum(2)                       # mid-block budget edge
        resume = cpu.regs.rip
        parent = engine.cache.blocks[main]
        bound = st.uops_bound
        assert bound == parent.n_body + 1        # body + the jne tail
        cpu.run_quantum(10)                      # resume, then jne -> top
        suffixes = [engine.cache.blocks[resume], engine.cache.blocks[top]]
        assert st.uops_bound == bound            # sliced, not rebound
        for s in suffixes:
            assert s.body == parent.body[-s.n_body:] and s.tail is parent.tail

        subsd = next(u.addr for u in parent.uops if u.mnemonic == "subsd")
        dec = next(u for u in parent.uops if u.mnemonic == "dec")
        tramp = _Trampoline()
        prog.patch_call(subsd, tramp)
        cpu.run_quantum(12)
        assert tramp.calls > 0
        live = list(engine.cache.blocks.values())
        assert all(b is not parent and b not in suffixes for b in live)
        assert engine.cache.invalidated_blocks >= 1 + len(suffixes)

        # Past the site, the resume at ``dec`` binds fresh closures.
        fresh = engine.cache.blocks[dec.addr]
        assert st.uops_bound > bound
        assert fresh.body[0] is not parent.body[parent.uops.index(dec)]
        assert fresh.tail is not parent.tail

    def test_dropped_blocks_are_not_retained(self):
        import gc
        import weakref

        cpu = _cpu(_program(LOOP_SRC))
        engine = cpu._engine()
        while not cpu.halted:
            cpu.run_quantum(3)                   # slices at every resume
        # Blocks take no weakrefs; their closures do, and only blocks
        # hold them.
        refs = [weakref.ref(fn) for b in engine.cache.blocks.values()
                for fn in (*b.body, b.tail) if fn is not None]
        assert len(refs) > 2 and engine.cache.inner
        engine.cache.evict_all()
        gc.collect()
        assert all(r() is None for r in refs)
        assert not any(isinstance(v, uops.Superblock)
                       for v in engine.cache.inner.values())
