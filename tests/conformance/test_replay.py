"""The differential trace-replay harness: clean runs are bit-identical
to the seed journal, and an injected micro-op corruption is localized
to the exact step that retired it.

The heavyweight sweeps carry the ``replay`` marker (CI runs them with
``pytest -m replay``); the smoke checks here stay in tier-1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import replay
from repro.conformance.generators import fuzz_program
from repro.core.vm import FPVMConfig
from repro.machine import uops
from repro.machine.assembler import assemble
from repro.machine.hostlib import install_host_library

LOOP_SRC = """
.data
k: .double 1.0001
n: .quad 60
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + k]
  movsd xmm1, [rip + k]
top:
  mulsd xmm0, xmm1
  addsd xmm0, xmm1
  dec rcx
  jne top
  call print_f64
  hlt
"""

#: first superblock is exactly one ``mulsd`` plus a ``jmp`` tail: a
#: corrupted mul micro-op is architecturally visible at step 1, with no
#: later wash-out — the replayer must pin it exactly.
FIRST_STEP_SRC = """
.text
main:
  mulsd xmm0, xmm1
  jmp fin
fin:
  hlt
"""

#: three int moves ahead of the mul in the same block: the corruption
#: retires at step 4, and a budget-3 probe (which can only retire the
#: clean 3-uop prefix) must come back clean.
FOURTH_STEP_SRC = """
.text
main:
  mov rax, 3
  mov rbx, 5
  mov rdx, 7
  mulsd xmm0, xmm1
  jmp fin
fin:
  hlt
"""


def _factory(src):
    def build():
        program = assemble(src)
        install_host_library(program)
        return program
    return build


class TestCleanReplay:
    def test_loop_program_identical(self):
        report = replay.differential_replay(_factory(LOOP_SRC))
        assert report.ok, report.describe()
        assert report.steps > 200
        assert report.probes == 1            # no divergence: one full probe
        assert "bit-identical" in report.describe()

    def test_loop_program_identical_under_vm(self):
        report = replay.differential_replay(
            _factory(LOOP_SRC), config=FPVMConfig.seq_short(uops=True))
        assert report.ok, report.describe()

    def test_recorder_rejects_uops_cpu(self):
        from repro.machine.cpu import CPU
        with pytest.raises(ValueError):
            replay.TraceRecorder(CPU(_factory(LOOP_SRC)(), uops=True))


def _corrupt_mul(monkeypatch):
    """Bit-flip the result of every bound ``mulsd`` block closure — the
    kind of silent micro-op bug the replay harness exists to localize.
    Only the engine tiers bind block closures, so the seed journal stays
    clean; probe CPUs bind lazily, so every probe picks up the
    corruption."""
    orig = uops.bind_exec

    def bad_bind(uop, cpu):
        fn = orig(uop, cpu)
        if fn is None or uop.mnemonic != "mulsd":
            return fn
        xid = uop.operands[0].id

        def bad_mul():
            r = fn()
            if r is not uops.SLOW:
                cpu.regs.xmm[xid][0] ^= 1
            return r
        return bad_mul
    monkeypatch.setattr(uops, "bind_exec", bad_bind)


class TestInjectedDivergence:
    def test_localized_to_first_step(self, monkeypatch):
        journal_report = replay.differential_replay(_factory(FIRST_STEP_SRC))
        assert journal_report.ok                 # sanity: clean before

        _corrupt_mul(monkeypatch)
        report = replay.differential_replay(_factory(FIRST_STEP_SRC))
        assert not report.ok
        div = report.divergence
        assert div.step == 1
        assert any(name.startswith("xmm0") for name, _, _ in div.diffs), (
            div.describe())
        assert "first divergent step: 1" in div.describe()

    def test_localized_to_exact_mid_block_step(self, monkeypatch):
        _corrupt_mul(monkeypatch)
        report = replay.differential_replay(_factory(FOURTH_STEP_SRC))
        assert not report.ok
        div = report.divergence
        assert div.step == 4, div.describe()
        # full context travels with the verdict: the seed-side record of
        # the divergent step and the actual-vs-expected register diff.
        assert div.record is not None and div.record.index == 3
        assert any(name.startswith("xmm0") for name, _, _ in div.diffs)
        assert report.probes > 1                 # binary search ran

    def test_divergence_in_chained_loop_is_localized(self, monkeypatch):
        """An LSB flip can wash out under later rounding (x and x^1 may
        round to the same sum), so divergence in the loop is not
        monotone and the first *visible* divergence need not be the
        first corrupted mul.  The replayer must still pin an adjacent
        clean/divergent step pair, on a step whose seed record wrote
        the corrupted register: the chained tier runs the corrupted
        closure every lap."""
        _corrupt_mul(monkeypatch)
        report = replay.differential_replay(_factory(LOOP_SRC))
        assert not report.ok
        div = report.divergence
        assert 4 <= div.step <= report.steps
        assert div.record is not None and div.record.index == div.step - 1
        assert any(name.startswith("xmm0") for name, _, _ in div.diffs)
        assert "seed wrote xmm0" in div.describe()
        assert report.probes > 1


@pytest.mark.replay
class TestReplaySweeps:
    """The oracle at scale: random guest programs, chained engine vs
    seed journal.  ``fuzz_program`` emits straight-line FP arithmetic,
    direct jumps/branches (``If``/``For``), and host print calls."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_programs_chained_bit_identical(self, seed):
        report = replay.differential_replay(lambda: fuzz_program(seed))
        assert report.ok, report.describe()

    @pytest.mark.parametrize("quantum", [1, 7, 64])
    def test_quantum_driven_chained_run_matches_journal(self, quantum):
        """Drive the chained engine in fixed quanta to halt; the state
        after every quantum boundary must match the journal."""
        from repro.conformance.replay import TraceRecorder, _make_cpu

        recorder = TraceRecorder(
            _make_cpu(_factory(LOOP_SRC)(), None, uops=False))
        journal = recorder.record()

        cpu = _make_cpu(_factory(LOOP_SRC)(), None, uops=True)
        replayer = replay.Replayer(journal, lambda: None)  # diff use only
        done = 0
        while not cpu.halted:
            done += cpu.run_quantum(quantum)
            diffs = replayer._diff(cpu, journal.state_at(done))
            assert not diffs, (done, diffs)
        assert done == journal.total
