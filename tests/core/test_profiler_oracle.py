"""Differential test: the chained-engine profiling pass against the
step-wise reference (``reference_profiler.py``).  Both must end with
the same result and the same shadow state, on the escape programs, on
multi-threaded workloads, on stack traffic that no observed access
separates, and when ``max_steps`` cuts the pass short.  A program that
cannot spawn takes the pass's one-dispatch drive; one that may spawn
keeps the round-robin; the reference always steps in round-robin."""

import pytest

from repro.core.profiler import MemoryEscapeProfiler, may_spawn
from repro.machine import uops
from repro.workloads import get_workload

from .reference_profiler import SteppedProfiler
from .test_correctness import ESCAPE_PROGRAMS, build

#: Stack slots that are released by instructions with no observed
#: access between the release and the next load: a push/pop pair, a
#: sub/add of rsp and a call/ret pair each move ``rsp`` back past a
#: marked slot, and only an unwind after that very instruction unmarks
#: it.  Only the last load reads a live float.
STACK_SRC = """
.data
a: .double 1.5
.text
main:
  movsd xmm0, [rip + a]
  movsd [rsp - 8], xmm0
  push rbx
  pop rbx
  mov rax, [rsp - 8]
  movsd [rsp - 16], xmm0
  sub rsp, 16
  add rsp, 16
  mov rcx, [rsp - 16]
  movsd [rsp - 8], xmm0
  call leaf
  mov rsi, [rsp - 8]
  movsd [rsp - 8], xmm0
  mov rdx, [rsp - 8]
  hlt
leaf:
  ret
"""


#: ``rsp`` off 8-byte alignment: the release from ``S - 4`` back to
#: ``S`` must leave the block at ``S - 8``, which straddles the old
#: floor, marked, so the last load is a site.  Three marked data
#: blocks make the release shorter than the marked set, so the pass
#: walks the released range rather than scanning the set.
MISALIGNED_SRC = """
.data
a: .double 1.5
b: .double 2.5
c: .double 3.5
.text
main:
  movsd xmm0, [rip + a]
  movsd [rip + b], xmm0
  movsd [rip + c], xmm0
  sub rsp, 4
  movsd [rsp - 4], xmm0
  add rsp, 4
  mov rax, [rsp - 8]
  hlt
"""

#: A loop of FP stores and integer loads whose only ``thread_create``
#: call sits on a branch that is never taken: the program may spawn as
#: far as its text says, so the pass keeps the round-robin.
UNTAKEN_SPAWN_SRC = """
.data
a: .double 1.5
.text
main:
  movsd xmm0, [rip + a]
  mov rcx, 40
top:
  movsd [rsp - 8], xmm0
  mov rax, [rsp - 8]
  push rax
  pop rax
  dec rcx
  jne top
  cmp rcx, 0
  jne spawn
  hlt
spawn:
  mov rdi, worker
  call thread_create
  hlt
worker:
  ret
"""


def stat(process, name):
    return sum(getattr(t.uop_stats, name) for t in process.threads
               if t.uop_stats is not None)


def both(program, max_steps=50_000_000):
    out = []
    for cls in (MemoryEscapeProfiler, SteppedProfiler):
        profiler = cls(program)
        result = profiler.run(max_steps)
        out.append((result, profiler._marked, profiler._floors))
    return out


def _load_of(program, reg):
    return next(i.addr for i in program.instructions
                if i.mnemonic == "mov" and str(i.operands[0]) == reg)


@pytest.mark.parametrize("name", sorted(ESCAPE_PROGRAMS))
def test_escape_programs_match_reference(name):
    chained, stepped = both(build(ESCAPE_PROGRAMS[name]))
    assert chained == stepped


@pytest.mark.parametrize("bound", [True, False], ids=["bound", "single_step"])
def test_stack_release_without_observed_access_unmarks(bound, monkeypatch):
    """``single_step`` binds nothing, so every instruction takes the
    engine's single-step fallback, which must unwind as well."""
    if not bound:
        monkeypatch.setattr(uops, "bind_exec", lambda uop, mem: None)
        monkeypatch.setattr(uops, "bind_control", lambda uop, mem, program: None)
    program = build(STACK_SRC)
    chained, stepped = both(program)
    assert chained == stepped
    assert chained[0].patch_sites == {_load_of(program, "rdx")}


def test_misaligned_release_keeps_straddling_block():
    program = build(MISALIGNED_SRC)
    chained, stepped = both(program)
    assert chained == stepped
    assert chained[0].patch_sites == {_load_of(program, "rax")}


@pytest.mark.parametrize("name", ["lorenz_mt", "mixed_mt", "three_body"])
def test_workloads_match_reference(name):
    w = get_workload(name)
    chained, stepped = both(w.build_program(w.quick_scale or w.default_scale))
    assert chained == stepped


@pytest.mark.parametrize("name,max_steps", [
    ("three_body", 1000), ("lorenz_mt", 700), ("lorenz_mt", 5000)])
def test_max_steps_cutoff_matches_reference(name, max_steps):
    w = get_workload(name)
    chained, stepped = both(w.build_program(w.quick_scale or w.default_scale), max_steps)
    assert chained == stepped
    assert chained[0] != MemoryEscapeProfiler(
        w.build_program(w.quick_scale or w.default_scale)).run()


def _quick(name):
    w = get_workload(name)
    return w.build_program(w.quick_scale or w.default_scale)


@pytest.mark.parametrize("name", ["three_body", "enzo"])
def test_cannot_spawn_runs_one_dispatch(name, passes):
    chained, stepped = both(_quick(name))
    assert chained == stepped
    assert not may_spawn(passes[0].program)
    assert stat(passes[0], "quantum_dispatches") == 1


@pytest.mark.parametrize("name", ["mixed_mt", "lorenz_mt", "untaken_spawn"])
def test_may_spawn_keeps_round_robin(name, passes):
    program = build(UNTAKEN_SPAWN_SRC) if name == "untaken_spawn" else _quick(name)
    chained, stepped = both(program)
    assert chained == stepped
    assert may_spawn(passes[0].program)
    main = passes[0].main
    assert main.uop_stats.quantum_dispatches >= -(-main.instruction_count // 32) > 1
    if name == "untaken_spawn":
        assert len(passes[0].threads) == 1
        assert chained[0].fp_stores == 40


@pytest.mark.parametrize("target", ["rax", "thread_create"])
def test_register_or_spawn_target_may_spawn(target, passes):
    src = f"main:\n  mov rax, 0\n  call {target}\n  hlt\n"
    MemoryEscapeProfiler(build(src)).run(0)
    assert may_spawn(passes[0].program)


@pytest.mark.parametrize("max_steps", [31, 32, 33, 1001])
def test_one_dispatch_cutoff_matches_reference(max_steps, passes):
    chained, stepped = both(_quick("three_body"), max_steps)
    assert chained == stepped
    main = passes[0].main
    assert main.uop_stats.quantum_dispatches == 1
    assert main.instruction_count == -(-max_steps // 32) * 32


@pytest.mark.parametrize("name,scale,limit", [
    ("enzo", 12, 44), ("lorenz", 400, 7)])
def test_one_dispatch_builds_few_blocks(name, scale, limit, passes):
    MemoryEscapeProfiler(get_workload(name).build_program(scale)).run()
    assert stat(passes[0], "blocks_built") <= limit


def test_round_robin_block_count_unchanged(passes):
    MemoryEscapeProfiler(get_workload("mixed_mt").build_program(400)).run()
    assert stat(passes[0], "blocks_built") == 41
