"""Differential test: the chained-engine profiling pass against the
step-wise reference (``reference_profiler.py``).  Both must end with
the same result and the same shadow state, on the escape programs, on
multi-threaded workloads, on stack traffic that no observed access
separates, and when ``max_steps`` cuts the pass short."""

import pytest

from repro.core.profiler import MemoryEscapeProfiler
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
        monkeypatch.setattr(uops, "bind_exec", lambda uop, cpu: None)
        monkeypatch.setattr(uops, "bind_control", lambda uop, cpu: None)
    program = build(STACK_SRC)
    chained, stepped = both(program)
    assert chained == stepped
    assert chained[0].patch_sites == {_load_of(program, "rdx")}


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
