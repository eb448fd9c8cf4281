"""Profiler golden: the §5.1 memory-escape pass on every workload.

``profiler_golden.json`` pins :class:`ProfileResult` for every
registered workload at its quick scale and its default scale:
the sorted patch sites, the FP-store and integer-load-of-float counts,
and how many memory blocks ever held a float.  The sites feed every
instrumented run, so a profiler change that moves any of them moves
simulated results.  Regenerate only when profiling semantics change on
purpose:

    PYTHONPATH=src python tests/core/test_profiler_golden.py --write
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

from repro.core.profiler import MemoryEscapeProfiler
from repro.workloads import WORKLOAD_NAMES, get_workload

FIXTURE = Path(__file__).with_name("profiler_golden.json")


def cases() -> list[tuple[str, int]]:
    out = []
    for name in WORKLOAD_NAMES:
        w = get_workload(name)
        out += [(name, w.quick_scale or w.default_scale), (name, w.default_scale)]
    return out


def profile(name: str, scale: int) -> dict:
    result = MemoryEscapeProfiler(get_workload(name).build_program(scale)).run()
    return {"patch_sites": sorted(result.patch_sites),
            "fp_stores": result.fp_stores,
            "int_loads_of_floats": result.int_loads_of_floats,
            "ever_marked": len(result.ever_marked)}


_GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_workload_at_both_scales():
    assert set(_GOLDEN) == {f"{n}@{s}" for n, s in cases()}
    assert _GOLDEN[f"three_body@{get_workload('three_body').default_scale}"][
        "patch_sites"]


@pytest.mark.parametrize("name,scale", cases())
def test_profile_matches_golden(name, scale):
    assert profile(name, scale) == _GOLDEN[f"{name}@{scale}"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_pass_leaves_no_cyclic_garbage(name):
    """A finished pass is freed by reference counting alone, so the
    pass's peak memory does not depend on when the collector runs."""
    w = get_workload(name)
    program = w.build_program(w.quick_scale or w.default_scale)
    gc.collect()
    gc.disable()
    try:
        MemoryEscapeProfiler(program).run()
        assert gc.collect() == 0
    finally:
        gc.enable()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_profiler_golden.py --write")
    rows = [f"{json.dumps(f'{n}@{s}')}: {json.dumps(profile(n, s), sort_keys=True)}"
            for n, s in cases()]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {FIXTURE}")
