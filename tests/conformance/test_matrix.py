"""Conformance matrix: oracle mechanics fast, the full grid under the
``conformance`` marker (``pytest -m conformance``)."""

import pytest

from repro.conformance import matrix, oracle
from repro.conformance.generators import fuzz_program
from repro.core.vm import FPVMConfig
from repro.harness.configs import CONFIG_ORDER


# ------------------------------------------------------------- oracle
def test_native_and_boxed_cell_agree():
    native = oracle.run_native(fuzz_program(5))
    cell = oracle.run_cell(fuzz_program(5), FPVMConfig.seq_short(), "SEQ_SHORT")
    assert cell.output == native.output
    assert cell.memory_digest == native.memory_digest
    assert cell.invariant_failures == []


def test_memory_digest_demotes_boxed_words():
    """Two runs of the same program must digest equal even though their
    box pointers (raw memory bits) differ with allocation history."""
    a = oracle.run_cell(fuzz_program(9), FPVMConfig.seq_short(), "a")
    # different allocation history: aggressive GC churns the free list.
    b = oracle.run_cell(fuzz_program(9), FPVMConfig.seq_short(gc_threshold=32), "b")
    assert a.memory_digest == b.memory_digest


def test_invariant_checker_detects_cooked_books():
    from repro.core.vm import FPVM
    from repro.kernel.kernel import LinuxKernel
    from repro.machine.cpu import CPU

    cpu = CPU(fuzz_program(5))
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig.seq_short()).attach(cpu, kernel)
    cpu.run(max_steps=2_000_000)
    assert oracle.check_invariants(cpu, vm) == []
    vm.ledger.by_category["gc"] += 1  # cook the books by one cycle
    failures = oracle.check_invariants(cpu, vm)
    assert any("cycle closure" in f for f in failures)


# -------------------------------------------------------------- groups
@pytest.mark.parametrize("group", [
    matrix.Group("lorenz", scale=60),
    matrix.Group("fuzz:11", patch_source="static", magic=False),
])
def test_group_is_conformant(group):
    result = matrix.run_group(group)
    assert result.ok, result.mismatches + result.invariant_failures
    assert set(result.runs) == set(CONFIG_ORDER)


def test_none_patch_source_skips_programs_with_sites():
    """'none' on a program with real patch sites is unsound — the sweep
    must refuse the group, not compare divergent runs."""
    result = matrix.run_group(matrix.Group("three_body", scale=8,
                                           patch_source="none"))
    assert result.skipped is not None
    assert result.cells == 0


def test_smoke_plan_is_at_least_24_cells():
    assert 4 * len(matrix.smoke_plan()) >= 24


# ------------------------------------------------------------ full grid
@pytest.mark.conformance
def test_smoke_grid_conformant():
    report = matrix.sweep(matrix.smoke_plan())
    assert report.cells >= 24
    assert report.ok, matrix.render_report(report)


@pytest.mark.conformance
def test_full_grid_conformant():
    report = matrix.sweep(matrix.full_plan())
    assert report.cells >= 96
    assert report.skipped == []
    assert report.ok, matrix.render_report(report)


# ---------------------------------------------------------------- CLI
def test_cli_single_scenario():
    from repro.__main__ import main

    assert main(["conformance", "--scenario", "box_heap_exhaustion"]) == 0


@pytest.mark.conformance
def test_cli_smoke(capsys):
    from repro.__main__ import main

    assert main(["conformance", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out
    assert "all checks passed" in out


@pytest.fixture(scope="module")
def clean_libm_run():
    """double_pendulum calls libm and print wrappers, decodes, and
    collects trace statistics: every counter identity has work to do."""
    from repro.core.vm import FPVM
    from repro.kernel.kernel import LinuxKernel
    from repro.machine.cpu import CPU
    from repro.workloads import build_program

    cpu = CPU(build_program("double_pendulum", 10))
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig.seq_short()).attach(cpu, kernel)
    cpu.run(max_steps=2_000_000)
    return cpu, vm


@pytest.mark.parametrize("counter,needle", [
    ("fcall_traps", "fcall cycles"),
    ("libm_calls", "fcall cycles"),
    ("decode_hits", "decache cycles"),
    ("decode_misses", "decode cycles"),
    ("emulated_instructions", "emulated"),
    ("sequences", "sequences"),
])
def test_counter_identities_catch_a_one_count_nudge(clean_libm_run, counter,
                                                   needle):
    """Each telemetry count is tied to something counted independently
    (its ledger category's cycles, or the §6.3 trace statistics), so a
    count that drifts by one is caught."""
    cpu, vm = clean_libm_run
    t = vm.telemetry
    assert oracle.check_invariants(cpu, vm) == []
    assert getattr(t, counter) > 0
    setattr(t, counter, getattr(t, counter) + 1)
    try:
        failures = oracle.check_invariants(cpu, vm)
    finally:
        setattr(t, counter, getattr(t, counter) - 1)
    assert any(f.startswith(needle) for f in failures), failures
