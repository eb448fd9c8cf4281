"""Patch-invisibility conformance gates: the self-checksumming guest is
bit-identical across patch configurations, a guest reading its own
bytes mid-run never observes instrumentation while cached superblocks
stay live, keeping patches out of the text image is demonstrably
load-bearing, and the per-site invalidation tier replays
bit-identically against the seed journal with live patches."""

import hashlib

import pytest

from repro.conformance.faults import run_scenario
from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.machine.memory import PAGE_SIZE, PROT_EXEC, PROT_READ, PROT_WRITE
from repro.machine.program import TEXT_BASE, PatchKind

from . import replay
from .codeviews import (
    MAX_STEPS,
    build_checksum_program,
    native_reference,
    self_checksum_report,
    self_reading_report,
)


@pytest.fixture(scope="module")
def checksum_report():
    return self_checksum_report()


def test_checksum_bit_identical_across_patch_configs(checksum_report):
    """NONE / SEQ / SEQ_SHORT all print the same checksum as a bare
    unpatched run, and the guest-visible text digest equals the
    pristine image in every config."""
    assert checksum_report["bit_identical"], checksum_report


def test_checksum_scenario_is_not_vacuous(checksum_report):
    """Guard: every config must carry a real profiler-planted patch
    inside the checksum loop, and the SEQ tiers must have compiled
    traces — otherwise the identity above checks nothing."""
    for name, cfg in checksum_report["configs"].items():
        assert cfg["patches"] >= 1, name
        assert cfg["patched_sites"], name
    assert checksum_report["configs"]["seq"]["compiled_traces"] > 0
    assert checksum_report["configs"]["seq_short"]["compiled_traces"] > 0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: first byte a binary patcher splices at a patched site (``int3`` /
#: ``call rel32`` opcodes, the e9patch splice).
_PATCH_MARKERS = {PatchKind.INT3: 0xCC, PatchKind.MAGIC_CALL: 0xE8}


def _spliced_text(program) -> bytes:
    """``program.text`` with each live patch's marker byte spliced in."""
    image = bytearray(program.text)
    for addr, patch in program.patches.items():
        image[addr - TEXT_BASE] = _PATCH_MARKERS[patch.kind]
    return bytes(image)


@pytest.fixture
def fetch_backed_run(hot_traces):
    """The negative control: the SEQ run of the checksum guest with the
    patch markers spliced into ``program.text`` and written into the
    guest's text pages after attach, as if patches were byte splices
    instead of pre-hook metadata."""
    _, words = build_checksum_program()
    program, _ = build_checksum_program(words)
    cpu = CPU(program)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    FPVM(FPVMConfig.seq()).attach(cpu, kernel)
    text = _spliced_text(program)
    pages = range(TEXT_BASE, TEXT_BASE + len(text), PAGE_SIZE)
    for pg in pages:
        cpu.mem.protect(pg, PROT_READ | PROT_WRITE)
    cpu.mem.write_bytes(TEXT_BASE, text)
    for pg in pages:
        cpu.mem.protect(pg, PROT_READ | PROT_EXEC)
    cpu.run(max_steps=MAX_STEPS)
    return {
        "output": tuple(cpu.output),
        "reference_output": native_reference(words),
        "patches": len(program.patches),
        "text_digest": _sha(cpu.mem.read_bytes(TEXT_BASE, len(text))),
        "pristine_text_digest": _sha(program.text),
    }


def test_shadow_view_off_is_observable(fetch_backed_run):
    """With the markers in its text pages the same guest must *see*
    them (checksum and digest diverge) — proof that keeping patches
    out of the text image is load-bearing, not vacuously equal."""
    report = fetch_backed_run
    assert report["patches"] >= 1
    assert report["output"] != report["reference_output"], report
    assert report["text_digest"] != report["pristine_text_digest"], report


def test_self_reading_guest_identical_across_tiers():
    report = self_reading_report()
    assert report["bit_identical"], report
    assert report["blocks_live"], report


def test_stale_block_never_executes_through_patch():
    outcome = run_scenario("stale_block_patch")
    assert outcome.detected and outcome.recovered, str(outcome)


def test_per_site_tier_replays_with_live_patches():
    """The replay oracle: record the checksum guest (live profiler
    patch firing every lap) under the seed interpreter, replay the
    per-site chained engine against the journal — zero divergence."""
    report = replay.differential_replay(
        lambda: build_checksum_program()[0],
        config=FPVMConfig.seq_short(),
    )
    assert report.ok, report.describe()
