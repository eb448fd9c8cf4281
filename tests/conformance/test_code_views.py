"""Shadow-code-view conformance gates: the self-checksumming guest is
bit-identical across patch configurations, a guest reading its own
bytes mid-run never observes instrumentation while traces stay live,
the FPVM_SHADOW_VIEW=0 escape hatch is demonstrably load-bearing, and
the per-site invalidation tier replays bit-identically against the
seed journal with live patches."""

import pytest

from repro.conformance import replay
from repro.conformance.codeviews import (
    build_checksum_program,
    self_checksum_report,
    self_reading_report,
    shadow_view_negative_report,
)
from repro.conformance.faults import run_scenario
from repro.core.vm import FPVMConfig
from repro.machine.cpu import ENGINE_TIERS, TIERS


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


def test_shadow_view_off_is_observable():
    """With FPVM_SHADOW_VIEW=0 the same guest must *see* the patch
    markers (checksum and digest diverge) — proof the DATA-view backing
    is load-bearing, not vacuously equal."""
    report = shadow_view_negative_report()
    assert report["patches"] >= 1
    assert report["guest_observed_markers"], report


def test_self_reading_guest_identical_across_tiers():
    report = self_reading_report()
    assert report["bit_identical"], report
    assert report["traces_live"], report


def test_stale_trace_never_executes_through_patch():
    outcome = run_scenario("stale_trace_patch")
    assert outcome.detected and outcome.recovered, str(outcome)


@pytest.mark.parametrize("trace", [TIERS[t][1] for t in ENGINE_TIERS])
def test_per_site_tier_replays_with_live_patches(trace):
    """The replay oracle: record the checksum guest (live profiler
    patch firing every lap) under the seed interpreter, replay the
    per-site engine tiers (traced and chained) against the journal —
    zero divergence."""
    report = replay.differential_replay(
        lambda: build_checksum_program()[0],
        config=FPVMConfig.seq_short(uops=True),
        trace=trace,
        trace_threshold=2,
    )
    assert report.ok, report.describe()
