"""Fleet determinism, crash-retry, and quota tests (tier-1, fast).

The contract under test: a guest's ledger — stdout, simulated cycles,
instruction count, trap counts, per-thread breakdown — is a function of
the job alone.  Serial cold execution, the in-process warm path
(``workers=0``), and any multiprocess pool must all produce
bit-identical fingerprints, crashes and retries included, and fleet
totals must reconcile against serial execution to the cycle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import FleetQuotaError, FleetWorkerError
from repro.fleet import (
    FleetScheduler,
    GuestJob,
    TenantQuota,
    make_batch,
    run_guest,
)

pytestmark = pytest.mark.fleet

GUESTS = 8
SCALE = 60  # small lorenz: ~1ms/guest warm, big enough to loop


@pytest.fixture(scope="module")
def batch():
    return make_batch("lorenz", GUESTS, scale=SCALE)


@pytest.fixture(scope="module")
def serial_oracle(batch):
    """Every guest cold (fresh build + load, no sharing), serially."""
    return {j.job_id: run_guest(j, None) for j in batch}


def test_inline_matches_serial(batch, serial_oracle):
    """workers=0: warm templates + COW images, still bit-identical."""
    report = FleetScheduler(workers=0).run(batch)
    assert report.fingerprints() == {
        jid: r.fingerprint() for jid, r in serial_oracle.items()}
    # the warm path must actually share: every guest COW-faults at
    # least once (its first write to the shared image).
    assert all(r.metrics["mem.cow_faults"] > 0 for r in report.results)
    assert report.fleet["cpu.cycles"] == sum(
        r.cycles for r in serial_oracle.values())


def test_two_workers_match_serial(batch, serial_oracle):
    """The ISSUE determinism gate: 8 guests, 2 workers, bit-identical
    per-guest ledgers vs serial execution."""
    report = FleetScheduler(workers=2).run(batch)
    assert not report.failed and not report.rejected
    assert report.fingerprints() == {
        jid: r.fingerprint() for jid, r in serial_oracle.items()}
    assert report.fleet["guests"] == GUESTS
    assert report.fleet["mem.cow_faults"] > 0
    # exact ledger reconciliation, not sampled
    assert report.fleet["cpu.cycles"] == sum(
        r.cycles for r in serial_oracle.values())
    assert report.fleet["cpu.instructions"] == sum(
        r.instructions for r in serial_oracle.values())


def test_crash_injection_retries_exactly_once(batch, serial_oracle):
    """A worker killed mid-batch: the held job is retried exactly once
    on a fresh worker, every ledger stays bit-identical, and no cycle
    is double-counted."""
    jobs = list(batch)
    jobs[2] = dataclasses.replace(jobs[2], fault="crash_once")
    report = FleetScheduler(workers=2).run(jobs)
    assert not report.failed and not report.rejected
    assert report.crashes == 1
    assert report.retries == 1
    by_id = {r.job_id: r for r in report.results}
    assert by_id[jobs[2].job_id].attempts == 2
    assert all(by_id[j.job_id].attempts == 1
               for j in jobs if j.job_id != jobs[2].job_id)
    # crash + retry must not perturb results or double-count cycles
    assert report.fingerprints() == {
        jid: r.fingerprint() for jid, r in serial_oracle.items()}
    assert report.fleet["cpu.cycles"] == sum(
        r.cycles for r in serial_oracle.values())


def test_crash_beyond_retry_budget_is_typed(batch):
    """retries=0: the crashing job fails with FleetWorkerError carrying
    its job id; the rest of the batch still completes."""
    jobs = list(batch[:4])
    jobs[0] = dataclasses.replace(jobs[0], fault="crash_once")
    report = FleetScheduler(workers=2, retries=0).run(jobs)
    assert len(report.failed) == 1
    err = report.failed[0]
    assert isinstance(err, FleetWorkerError)
    assert err.fault == "fleet_worker"
    assert err.job_ids == (jobs[0].job_id,)
    assert sorted(r.job_id for r in report.results) == [
        j.job_id for j in jobs[1:]]


def test_max_guests_quota_rejects_typed(batch):
    quotas = {"default": TenantQuota(max_guests=3)}
    report = FleetScheduler(workers=0, quotas=quotas).run(batch)
    assert len(report.results) == 3
    assert len(report.rejected) == GUESTS - 3
    for job, err in report.rejected:
        assert isinstance(err, FleetQuotaError)
        assert err.fault == "fleet_quota"
        assert err.job_id == job.job_id
        assert err.tenant == "default"
    # first-come-first-admitted: the lowest job_ids survive
    assert [r.job_id for r in report.results] == [0, 1, 2]


@pytest.mark.parametrize("workers", [0, 2])
def test_max_cycles_quota_is_deterministic(batch, serial_oracle, workers):
    """A cycle budget admits the same prefix whether the batch runs
    inline or across a pool: budgeted tenants are dispatched serially
    so the rejection set never depends on worker timing."""
    per_guest = serial_oracle[0].cycles
    # budget for exactly three guests
    quotas = {"default": TenantQuota(max_cycles=3 * per_guest)}
    report = FleetScheduler(workers=workers, quotas=quotas).run(batch)
    assert [r.job_id for r in report.results] == [0, 1, 2]
    assert sorted(j.job_id for j, _ in report.rejected) == list(
        range(3, GUESTS))
    assert all(isinstance(err, FleetQuotaError)
               for _, err in report.rejected)


def test_guest_error_is_result_not_retry():
    """A deterministic guest failure travels back as an error result
    (never a crash/retry): here an instruction-budget exhaustion."""
    job = GuestJob(job_id=0, workload="lorenz", scale=SCALE,
                   max_instructions=10)
    result = run_guest(job, None)
    assert result.error is not None
    report = FleetScheduler(workers=0).run([job])
    assert report.results[0].error == result.error
    assert report.results[0].fingerprint() == result.fingerprint()


def test_multithreaded_guests_in_fleet():
    """Process-based guests (lorenz_mt) ride the fleet too, with
    per-thread ledgers preserved bit-for-bit."""
    jobs = make_batch("lorenz_mt", 3, scale=80)
    cold = {j.job_id: run_guest(j, None) for j in jobs}
    assert all(r.threads is not None and len(r.threads) > 1
               for r in cold.values())
    report = FleetScheduler(workers=0).run(jobs)
    assert report.fingerprints() == {
        jid: r.fingerprint() for jid, r in cold.items()}


def test_lazy_fp_counters_reconcile_across_fleet():
    """Per-guest lazy-FP scheduler counters (ownership switches, elided
    saves) must travel through the fleet unchanged and reconcile exactly:
    serial == inline scheduler, per-worker sums == fleet totals."""
    from repro.harness.report import render_fleet

    jobs = make_batch("mixed_mt", 3, scale=30)
    keys = ("sched.fp_switches", "sched.fp_saves_elided")
    cold = {j.job_id: run_guest(j, None) for j in jobs}
    assert all(r.metrics[k] > 0 for r in cold.values() for k in keys)

    report = FleetScheduler(workers=0).run(jobs)
    by_id = {r.job_id: r for r in report.results}
    for jid, r in cold.items():
        for k in keys:
            assert by_id[jid].metrics[k] == r.metrics[k]

    fleet = report.fleet
    per_worker = fleet["per_worker"]
    for k in keys:
        assert fleet[k] == sum(r.metrics[k] for r in report.results)
        assert sum(w[k] for w in per_worker.values()) == fleet[k]

    text = render_fleet(fleet, "fleet")
    assert "FP switches/elided" in text
    assert f"{fleet[keys[0]]:>10} / {fleet[keys[1]]}" in text


def test_warm_template_reuses_caches(batch):
    """Every guest of a template runs on the template's shared image and
    warm superblock cache: each clones the image copy-on-write, and
    each retired guest's block view is released, so a long-lived
    worker's shared cache stays bounded however many guests it hosts."""
    from repro.fleet.worker import WorkloadTemplate

    template = WorkloadTemplate(batch[0])
    results = [run_guest(job, template) for job in batch[:3]]
    assert all(r.error is None and r.metrics["mem.cow_faults"] > 0
               for r in results)
    assert all(r.metrics["uop.block_runs"] > r.metrics["uop.blocks_built"]
               for r in results)
    # the shared cache's counters belong to the template, not a guest.
    assert not any(k.startswith("sbcache.") for r in results for k in r.metrics)
    assert len({r.output for r in results}) == 1
    assert template.guests_run == 3
    assert template.sb_cache.views == {}
    assert template.sb_cache.cached_blocks == 0


def test_template_patch_mid_batch_spares_other_guests():
    """Satellite: patching one workload template mid-batch must only
    invalidate the covering artifacts — resident guests' unrelated warm
    blocks survive (new per-site counters) and later guests of the same
    template still print the same output."""
    from repro.fleet.worker import WorkloadTemplate
    from repro.kernel.kernel import LinuxKernel
    from repro.machine.cpu import CPU

    jobs = make_batch("lorenz", 4, scale=SCALE)
    template = WorkloadTemplate(jobs[0])
    run_guest(jobs[0], template)
    warm = run_guest(jobs[1], template)
    assert warm.error is None

    # A resident guest holding live views in the shared cache (as a
    # concurrently-running guest of the same template would).
    resident = CPU.from_image(template.program, template.image,
                              uops=True)
    resident._sb_cache = template.sb_cache
    resident.kernel = LinuxKernel()
    resident.run()
    cache = template.sb_cache
    view = cache.views[resident._sb_view_key]
    live_blocks = len(view)
    assert live_blocks > 1

    # Patch the entry of the first live block, so only the blocks
    # covering it (not the hot loop) are stale.
    site = next(b.entry for b in view.values() if b.end > b.entry)
    fired = []
    inv0, surv0 = cache.invalidated_blocks, cache.survived_blocks
    template.program.patch_call(site, lambda cpu, rip: fired.append(rip))

    post = run_guest(jobs[2], template)
    assert post.error is None
    assert fired                                   # the pre-hook is live
    # per-site: the covering block died, the rest of the resident
    # guest's warm state survived the patch.
    assert cache.invalidated_blocks > inv0
    assert cache.survived_blocks > surv0
    assert len(view) >= live_blocks - (cache.invalidated_blocks - inv0)
    assert len(view) > live_blocks // 2
    assert post.output == warm.output
