"""Fleet scheduler: admission, quotas, dispatch, retry, aggregation.

The front-end of the fleet.  Jobs are admitted from a submission list
against per-tenant quotas, dispatched one at a time to a pool of
worker processes (each worker owns a private task queue; results come
back on one shared queue), and aggregated into a fleet-level
:class:`~repro.harness.runner.HostPerf` with p50/p99 guest latency and
guests/sec.

Failure model
-------------
*Guest* failures are deterministic: the guest raises, the worker
catches, and the error travels back as a typed result — retrying a
deterministic failure would just fail again, so it is not retried.
*Worker* failures are host-side crashes: the worker process dies with
jobs in flight.  Those jobs are requeued on a fresh worker (the dead
worker's private queue is abandoned, so a stale dispatch can never be
consumed twice) at most ``retries`` times each; a job whose workers
keep dying surfaces as a typed
:class:`~repro.errors.FleetWorkerError`.  Because only *accepted
results* are aggregated — a crashed attempt reports nothing — no cycle
is ever double-counted across retries, which the crash-injection suite
asserts against serial totals.

Quotas
------
``TenantQuota.max_guests`` caps how many jobs a tenant may land in one
batch; excess jobs are rejected at admission with a typed
:class:`~repro.errors.FleetQuotaError` record.  ``max_cycles`` is a
simulated-cycle budget: a tenant with a cycle budget has its jobs
dispatched *in submission order, one at a time* (admission control
needs the previous job's exact ledger before it can admit the next),
and the first job that would start beyond an exhausted budget — plus
everything behind it — is rejected.  Deterministic by construction:
the rejection set never depends on worker timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.telemetry import merge, percentile, rates
from repro.errors import FleetQuotaError, FleetWorkerError
from repro.fleet.jobs import GuestJob, GuestResult
from repro.fleet.worker import get_template, run_guest, worker_main

#: how long the dispatch loop blocks on the result queue before
#: re-checking worker liveness.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant."""

    #: max jobs accepted per batch (None = unlimited).
    max_guests: int | None = None
    #: simulated-cycle budget across the tenant's accepted jobs
    #: (None = unlimited).  Enforced exactly, not sampled — see the
    #: module docstring for the serialization this implies.
    max_cycles: int | None = None


@dataclass
class FleetReport:
    """Everything one batch produced."""

    #: accepted per-guest ledgers, ordered by job_id.
    results: list = field(default_factory=list)
    #: (job, FleetQuotaError) admission rejections, in submission order.
    rejected: list = field(default_factory=list)
    #: FleetWorkerError per job whose workers kept crashing.
    failed: list = field(default_factory=list)
    workers: int = 0
    wall_seconds: float = 0.0
    retries: int = 0
    crashes: int = 0
    #: the fleet summary (:func:`fleet_summary`).
    fleet: dict = field(default_factory=dict)
    #: fleet-level HostPerf (filled by harness.runner.run_fleet).
    host: object = None

    def fingerprints(self) -> dict:
        return {r.job_id: r.fingerprint() for r in self.results}


def _merged(results) -> dict:
    """The exact merge of ``results``' snapshots, its ``guests`` count
    and the ratios derived from the merged counts."""
    metrics = merge(*(r.metrics for r in results))
    return {"guests": len(results), **metrics, **rates(metrics)}


def fleet_summary(report: FleetReport) -> dict:
    """The accepted guests merged as a whole and per worker, with
    latency percentiles, guests/sec and admission and crash counts.
    Nothing is sampled: fleet totals reconcile against serial execution
    to the cycle (the Mhatre & Chandran exactness property)."""
    results = report.results
    latencies = [r.seconds for r in results]
    by_worker: dict = {}
    for r in results:
        by_worker.setdefault(r.worker, []).append(r)
    wall = report.wall_seconds
    return {
        **_merged(results),
        "workers": report.workers,
        "wall_seconds": wall,
        "guests_per_sec": len(results) / wall if wall > 0 else 0.0,
        "p50_latency": percentile(latencies, 50),
        "p99_latency": percentile(latencies, 99),
        "max_latency": max(latencies, default=0.0),
        "retries": report.retries,
        "crashes": report.crashes,
        "rejected": len(report.rejected),
        "failed": len(report.failed),
        "per_worker": {w: _merged(by_worker[w]) for w in sorted(by_worker)},
    }


class _Worker:
    """One live worker process + its private task queue.

    Queues are ``SimpleQueue``s on purpose: unlike ``mp.Queue`` they
    have no background feeder thread, so a ``put`` is a synchronous
    locked pipe write that either lands or raises in the caller — no
    silently-dropped dispatch on a feeder error, and no
    fork-while-feeder-holds-a-lock hazard when a *replacement* worker
    is forked mid-batch after a crash."""

    __slots__ = ("proc", "task_queue", "worker_id", "inflight")

    def __init__(self, ctx, worker_id: int, result_queue):
        self.worker_id = worker_id
        self.task_queue = ctx.SimpleQueue()
        #: (job, attempt) currently dispatched, or None when idle.
        self.inflight = None
        self.proc = ctx.Process(
            target=worker_main,
            args=(worker_id, self.task_queue, result_queue),
            daemon=True,
        )
        self.proc.start()


class FleetScheduler:
    """Admit, dispatch, retry, aggregate.

    ``workers=0`` runs every admitted job in-process (no
    multiprocessing, no retry machinery) through the same warm-template
    path — the mode unit tests and single-core hosts use.
    """

    def __init__(
        self,
        workers: int = 2,
        quotas: dict[str, TenantQuota] | None = None,
        retries: int = 1,
        start_method: str | None = None,
    ):
        self.workers = workers
        self.quotas = dict(quotas or {})
        self.retries = retries
        self.start_method = start_method

    # ---------------------------------------------------------- admission
    def _admit(self, jobs) -> tuple[list, list, set]:
        """Split submissions into (admitted, rejected) on the quotas
        that are checkable up front; returns the set of tenants whose
        cycle budgets force serialized dispatch."""
        admitted: list[GuestJob] = []
        rejected: list = []
        counts: dict[str, int] = {}
        serialized: set[str] = set()
        for job in jobs:
            quota = self.quotas.get(job.tenant)
            if quota is not None and quota.max_cycles is not None:
                serialized.add(job.tenant)
            n = counts.get(job.tenant, 0)
            if (quota is not None and quota.max_guests is not None
                    and n >= quota.max_guests):
                rejected.append((job, FleetQuotaError(
                    f"tenant {job.tenant!r} at max_guests="
                    f"{quota.max_guests}: job {job.job_id} rejected",
                    tenant=job.tenant, job_id=job.job_id)))
                continue
            counts[job.tenant] = n + 1
            admitted.append(job)
        return admitted, rejected, serialized

    def _budget_left(self, tenant: str, spent: dict[str, int]) -> bool:
        quota = self.quotas.get(tenant)
        if quota is None or quota.max_cycles is None:
            return True
        return spent.get(tenant, 0) < quota.max_cycles

    def _reject_over_budget(self, job: GuestJob) -> tuple:
        quota = self.quotas[job.tenant]
        return (job, FleetQuotaError(
            f"tenant {job.tenant!r} exhausted max_cycles="
            f"{quota.max_cycles}: job {job.job_id} rejected",
            tenant=job.tenant, job_id=job.job_id))

    # ----------------------------------------------------------- execution
    def run(self, jobs) -> FleetReport:
        t0 = time.perf_counter()
        admitted, rejected, serialized = self._admit(jobs)
        report = FleetReport(rejected=rejected,
                             workers=max(self.workers, 0))
        if self.workers <= 0:
            self._run_inline(admitted, report)
        else:
            self._run_pool(admitted, serialized, report)
        report.results.sort(key=lambda r: r.job_id)
        report.wall_seconds = time.perf_counter() - t0
        report.fleet = fleet_summary(report)
        return report

    def _run_inline(self, admitted, report: FleetReport) -> None:
        """workers=0: sequential in-process execution, warm templates,
        exact cycle-budget admission for free (everything is already
        serial)."""
        spent: dict[str, int] = {}
        for job in admitted:
            if not self._budget_left(job.tenant, spent):
                report.rejected.append(self._reject_over_budget(job))
                continue
            result = run_guest(job, get_template(job))
            spent[job.tenant] = spent.get(job.tenant, 0) + result.cycles
            report.results.append(result)

    def _run_pool(self, admitted, serialized, report: FleetReport) -> None:
        import multiprocessing as mp

        method = self.start_method
        if method is None:
            method = ("fork" if "fork" in mp.get_all_start_methods()
                      else "spawn")
        ctx = mp.get_context(method)
        # SimpleQueue: the sole parent reader polls the raw reader end
        # with a timeout; worker writes are synchronous under the
        # queue's write lock (no feeder threads anywhere).
        result_queue = ctx.SimpleQueue()
        n = min(self.workers, max(len(admitted), 1))
        next_worker_id = 0
        pool: list[_Worker] = []
        for _ in range(n):
            pool.append(_Worker(ctx, next_worker_id, result_queue))
            next_worker_id += 1

        pending = list(admitted)          # dispatch in submission order
        attempts: dict[int, int] = {}     # job_id -> attempts consumed
        jobs_by_id = {j.job_id: j for j in admitted}
        inflight_tenants: dict[str, int] = {}
        spent: dict[str, int] = {}

        def dispatchable(worker: _Worker) -> GuestJob | None:
            """First pending job this worker may take: serialized
            tenants run one job at a time and are budget-checked at
            dispatch; everyone else is greedy."""
            for i, job in enumerate(pending):
                if job.tenant in serialized:
                    if inflight_tenants.get(job.tenant, 0):
                        continue
                    if not self._budget_left(job.tenant, spent):
                        report.rejected.append(self._reject_over_budget(job))
                        pending.pop(i)
                        return dispatchable(worker)
                return pending.pop(i)
            return None

        def accept(result: GuestResult) -> None:
            result.attempts = attempts.get(result.job_id, 0)
            job = jobs_by_id[result.job_id]
            spent[job.tenant] = spent.get(job.tenant, 0) + result.cycles
            inflight_tenants[job.tenant] = max(
                0, inflight_tenants.get(job.tenant, 0) - 1)
            report.results.append(result)
            for w in pool:
                if w.inflight is not None and w.inflight[0].job_id == result.job_id:
                    w.inflight = None

        try:
            # run until every admitted job has resolved: a job leaves
            # `pending` only by dispatch or dispatch-time rejection, and
            # leaves flight only via an accepted result or a crash
            # (which either requeues it or records a failure).
            while pending or any(w.inflight is not None for w in pool):
                # keep every idle worker busy
                for w in pool:
                    if w.inflight is None and w.proc.is_alive():
                        job = dispatchable(w)
                        if job is None:
                            continue
                        attempt = attempts.get(job.job_id, 0)
                        attempts[job.job_id] = attempt + 1
                        w.inflight = (job, attempt)
                        inflight_tenants[job.tenant] = (
                            inflight_tenants.get(job.tenant, 0) + 1)
                        w.task_queue.put((job, attempt))
                if not pending and all(w.inflight is None for w in pool):
                    break
                # drain results
                if result_queue._reader.poll(_POLL_SECONDS):
                    accept(result_queue.get())
                    continue
                # no result: check for dead workers holding jobs
                for i, w in enumerate(pool):
                    if w.proc.is_alive():
                        continue
                    # drain-first: a result may have landed between the
                    # poll and the death check
                    while result_queue._reader.poll(0):
                        accept(result_queue.get())
                    held = w.inflight
                    if held is None and not pending:
                        continue
                    replacement = _Worker(ctx, next_worker_id, result_queue)
                    next_worker_id += 1
                    pool[i] = replacement
                    if held is None:
                        continue
                    job, attempt = held
                    report.crashes += 1
                    inflight_tenants[job.tenant] = max(
                        0, inflight_tenants.get(job.tenant, 0) - 1)
                    if attempt + 1 > self.retries:
                        report.failed.append(FleetWorkerError(
                            f"worker {w.worker_id} died (exit "
                            f"{w.proc.exitcode}) running job {job.job_id}; "
                            f"retry budget ({self.retries}) exhausted",
                            job_ids=(job.job_id,)))
                    else:
                        report.retries += 1
                        pending.insert(0, job)  # retry at the front
        finally:
            for w in pool:
                if w.proc.is_alive():
                    w.task_queue.put(None)
            deadline = time.monotonic() + 5.0
            for w in pool:
                w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
            result_queue.close()
