"""Fleet job and result records.

A :class:`GuestJob` is one guest process to execute — everything a
worker needs to build (or look up) the program template and run the
guest deterministically.  A :class:`GuestResult` is the per-guest
ledger: simulated cycles, instruction counts, trap counts, per-thread
breakdowns, guest latency, and the guest's metrics snapshot that the
scheduler merges.  Both must stay picklable (they cross the
worker-process boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GuestJob:
    """One guest process to run somewhere in the fleet."""

    job_id: int
    workload: str
    tenant: str = "default"
    scale: int | None = None
    quantum: int = 64
    max_instructions: int = 100_000_000
    uops: bool = True
    #: extra ``build_program`` kwargs as sorted (key, value) pairs —
    #: tuple-of-tuples so the job stays hashable and picklable.
    build_kwargs: tuple = ()
    #: test seam for the crash-injection suite: ``"crash_once"`` makes
    #: the worker process die (os._exit) on the job's *first* attempt
    #: only, so the retry path is exercised deterministically.
    fault: str | None = None

    @property
    def template_key(self) -> tuple:
        """Everything the program template depends on: jobs with equal
        keys share one built+lowered program, one pristine memory
        image, and one warm SuperblockCache inside a worker."""
        return (self.workload, self.scale, self.uops, self.build_kwargs)


@dataclass
class GuestResult:
    """One guest's complete ledger, exactly as serial execution would
    produce it (the bit-identity contract) plus fleet-side metadata."""

    job_id: int
    tenant: str
    workload: str
    #: host worker that produced the accepted result (-1 = in-process).
    worker: int = -1
    #: dispatch attempts consumed (1 = no retry; filled by scheduler).
    attempts: int = 1
    #: guest latency: host wall-clock seconds inside the worker.
    seconds: float = 0.0
    output: tuple = ()
    cycles: int = 0
    instructions: int = 0
    fp_traps: int = 0
    bp_traps: int = 0
    #: per-thread (tid, cycles, instructions, fp_traps, bp_traps) for
    #: Process guests; None for single-CPU guests.
    threads: tuple | None = None
    #: the guest's snapshot (``cpu.*``, ``uop.*``, ``sched.*``,
    #: ``mem.cow_faults``); ``sbcache.*`` only when it ran cold, on a
    #: cache of its own rather than the worker's warm one.
    metrics: dict = field(default_factory=dict)
    #: set when the guest itself raised (deterministic guest failure —
    #: never retried, unlike worker crashes).
    error: str | None = None

    def fingerprint(self) -> tuple:
        """The bit-identity observable: everything the guest computed.
        Two executions of the same job must compare equal here whether
        they ran serially, cold, warm, or on any worker."""
        return (self.output, self.cycles, self.instructions,
                self.fp_traps, self.bp_traps, self.threads, self.error)


def make_batch(
    workload: str,
    guests: int,
    scale: int | None = None,
    tenant: str = "default",
    start_id: int = 0,
    **kw,
) -> list[GuestJob]:
    """A homogeneous batch of ``guests`` jobs for one workload."""
    return [
        GuestJob(job_id=start_id + i, workload=workload, tenant=tenant,
                 scale=scale, **kw)
        for i in range(guests)
    ]
