"""Fleet job and result records.

A :class:`GuestJob` is one guest process to execute — everything a
worker needs to build (or look up) the program template and run the
guest deterministically.  A :class:`GuestResult` is the per-guest
ledger the scheduler aggregates: simulated cycles, instruction counts,
trap counts, per-thread breakdowns, guest latency, and the COW /
warm-cache counters.  Both must stay picklable (they cross the
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
    trace: bool = True
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
        return (self.workload, self.scale, self.uops, self.trace,
                self.build_kwargs)


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
    #: pages privately materialized by this guest's writes (0 when the
    #: guest ran cold, without a template).
    cow_faults: int = 0
    #: lazy-FP scheduler telemetry (§3.1): modeled #NM ownership
    #: switches and dispatches whose XMM spill was elided (0 for
    #: single-CPU guests — no scheduler, no switches).
    fp_switches: int = 0
    fp_saves_elided: int = 0
    #: merged UopStats.as_dict() subset across the guest's thread CPUs.
    uop: dict = field(default_factory=dict)
    #: set when the guest itself raised (deterministic guest failure —
    #: never retried, unlike worker crashes).
    error: str | None = None

    def fingerprint(self) -> tuple:
        """The bit-identity observable: everything the guest computed.
        Two executions of the same job must compare equal here whether
        they ran serially, cold, warm, or on any worker."""
        return (self.output, self.cycles, self.instructions,
                self.fp_traps, self.bp_traps, self.threads, self.error)

    def row(self) -> dict:
        """The aggregation row ``telemetry.aggregate_fleet_stats``
        consumes."""
        return {
            "seconds": self.seconds,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "fp_traps": self.fp_traps,
            "bp_traps": self.bp_traps,
            "cow_faults": self.cow_faults,
            "fp_switches": self.fp_switches,
            "fp_saves_elided": self.fp_saves_elided,
            "worker": self.worker,
            "uop": self.uop,
        }


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
