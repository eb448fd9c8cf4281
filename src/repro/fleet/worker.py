"""Fleet workers: one OS process hosting many sequential guests.

The scaling trick is amortization.  A worker builds each distinct
program **once** — compiled, host-library-installed, and eagerly
micro-op-lowered — and keeps, per program:

- a pristine post-load memory **image**; every guest's address space
  is a copy-on-write clone of it (``Memory.clone_pages``), so program
  text, data, and the untouched stack page are shared read-only until
  a guest's first write materializes a private page (``cow_faults``);
- a warm :class:`~repro.machine.uops.SuperblockCache` shared by its
  guests — superblock bodies are per-CPU bound closures and cannot be
  reused, but the patch-epoch mirror, capacity bounds, and the
  sequence-emulator trace pool are; dead guests' views are released
  after each run so a long-lived worker stays bounded.

Semantics are untouched by all of this: a guest built from a template
retires the same instructions, cycles, traps, and output as a cold
guest — the bench and the fleet pytest suite assert it bit-for-bit.
"""

from __future__ import annotations

import os
import time

from repro.core.telemetry import run_metrics
from repro.fleet.jobs import GuestJob, GuestResult
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.machine.process import Process
from repro.machine.uops import SuperblockCache, lower_program
from repro.workloads import build_program, get_workload

class WorkloadTemplate:
    """One program's shared, read-only substrate inside a worker."""

    def __init__(self, job: GuestJob):
        kwargs = dict(job.build_kwargs)
        self.program = build_program(job.workload, job.scale, **kwargs)
        #: eager lowering: every guest shares one MicroOp per
        #: instruction (cached on the instruction objects themselves).
        self.uop_count = lower_program(self.program)
        self.requires_process = get_workload(job.workload).requires_process
        #: pristine loaded image; guests clone it copy-on-write.  The
        #: loader CPU is discarded — only its memory survives.
        self.image = CPU(self.program).mem
        #: warm per-program cache shared by this worker's guests.
        self.sb_cache = SuperblockCache()
        self.guests_run = 0


#: template_key -> WorkloadTemplate, per worker process.
_TEMPLATES: dict[tuple, WorkloadTemplate] = {}


def get_template(job: GuestJob) -> WorkloadTemplate:
    key = job.template_key
    template = _TEMPLATES.get(key)
    if template is None:
        template = _TEMPLATES[key] = WorkloadTemplate(job)
    return template


def run_guest(job: GuestJob, template: WorkloadTemplate | None = None) -> GuestResult:
    """Execute one guest to completion and return its full ledger.

    With a ``template`` the guest rides the warm path (shared program,
    COW image, warm caches); without one it runs cold — a fresh program
    build and load, exactly like ``run_native`` / ``run_native_process``.
    Both paths must produce identical fingerprints; the cold path is
    the serial oracle the fleet benchmarks compare against.
    """
    result = GuestResult(job_id=job.job_id, tenant=job.tenant,
                         workload=job.workload)
    if template is None:
        program = build_program(job.workload, job.scale,
                                **dict(job.build_kwargs))
        requires_process = get_workload(job.workload).requires_process
        image = sb_cache = None
    else:
        program = template.program
        requires_process = template.requires_process
        image = template.image
        sb_cache = template.sb_cache

    kernel = LinuxKernel()
    cpus: list = []
    try:
        if requires_process:
            proc = Process(program, max_instructions=job.max_instructions,
                           uops=job.uops, image=image, sb_cache=sb_cache)
            proc.kernel = kernel
            cpus = proc.threads  # live list: spawns during run() land here
            t0 = time.perf_counter()
            proc.run(quantum=job.quantum)
            result.seconds = time.perf_counter() - t0
            result.output = tuple(proc.main.output)
            result.cycles = proc.total_cycles
            result.instructions = sum(t.instruction_count for t in cpus)
            result.threads = tuple(
                (t.tid, t.cycles, t.instruction_count,
                 t.fp_trap_count, t.bp_trap_count)
                for t in cpus
            )
            sched = proc.sched
            mem = proc.mem
        else:
            if image is not None:
                cpu = CPU.from_image(program, image,
                                     max_instructions=job.max_instructions,
                                     uops=job.uops)
                cpu._sb_cache = sb_cache
            else:
                cpu = CPU(program, max_instructions=job.max_instructions,
                          uops=job.uops)
            cpu.kernel = kernel
            cpus = [cpu]
            sched = None
            t0 = time.perf_counter()
            cpu.run()
            result.seconds = time.perf_counter() - t0
            result.output = tuple(cpu.output)
            result.cycles = cpu.cycles
            result.instructions = cpu.instruction_count
            mem = cpu.mem
        result.fp_traps = sum(t.fp_trap_count for t in cpus)
        result.bp_traps = sum(t.bp_trap_count for t in cpus)
        # A warm guest's cache is the worker's, not the guest's.
        own_cache = None if template is not None else cpus[0]._sb_cache
        result.metrics = run_metrics(cpus, (sched, "sched"), (mem, "mem"),
                                     (own_cache, "sbcache"))
    except Exception as exc:  # deterministic guest failure: no retry
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        if template is not None:
            template.guests_run += 1
            for cpu in cpus:
                template.sb_cache.release(cpu)
    return result


def worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker process entry point: pull ``(job, attempt)`` messages off
    the private task queue until the ``None`` sentinel.  Guest
    exceptions come back as error results (deterministic, not retried);
    only a *process death* is a crash, which the scheduler detects via
    ``exitcode`` and retries on a fresh worker."""
    while True:
        msg = task_queue.get()
        if msg is None:
            return
        job, attempt = msg
        if job.fault == "crash_once" and attempt == 0:
            # the crash-injection seam: die hard, mid-"run", without
            # reporting — exactly what a segfaulting worker looks like.
            os._exit(17)
        result = run_guest(job, get_template(job))
        result.worker = worker_id
        result_queue.put(result)
