"""Patch-invisibility conformance: the guest must never observe the host.

FPVM's correctness patching plants pre-hooks in front of guest
instructions.  Patches are metadata in ``Program.patches`` that only
the front end consults (``machine/program.py``); they never splice
bytes, so guest *loads* from text addresses read the pristine
``Program.text`` the CPU maps at load time.  This module
holds the guest programs and reports that make that guarantee — the
"LazyFP axis": *guest must never observe host instrumentation state* —
checkable end to end:

- :func:`self_checksum_report`: a guest that checksums its own text
  bytes and prints the sum.  The printed checksum (and the text-region
  memory digest) must be bit-identical across patch configurations
  NONE / SEQ / SEQ_SHORT — with real profiler-discovered patches and
  live compiled traces — and must equal the host-computed checksum of
  the pristine text.  The negative control (text pages overwritten with
  the ``int3``/``call`` marker bytes a binary patcher would splice in)
  lives in ``test_code_views.py``: there the same guest *must* see the
  markers, proving the check is load-bearing rather than vacuously
  equal.
- :func:`self_reading_report`: a guest that reads its own bytes every
  loop iteration while the chained tier holds live cached superblocks —
  every tier must agree bit-for-bit with the seed interpreter, with the
  chained tier's blocks demonstrably reused.
"""

from __future__ import annotations

from unittest import mock

from repro.core import sequences
from repro.core.telemetry import thread_metrics
from repro.core.vm import FPVM, FPVMConfig
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, TIERS
from repro.machine.hostlib import install_host_library
from repro.machine.program import TEXT_BASE

MAX_STEPS = 2_000_000

#: Sums the first ``{words}`` u64 words of its own text section while
#: doing demotion-prone FP work in the same loop, then prints the
#: checksum (integer) and the FP accumulator.  Each lap also spills
#: the FP accumulator and integer-loads the raw bits back into the
#: checksum — the §5.1 memory-escape pattern — so the profiler plants
#: a real correctness patch *inside the checksum loop*: the guest is
#: simultaneously observing its own text bytes and raw FP bit
#: patterns while the pre-hook fires every iteration.
CHECKSUM_SRC = """
.data
acc: .double 1.0
tiny: .double 4.9e-324
spill: .double 0.0
n: .quad {words}
.text
main:
  movsd xmm0, [rip + acc]
  movsd xmm1, [rip + tiny]
  mov rax, 0
  mov rbx, 0x400000
  mov rcx, [rip + n]
top:
  mov rdx, [rbx]
  add rax, rdx
  add rbx, 8
  addsd xmm0, xmm1
  mulsd xmm0, xmm1
  movsd xmm2, [rip + acc]
  addsd xmm0, xmm2
  movsd [rip + spill], xmm0
  mov rdx, [rip + spill]
  add rax, rdx
  dec rcx
  jne top
  mov rdi, rax
  call print_i64
  call print_f64
  hlt
"""

#: Reads one word of its own text each lap of a hot FP loop — the
#: chained tier re-runs the loop's cached superblock while the guest
#: keeps observing its own (pristine) bytes.
SELF_READING_SRC = """
.data
k: .double 1.0001
n: .quad {n}
.text
main:
  mov rcx, [rip + n]
  mov rbx, 0x400000
  mov rax, 0
  movsd xmm0, [rip + k]
  movsd xmm1, [rip + k]
top:
  mov rdx, [rbx]
  add rax, rdx
  mulsd xmm0, xmm1
  addsd xmm0, xmm1
  subsd xmm0, xmm1
  dec rcx
  jne top
  mov rdi, rax
  call print_i64
  call print_f64
  hlt
"""


def build_checksum_program(words: int | None = None):
    """Assemble the self-checksumming guest.  Operand encodings are
    fixed-width, so a two-pass assembly (measure, then re-assemble with
    the real word count) converges immediately; by default the guest
    checksums its entire text section."""
    if words is None:
        probe = assemble(CHECKSUM_SRC.format(words=1))
        words = len(probe.text) // 8
    program = assemble(CHECKSUM_SRC.format(words=words))
    install_host_library(program)
    return program, words


def native_reference(words: int) -> tuple[str, ...]:
    """Ground truth: the same guest run bare — no FPVM attached, no
    patches anywhere — through the seed interpreter."""
    program, _ = build_checksum_program(words)
    cpu = CPU(program, uops=False)
    cpu.kernel = LinuxKernel()
    cpu.run(max_steps=MAX_STEPS)
    return tuple(cpu.output)


def _text_digest(cpu, program) -> str:
    """SHA-256 of the guest-visible text region (read through memory,
    like a guest load would)."""
    import hashlib

    return hashlib.sha256(
        cpu.mem.read_bytes(TEXT_BASE, len(program.text))).hexdigest()


_CONFIGS = {
    "none": FPVMConfig.none,
    "seq": FPVMConfig.seq,
    "seq_short": FPVMConfig.seq_short,
}


def self_checksum_report(trace_threshold: int = 2) -> dict:
    """Run the self-checksumming guest under NONE / SEQ / SEQ_SHORT
    with live patching and a low compiled-trace threshold; returns per-
    config output, patch counts, text digests, and the ground truth."""
    with mock.patch.object(sequences, "TRACE_COMPILE_THRESHOLD", trace_threshold):
        return _self_checksum_report()


def _self_checksum_report() -> dict:
    import hashlib

    report: dict = {"configs": {}}
    _, words = build_checksum_program()
    report["words"] = words
    reference = native_reference(words)
    report["reference_output"] = reference
    pristine = None
    for name, preset in _CONFIGS.items():
        program, _ = build_checksum_program(words)
        if pristine is None:
            pristine = hashlib.sha256(program.text).hexdigest()
            report["pristine_text_digest"] = pristine
        cpu = CPU(program)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        vm = FPVM(preset()).attach(cpu, kernel)
        cpu.run(max_steps=MAX_STEPS)
        report["configs"][name] = {
            "output": tuple(cpu.output),
            "checksum": cpu.output[0] if cpu.output else None,
            "patches": len(program.patches),
            "patched_sites": list(vm.patched_sites),
            "compiled_traces": vm.telemetry.compiled_traces,
            "text_digest": _text_digest(cpu, program),
        }
    outputs = {c["output"] for c in report["configs"].values()}
    digests = {c["text_digest"] for c in report["configs"].values()}
    report["bit_identical"] = (
        outputs == {reference} and digests == {pristine})
    return report


def self_reading_report(n: int = 400) -> dict:
    """Run the self-reading guest through every execution tier;
    returns per-tier output/fingerprint and chained-tier vacuity info."""
    report: dict = {"tiers": {}}
    for name, uops in TIERS.items():
        program = assemble(SELF_READING_SRC.format(n=n))
        install_host_library(program)
        cpu = CPU(program, uops=uops)
        cpu.kernel = LinuxKernel()
        cpu.run(max_steps=MAX_STEPS)
        m = thread_metrics(cpu)
        report["tiers"][name] = {
            "output": tuple(cpu.output),
            "instructions": cpu.instruction_count,
            "cycles": cpu.cycles,
            "blocks_built": m.get("uop.blocks_built", 0),
            "block_runs": m.get("uop.block_runs", 0),
        }
    outputs = {t["output"] for t in report["tiers"].values()}
    fingerprints = {(t["instructions"], t["cycles"])
                    for t in report["tiers"].values()}
    report["bit_identical"] = len(outputs) == 1 and len(fingerprints) == 1
    chained = report["tiers"]["chained"]
    report["blocks_live"] = chained["block_runs"] > chained["blocks_built"]
    return report
