"""Typed fault taxonomy for the FPVM trap pipeline.

The paper's semantics-preservation claim (§6) is only as strong as the
runtime's ability to *notice* when the machinery underneath it
misbehaves.  Every defect the conformance fault-injection layer
(:mod:`repro.conformance.faults`) can provoke — lost or duplicated
signal deliveries, a corrupted magic page, a poisoned decode cache,
box-heap exhaustion, device protocol misuse — maps to one subclass of
:class:`FPVMFaultError` here, so a hardened component fails loudly with
a machine-classifiable error instead of silently producing wrong
numbers.  Malformed *input* stands outside that hierarchy: bytes the
decoder cannot parse raise :class:`EncodingError`, assembly source the
assembler rejects raises :class:`AssemblerError`, a mini-C module the
compiler rejects raises :class:`CompileError`, and a configuration
FPVM cannot run raises :class:`ConfigError`.  A fault of the *guest*
program itself — a bad jump, a runaway run, an access to memory it may
not touch — is a :class:`GuestFault`, whatever FPVM is doing.

The fault hierarchies derive from :class:`RuntimeError` so pre-existing
callers that caught broad runtime failures keep working.
"""

from __future__ import annotations


class EncodingError(ValueError):
    """Malformed instruction or byte stream: an unencodable operand on
    the way in, or bytes the decoder cannot parse on the way out.  Bad
    *input*, not a machinery fault, so it is not an
    :class:`FPVMFaultError`."""


class AssemblerError(ValueError):
    """Assembly source the assembler cannot accept, annotated with the
    source line.  Bad *input*, like :class:`EncodingError`."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class CompileError(ValueError):
    """A mini-C module :mod:`repro.compiler` cannot compile (an unknown
    name, an expression too deep for its registers).  Bad *input*,
    like :class:`AssemblerError`."""


class ConfigError(ValueError):
    """An :class:`~repro.core.vm.FPVMConfig` FPVM cannot run (say, a
    ``supported_instructions`` mnemonic the emulator cannot emulate)."""


class GuestFault(RuntimeError):
    """Base class for faults of the guest program as the simulated
    machine sees them (as opposed to faults in FPVM's machinery)."""


class MachineError(GuestFault):
    """Simulator-level fault (bad jump, unhandled trap, runaway run).
    Importable from :mod:`repro.machine.cpu` as well."""


class MemoryFault(GuestFault):
    """Access to unmapped memory or a permission violation.  Importable
    from :mod:`repro.machine.memory` as well."""


class FPVMFaultError(RuntimeError):
    """Base class for every fault the FPVM runtime detects in its own
    machinery (as opposed to faults in the *guest* program)."""

    #: short machine-readable fault class, stable across messages.
    fault = "generic"


class TrapStormError(FPVMFaultError):
    """The kernel observed repeated trap deliveries at one address with
    no forward progress — the livelock signature of a lost or
    mishandled delivery (the faulting instruction re-executes and
    re-faults forever)."""

    fault = "trap_storm"


class MagicPageCorruptionError(FPVMFaultError):
    """The magic-trap trampoline's rendezvous found a bad cookie or a
    dangling handler id: the magic page is unmapped, stale, or has been
    overwritten (§5.2's well-known-address protocol is broken)."""

    fault = "magic_page"


class DecodeCacheCorruptionError(FPVMFaultError):
    """A decode-cache entry disagrees with the address it is filed
    under — emulating it would execute the wrong instruction."""

    fault = "decode_cache"


class BoxHeapExhaustedError(FPVMFaultError):
    """The box allocator hit its capacity (or the 48-bit pointer
    space) and an emergency collection could not free a slot."""

    fault = "box_heap"


class BoxValueError(FPVMFaultError):
    """A value offered to the box heap that its store reads as an empty
    slot: a NaN on the flat store of Boxed IEEE, whose results FPVM
    stores as the canonical quiet NaN instead of boxing them."""

    fault = "box_value"


class DeviceProtocolError(FPVMFaultError):
    """Misuse of the /dev/fpvm_dev protocol: bad ioctl, operation on a
    closed fd, or a short-circuit delivery for an unregistered thread."""

    fault = "device"


class UnemulatableTrapError(FPVMFaultError):
    """An FP trap landed on a mnemonic outside ``supported_instructions``:
    FPVM can neither emulate it nor resume past it (it would fault again)."""

    fault = "unemulatable"


class DeadlockError(FPVMFaultError):
    """The process scheduler found live threads but none runnable —
    every surviving thread is parked in ``thread_join`` waiting on a
    thread that can never finish (a join cycle, or a join on a thread
    itself blocked forever)."""

    fault = "deadlock"


class StepLimitError(FPVMFaultError):
    """The process exceeded its global scheduler step budget — the
    multi-threaded analogue of a runaway single CPU hitting
    ``max_steps``, promoted to a typed error so harnesses can
    distinguish 'guest never terminates' from machinery faults."""

    fault = "step_limit"
