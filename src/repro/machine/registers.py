"""Register file: GPRs, XMMs, RFLAGS, MXCSR."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import ne

from repro.machine.isa import GPR_NAMES, XMM_NAMES

U64 = 0xFFFF_FFFF_FFFF_FFFF


@dataclass
class Flags:
    """The RFLAGS bits the simulated ISA exposes."""

    zf: bool = False
    sf: bool = False
    cf: bool = False
    of: bool = False
    pf: bool = False

    def copy(self) -> "Flags":
        return Flags(self.zf, self.sf, self.cf, self.of, self.pf)


# MXCSR layout (subset): status flags in bits 0-5, mask bits in 7-12.
MXCSR_IE = 1 << 0   # invalid
MXCSR_DE = 1 << 1   # denormal operand
MXCSR_ZE = 1 << 2   # divide by zero
MXCSR_OE = 1 << 3   # overflow
MXCSR_UE = 1 << 4   # underflow
MXCSR_PE = 1 << 5   # precision (inexact)
MXCSR_STATUS_MASK = 0x3F

MXCSR_IM = 1 << 7   # invalid masked
MXCSR_DM = 1 << 8
MXCSR_ZM = 1 << 9
MXCSR_OM = 1 << 10
MXCSR_UM = 1 << 11
MXCSR_PM = 1 << 12
MXCSR_MASK_ALL = MXCSR_IM | MXCSR_DM | MXCSR_ZM | MXCSR_OM | MXCSR_UM | MXCSR_PM

# Rounding control (RC) field, bits 13-14: 00 nearest, 01 down (toward
# -inf), 10 up (toward +inf), 11 toward zero.
MXCSR_RC_SHIFT = 13
MXCSR_RC_MASK = 0b11 << MXCSR_RC_SHIFT
RC_NEAREST, RC_DOWN, RC_UP, RC_ZERO = 0, 1, 2, 3
_RC_MODE_NAMES = {RC_NEAREST: "ne", RC_DOWN: "dn", RC_UP: "up", RC_ZERO: "zr"}


#: every XMM lane as a mask (bit ``2*xid + lane``): 32 of them.
ALL_LANES = 0xFFFF_FFFF


def restore_lanes(bank: list[list[int]], pairs: list[list[int]], mask: int) -> None:
    """Write back into the XMM ``bank`` (16 ``[lane0, lane1]`` lists)
    the lanes of its saved copy ``pairs`` that ``mask`` selects (bit
    ``2*xid + lane``), visiting only the pairs that differ from it."""
    if mask:
        for xid in compress(range(16), map(ne, bank, pairs)):
            lanes = mask >> 2 * xid & 3
            if lanes == 3:
                bank[xid][:] = pairs[xid]
            elif lanes:
                bank[xid][lanes - 1] = pairs[xid][lanes - 1]


def rounding_mode(mxcsr: int) -> str:
    """The :mod:`repro.fpu.bits` mode string selected by MXCSR.RC."""
    return _RC_MODE_NAMES[(mxcsr & MXCSR_RC_MASK) >> MXCSR_RC_SHIFT]


#: Power-on MXCSR: all exceptions masked (the native configuration).
MXCSR_DEFAULT = MXCSR_MASK_ALL

#: FPVM's MXCSR: unmask Invalid, Denormal, Overflow, Underflow and
#: Precision so each of those conditions faults (§2.3).  Divide-by-zero
#: stays masked in the paper's configuration only insofar as it is not
#: listed; we unmask it too since 0/0 raises Invalid anyway and x/0
#: produces an infinity FPVM wants to see.
MXCSR_FPVM = 0


def unmasked_status(mxcsr: int) -> int:
    """Status bits (0-5) whose corresponding mask bit (7-12) is clear."""
    status = mxcsr & MXCSR_STATUS_MASK
    masks = (mxcsr >> 7) & MXCSR_STATUS_MASK
    return status & ~masks


@dataclass
class RegisterFile:
    """All architectural registers.

    XMM registers are stored as pairs of 64-bit lanes (lane 0 is the
    scalar-double lane).  GPRs are unsigned 64-bit ints.
    """

    gpr: list[int] = field(default_factory=lambda: [0] * len(GPR_NAMES))
    xmm: list[list[int]] = field(
        default_factory=lambda: [[0, 0] for _ in range(len(XMM_NAMES))]
    )
    rip: int = 0
    flags: Flags = field(default_factory=Flags)
    mxcsr: int = MXCSR_DEFAULT
    #: lazy-FP metadata: 32-bit masks over the 16 XMM registers' 64-bit
    #: lanes (bit ``2*xid + lane``).  ``fp_dirty`` marks lanes written
    #: since this thread last acquired FP ownership; ``fp_live`` is the
    #: monotone union of lanes ever spilled for it (what an ownership
    #: switch must reload).  Scheduler-maintained — the fast execute
    #: paths batch-OR per-superblock summaries instead of updating this
    #: per write.
    fp_dirty: int = 0
    fp_live: int = 0

    def write_gpr(self, rid: int, value: int) -> None:
        self.gpr[rid] = value & U64

    def write_xmm_lane(self, xid: int, lane: int, value: int) -> None:
        self.xmm[xid][lane] = value & U64

    def read_xmm128(self, xid: int) -> tuple[int, int]:
        lanes = self.xmm[xid]
        return (lanes[0], lanes[1])

    def write_xmm128(self, xid: int, lo: int, hi: int) -> None:
        self.xmm[xid][0] = lo & U64
        self.xmm[xid][1] = hi & U64
