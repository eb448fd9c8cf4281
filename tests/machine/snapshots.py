"""A ucontext-style copy of a register file for the tests that clone
or round-trip register state (fork, the snapshot properties): every
architectural field plus the lazy-FP dirty and live lane masks."""

from repro.machine.registers import RegisterFile


def snapshot(regs: RegisterFile) -> dict:
    return {
        "gpr": list(regs.gpr),
        "xmm": [list(lanes) for lanes in regs.xmm],
        "rip": regs.rip,
        "flags": regs.flags.copy(),
        "mxcsr": regs.mxcsr,
        "fp_dirty": regs.fp_dirty,
        "fp_live": regs.fp_live,
    }


def restore(regs: RegisterFile, snap: dict) -> None:
    """Copy ``snap`` back into ``regs``, sharing no list with it."""
    regs.gpr = list(snap["gpr"])
    regs.xmm = [list(lanes) for lanes in snap["xmm"]]
    regs.rip = snap["rip"]
    regs.flags = snap["flags"].copy()
    regs.mxcsr = snap["mxcsr"]
    regs.fp_dirty = snap["fp_dirty"]
    regs.fp_live = snap["fp_live"]
