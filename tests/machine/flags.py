"""RFLAGS as an int for the tests that compare or seed register state:
CF, PF, ZF, SF and OF at their x86 bit positions."""

from repro.machine.registers import Flags


def pack_flags(flags: Flags) -> int:
    return (
        (1 if flags.cf else 0)
        | (4 if flags.pf else 0)
        | (64 if flags.zf else 0)
        | (128 if flags.sf else 0)
        | (2048 if flags.of else 0)
    )


def unpack_flags(value: int) -> Flags:
    return Flags(
        zf=bool(value & 64),
        sf=bool(value & 128),
        cf=bool(value & 1),
        of=bool(value & 2048),
        pf=bool(value & 4),
    )
