"""The decode cache (§2.4), which sequence emulation turns into a
software trace cache (§4.2).

Keyed by instruction address.  A hit costs ``decache`` cycles; a miss
invokes the Capstone-analog decoder over the instruction's raw bytes
and costs ``decode`` cycles.  The default capacity is the paper's: 64K
entries (runs in the paper never exceed ~2000 live entries; §6.3).

Entries are stored as lowered :class:`~repro.machine.uops.MicroOp`\\ s
— the same pre-decoded IR the CPU's superblock engine executes — so a
hit hands the emulator an instruction whose operand metadata and
dispatch decision were resolved exactly once.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import DecodeCacheCorruptionError
from repro.machine.decoder import decode_instruction
from repro.machine.uops import MicroOp, lower


class DecodeCache:
    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, MicroOp]" = OrderedDict()

    def lookup(self, addr: int) -> MicroOp | None:
        uop = self._entries.get(addr)
        if uop is not None:
            if uop.addr != addr:
                # A hit must describe the instruction *at this address*;
                # anything else means the cache was corrupted (aliased
                # insert, bad eviction bookkeeping, external tampering)
                # and emulating it would run the wrong instruction.
                raise DecodeCacheCorruptionError(
                    f"decode cache entry at {addr:#x} decodes "
                    f"{uop.mnemonic} @ {uop.addr:#x}"
                )
            self._entries.move_to_end(addr)
            return uop
        return None

    def resident(self, addrs: tuple[int, ...]) -> tuple:
        """The entries at ``addrs`` (None where absent), without an
        LRU touch or the integrity check: the caller compares them."""
        return tuple(map(self._entries.get, addrs))

    def touch(self, addrs) -> None:
        """The LRU effect of one hit per address, in order."""
        for addr in addrs:
            self._entries.move_to_end(addr)

    def insert(self, addr: int, instr) -> None:
        """Accepts a raw :class:`Instruction` (lowered on the way in) or
        an already-lowered :class:`MicroOp`."""
        if not isinstance(instr, MicroOp):
            instr = lower(instr)
        self._entries[addr] = instr
        self._entries.move_to_end(addr)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)  # evict LRU

    def decode_miss(self, addr: int, raw: bytes) -> MicroOp:
        """Decode from bytes (the expensive path) and fill the cache."""
        uop = lower(decode_instruction(raw, addr=addr))
        self.insert(addr, uop)
        return uop

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: int) -> bool:
        return addr in self._entries
