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

``entries`` maps address to micro-op in LRU order (oldest first).  The
sequence emulator's interpreted walk reads it to serve hits inline, as
:meth:`DecodeCache.lookup` would; only :meth:`DecodeCache.insert` adds
or evicts entries.

``stamp`` changes on every :meth:`DecodeCache.insert`, and evictions
happen only there: a reader that checked entries under a stamp knows
they are unchanged while the stamp still matches.  Stamps come from one
process-wide counter, so two caches never share one.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import count

from repro.errors import DecodeCacheCorruptionError
from repro.machine.decoder import decode_instruction
from repro.machine.uops import MicroOp, lower

_STAMPS = count()


class DecodeCache:
    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.entries: "OrderedDict[int, MicroOp]" = OrderedDict()
        self.stamp = next(_STAMPS)

    def lookup(self, addr: int) -> MicroOp | None:
        uop = self.entries.get(addr)
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
            self.entries.move_to_end(addr)
            return uop
        return None

    def resident(self, addrs: tuple[int, ...]) -> tuple:
        """The entries at ``addrs`` (None where absent), without an
        LRU touch or the integrity check: the caller compares them."""
        return tuple(map(self.entries.get, addrs))

    def touch(self, addrs) -> None:
        """The LRU effect of one hit per address, in order."""
        deque(map(self.entries.move_to_end, addrs), 0)

    def insert(self, addr: int, instr) -> None:
        """Accepts a raw :class:`Instruction` (lowered on the way in) or
        an already-lowered :class:`MicroOp`."""
        if not isinstance(instr, MicroOp):
            instr = lower(instr)
        self.entries[addr] = instr
        self.entries.move_to_end(addr)
        self.stamp = next(_STAMPS)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)  # evict LRU

    def decode_miss(self, addr: int, raw: bytes) -> MicroOp:
        """Decode from bytes (the expensive path) and fill the cache."""
        uop = lower(decode_instruction(raw, addr=addr))
        self.insert(addr, uop)
        return uop

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, addr: int) -> bool:
        return addr in self.entries
