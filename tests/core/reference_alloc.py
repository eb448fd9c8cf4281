"""The dict-keyed reference for the box heap (§2.5).

:class:`repro.core.alloc.BoxAllocator` keeps boxes in a slot list
indexed by ``(ptr - base) // 16``.  This oracle is the heap it
replaced: one ``dict`` from pointer to value, whose insertion order is
the allocation order a sweep frees in, and whose key test is the
ownership test.  It shares no slot arithmetic with the heap it checks.
"""

from __future__ import annotations

import numpy as np

from repro.core import nanbox
from repro.errors import BoxHeapExhaustedError
from repro.machine.program import HEAP_BASE


class DictAllocator:
    def __init__(self, base: int = HEAP_BASE, gc_threshold: int = 4096,
                 capacity: int | None = None):
        self._base = base
        self._next = base
        self._free: list[int] = []
        self._boxes: dict[int, object] = {}
        self.gc_threshold = gc_threshold
        self.capacity = capacity
        self.allocs_since_gc = 0
        self.on_free = None

    def alloc(self, value) -> int:
        if self.capacity is not None and len(self._boxes) >= self.capacity:
            raise BoxHeapExhaustedError(
                f"box heap at capacity ({self.capacity} live boxes)"
            )
        if self._free:
            ptr = self._free.pop()
        else:
            ptr = self._next
            self._next += 16
            if (ptr - self._base) >> nanbox.NANBOX_PTR_BITS:
                raise BoxHeapExhaustedError(
                    "box heap exhausted 48-bit pointer space"
                )
        self._boxes[ptr] = value
        self.allocs_since_gc += 1
        return ptr

    def load(self, ptr: int):
        return self._boxes[ptr]

    def owns(self, ptr: int) -> bool:
        return ptr in self._boxes

    @property
    def live_count(self) -> int:
        return len(self._boxes)

    def needs_gc(self) -> bool:
        return self.allocs_since_gc >= self.gc_threshold

    def collect(self, cpu, reg_roots=None) -> tuple[int, int]:
        marked: set[int] = set()
        if reg_roots is None:
            reg_roots = [b for lanes in cpu.regs.xmm for b in lanes]
            reg_roots += cpu.regs.gpr
        for bits in reg_roots:
            self._mark_candidate(bits, marked)
        pages = cpu.mem.writable_pages()
        for page_addr in pages:
            words = np.frombuffer(cpu.mem.page_bytes(page_addr), dtype="<u8")
            candidates = words[(words & _MASK) == _PATTERN]
            for bits in candidates:
                self._mark_candidate(int(bits), marked)
        dead = [ptr for ptr in self._boxes if ptr not in marked]
        for ptr in dead:
            del self._boxes[ptr]
            self._free.append(ptr)
        if dead and self.on_free is not None:
            self.on_free(dead)
        self.allocs_since_gc = 0
        return len(dead), len(pages)

    def _mark_candidate(self, bits: int, marked: set[int]) -> None:
        if nanbox.is_boxed(bits):
            ptr = bits & nanbox.NANBOX_PTR_MASK
            if ptr in self._boxes:
                marked.add(ptr)


_MASK = np.uint64(nanbox._PATTERN_MASK | 0)
_PATTERN = np.uint64(nanbox._PATTERN)
