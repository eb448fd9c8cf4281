"""FPVM's box allocator and conservative mark-and-sweep GC (§2.5).

Boxes hold alternative-arithmetic values.  They are immutable by
contract ("despite being heap objects, they must operate as if they
were values") — the allocator never exposes mutation, only allocation.

The collector is exactly the paper's: a conservative mark phase that
scans every *writable* page of the process plus the register file for
bit patterns that (a) match the NaN-box signature and (b) decode to a
pointer the allocator remembers; then a sweep frees everything
unmarked.  Boxed values never contain pointers to other boxes, so
there is no transitive marking.
"""

from __future__ import annotations

import numpy as np

from repro.core import nanbox
from repro.errors import BoxHeapExhaustedError
from repro.machine.memory import PAGE_SIZE
from repro.machine.program import HEAP_BASE


class BoxAllocator:
    """Bump allocator with free-list reuse over a 48-bit pointer space.

    ``capacity`` bounds the number of *live* boxes (None = unbounded up
    to the pointer space).  Hitting the bound raises the typed
    :class:`BoxHeapExhaustedError`; the VM catches it once to run an
    emergency collection before giving up.
    """

    def __init__(self, base: int = HEAP_BASE, gc_threshold: int = 4096,
                 capacity: int | None = None):
        self._base = base
        self._next = base
        self._free: list[int] = []
        self._boxes: dict[int, object] = {}
        self.gc_threshold = gc_threshold
        self.capacity = capacity
        self.allocs_since_gc = 0
        #: sweep observer (the exception-flow recorder's ``collected``
        #: kill hook); called with the list of freed pointers.
        self.on_free = None

    # ---------------------------------------------------------- allocate
    def alloc(self, value) -> int:
        """Store ``value`` in a fresh box; returns the box pointer."""
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

    @property
    def boxes(self) -> dict:
        """Pointer -> value of every live box, for hot paths that test
        ownership and load inline (read-only: boxes change only through
        :meth:`alloc` and :meth:`collect`)."""
        return self._boxes

    def load(self, ptr: int):
        return self._boxes[ptr]

    def owns(self, ptr: int) -> bool:
        """The allocator-remembers-it check from §2.2."""
        return ptr in self._boxes

    @property
    def live_count(self) -> int:
        return len(self._boxes)

    def needs_gc(self) -> bool:
        return self.allocs_since_gc >= self.gc_threshold

    # --------------------------------------------------------------- GC
    def collect(self, cpu, reg_roots=None) -> tuple[int, int]:
        """Conservative mark & sweep.

        ``reg_roots`` overrides the register root set — required when
        collecting from inside a signal handler, where the authoritative
        register values live in the signal *frame*, not the CPU.

        Returns ``(objects_collected, pages_scanned)`` so the caller
        can charge the gc cost category.
        """
        marked: set[int] = set()

        # Roots: every XMM lane and every GPR (a boxed pattern could sit
        # in a GPR via movq) ...
        if reg_roots is None:
            reg_roots = [b for lanes in cpu.regs.xmm for b in lanes]
            reg_roots += cpu.regs.gpr
        for bits in reg_roots:
            self._mark_candidate(bits, marked)

        # ... plus a conservative scan of every writable page.
        pages = cpu.mem.writable_pages()
        for page_addr in pages:
            words = np.frombuffer(cpu.mem.page_bytes(page_addr), dtype="<u8")
            # Vectorised signature filter; the allocator check runs only
            # on survivors (normally a handful per page).
            candidates = words[(words & _MASK) == _PATTERN]
            for bits in candidates:
                self._mark_candidate(int(bits), marked)

        # Sweep.
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


_MASK = np.uint64(nanbox._PATTERN_MASK | 0)  # sign bit excluded by design
_PATTERN = np.uint64(nanbox._PATTERN)
