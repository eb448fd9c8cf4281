"""FPVM's box allocator and conservative mark-and-sweep GC (§2.5).

Boxes hold alternative-arithmetic values.  They are immutable by
contract ("despite being heap objects, they must operate as if they
were values") — the allocator never exposes mutation, only allocation.

The heap is one sequence of slots: box ``base + 16*i`` lives in
``slots[i]``.  Its :class:`Store`, chosen from the altmath system's
value type, says what the sequence is and how an empty slot reads:
:data:`LIST`, a list of any Python values where :data:`FREE` marks a
slot whose box a sweep freed, or :data:`FLAT`, one ``array('d')`` of
binary64 values where NaN marks it (no box holds a NaN: FPVM stores a
NaN result as the canonical quiet NaN, and :meth:`BoxAllocator.alloc`
refuses one).  A pointer is ours when its offset from ``base`` is
non-negative, 16-aligned and below the top slot, and that slot is live
(:meth:`BoxAllocator.owns`; the emulator's hot paths test the same
inline, from the same :attr:`Store.live` text).  Beside the slots, two
``array``s of slot indices: the boxes that survived the last sweep, in
allocation order, and the free list that sweep left, reused
last-freed-first.  A box costs its slot (a list cell and its value, or
8 bytes flat) and, once it survives a sweep, one order entry.

The collector is exactly the paper's: a conservative mark phase that
scans every *writable* page of the process plus the register file for
bit patterns that (a) match the NaN-box signature and (b) decode to a
pointer the allocator owns; then a sweep frees everything unmarked, in
allocation order.  Boxed values never contain pointers to other boxes,
so there is no transitive marking.
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from itertools import chain

import numpy as np

from repro.core import nanbox
from repro.errors import BoxHeapExhaustedError, BoxValueError
from repro.machine.program import HEAP_BASE

#: the value of an empty slot of the list store.
FREE = object()


class Store:
    """How a heap holds its box values: ``new()`` makes the empty slot
    sequence, ``empty`` is a freed slot's value and ``live`` the source
    text, over a slot value ``{v}``, that is true when the slot holds a
    box.  ``kind`` names the store in the keys of generated code."""

    def __init__(self, kind: str, new, empty, live: str) -> None:
        self.kind, self.new, self.empty, self.live = kind, new, empty, live
        #: ``live`` compiled: does this slot value belong to a box?
        self.holds = eval(f"lambda v: {self.test('v')}", {"FREE": FREE})

    def test(self, v: str) -> str:
        """The liveness test of the slot value ``v``, as source text."""
        return self.live.format(v=v)


#: Any Python value, one list cell a box; an empty slot is ``FREE``.
LIST = Store("list", list, FREE, "{v} is not FREE")
#: Binary64 ``float`` values, 8 bytes a box in one ``array('d')``; an
#: empty slot is NaN, the one value that is not equal to itself.
FLAT = Store("flat", partial(array, "d"), math.nan, "{v} == {v}")
#: store kind -> store; an altmath system names its ``box_store``.
STORES = {store.kind: store for store in (LIST, FLAT)}


class BoxAllocator:
    """Bump allocator with free-list reuse over a 48-bit pointer space.

    ``capacity`` bounds the number of *live* boxes (None = unbounded up
    to the pointer space).  Hitting the bound raises the typed
    :class:`BoxHeapExhaustedError`; the VM catches it once to run an
    emergency collection before giving up.
    """

    def __init__(self, base: int = HEAP_BASE, gc_threshold: int = 4096,
                 capacity: int | None = None, store: Store = LIST):
        self.base = base
        self.store = store
        self._holds = store.holds
        #: box ``base + 16*i`` -> ``slots[i]`` (read-only outside this
        #: class: slots change only through :meth:`alloc` and
        #: :meth:`collect`).
        self.slots = store.new()
        # Allocation order without a write per allocation: the boxes
        # allocated since the last sweep took ``_free[_nfree:]`` from
        # the end down, then the slots from ``_top`` up, in that order.
        self._order = array("q")  # the last sweep's survivors, in allocation order
        self._free = array("q")   # the free list the last sweep left
        self._nfree = 0           # its entries not reused yet
        self._top = 0             # len(slots) at the last sweep
        self.gc_threshold = gc_threshold
        self.capacity = capacity
        #: sweep observer (the exception-flow recorder's ``collected``
        #: kill hook); called with the list of freed pointers.
        self.on_free = None

    # ---------------------------------------------------------- allocate
    def alloc(self, value) -> int:
        """Store ``value`` in a fresh box; returns the box pointer.  A
        value the store reads as an empty slot (NaN on the flat store)
        raises :class:`BoxValueError`."""
        if not self._holds(value):
            raise BoxValueError(f"a box cannot hold {value!r}: the {self.store.kind} "
                                "store marks an empty slot with it")
        if self.capacity is not None and self.live_count >= self.capacity:
            raise BoxHeapExhaustedError(
                f"box heap at capacity ({self.capacity} live boxes)"
            )
        n = self._nfree
        if n:
            self._nfree = n = n - 1
            i = self._free[n]
            self.slots[i] = value
        else:
            i = len(self.slots)
            if (i << 4) >> nanbox.NANBOX_PTR_BITS:
                raise BoxHeapExhaustedError(
                    "box heap exhausted 48-bit pointer space"
                )
            self.slots.append(value)
        return self.base + (i << 4)

    def load(self, ptr: int):
        if not self.owns(ptr):
            raise KeyError(ptr)
        return self.slots[(ptr - self.base) >> 4]

    def owns(self, ptr: int) -> bool:
        """The allocator-remembers-it check from §2.2."""
        at = ptr - self.base
        if at < 0 or at & 15:
            return False
        try:
            value = self.slots[at >> 4]
        except IndexError:
            return False
        return self._holds(value)

    @property
    def allocs_since_gc(self) -> int:
        return len(self._free) - self._nfree + len(self.slots) - self._top

    @property
    def live_count(self) -> int:
        return len(self._order) + self.allocs_since_gc

    def needs_gc(self) -> bool:
        # allocs_since_gc, inline: the VM asks once per trap.
        since = len(self._free) - self._nfree + len(self.slots) - self._top
        return since >= self.gc_threshold

    # --------------------------------------------------------------- GC
    def collect(self, cpu, reg_roots=None) -> tuple[int, int]:
        """Conservative mark & sweep.

        ``reg_roots`` overrides the register root set — required when
        collecting from inside a signal handler, where the authoritative
        register values live in the signal *frame*, not the CPU.

        Returns ``(objects_collected, pages_scanned)`` so the caller
        can charge the gc cost category.
        """
        slots, base, owns = self.slots, self.base, self.owns
        marked = bytearray(len(slots))

        def mark(bits: int) -> None:
            if nanbox.is_boxed(bits) and owns(ptr := bits & nanbox.NANBOX_PTR_MASK):
                marked[(ptr - base) >> 4] = 1

        # Roots: every XMM lane and every GPR (a boxed pattern could sit
        # in a GPR via movq) ...
        if reg_roots is None:
            reg_roots = [b for lanes in cpu.regs.xmm for b in lanes]
            reg_roots += cpu.regs.gpr
        for bits in reg_roots:
            mark(bits)

        # ... plus a conservative scan of every writable page.
        pages = cpu.mem.writable_pages()
        for page_addr in pages:
            words = np.frombuffer(cpu.mem.page_bytes(page_addr), dtype="<u8")
            # Vectorised signature filter; the allocator check runs only
            # on survivors (normally a handful per page).
            candidates = words[(words & _MASK) == _PATTERN]
            for bits in candidates:
                mark(int(bits))

        # Sweep, in allocation order, the dead straight onto the free
        # list after its entries not reused yet.
        free, start = self._free, self._nfree
        reused = free[start:]
        reused.reverse()
        del free[start:]
        live = array("q")
        keep, drop, empty = live.append, free.append, self.store.empty
        for i in chain(self._order, reused, range(self._top, len(slots))):
            if marked[i]:
                keep(i)
            else:
                drop(i)
                slots[i] = empty
        self._order, self._nfree, self._top = live, len(free), len(slots)
        dead = len(free) - start
        if dead and self.on_free is not None:
            self.on_free([base + (i << 4) for i in free[start:]])
        return dead, len(pages)


_MASK = np.uint64(nanbox._PATTERN_MASK | 0)  # sign bit excluded by design
_PATTERN = np.uint64(nanbox._PATTERN)
