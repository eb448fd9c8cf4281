"""Sparse paged byte-addressable memory.

Pages are allocated lazily on first touch.  Page permissions exist so
the conservative GC can enumerate *writable* pages exactly the way
FPVM's collector scans `/proc/self/maps` (§2.5), and so the magic page
(§5.2) can be mapped read-only at a well-known address.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

PAGE_SIZE = 4096
PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1

PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4

_U64 = struct.Struct("<Q")


class MemoryFault(Exception):
    """Access to unmapped memory or a permission violation."""


@dataclass
class _Page:
    data: bytearray
    prot: int


class Memory:
    """Lazily-populated sparse memory.

    ``auto_map`` controls whether first-touch allocates a fresh RW page
    (convenient for stacks and BSS) or faults.  The simulator keeps
    auto-mapping on; analyses that want strictness can disable it.

    Cloned memories (:meth:`clone_pages`) share pages copy-on-write:
    shared frozen pages live in ``_cow`` (never in ``_pages``), so the
    single-page fast paths — :meth:`observed_load`/:meth:`observed_store`
    and the uop pipeline's inlined closures, which all index ``_pages``
    directly — miss on them and fall back to the generic accessors,
    where the first write materializes a private copy.  ``cow_faults``
    counts those materializations.
    """

    def __init__(self, auto_map: bool = True) -> None:
        self._pages: dict[int, _Page] = {}
        #: pno -> frozen page shared with clone relatives.  Entries are
        #: immutable by contract: every sharer copies before writing.
        self._cow: dict[int, _Page] = {}
        #: pages privately materialized by a write to a shared page.
        self.cow_faults = 0
        self.auto_map = auto_map
        #: observers for the PIN-like profiler, called after each
        #: observed access as fn(addr, size, kind, value) with kind in
        #: {"fp_store", "int_store", "fp_load", "int_load"}; ``value``
        #: is the loaded value or the value passed to the store.
        self.observers: list = []

    # ------------------------------------------------------------- pages
    def _materialize(self, pno: int) -> _Page:
        """Replace the shared ``_cow`` page ``pno`` with a private deep
        copy in ``_pages`` (the copy-on-write fault path).  The frozen
        original stays behind for the other sharers."""
        shared = self._cow.pop(pno)
        page = _Page(bytearray(shared.data), shared.prot)
        self._pages[pno] = page
        return page

    def map_page(self, addr: int, prot: int = PROT_READ | PROT_WRITE) -> None:
        """Map the page containing ``addr`` (idempotent; updates prot)."""
        pno = addr >> PAGE_SHIFT
        page = self._pages.get(pno)
        if page is None:
            if pno in self._cow:
                page = self._materialize(pno)
                page.prot = prot
            else:
                self._pages[pno] = _Page(bytearray(PAGE_SIZE), prot)
        else:
            page.prot = prot

    def protect(self, addr: int, prot: int) -> None:
        pno = addr >> PAGE_SHIFT
        if pno in self._pages:
            self._pages[pno].prot = prot
        elif pno in self._cow:
            # protection is per-sharer state; a shared frozen page must
            # go private before its prot can diverge.
            self._materialize(pno).prot = prot
        else:
            raise MemoryFault(f"mprotect of unmapped page {pno:#x}")

    def is_mapped(self, addr: int) -> bool:
        pno = addr >> PAGE_SHIFT
        return pno in self._pages or pno in self._cow

    def writable_pages(self) -> list[int]:
        """Base addresses of all writable pages (the GC root scan set).
        Shared COW pages count: they are logically writable, the write
        just materializes first."""
        out = [
            pno << PAGE_SHIFT
            for pno, page in self._pages.items()
            if page.prot & PROT_WRITE
        ]
        out += [
            pno << PAGE_SHIFT
            for pno, page in self._cow.items()
            if page.prot & PROT_WRITE
        ]
        return sorted(out)

    def page_bytes(self, page_addr: int) -> bytes:
        pno = page_addr >> PAGE_SHIFT
        page = self._pages.get(pno) or self._cow.get(pno)
        if page is None:
            raise MemoryFault(f"unmapped page {page_addr:#x}")
        return bytes(page.data)

    def mapped_page_count(self) -> int:
        return len(self._pages) + len(self._cow)

    def cow_page_count(self) -> int:
        """Pages still shared with clone relatives (not yet written)."""
        return len(self._cow)

    def clone_pages(self, source: "Memory") -> None:
        """Replace this memory's contents with a copy-on-write copy of
        ``source``'s pages (fork semantics: same addresses, same
        protections, and — from the guest's point of view — fully
        independent storage).

        Every page of ``source`` is demoted to a frozen shared page
        referenced by both memories, and either side's first *write* to
        a page materializes a private copy (``cow_faults`` counts them).
        Isolation is symmetric — a store by the child is never visible
        to the parent or to sibling clones, and vice versa — because
        nobody ever writes a frozen page.

        Mutates ``self._pages`` in place rather than rebinding it —
        the uop pipeline's memory closures capture the page dict by
        reference, so a rebind would silently detach them.
        """
        self._pages.clear()
        self._cow.clear()
        # Demote the source's private pages to the frozen pool so the
        # source itself also faults before writing them (its fast-path
        # closures miss on ``_pages`` and fall back here).
        for pno, page in list(source._pages.items()):
            source._cow[pno] = page
        source._pages.clear()
        self._cow.update(source._cow)
        self.auto_map = source.auto_map

    def digest(self) -> str:
        """SHA-256 over every mapped page's (address, prot, contents) —
        the whole-address-space fingerprint the COW isolation tests
        compare.  Reads through shared pages without materializing."""
        import hashlib

        h = hashlib.sha256()
        pages = {**self._cow, **self._pages}
        for pno in sorted(pages):
            page = pages[pno]
            h.update(struct.pack("<QI", pno, page.prot))
            h.update(page.data)
        return h.hexdigest()

    # ------------------------------------------------------------ access
    def _page_for(self, addr: int, write: bool) -> _Page:
        pno = addr >> PAGE_SHIFT
        page = self._pages.get(pno)
        if page is None:
            page = self._cow.get(pno)
            if page is not None:
                # reads are served from the shared frozen page; the
                # first write takes a COW fault and goes private.
                if write:
                    if not (page.prot & PROT_WRITE):
                        raise MemoryFault(f"write to read-only address {addr:#x}")
                    page = self._materialize(pno)
                    self.cow_faults += 1
            else:
                if not self.auto_map:
                    raise MemoryFault(f"access to unmapped address {addr:#x}")
                page = _Page(bytearray(PAGE_SIZE), PROT_READ | PROT_WRITE)
                self._pages[pno] = page
        if write and not (page.prot & PROT_WRITE):
            raise MemoryFault(f"write to read-only address {addr:#x}")
        if not write and not (page.prot & PROT_READ):
            raise MemoryFault(f"read of unreadable address {addr:#x}")
        return page

    def read_bytes(self, addr: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            page = self._page_for(addr, write=False)
            off = addr & (PAGE_SIZE - 1)
            chunk = min(size, PAGE_SIZE - off)
            out += page.data[off : off + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        offset = 0
        size = len(data)
        while offset < size:
            page = self._page_for(addr + offset, write=True)
            off = (addr + offset) & (PAGE_SIZE - 1)
            chunk = min(size - offset, PAGE_SIZE - off)
            page.data[off : off + chunk] = data[offset : offset + chunk]
            offset += chunk

    def read_u64(self, addr: int) -> int:
        return _U64.unpack(self.read_bytes(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write_bytes(addr, _U64.pack(value & 0xFFFF_FFFF_FFFF_FFFF))

    def read_uint(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def write_uint(self, addr: int, value: int, size: int) -> None:
        self.write_bytes(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def read_cstring(self, addr: int, limit: int = 4096) -> str:
        out = bytearray()
        for i in range(limit):
            b = self.read_bytes(addr + i, 1)[0]
            if b == 0:
                break
            out.append(b)
        return out.decode("utf-8", errors="replace")

    # -------------------------------------------------- observed access
    # An access inside one private page with the needed prot bit is
    # served directly; everything else (COW, auto-map, unmapped pages,
    # page-straddling accesses, faults) goes through read_uint/write_uint.
    def observed_load(self, addr: int, size: int, fp: bool) -> int:
        page = self._pages.get(addr >> PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is not None and off + size <= PAGE_SIZE and page.prot & PROT_READ:
            value = int.from_bytes(page.data[off:off + size], "little")
        else:
            value = self.read_uint(addr, size)
        if self.observers:
            kind = "fp_load" if fp else "int_load"
            for obs in self.observers:
                obs(addr, size, kind, value)
        return value

    def observed_store(self, addr: int, value: int, size: int, fp: bool) -> None:
        page = self._pages.get(addr >> PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is not None and off + size <= PAGE_SIZE and page.prot & PROT_WRITE:
            page.data[off:off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        else:
            self.write_uint(addr, value, size)
        if self.observers:
            kind = "fp_store" if fp else "int_store"
            for obs in self.observers:
                obs(addr, size, kind, value)
