"""Sparse paged byte-addressable memory.

Pages are allocated lazily on first touch.  Page permissions exist so
the conservative GC can enumerate *writable* pages exactly the way
FPVM's collector scans `/proc/self/maps` (§2.5), and so the magic page
(§5.2) can be mapped read-only at a well-known address.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import MemoryFault

PAGE_SIZE = 4096
PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1

PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4

_U64 = struct.Struct("<Q")
_LOAD_Q = _U64.unpack_from
_STORE_Q = _U64.pack_into
_MASK_Q = 0xFFFF_FFFF_FFFF_FFFF


@dataclass
class _Page:
    data: bytearray
    prot: int


class Memory:
    """Lazily-populated sparse memory: the first touch of an unmapped
    address maps a fresh RW page (stacks, heap and BSS need no explicit
    mapping).

    The single-page fast paths — :meth:`observed_load`/
    :meth:`observed_store`, :meth:`read_u64`/:meth:`write_u64` and the
    micro-op functions' inlined 8-byte accesses — index ``_pages``
    directly and hand everything else to the generic accessors.
    """

    def __init__(self) -> None:
        self._pages: dict[int, _Page] = {}
        #: observers for the PIN-like profiler, called after each
        #: observed access as fn(addr, size, kind, value) with kind in
        #: {"fp_store", "int_store", "fp_load", "int_load"}; ``value``
        #: is the loaded value or the value passed to the store.
        self.observers: list = []

    # ------------------------------------------------------------- pages
    def map_page(self, addr: int, prot: int = PROT_READ | PROT_WRITE) -> None:
        """Map the page containing ``addr`` (idempotent; updates prot)."""
        pno = addr >> PAGE_SHIFT
        page = self._pages.get(pno)
        if page is None:
            self._pages[pno] = _Page(bytearray(PAGE_SIZE), prot)
        else:
            page.prot = prot

    def protect(self, addr: int, prot: int) -> None:
        pno = addr >> PAGE_SHIFT
        if pno not in self._pages:
            raise MemoryFault(f"mprotect of unmapped page {pno:#x}")
        self._pages[pno].prot = prot

    def writable_pages(self) -> list[int]:
        """Base addresses of all writable pages (the GC root scan set)."""
        return sorted(
            pno << PAGE_SHIFT
            for pno, page in self._pages.items()
            if page.prot & PROT_WRITE
        )

    def page_bytes(self, page_addr: int) -> bytes:
        page = self._pages.get(page_addr >> PAGE_SHIFT)
        if page is None:
            raise MemoryFault(f"unmapped page {page_addr:#x}")
        return bytes(page.data)

    # ------------------------------------------------------------ access
    def _page_for(self, addr: int, write: bool) -> _Page:
        pno = addr >> PAGE_SHIFT
        page = self._pages.get(pno)
        if page is None:
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
        page = self._pages.get(addr >> PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is not None and off <= PAGE_SIZE - 8 and page.prot & PROT_READ:
            return _LOAD_Q(page.data, off)[0]
        return _U64.unpack(self.read_bytes(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        page = self._pages.get(addr >> PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is not None and off <= PAGE_SIZE - 8 and page.prot & PROT_WRITE:
            _STORE_Q(page.data, off, value & _MASK_Q)
        else:
            self.write_bytes(addr, _U64.pack(value & _MASK_Q))

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
    # An access inside one mapped page with the needed prot bit is
    # served directly, 8 bytes through ``struct``; everything else
    # (first touch of an unmapped page, page-straddling accesses,
    # faults) goes through read_uint/write_uint.
    def observed_load(self, addr: int, size: int, fp: bool) -> int:
        page = self._pages.get(addr >> PAGE_SHIFT)
        off = addr & _PAGE_MASK
        if page is not None and off + size <= PAGE_SIZE and page.prot & PROT_READ:
            if size == 8:
                value = _LOAD_Q(page.data, off)[0]
            else:
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
            if size == 8:
                _STORE_Q(page.data, off, value & _MASK_Q)
            else:
                mask = (1 << (8 * size)) - 1
                page.data[off:off + size] = (value & mask).to_bytes(size, "little")
        else:
            self.write_uint(addr, value, size)
        if self.observers:
            kind = "fp_store" if fp else "int_store"
            for obs in self.observers:
                obs(addr, size, kind, value)
