"""Copy-on-write clone semantics (``Memory.clone_pages``).

The LazyFP-flavored isolation property: once memories share pages
copy-on-write, no store by any sharer may ever become visible to
another — a leak here is exactly the stale-register leak LazyFP
describes, transposed to guest memory.  Asserted via whole-address-
space digests, plus accounting checks for the ``cow_faults`` counter.
"""

import struct

import pytest

from repro.machine.assembler import assemble
from repro.machine.cpu import TIERS
from repro.machine.memory import (
    Memory,
    MemoryFault,
    PAGE_SIZE,
    PROT_READ,
    PROT_WRITE,
)

#: both stores hit the one data page, which no earlier write touched.
_STORE_SRC = """
.data
x: .double 1.5
q: .quad 7
.text
main:
  movsd xmm0, [rip + x]
  addsd xmm0, xmm0
  movsd [rip + x], xmm0
  mov rax, 9
  mov [rip + q], rax
  hlt
"""


def _template() -> Memory:
    mem = Memory()
    mem.write_bytes(0x1000, b"\xaa" * PAGE_SIZE)
    mem.write_bytes(0x2000, b"\xbb" * PAGE_SIZE)
    mem.write_u64(0x3000, 0x1234_5678_9ABC_DEF0)
    return mem


class TestCowSharing:
    def test_pages_shared_until_first_write(self):
        parent = _template()
        child = Memory()
        child.clone_pages(parent)
        assert child.cow_page_count() == parent.cow_page_count() == 3
        # reads materialize nothing
        assert child.read_bytes(0x1000, 16) == b"\xaa" * 16
        assert child.read_u64(0x3000) == 0x1234_5678_9ABC_DEF0
        assert child.cow_page_count() == 3
        assert child.cow_faults == 0
        # first write to a page copies exactly that page
        child.write_u64(0x1000, 7)
        assert child.cow_faults == 1
        assert child.cow_page_count() == 2

    def test_child_store_invisible_to_parent_and_siblings(self):
        parent = _template()
        parent_digest = parent.digest()
        a, b = Memory(), Memory()
        a.clone_pages(parent)
        b.clone_pages(parent)
        before = a.digest()
        assert before == b.digest() == parent.digest() == parent_digest

        a.write_u64(0x1000, 0xDEAD_BEEF)
        a.write_u64(0x3008, 42)
        assert a.digest() != before
        # the stores never leak to the parent or the sibling
        assert parent.digest() == parent_digest
        assert b.digest() == before
        assert b.read_u64(0x1000) != 0xDEAD_BEEF
        assert parent.read_bytes(0x1000, 8) == b"\xaa" * 8

    def test_parent_store_invisible_to_children(self):
        parent = _template()
        child = Memory()
        child.clone_pages(parent)
        before = child.digest()
        parent.write_u64(0x2000, 99)          # parent COW-faults too
        assert parent.cow_faults == 1
        assert child.digest() == before
        assert child.read_bytes(0x2000, 4) == b"\xbb" * 4

    def test_grandchild_chains_share_one_frozen_pool(self):
        parent = _template()
        child = Memory()
        child.clone_pages(parent)
        grandchild = Memory()
        grandchild.clone_pages(child)
        g_before = grandchild.digest()
        child.write_u64(0x1000, 1)
        parent.write_u64(0x1000, 2)
        assert grandchild.digest() == g_before
        assert grandchild.read_bytes(0x1000, 8) == b"\xaa" * 8


class TestCowEdges:
    def test_protection_preserved_and_enforced(self):
        parent = Memory()
        parent.write_bytes(0x1000, b"\xcc" * 8)
        parent.protect(0x1000, PROT_READ)
        child = Memory()
        child.clone_pages(parent)
        assert child.read_bytes(0x1000, 8) == b"\xcc" * 8
        with pytest.raises(MemoryFault):
            child.write_u64(0x1000, 0)
        assert child.cow_faults == 0

    def test_protect_materializes_per_sharer(self):
        parent = _template()
        child = Memory()
        child.clone_pages(parent)
        child.protect(0x1000, PROT_READ)
        # prot divergence is private to the sharer that asked for it
        parent.write_u64(0x1000, 5)
        with pytest.raises(MemoryFault):
            child.write_u64(0x1000, 5)

    def test_shared_pages_visible_to_page_scans(self):
        parent = _template()
        child = Memory()
        child.clone_pages(parent)
        assert child.is_mapped(0x1000)
        assert child.mapped_page_count() == 3
        # the GC root scan must still see logically-writable pages
        assert 0x1000 in child.writable_pages()
        assert child.page_bytes(0x1000) == b"\xaa" * PAGE_SIZE

    def test_automap_does_not_shadow_shared_pages(self):
        parent = _template()
        child = Memory()
        child.clone_pages(parent)
        # a read of a shared page must see the parent image, not a
        # fresh auto-mapped zero page
        assert child.read_bytes(0x2000, 2) == b"\xbb\xbb"

    def test_map_page_goes_private(self):
        parent = _template()
        child = Memory()
        child.clone_pages(parent)
        child.map_page(0x1000, PROT_READ | PROT_WRITE)
        child.write_u64(0x1000, 3)
        assert parent.read_bytes(0x1000, 8) == b"\xaa" * 8


class TestForkProcessIsolation:
    def test_forked_guest_stores_never_leak(self):
        """End-to-end: fork a real guest process, run the child, and
        prove the parent's memory digest never moves (and vice versa)."""
        from repro.machine.process import Process, fork_process
        from repro.workloads import build_program

        parent = Process(build_program("lorenz", 20))
        child = fork_process(parent)
        parent_digest = parent.mem.digest()
        assert child.mem.digest() == parent_digest

        child.run()
        assert parent.mem.digest() == parent_digest
        assert child.mem.cow_faults > 0

        # and the parent running afterwards does not disturb the child
        child_digest = child.mem.digest()
        parent.run()
        assert child.mem.digest() == child_digest
        assert parent.main.output == child.main.output

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_observed_store_takes_the_cow_fault(self, tier):
        """The child's first write to the shared data page is an
        observed 8-byte store (``movsd``/``mov`` to memory) — the path
        the interpreter and the engine's store closures serve in-page —
        so that store itself must materialize a private copy."""
        from repro.machine.process import Process, fork_process

        parent = Process(assemble(_STORE_SRC), uops=TIERS[tier])
        x = parent.program.symbols["x"]
        child = fork_process(parent)
        parent_digest = parent.mem.digest()

        child.run()
        assert child.mem.cow_faults == 1
        assert parent.mem.digest() == parent_digest
        assert parent.mem.read_bytes(x, 16) == struct.pack("<dq", 1.5, 7)
        assert child.mem.read_bytes(x, 16) == struct.pack("<dq", 3.0, 9)
