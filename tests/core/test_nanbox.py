"""NaN-boxing and allocator/GC tests (§2.2, §2.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import nanbox
from repro.core.alloc import BoxAllocator
from repro.fpu import bits as B
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU

from tests.fpu.builders import make_snan


class TestBoxing:
    def test_round_trip(self):
        bits = nanbox.box_bits(0x1234)
        ptr, negated = nanbox.unbox(bits)
        assert ptr == 0x1234
        assert not negated

    def test_boxed_is_signaling_nan(self):
        bits = nanbox.box_bits(0x10000000)
        assert B.is_snan(bits)

    def test_negation_convention(self):
        bits = nanbox.box_bits(0x42) ^ B.F64_SIGN_MASK  # native xorpd flip
        assert nanbox.is_boxed(bits)
        ptr, negated = nanbox.unbox(bits)
        assert ptr == 0x42
        assert negated

    def test_pointer_width_enforced(self):
        with pytest.raises(ValueError):
            nanbox.box_bits(1 << nanbox.NANBOX_PTR_BITS)

    def test_unbox_rejects_non_boxes(self):
        with pytest.raises(ValueError):
            nanbox.unbox(B.float_to_bits(1.0))

    def test_canonical_nan_not_boxed(self):
        assert not nanbox.is_boxed(B.CANONICAL_QNAN)

    def test_application_snan_not_boxed(self):
        # Wrong magic signature.
        assert not nanbox.is_boxed(make_snan(1))

    @given(st.floats(allow_nan=False, width=64))
    @settings(max_examples=100, deadline=None)
    def test_ordinary_doubles_never_boxed(self, x):
        assert not nanbox.is_boxed(B.float_to_bits(x))


class TestAllocator:
    def test_alloc_load(self):
        alloc = BoxAllocator()
        ptr = alloc.alloc(3.5)
        assert alloc.load(ptr) == 3.5
        assert alloc.owns(ptr)

    def test_distinct_pointers(self):
        alloc = BoxAllocator()
        ptrs = [alloc.alloc(i) for i in range(100)]
        assert len(set(ptrs)) == 100

    def test_pointers_fit_in_box(self):
        alloc = BoxAllocator()
        for _ in range(1000):
            ptr = alloc.alloc(0)
            nanbox.box_bits(ptr)  # must not raise

    def test_needs_gc_threshold(self):
        alloc = BoxAllocator(gc_threshold=10)
        for _ in range(9):
            alloc.alloc(0)
        assert not alloc.needs_gc()
        alloc.alloc(0)
        assert alloc.needs_gc()

    def test_free_list_reuse(self):
        alloc = BoxAllocator()
        cpu = _bare_cpu()
        ptr = alloc.alloc(1.0)  # unreferenced anywhere
        alloc.collect(cpu, reg_roots=[])
        ptr2 = alloc.alloc(2.0)
        assert ptr2 == ptr  # recycled


def _bare_cpu() -> CPU:
    return CPU(assemble("main:\n  hlt\n"))


class TestGC:
    def test_register_root_survives(self):
        alloc = BoxAllocator()
        cpu = _bare_cpu()
        ptr = alloc.alloc("live")
        cpu.regs.write_xmm_lane(3, 0, nanbox.box_bits(ptr))
        collected, _ = alloc.collect(cpu)
        assert collected == 0
        assert alloc.owns(ptr)

    def test_gpr_root_survives(self):
        alloc = BoxAllocator()
        cpu = _bare_cpu()
        ptr = alloc.alloc("live")
        cpu.regs.write_gpr(5, nanbox.box_bits(ptr))
        alloc.collect(cpu)
        assert alloc.owns(ptr)

    def test_memory_root_survives(self):
        alloc = BoxAllocator()
        cpu = _bare_cpu()
        ptr = alloc.alloc("live")
        cpu.mem.write_u64(0x600100, nanbox.box_bits(ptr))
        collected, pages = alloc.collect(cpu)
        assert alloc.owns(ptr)
        assert pages >= 1

    def test_unreferenced_collected(self):
        alloc = BoxAllocator()
        cpu = _bare_cpu()
        ptrs = [alloc.alloc(i) for i in range(50)]
        keep = ptrs[7]
        cpu.regs.write_xmm_lane(0, 0, nanbox.box_bits(keep))
        collected, _ = alloc.collect(cpu)
        assert collected == 49
        assert alloc.owns(keep)
        assert alloc.live_count == 1

    def test_negated_box_still_marked(self):
        # A sign-flipped box (native xorpd) must still be treated live.
        alloc = BoxAllocator()
        cpu = _bare_cpu()
        ptr = alloc.alloc("live")
        cpu.mem.write_u64(0x600108, nanbox.box_bits(ptr) | B.F64_SIGN_MASK)
        alloc.collect(cpu)
        assert alloc.owns(ptr)

    def test_readonly_pages_not_scanned(self):
        # Text pages are read+exec: a box pattern there must NOT keep an
        # object alive (and in exchange the GC never scans them).
        alloc = BoxAllocator()
        cpu = _bare_cpu()
        ptr = alloc.alloc("dead")
        from repro.machine.memory import PROT_READ

        cpu.mem.map_page(0x900000)
        cpu.mem.write_u64(0x900000, nanbox.box_bits(ptr))
        cpu.mem.protect(0x900000, PROT_READ)
        collected, _ = alloc.collect(cpu, reg_roots=[])
        assert collected == 1

    def test_gc_counter_reset(self):
        alloc = BoxAllocator(gc_threshold=5)
        cpu = _bare_cpu()
        for _ in range(5):
            alloc.alloc(0)
        assert alloc.needs_gc()
        alloc.collect(cpu, reg_roots=[])
        assert not alloc.needs_gc()

    @given(st.sets(st.integers(min_value=0, max_value=199), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_property_live_never_collected(self, live_indices):
        """No referenced box is ever freed; every unreferenced box is."""
        alloc = BoxAllocator()
        cpu = _bare_cpu()
        ptrs = [alloc.alloc(i) for i in range(200)]
        addr = 0x600000
        for i in sorted(live_indices):
            cpu.mem.write_u64(addr, nanbox.box_bits(ptrs[i]))
            addr += 8
        collected, _ = alloc.collect(cpu, reg_roots=[])
        assert collected == 200 - len(live_indices)
        for i, ptr in enumerate(ptrs):
            assert alloc.owns(ptr) == (i in live_indices)
