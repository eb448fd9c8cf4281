"""The slot heap against the dict-keyed reference heap.

:class:`BoxAllocator` keeps box ``base + 16*i`` in slot ``i``;
:class:`tests.core.reference_alloc.DictAllocator` is the ``dict`` heap it
replaced.  One hypothesis sequence of alloc, collect, ``owns`` and
``load`` drives both, with roots in registers, writable memory and
read-only memory: live, stale, sign-flipped and foreign box patterns,
pointers misaligned by 8, below ``base``, past the top slot and in a
freed slot.  Both must hand out the same pointers, collect the same
counts, free the same pointers in the same order and answer every
ownership question alike.  The emulator's inline ownership tests
(``resolve`` and the generated rule-(2) probe) must answer as ``owns``
does, and a box must cost at most 24 bytes of heap.
"""

import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import nanbox
from repro.core.alloc import BoxAllocator
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import BoxHeapExhaustedError
from repro.fpu import bits as B
from repro.kernel.signals import SignalContext
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.isa import Instruction, Xmm
from repro.machine.memory import PROT_READ, Memory
from repro.machine.program import HEAP_BASE
from repro.machine.uops import lower
from repro.observability.flow import FlowRecorder
from tests.core.reference_alloc import DictAllocator

KINDS = ("live", "stale", "negated", "foreign", "misaligned", "below",
         "past_top", "freed", "plain")
#: where a collect root sits; a read-only page is never scanned.
PLACES = ("reg", "mem", "ro")
WRITABLE, READ_ONLY = 0x60_0000, 0x60_1000


def _edges(ref: DictAllocator, history: list[int]) -> list[int]:
    """Pointers every ownership test must get right: each box handed
    out, each misaligned by 8, below ``base``, at and past the top."""
    top = ref._next
    return [*history, *(p + 8 for p in history), HEAP_BASE - 16, HEAP_BASE - 8,
            top, top + 8, top + 16]


def _root(kind: str, pick: int, ref: DictAllocator, history: list[int]) -> int:
    """The bit pattern of a root of ``kind``, chosen with ``pick``."""
    owned = [p for p in history if ref.owns(p)]
    freed = [p for p in history if not ref.owns(p)]
    stale = history[pick % len(history)] if history else HEAP_BASE
    if kind == "live" and owned:
        return nanbox.box_bits(owned[pick % len(owned)])
    if kind == "negated":
        return nanbox.box_bits(stale, negated=True)
    if kind == "foreign":
        return nanbox._PATTERN | (pick & nanbox.NANBOX_PTR_MASK)
    if kind == "misaligned":
        return nanbox.box_bits(stale + 8)
    if kind == "below":
        return nanbox.box_bits(HEAP_BASE - 16 * (1 + pick % 2))
    if kind == "past_top":
        return nanbox.box_bits(ref._next + 16 * (pick % 2))
    if kind == "freed" and freed:
        return nanbox.box_bits(freed[pick % len(freed)])
    if kind == "plain":
        return pick
    return nanbox.box_bits(stale)


def _cpu(roots: list[tuple[int, str]], regs_from_cpu: bool):
    """A CPU stand-in holding each root in its place, and the register
    roots to pass (None when they live in ``cpu.regs``)."""
    mem = Memory()
    mem.map_page(WRITABLE)
    mem.map_page(READ_ONLY)
    regs = []
    offsets = {"mem": WRITABLE, "ro": READ_ONLY}
    for bits, place in roots:
        if place == "reg":
            regs.append(bits)
        else:
            mem.write_u64(offsets[place], bits)
            offsets[place] += 8
    mem.protect(READ_ONLY, PROT_READ)
    half = len(regs) // 2
    cpu = SimpleNamespace(mem=mem, regs=SimpleNamespace(xmm=[regs[:half]], gpr=regs[half:]))
    return cpu, (None if regs_from_cpu else regs)


def _call(fn, *args):
    try:
        return fn(*args)
    except (BoxHeapExhaustedError, KeyError) as err:
        return type(err)


_roots = st.tuples(st.sampled_from(KINDS), st.integers(0, nanbox.NANBOX_PTR_MASK),
                   st.sampled_from(PLACES))
_ops = st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 8)),
    st.tuples(st.just("collect"), st.lists(_roots, max_size=10), st.booleans()),
    st.tuples(st.just("owns"), _roots),
    st.tuples(st.just("load"), _roots)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_ops, st.one_of(st.none(), st.integers(1, 12)))
def test_slot_heap_matches_dict_heap(ops, capacity):
    heap, ref = BoxAllocator(capacity=capacity), DictAllocator(capacity=capacity)
    freed, ref_freed = [], []
    heap.on_free, ref.on_free = freed.append, ref_freed.append
    history: list[int] = []
    for op in ops:
        if op[0] == "alloc":
            for _ in range(op[1]):
                value = object()
                ptr = _call(heap.alloc, value)
                assert ptr == _call(ref.alloc, value)
                if isinstance(ptr, int):
                    history.append(ptr)
        elif op[0] == "collect":
            roots = [(_root(kind, pick, ref, history), place)
                     for kind, pick, place in op[1]]
            cpu, reg_roots = _cpu(roots, op[2])
            assert heap.collect(cpu, reg_roots) == ref.collect(cpu, reg_roots)
            assert freed == ref_freed
        else:
            bits = _root(op[1][0], op[1][1], ref, history)
            ptr = bits & nanbox.NANBOX_PTR_MASK
            method = op[0]
            assert _call(getattr(heap, method), ptr) == _call(getattr(ref, method), ptr)
        assert heap.live_count == ref.live_count
        assert heap.needs_gc() == ref.needs_gc()
    for ptr in _edges(ref, history):
        assert heap.owns(ptr) == ref.owns(ptr), hex(ptr)


def test_sweep_frees_in_allocation_order():
    """Reused slots are freed in the order they were handed out, not in
    slot order, so the free list hands pointers back as the dict did."""
    heap, ref = BoxAllocator(), DictAllocator()
    cpu = SimpleNamespace(mem=Memory())
    logs = {heap: [], ref: []}
    for allocator in logs:
        allocator.on_free = logs[allocator].append
        first = [allocator.alloc(i) for i in range(3)]
        allocator.collect(cpu, reg_roots=[])
        again = [allocator.alloc(i) for i in range(2)]
        assert again == first[:0:-1]
        allocator.collect(cpu, reg_roots=[])
        logs[allocator].append([allocator.alloc(i) for i in range(3)])
    assert logs[heap] == logs[ref]
    assert logs[heap][1] == [HEAP_BASE + 32, HEAP_BASE + 16]


def test_edge_pointers_are_not_owned():
    heap = BoxAllocator()
    ptrs = [heap.alloc(i) for i in range(4)]
    heap.collect(SimpleNamespace(mem=Memory()),
                 reg_roots=[nanbox.box_bits(p) for p in ptrs[1:]])
    assert [heap.owns(p) for p in ptrs] == [False, True, True, True]
    for ptr in (ptrs[0], ptrs[1] + 8, HEAP_BASE - 16, HEAP_BASE - 8, HEAP_BASE + 64):
        assert not heap.owns(ptr)
        with pytest.raises(KeyError):
            heap.load(ptr)
    assert heap.load(ptrs[3]) == 3


@pytest.mark.parametrize("flow", [False, True], ids=["plain", "flow"])
def test_inline_ownership_matches_owns(flow, monkeypatch):
    """``resolve`` unboxes, and the rule-(2) probe stops on, exactly the
    patterns ``owns`` accepts: live boxes, sign-flipped or not, but no
    freed, misaligned, below-``base`` or past-the-top pointer."""
    noted = []
    monkeypatch.setattr(FlowRecorder, "note_source", lambda self, ptr: noted.append(ptr))
    cpu = CPU(assemble("main:\n  hlt\n"))
    vm = FPVM(FPVMConfig.seq_short(flow=flow))
    vm.ledger.bind_cpu(cpu)
    heap = vm.allocator
    ptrs = [heap.alloc(B.float_to_bits(float(i))) for i in range(6)]
    heap.collect(cpu, reg_roots=[nanbox.box_bits(p) for p in ptrs[1::2]])
    add = lower(Instruction("addsd", (Xmm("xmm0"), Xmm("xmm1")), addr=0x40_1000, size=4))
    ctx = SignalContext(cpu, live=True)
    emulator = vm.emulator
    top = HEAP_BASE + 16 * len(ptrs)
    # Slot 5, the top one, is live: a pointer below ``base`` that
    # indexed from the end of the slots would find it.
    for ptr in [*ptrs, ptrs[1] + 8, HEAP_BASE - 16, top, top + 16]:
        owned = heap.owns(ptr)
        assert owned == (ptr in ptrs[1::2])
        for negated in (False, True):
            bits = nanbox.box_bits(ptr, negated)
            promotions = vm.telemetry.promotions
            noted.clear()
            emulator.resolve(bits)
            emulator.settle()
            assert vm.telemetry.promotions - promotions == (not owned), hex(ptr)
            assert noted == ([ptr] if owned and flow else [])
            ctx.xmm[0][0], ctx.xmm[1][0] = B.float_to_bits(1.0), bits
            assert emulator.any_source_boxed(add, ctx) == owned, hex(ptr)


def test_box_footprint():
    """4,096 boxes of one shared value (a heap just before a default
    collection) cost at most 24 bytes each; the ``dict`` heap took
    about 100.  Measured with ``tracemalloc`` around the allocations."""
    value = B.float_to_bits(1.5)
    heap = BoxAllocator()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(4096):
            heap.alloc(value)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert heap.live_count == 4096
    assert size / 4096 <= 24
