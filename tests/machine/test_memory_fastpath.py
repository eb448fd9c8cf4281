"""Single-page fast paths of memory access.

``Memory.observed_load``/``observed_store``, ``read_u64``/``write_u64``
and the 8-byte accesses inlined in the micro-op functions serve an
access that lies in one mapped page with the needed permission bit
directly (8 bytes through ``struct``), and hand everything else to the
generic accessors.  These tests drive seeded random access sequences
over every kind of page — RW, read-only, write-only, unmapped until
first touch or mapped up front — at in-page and page-straddling
offsets, and every size at every page-edge offset, and hold each access
to a reference built from ``read_bytes``/``write_bytes`` plus explicit
observer notification: same value, same exception type, same memory
digest and the same observer event stream.
"""

import hashlib
import random

import pytest

from repro.machine.memory import (
    Memory,
    MemoryFault,
    PAGE_SIZE,
    PROT_READ,
    PROT_WRITE,
)
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.isa import GPR_IDS
from repro.machine.uops import bind_exec, lower

PRIVATE = 0x10000   # two adjacent RW pages, then an unmapped page
READONLY = 0x30000  # read-only page followed by an RW page
WRITEONLY = 0x40000
UNMAPPED = 0x50000
REGIONS = [PRIVATE, PRIVATE + PAGE_SIZE, READONLY, WRITEONLY, UNMAPPED]
SIZES = (1, 2, 4, 8)


def _fill(mem: Memory, base: int, pages: int, seed: int) -> None:
    rng = random.Random(seed)
    for i in range(pages):
        mem.map_page(base + i * PAGE_SIZE)
        mem.write_bytes(base + i * PAGE_SIZE, rng.randbytes(PAGE_SIZE))


def _build(premapped: bool) -> Memory:
    """The memory under test; two calls build identical, independent
    memories.  ``premapped`` maps and fills the ``UNMAPPED`` region and
    the page after it up front, so accesses there take the in-page fast
    path from the first one instead of the first-touch mapping."""
    mem = Memory()
    if premapped:
        _fill(mem, UNMAPPED, 2, seed=5)
    _fill(mem, PRIVATE, 2, seed=2)
    _fill(mem, READONLY, 2, seed=3)
    mem.protect(READONLY, PROT_READ)
    _fill(mem, WRITEONLY, 1, seed=4)
    mem.protect(WRITEONLY, PROT_WRITE)
    return mem


def _digest(mem: Memory) -> str:
    """SHA-256 over every mapped page's (address, prot, contents)."""
    h = hashlib.sha256()
    for pno in sorted(mem._pages):
        page = mem._pages[pno]
        h.update(pno.to_bytes(8, "little") + page.prot.to_bytes(4, "little"))
        h.update(page.data)
    return h.hexdigest()


def _kind(fp: bool, store: bool) -> str:
    return ("fp_" if fp else "int_") + ("store" if store else "load")


def _ops(seed: int, n: int):
    rng = random.Random(seed)
    for _ in range(n):
        path = rng.choice(("method", "generated"))
        size = 8 if path == "generated" else rng.choice(SIZES)
        base = rng.choice(REGIONS)
        if rng.random() < 0.25:
            # the access crosses into the next page (or ends exactly at
            # the page end, the last in-page offset)
            off = PAGE_SIZE - rng.randint(1, size)
        else:
            off = rng.randrange(PAGE_SIZE - size + 1)
        store = rng.random() < 0.5
        # a register holds 64 bits; a method's caller may pass more
        value = rng.getrandbits(rng.choice((8 * size, 64) if path == "generated"
                                           else (8 * size, 64, 72)))
        yield path, store, base + off, size, rng.random() < 0.5, value


def _reference(mem: Memory, events, op):
    _, store, addr, size, fp, value = op
    if store:
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        mem.write_bytes(addr, data)
        out = None
    else:
        out = int.from_bytes(mem.read_bytes(addr, size), "little")
    if events is not None:
        events.append((addr, size, _kind(fp, store), value if store else out))
    return out


#: the bound accesses, through an address held in rbx: (fp, store)
#: -> source line; the loaded or stored value is in rax / xmm0.
GENERATED = {(False, False): "mov rax, [rbx]", (False, True): "mov [rbx], rax",
             (True, False): "movsd xmm0, [rbx]", (True, True): "movsd [rbx], xmm0"}
RBX, RAX = GPR_IDS["rbx"], GPR_IDS["rax"]


def _bind(mem: Memory) -> tuple:
    """The micro-op function of each ``GENERATED`` access over ``mem``
    and the registers they share."""
    prog = assemble("main:\n" + "".join(f"  {line}\n" for line in GENERATED.values()))
    cpu = CPU(prog)
    cpu.mem = mem
    fns = {key: bind_exec(lower(instr), cpu)
           for key, instr in zip(GENERATED, prog.instructions)}
    return cpu.regs, fns


def _fast(mem: Memory, bound, op):
    path, store, addr, size, fp, value = op
    if path == "generated":
        regs, fns = bound
        regs.gpr[RBX] = addr
        if store:
            if fp:
                regs.xmm[0][0] = value
            else:
                regs.gpr[RAX] = value
        fns[fp, store]()
        if not store:
            return regs.xmm[0][0] if fp else regs.gpr[RAX]
        return None
    if store:
        return mem.observed_store(addr, value, size, fp)
    return mem.observed_load(addr, size, fp)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except MemoryFault as exc:
        return ("fault", type(exc))


@pytest.mark.parametrize("premapped", [False, True])
@pytest.mark.parametrize("attach_at", [0, 150, None],
                         ids=["observed", "late-observer", "unobserved"])
@pytest.mark.parametrize("seed", range(4))
def test_fast_paths_match_reference(seed, attach_at, premapped):
    fast = _build(premapped)
    ref = _build(premapped)
    # Bound before any observer is attached: a generated function must
    # pick up an observer appended later.
    bound = _bind(fast)
    seen: list = []
    expected: list | None = None
    for i, op in enumerate(_ops(seed, 300)):
        if i == attach_at:
            fast.observers.append(lambda *ev: seen.append(ev))
            expected = []
        got = _outcome(_fast, fast, bound, op)
        want = _outcome(_reference, ref, expected, op)
        assert got == want, (i, op)
        assert _digest(fast) == _digest(ref), (i, op)
        assert seen == (expected or []), (i, op)
    if attach_at is not None:
        assert len(seen) > 50


def test_every_case_is_drawn():
    """The generator reaches each page kind at both offset classes with
    both access directions, so the equivalence test above covers them."""
    drawn = set()
    for seed in range(4):
        for path, store, addr, size, _, _ in _ops(seed, 300):
            base = addr & ~(PAGE_SIZE - 1)
            straddle = (addr & (PAGE_SIZE - 1)) + size > PAGE_SIZE
            drawn.add((path, store, base, straddle))
    assert drawn == {(p, s, b, x) for p in ("method", "generated")
                     for s in (False, True) for b in REGIONS
                     for x in (False, True)}


#: every offset within 8 bytes of a page edge, on either side.
EDGE_OFFSETS = [*range(8), *range(PAGE_SIZE - 8, PAGE_SIZE)]


def _access(mem: Memory, way: str, store: bool, addr: int, size: int, value: int):
    if way == "u64":
        return mem.write_u64(addr, value) if store else mem.read_u64(addr)
    if store:
        return mem.observed_store(addr, value, size, False)
    return mem.observed_load(addr, size, False)


@pytest.mark.parametrize("premapped", [False, True])
@pytest.mark.parametrize("way", ["observed", "u64"])
def test_page_edges(way, premapped):
    """Each size at each page-edge offset, on an RW page, a read-only
    page and an unmapped one (or, ``premapped``, one mapped up front),
    loads and stores alike, against the reference."""
    rng = random.Random(7)
    fast, ref = _build(premapped), _build(premapped)
    for base in (PRIVATE, READONLY, UNMAPPED):
        for size in (8,) if way == "u64" else SIZES:
            for off in EDGE_OFFSETS:
                for store in (False, True):
                    value = rng.getrandbits(64 if way == "u64" else 8 * size)
                    op = ("method", store, base + off, size, False, value)
                    got = _outcome(_access, fast, way, store, base + off, size, value)
                    want = _outcome(_reference, ref, None, op)
                    assert got == want, (way, op)
                    assert _digest(fast) == _digest(ref), (way, op)
