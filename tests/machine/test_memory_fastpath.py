"""Single-page fast paths of observed memory access.

``Memory.observed_load``/``observed_store`` and the bound ``load8`` /
``store8`` closures of the uop pipeline serve an access that lies in
one mapped page with the needed permission bit directly, and hand
everything else to the generic accessors.  These tests drive seeded
random access sequences over every kind of page — RW, read-only,
write-only, unmapped until first touch or mapped up front — at in-page and
page-straddling offsets, and hold each access to a reference built from
``read_bytes``/``write_bytes`` plus explicit observer notification:
same value, same exception type, same memory digest and the same
observer event stream.
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
from repro.machine.uops import _load8_factory, _store8_factory

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
        path = rng.choice(("method", "closure"))
        size = 8 if path == "closure" else rng.choice(SIZES)
        base = rng.choice(REGIONS)
        if rng.random() < 0.25:
            # the access crosses into the next page (or ends exactly at
            # the page end, the last in-page offset)
            off = PAGE_SIZE - rng.randint(1, size)
        else:
            off = rng.randrange(PAGE_SIZE - size + 1)
        store = rng.random() < 0.5
        value = rng.getrandbits(rng.choice((8 * size, 64, 72)))
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


def _fast(mem: Memory, closures, op):
    path, store, addr, size, fp, value = op
    if path == "closure":
        load8, store8 = closures[fp]
        return store8(addr, value) if store else load8(addr)
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
    # Bound before any observer is attached: a closure must pick up an
    # observer appended later.
    closures = {fp: (_load8_factory(fast, fp), _store8_factory(fast, fp))
                for fp in (False, True)}
    seen: list = []
    expected: list | None = None
    for i, op in enumerate(_ops(seed, 300)):
        if i == attach_at:
            fast.observers.append(lambda *ev: seen.append(ev))
            expected = []
        got = _outcome(_fast, fast, closures, op)
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
    assert drawn == {(p, s, b, x) for p in ("method", "closure")
                     for s in (False, True) for b in REGIONS
                     for x in (False, True)}
