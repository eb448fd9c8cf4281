"""Patch state: the patch log and its one reader, the pristine text
image that keeps patches invisible to guest loads, per-site cache
invalidation, and the suppress-patch consumption fix."""

import pytest

from repro.conformance.generators import fuzz_program
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.decoder import decode_instruction
from repro.machine.program import TEXT_BASE, PatchKind
from repro.workloads import build_program


class _Tramp:
    def __init__(self):
        self.calls = 0

    def __call__(self, cpu, addr):
        self.calls += 1


class TestPatchLog:
    def test_patch_leaves_raw_bytes_and_decode(self):
        """Patches are pre-hook metadata, not byte splices: the bytes
        the decoder reads at a patched site, and their decode, do not
        change."""
        prog = fuzz_program(9)
        addr = prog.instructions[0].addr
        text = prog.text
        raw = prog.raw_bytes_at(addr)
        before = decode_instruction(raw, addr=addr)
        prog.patch_call(addr, _Tramp())
        assert prog.patches[addr].kind is PatchKind.MAGIC_CALL
        assert prog.raw_bytes_at(addr) == raw == prog.by_addr[addr].raw
        assert prog.text == text
        after = decode_instruction(prog.raw_bytes_at(addr), addr=addr)
        assert after == before
        assert (after.mnemonic, after.operands) == (
            prog.by_addr[addr].mnemonic, prog.by_addr[addr].operands)

    def test_patch_unpatch_patch_logs_three_events(self):
        prog = fuzz_program(9)
        a0 = prog.instructions[0].addr
        prog.patch_int3(a0)
        prog.unpatch(a0)
        prog.patch_int3(a0)
        assert prog.patch_events == [a0, a0, a0]
        assert prog.patch_seq == 3

    def test_sites_since(self):
        prog = fuzz_program(9)
        a0, a1 = prog.instructions[0].addr, prog.instructions[1].addr
        assert prog.sites_since(None) is None     # unset cursor adopts
        prog.patch_int3(a0)
        cursor = prog.patch_seq
        prog.patch_int3(a1)
        prog.unpatch(a1)
        assert prog.sites_since(0) == {a0, a1}
        assert prog.sites_since(cursor) == {a1}
        assert prog.sites_since(prog.patch_seq) == set()

    def test_copy_gets_independent_patch_state(self):
        prog = fuzz_program(9)
        prog.patch_int3(prog.instructions[0].addr)
        clone = prog.copy()
        assert clone.patch_seq == prog.patch_seq
        clone.clear_patches()
        assert prog.patches                     # parent untouched
        assert clone.patch_seq == prog.patch_seq + 1


class TestShadowViewMemory:
    def test_guest_memory_pristine_despite_patch(self):
        prog = fuzz_program(9)
        prog.patch_int3(prog.instructions[0].addr)
        cpu = CPU(prog)
        assert (bytes(cpu.mem.read_bytes(TEXT_BASE, len(prog.text)))
                == bytes(prog.text))

    def test_patch_after_load_stays_invisible(self):
        prog = fuzz_program(9)
        cpu = CPU(prog)
        addr = prog.instructions[0].addr
        prog.patch_int3(addr)
        assert cpu.mem.read_bytes(addr, 1)[0] == prog.text[addr - TEXT_BASE]


_STRAIGHT_SRC = """
.text
main:
  mov rax, 1
  mov rbx, 2
  mov rcx, 3
  hlt
"""


class TestSuppressPatchConsumption:
    """The satellite-1 regression: ``_suppress_patch_at`` must be
    consumed by the very next dispatch, whatever RIP it names."""

    def test_lingering_suppress_does_not_mask_later_patch(self):
        prog = assemble(_STRAIGHT_SRC)
        cpu = CPU(prog, uops=False)
        cpu.kernel = LinuxKernel()
        instrs = prog.instructions
        site = instrs[2].addr
        tramp = _Tramp()
        prog.patch_call(site, tramp)
        # A stale suppression for `site` left over while RIP is still
        # at main: the first dispatch (at a different address) must
        # clear it, so the patch fires when execution reaches `site`.
        cpu._suppress_patch_at = site
        cpu.step()
        assert cpu._suppress_patch_at is None
        cpu.step()
        cpu.step()
        assert tramp.calls == 1

    def test_legitimate_suppress_skips_exactly_once(self):
        prog = assemble(_STRAIGHT_SRC)
        cpu = CPU(prog, uops=False)
        cpu.kernel = LinuxKernel()
        site = prog.instructions[0].addr
        tramp = _Tramp()
        prog.patch_call(site, tramp)
        cpu.resume_at(site, suppress_patch=True)
        cpu.step()                    # executes `site` with no pre-hook
        assert tramp.calls == 0
        assert cpu._suppress_patch_at is None


_COLD_REGION_SRC = """
.data
k: .double 1.5
n: .quad 40
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + k]
  movsd xmm1, [rip + k]
top:
  mulsd xmm0, xmm1
  addsd xmm0, xmm1
  dec rcx
  jne top
  hlt
cold:
  mov rax, 7
  hlt
"""


class TestPerSiteInvalidation:
    def _warm_cpu(self):
        prog = build_program("lorenz", 30)
        cpu = CPU(prog, uops=True)
        cpu.kernel = LinuxKernel()
        cpu.run()
        return prog, cpu, cpu._sb_cache

    def test_noop_unpatch_and_clear_do_not_invalidate(self):
        """Satellite 2: no-op patch operations are not patch events and
        must leave every cached artifact alone."""
        prog, cpu, cache = self._warm_cpu()
        blocks = len(cache.blocks)
        assert blocks > 0
        seq0, inv0 = prog.patch_seq, cache.invalidations
        prog.unpatch(prog.entry)          # nothing patched there
        prog.clear_patches()              # no patches at all
        assert prog.patch_seq == seq0
        assert cache.sync(prog) is False
        assert len(cache.blocks) == blocks
        assert cache.invalidations == inv0
        assert cache.invalidated_blocks == 0

    def test_unrelated_blocks_survive_patch(self):
        prog, cpu, cache = self._warm_cpu()
        view = cache.blocks
        nblocks = len(view)
        assert nblocks >= 2
        target = next(b.entry for b in view.values() if b.end > b.entry)
        prog.patch_call(target, _Tramp())
        assert cache.sync(prog) is True
        assert target not in view
        assert cache.invalidations == 1
        assert cache.invalidated_blocks >= 1
        assert cache.survived_blocks > 0
        assert len(view) >= nblocks - cache.invalidated_blocks

    def test_patch_outside_cached_ranges_drops_nothing(self):
        prog = assemble(_COLD_REGION_SRC)
        cpu = CPU(prog, uops=True)
        cpu.kernel = LinuxKernel()
        cpu.run()
        cache = cpu._sb_cache
        view = cache.blocks
        assert view
        site = prog.symbols["cold"]
        covered = [(b.entry, b.end) for b in view.values()]
        assert not any(lo <= site < hi for lo, hi in covered)
        nblocks = len(view)
        prog.patch_call(site, _Tramp())
        # a sync runs, but nothing covers the site: no invalidation.
        cache.sync(prog)
        assert cache.invalidations == 0
        assert cache.invalidated_blocks == 0
        assert len(view) == nblocks
        assert cache.epoch == prog.patch_seq
