"""The micro-op pipeline: the fast FP path against the IEEE oracle, on/off execution
differentials, and superblock invalidation
on patch-state epoch changes."""

import random
import struct

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.telemetry import rates, snapshot
from repro.fpu import fast
from repro.fpu.ieee import ieee_op
from repro.kernel.kernel import LinuxKernel
from repro.machine import uops
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, TIERS, MachineError
from repro.machine.program import PatchKind
from repro.conformance.generators import fuzz_program
from repro.workloads import build_program


def _interesting_bits(rng: random.Random, n: int) -> list[int]:
    """Random binary64 patterns biased toward the edge cases."""
    specials = [
        0x0000_0000_0000_0000,  # +0
        0x8000_0000_0000_0000,  # -0
        0x7FF0_0000_0000_0000,  # +inf
        0xFFF0_0000_0000_0000,  # -inf
        0x7FF8_0000_0000_0000,  # qNaN
        0x7FF0_0000_0000_0001,  # sNaN
        0xFFF8_DEAD_BEEF_0123,  # NaN with payload
        0x0000_0000_0000_0001,  # min subnormal
        0x000F_FFFF_FFFF_FFFF,  # max subnormal
        0x7FEF_FFFF_FFFF_FFFF,  # max normal
        0x3FF0_0000_0000_0000,  # 1.0
        0xBFF0_0000_0000_0000,  # -1.0
        0x4000_0000_0000_0000,  # 2.0
        0x43E0_0000_0000_0000,  # 2^63
        0xC3E0_0000_0000_0000,  # -2^63
    ]
    out = list(specials)
    while len(out) < n:
        out.append(rng.getrandbits(64))
    return out


_BINARY_OPS = ("add", "sub", "mul", "div", "min", "max", "ucomi", "comi",
               *(f"cmp_{pred}" for pred in uops.CMP_PREDS.values()))
_UNARY_OPS = ("sqrt", "cvtsi2sd", "cvttsd2si", "cvtsd2si")
U64 = 0xFFFF_FFFF_FFFF_FFFF
_NAN_A = 0x7FF8_0000_0000_0001
_NAN_B = 0xFFF8_0000_0000_0002
_NEG_ZERO = 0x8000_0000_0000_0000


class TestFastScalarBitExactness:
    """Every values-only form in ``repro.fpu.fast`` — the one binary64
    fast path the interpreter and the micro-op closures share — must agree bit-for-bit with the ``repro.fpu.ieee`` oracle
    on every input class."""

    def test_binary_ops(self):
        rng = random.Random(0xF9)
        vals = _interesting_bits(rng, 400)
        for op in _BINARY_OPS:
            for i in range(0, len(vals) - 1, 2):
                a, b = vals[i], vals[i + 1]
                assert fast.evaluate(op, a, b) == ieee_op(op, a, b).bits, (
                    f"{op}({a:#x}, {b:#x})"
                )

    def test_binary_ops_cross_pairs(self):
        rng = random.Random(0x51)
        vals = _interesting_bits(rng, 24)
        for op in _BINARY_OPS:
            for a in vals:
                for b in vals:
                    assert fast.evaluate(op, a, b) == ieee_op(op, a, b).bits, (
                        f"{op}({a:#x}, {b:#x})")

    def test_sqrt(self):
        rng = random.Random(0xB2)
        for a in _interesting_bits(rng, 300):
            assert fast.FAST_SCALAR["sqrt"](a) == ieee_op("sqrt", a).bits

    def test_cmp_predicates_match_native(self):
        rng = random.Random(0xC3)
        vals = _interesting_bits(rng, 20)
        for mn, pred in uops.CMP_PREDS.items():
            cmp = fast.cmp_mask(pred)
            for a in vals:
                for b in vals:
                    want = ieee_op(f"cmp_{pred}", a, b).bits
                    assert cmp(a, b) == want, f"{mn}/{pred}({a:#x}, {b:#x})"
                    assert fast.evaluate(f"cmp_{pred}", a, b) == want

    def test_converts(self):
        rng = random.Random(0xC7)
        halves = [struct.unpack("<Q", struct.pack("<d", v))[0]
                  for v in (0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 2.0 ** 62 + 0.0)]
        for a in _interesting_bits(rng, 300) + halves:
            for op in _UNARY_OPS:
                assert fast.evaluate(op, a) == ieee_op(op, a).bits, (
                    f"{op}({a:#x})")

    def test_fma(self):
        rng = random.Random(0xFA)
        vals = _interesting_bits(rng, 18)
        for a in vals:
            for b in vals:
                for c in vals[::3]:
                    assert (fast.evaluate("fma", a, b, c)
                            == ieee_op("fma", a, b, c).bits), (
                        f"fma({a:#x}, {b:#x}, {c:#x})")

    def test_two_nans_return_the_first(self):
        """SSE returns the first NaN source, quieted — not whichever
        operand a host compiler happened to put first."""
        for op in ("add", "sub", "mul", "div"):
            assert fast.evaluate(op, _NAN_A, _NAN_B) == _NAN_A, op
            assert fast.evaluate(op, _NAN_B, _NAN_A) == _NAN_B, op
        assert fast.evaluate("fma", _NAN_A, _NAN_B, _NAN_B) == _NAN_A

    def test_nan_operand_in_either_position(self, monkeypatch):
        """A NaN operand (signaling or quiet, any sign and payload, in
        either position, against every operand class) is decided by
        class: the oracle's bits, without calling the oracle.  NaN
        results with no NaN operand still go to the oracle."""
        rng = random.Random(0x4A)
        nans = [0x7FF0_0000_0000_0001, 0xFFF0_0000_0000_0001, 0x7FF8_0000_0000_0000,
                0xFFF8_0000_0000_0000, 0x7FF7_FFFF_FFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF,
                _NAN_A, _NAN_B]
        nans += [rng.getrandbits(1) << 63 | 0x7FF0 << 48 | (rng.getrandbits(52) or 1)
                 for _ in range(40)]
        others = _interesting_bits(rng, 40) + nans[:8]
        cases = [(op, x, y) for op in ("add", "sub", "mul", "div")
                 for n in nans for o in others for x, y in ((n, o), (o, n))]
        want = [ieee_op(op, x, y).bits for op, x, y in cases]
        sqrt_want = [ieee_op("sqrt", n).bits for n in nans]
        oracle_calls = []
        real = fast.ieee_op
        monkeypatch.setattr(fast, "ieee_op",
                            lambda *args: oracle_calls.append(args) or real(*args))
        for (op, x, y), bits in zip(cases, want):
            if op == "div" and y & ~_NEG_ZERO == 0:
                continue  # a zero divisor is the oracle's
            assert fast.evaluate(op, x, y) == bits, f"{op}({x:#x}, {y:#x})"
        for n, bits in zip(nans, sqrt_want):
            assert fast.FAST_SCALAR["sqrt"](n) == bits, f"sqrt({n:#x})"
        assert oracle_calls == []
        inf, ninf = 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000
        for op, x, y in (("add", inf, ninf), ("sub", inf, inf), ("mul", 0, inf),
                         ("div", inf, ninf)):
            assert fast.evaluate(op, x, y) == real(op, x, y).bits
        assert len(oracle_calls) == 4

    def test_signed_zero_fma(self):
        """(+0 x -0) + -0 is -0: both addends are negative zeros."""
        assert fast.evaluate("fma", _NEG_ZERO, 0, _NEG_ZERO) == _NEG_ZERO
        assert fast.evaluate("fma", 0, _NEG_ZERO, 0) == 0

    @given(st.integers(0, U64), st.integers(0, U64), st.integers(0, U64))
    @settings(max_examples=300, deadline=None)
    def test_raw_bit_patterns(self, a, b, c):
        for op in _BINARY_OPS:
            assert fast.evaluate(op, a, b) == ieee_op(op, a, b).bits, op
        for op in _UNARY_OPS:
            assert fast.evaluate(op, a) == ieee_op(op, a).bits, op
        assert fast.evaluate("fma", a, b, c) == ieee_op("fma", a, b, c).bits


#: two-NaN add/mul and a signed-zero fma, in a loop so the chained tier
#: re-runs them from a cached superblock.
_NAN_ORDER_SRC = """
.data
nan_a: .quad 0x7ff8000000000001
nan_b: .quad 0xfff8000000000002
negz: .quad 0x8000000000000000
n: .quad 8
.text
main:
  mov rcx, [rip + n]
top:
  movsd xmm0, [rip + nan_a]
  movsd xmm1, [rip + nan_b]
  movsd xmm2, [rip + nan_a]
  addsd xmm0, xmm1
  mulsd xmm2, xmm1
  xorpd xmm3, xmm3
  movsd xmm4, [rip + negz]
  movsd xmm5, [rip + negz]
  vfmadd213sd xmm3, xmm4, xmm5
  dec rcx
  jne top
  hlt
"""


@pytest.mark.parametrize("tier", list(TIERS))
def test_guest_nan_order_and_signed_zero_fma(tier):
    cpu = CPU(assemble(_NAN_ORDER_SRC), uops=TIERS[tier])
    cpu.kernel = LinuxKernel()
    cpu.run()
    xmm = cpu.regs.xmm
    assert (xmm[0][0], xmm[2][0], xmm[3][0]) == (_NAN_A, _NAN_A, _NEG_ZERO)
    if TIERS[tier]:
        stats = cpu.uop_stats
        assert stats.block_runs > stats.blocks_built


class TestUopsOnOffDifferential:
    """Full-machine equality between the superblock engine and the seed
    single-step interpreter."""

    @pytest.mark.parametrize("seed", [1, 2, 7, 19, 42])
    def test_fuzz_programs_native(self, seed):
        results = {}
        for flag in (False, True):
            cpu = CPU(fuzz_program(seed), uops=flag)
            cpu.kernel = LinuxKernel()
            cpu.run()
            results[flag] = (
                cpu.cycles, cpu.work_cycles, cpu.instruction_count,
                tuple(cpu.output), dict(cpu.retired_by_class),
                cpu.fp_trap_count, cpu.bp_trap_count,
                cpu.regs.gpr, [list(x) for x in cpu.regs.xmm],
            )
        assert results[False] == results[True]

    def test_workload_native(self):
        prog = build_program("lorenz", 40)
        results = {}
        for flag in (False, True):
            cpu = CPU(prog.copy(), uops=flag)
            cpu.kernel = LinuxKernel()
            cpu.run()
            results[flag] = (cpu.cycles, cpu.instruction_count, tuple(cpu.output))
        assert results[False] == results[True]

    def test_runaway_limit_matches_interpreter(self):
        prog = build_program("lorenz", 40)
        for limit in (1, 7, 100):
            messages = {}
            for flag in (False, True):
                cpu = CPU(prog.copy(), uops=flag)
                cpu.kernel = LinuxKernel()
                with pytest.raises(MachineError) as exc:
                    cpu.run(max_steps=limit)
                messages[flag] = (str(exc.value), cpu.cycles,
                                  cpu.instruction_count, cpu.regs.rip)
            assert messages[False] == messages[True]

    def test_uop_stats_populated(self):
        cpu = CPU(build_program("lorenz", 20), uops=True)
        cpu.kernel = LinuxKernel()
        cpu.run()
        stats = cpu.uop_stats
        assert stats is not None
        assert stats.uops_retired > 0
        assert stats.blocks_built > 0
        assert 0.0 < rates(snapshot(stats, "uop"))["uop_hit_rate"] <= 1.0


def test_engine_tiers_on_by_default():
    prog = fuzz_program(3)
    cpu = CPU(prog)
    assert cpu.uops_enabled == TIERS["chained"]
    assert CPU(prog, uops=False).uops_enabled is False


class _CountingTrampoline:
    def __init__(self):
        self.call_count = 0

    def __call__(self, cpu, addr):
        self.call_count += 1


class TestSuperblockInvalidation:
    def test_patch_bumps_epoch(self):
        prog = fuzz_program(11)
        addr = prog.instructions[0].addr
        e0 = prog.patch_seq
        prog.patch_int3(addr)
        assert prog.patch_seq == e0 + 1
        prog.unpatch(addr)
        assert prog.patch_seq == e0 + 2
        prog.unpatch(addr)  # no-op: nothing there
        assert prog.patch_seq == e0 + 2
        prog.patch_call(addr, _CountingTrampoline())
        prog.clear_patches()
        assert prog.patch_seq == e0 + 4
        prog.clear_patches()  # no-op when already empty
        assert prog.patch_seq == e0 + 4

    def test_copy_carries_epoch(self):
        prog = fuzz_program(11)
        prog.patch_int3(prog.instructions[0].addr)
        assert prog.copy().patch_seq == prog.patch_seq

    def test_stale_superblock_regression(self):
        """A patch applied between runs of the *same* CPU must fire even
        though the addresses around it were already compiled into cached
        superblocks — the epoch bump flushes the block cache."""
        prog = build_program("lorenz", 30)
        cpu = CPU(prog, uops=True)
        cpu.kernel = LinuxKernel()
        cpu.run()
        assert cpu.uop_stats.blocks_built > 0

        # Patch an instruction in the *body* of the cached entry block.
        # (Block entries are patch-checked by the engine loop itself, so
        # only a body address truly exercises the epoch flush.)
        engine = cpu._uop_engine
        entry_block = engine.cache.blocks.get(prog.entry)
        assert entry_block is not None and entry_block.n_body >= 2
        first = prog.by_addr[prog.entry]
        target = first.addr + first.size  # second instruction
        tramp = _CountingTrampoline()
        prog.patch_call(target, tramp)
        assert prog.patches[target].kind is PatchKind.MAGIC_CALL

        cpu.halted = False
        cpu.resume_at(prog.entry)
        try:
            # The finished stack frame is gone, so the re-run cannot
            # terminate cleanly; a few steps past the patch site suffice.
            cpu.run(max_steps=50)
        except MachineError:
            pass
        assert tramp.call_count > 0, (
            "magic pre-hook never fired: a stale superblock executed "
            "through the patch site"
        )
