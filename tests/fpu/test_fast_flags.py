"""The flag form of the binary64 fast path against the oracle.

``fast.flagged(op)(*x)`` must equal ``(r.bits, r.flags.as_mxcsr_status())``
for ``r = ieee_op(op, *x)`` on every input, and the values-only form
``fast.evaluate(op, *x)`` must equal ``r.bits``: under an unmasked MXCSR
the micro-op closures commit, fault or OR status bits from the flag form
alone, so a flag it misses is a trap FPVM never sees.  Random raw 64-bit
patterns mostly leave the normal range, so the strategies also draw
normal operands near each other and near the range edges, and the
explicit cases pin exact ties, the 2^-1022 / 2^-1074 and overflow
boundaries and NaNs in every operand position."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpu import fast
from repro.fpu.ieee import FPFlags, ieee_op
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, TIERS
from repro.machine.registers import MXCSR_FPVM

BINARY_OPS = ("add", "sub", "mul", "div", "min", "max", "ucomi", "comi",
              *(f"cmp_{p}" for p in ("eq", "lt", "le", "unord", "neq",
                                     "nlt", "nle", "ord")))
UNARY_OPS = ("sqrt", "cvtsi2sd", "cvttsd2si", "cvtsd2si")
IE, DE, PE = fast.IE, fast.DE, fast.PE


def f2b(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def pattern(sign: int, exp: int, frac: int) -> int:
    return (sign << 63) | (exp << 52) | frac


QNAN = 0x7FF8_0000_0000_0000
QNAN_PAYLOAD = 0xFFF8_DEAD_BEEF_0123
SNAN = 0x7FF0_0000_0000_0001
SNAN_NEG = 0xFFF4_0000_0000_00AB
SUB_MIN = 0x0000_0000_0000_0001          # 2^-1074
SUB_MAX = 0x000F_FFFF_FFFF_FFFF
MIN_NORMAL = 0x0010_0000_0000_0000       # 2^-1022
MAX = 0x7FEF_FFFF_FFFF_FFFF
ONE = f2b(1.0)
ONE_UP = ONE + 1                         # 1 + 2^-52
ONE_DOWN = f2b(1.0) - 1                  # 1 - 2^-53
SPECIALS = (0, 1 << 63, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
            QNAN, QNAN_PAYLOAD, SNAN, SNAN_NEG, SUB_MIN, SUB_MAX,
            SUB_MAX | 1 << 63, MIN_NORMAL, MAX, MAX | 1 << 63, ONE, ONE_UP,
            ONE_DOWN, f2b(2.0), f2b(-1.5), f2b(2.0 ** 63), f2b(-2.0 ** 63),
            f2b(0.5), f2b(3.0), f2b(0.1))


def check(op: str, *x: int) -> None:
    r = ieee_op(op, *x)
    want = (r.bits, r.flags.as_mxcsr_status())
    assert fast.flagged(op)(*x) == want, (op, [hex(v) for v in x])
    assert fast.evaluate(op, *x) == r.bits, (op, [hex(v) for v in x])


raw = st.integers(0, 2 ** 64 - 1)
#: normal operands within a few binades of each other (mul, div and sqrt
#: stay in range; add/sub round), anywhere in the exponent range.
near = st.builds(pattern, st.integers(0, 1), st.integers(1000, 1046),
                 st.integers(0, 2 ** 52 - 1))
#: exponents at both ends, where results cross 2^-1022, 2^-1074 or MAX.
edge_exp = st.builds(pattern, st.integers(0, 1),
                     st.sampled_from((0, 1, 2, 3, 510, 511, 512, 1023,
                                      1535, 1536, 2044, 2045, 2046)),
                     st.sampled_from((0, 1, 2 ** 51, 2 ** 52 - 1))
                     | st.integers(0, 2 ** 52 - 1))
#: short mantissas: exact products, quotients, square roots and ties.
short = st.builds(lambda s, e, m: pattern(s, e, m << 44), st.integers(0, 1),
                  st.integers(1015, 1031), st.integers(0, 255))
operand = st.one_of(raw, near, edge_exp, short, st.sampled_from(SPECIALS))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BINARY_OPS), operand, operand)
def test_binary_flag_form_matches_oracle(op, a, b):
    check(op, a, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(UNARY_OPS), operand)
def test_unary_flag_form_matches_oracle(op, a):
    check(op, a)


@settings(max_examples=150, deadline=None)
@given(operand, operand, operand)
def test_fma_flag_form_matches_oracle(a, b, c):
    check("fma", a, b, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 64 - 1) | st.integers(0, 2 ** 60))
def test_cvtsi2sd_flag_form_matches_oracle(v):
    check("cvtsi2sd", v)


# ------------------------------------------------------------ edge cases
#: (op, operands, status): exact ties round to even and raise PE only.
TIES = (
    ("add", (ONE_UP, f2b(2.0 ** -53)), PE),            # 1 + 1.5 ulp -> 1 + 2 ulp
    ("add", (ONE, f2b(2.0 ** -53)), PE),               # half an ulp of 1.0
    ("sub", (f2b(2.0), f2b(2.0 ** -53)), PE),          # 2 - half an ulp of 1.0
    ("mul", (ONE_UP, f2b(1.5)), PE),                   # 1.5 + 1.5 ulp
    ("mul", (pattern(0, 1023, 3), pattern(0, 1023, 2 ** 51)), PE),
    ("div", (f2b(3 * 2.0 ** -1074), f2b(2.0)), None),  # subnormal tie
    ("cvtsd2si", (f2b(2.5),), PE),
    ("cvtsd2si", (f2b(-3.5),), PE),
    ("cvttsd2si", (f2b(-2.5),), PE),
)

#: results one ulp from overflow, and past it.
OVERFLOW = (
    ("add", (MAX, f2b(2.0 ** 970))),       # tie at MAX + ulp/2: overflows
    ("add", (MAX, f2b(2.0 ** 969))),       # rounds back to MAX
    ("sub", (MAX | 1 << 63, f2b(2.0 ** 970))),
    ("mul", (MAX, ONE_UP)),
    ("mul", (MAX, ONE_DOWN)),
    ("mul", (f2b(2.0 ** 1022), f2b(1.9999999999999998))),
    ("mul", (f2b(2.0 ** 1022), f2b(2.0))),
    ("div", (MAX, ONE_DOWN)),
    ("div", (MAX, f2b(0.5))),
    ("div", (f2b(2.0 ** 1022), f2b(0.5000000000000001))),
    ("add", (f2b(2.0 ** 1022), f2b(2.0 ** 1022))),
)

#: results at the 2^-1022 and 2^-1074 boundaries.
UNDERFLOW = (
    ("mul", (f2b(2.0 ** -511), f2b(2.0 ** -511))),        # exactly 2^-1022
    ("mul", (MIN_NORMAL, ONE_DOWN)),                      # tie onto 2^-1022
    ("mul", (f2b(2.0 ** -1021), ONE_DOWN)),
    ("mul", (f2b(2.0 ** -1020), f2b(0.75))),
    ("div", (f2b(2.0 ** -1000), f2b(2.0 ** 74))),         # exactly 2^-1074
    ("div", (f2b(2.0 ** -1000), f2b(2.0 ** 75))),         # tie onto 0
    ("div", (f2b(2.0 ** -1000), f2b(1.5 * 2.0 ** 74))),
    ("div", (f2b(2.0 ** -1020), f2b(3.0))),
    ("add", (MIN_NORMAL, SUB_MIN | 1 << 63)),             # exact subnormal
    ("sub", (f2b(2.0 ** -1021), f2b(1.5 * 2.0 ** -1022))),
    ("add", (MIN_NORMAL, MIN_NORMAL)),
    ("sqrt", (MIN_NORMAL,)),
    ("sqrt", (SUB_MIN,)),
)


@pytest.mark.parametrize("op,x,status", TIES)
def test_exact_ties_raise_inexact(op, x, status):
    check(op, *x)
    if status is not None:
        assert fast.flagged(op)(*x)[1] == status


@pytest.mark.parametrize("op,x", OVERFLOW + UNDERFLOW)
def test_range_boundaries(op, x):
    check(op, *x)


@pytest.mark.parametrize("nan", (SNAN, SNAN_NEG, QNAN, QNAN_PAYLOAD))
@pytest.mark.parametrize("other", (ONE, SUB_MIN, 0, SNAN, QNAN_PAYLOAD))
def test_nan_in_each_operand_position(nan, other):
    for op in BINARY_OPS:
        check(op, nan, other)
        check(op, other, nan)
    for x in ((nan, other, ONE), (other, nan, ONE), (ONE, other, nan)):
        check("fma", *x)
    for op in UNARY_OPS[:1] + UNARY_OPS[2:]:
        check(op, nan)


def test_snan_with_subnormal_raises_invalid_and_denormal():
    for op in ("add", "sub", "mul", "div", "min", "max", "ucomi"):
        assert fast.flagged(op)(SNAN, SUB_MAX)[1] == IE | DE, op
        assert fast.flagged(op)(SUB_MIN, SNAN_NEG)[1] == IE | DE, op
    assert fast.flagged("fma")(SUB_MIN, ONE, SNAN)[1] == IE | DE


def test_ucomi_quiet_on_qnan_comi_invalid():
    assert fast.flagged("ucomi")(QNAN, ONE) == (0b111, 0)
    assert fast.flagged("comi")(QNAN, ONE) == (0b111, IE)
    assert fast.flagged("ucomi")(SNAN, ONE) == (0b111, IE)
    for a, b in ((QNAN, ONE), (ONE, QNAN_PAYLOAD)):
        check("ucomi", a, b)
        check("comi", a, b)


def test_from_status_round_trips_and_is_shared():
    for status in range(64):
        flags = FPFlags.from_status(status)
        assert flags.as_mxcsr_status() == status
        assert flags is FPFlags.from_status(status)


# ----------------------------------------------------- packed, per lane
#: ``addpd`` whose low lane is exact (1 + 1) and whose high lane is not
#: (1 + 2^-60): only the high lane raises, and the instruction faults.
PACKED_SRC = """
.data
a: .double 1.0
   .double 1.0
b: .double 1.0
   .double 8.673617379884035e-19
.text
main:
  movupd xmm0, [rip + a]
  addpd xmm0, [rip + b]
  hlt
"""


class _RecordingKernel(LinuxKernel):
    """Records each delivered trap and resumes past it, so a run ends."""

    def __init__(self):
        super().__init__()
        self.traps = []

    def deliver_trap(self, cpu, trap):
        self.traps.append(trap)
        cpu.resume_at(trap.addr + trap.instruction.size)


@pytest.mark.parametrize("tier", list(TIERS))
def test_packed_op_faults_when_only_the_high_lane_raises(tier):
    cpu = CPU(assemble(PACKED_SRC), uops=TIERS[tier])
    cpu.kernel = kernel = _RecordingKernel()
    cpu.regs.mxcsr = MXCSR_FPVM
    cpu.run(max_steps=100)
    (trap,) = kernel.traps
    assert trap.fp_flags == FPFlags(inexact=True)
    assert trap.instruction.mnemonic == "addpd"
    # Nothing committed: neither lane, nor the status bits.
    assert cpu.regs.xmm[0] == [ONE, ONE]
    assert cpu.regs.mxcsr == MXCSR_FPVM
