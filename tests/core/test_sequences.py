"""Sequence emulation and trace statistics tests (§4, §6.3)."""

import pytest

from repro.core.decode_cache import DecodeCache
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import AssemblerError, FPVMFaultError, UnemulatableTrapError
from repro.kernel.kernel import LinuxKernel
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, TIERS
from repro.machine.decoder import decode_instruction
from repro.machine.hostlib import install_host_library
from repro.kernel.signals import SignalContext
from repro.machine.isa import GPR_IDS, XMM_IDS
from repro.machine.uops import lower


def run_fpvm(source: str, config: FPVMConfig):
    prog = assemble(source)
    install_host_library(prog)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(config).attach(cpu, kernel)
    cpu.run()
    return cpu, vm


# A loop with a long run of emulatable FP instructions, a movhpd
# terminator mid-stream, and more FP work after it.
MOVHPD_SRC = """
.data
a: .double 0.1
b: .double 0.7
pair: .double 0.3, 0.9
n: .quad 30
.text
main:
  mov rcx, [rip + n]
  movsd xmm0, [rip + a]
  movsd xmm1, [rip + b]
top:
  addsd xmm0, [rip + b]
  mulsd xmm0, [rip + a]
  movsd xmm2, xmm0
  subsd xmm2, [rip + b]
  movhpd xmm1, [rip + pair]   ; unsupported partial move: terminator
  mulsd xmm2, [rip + b]
  dec rcx
  jne top
  call print_f64
  hlt
"""


class TestSequenceTermination:
    def test_movhpd_terminates_sequences(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        stats = vm.trace_stats
        reasons = {r.reason for r in stats.traces.values()}
        assert "unsupported" in reasons
        terms = {r.terminator for r in stats.traces.values()}
        assert "movhpd" in terms

    def test_control_flow_bounds_traces(self):
        """Sequences never cross basic-block boundaries."""
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        prog_branches = {"jne", "jmp", "call", "ret", "je"}
        for rec in vm.trace_stats.traces.values():
            # no emulated address is a control-flow instruction
            for addr in rec.addrs:
                assert vm.program.by_addr[addr].mnemonic not in prog_branches

    def test_trace_resumes_and_refaults(self):
        """After a movhpd terminator the next mulsd faults again and
        starts a new trace there (the W-refaults case of §4.2)."""
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        starts = {r.addrs[0] for r in vm.trace_stats.traces.values() if r.addrs}
        assert len(starts) >= 2

    def test_single_mode_has_length_one(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.short())
        for rec in vm.trace_stats.traces.values():
            assert rec.length == 1


#: Ends in an inexact ``addsd`` with no ``hlt``: execution (native or
#: emulated) runs off the end of text right after the trap.
RUN_OFF_TEXT_SRC = """
.data
a: .double 0.1
b: .double 0.2
.text
main:
  movsd xmm0, [rip + a]
  movsd xmm1, [rip + b]
  addsd xmm0, xmm1
"""


def _run_off_text(config, tier):
    """The exception a run of RUN_OFF_TEXT_SRC ends in, and its VM."""
    prog = assemble(RUN_OFF_TEXT_SRC)
    install_host_library(prog)
    cpu = CPU(prog, uops=TIERS[tier])
    cpu.kernel = LinuxKernel()
    vm = FPVM(config).attach(cpu, cpu.kernel) if config else None
    with pytest.raises(Exception) as info:
        cpu.run()
    return info.value, vm


@pytest.mark.parametrize("tier", list(TIERS))
@pytest.mark.parametrize("config", [
    FPVMConfig.none(patch_site_source="none"),
    FPVMConfig.seq(patch_site_source="none"),
    FPVMConfig.seq_short(patch_site_source="none"),
], ids=["NONE", "SEQ", "SEQ_SHORT"])
def test_running_off_text_faults_like_native(config, tier):
    """A sequence that reaches an address with no instruction ends
    there without fetching it, and the CPU raises the same fault as a
    native run of the same guest."""
    native, _ = _run_off_text(None, tier)
    fault, vm = _run_off_text(config, tier)
    assert (type(fault), str(fault)) == (type(native), str(native))
    assert "unmapped code" in str(native)
    assert vm.telemetry.traps == 1
    if config.sequence_emulation:
        (rec,) = vm.trace_stats.traces.values()
        assert (rec.length, rec.reason) == (1, "no_instruction")


def _ending_in(source: str, line: str, config, tier):
    """Assembles ``source`` followed by ``line; hlt`` and runs it to its
    ``hlt`` on ``tier``, under FPVM with ``config`` unless it is None;
    the CPU, its program and the VM."""
    prog = assemble(f"{source}  {line}\n  hlt\n")
    install_host_library(prog)
    cpu = CPU(prog, uops=TIERS[tier])
    cpu.kernel = LinuxKernel()
    vm = FPVM(config).attach(cpu, cpu.kernel) if config else None
    cpu.run()
    return cpu, prog, vm


def _refused_line(source: str, line: str) -> str:
    """The assembler's error for ``source`` followed by ``line; hlt``:
    the opcode table refuses the shape before any run can load it."""
    with pytest.raises(AssemblerError) as info:
        assemble(f"{source}  {line}\n  hlt\n")
    return str(info.value)


#: RUN_OFF_TEXT_SRC without its ``addsd``: the conversion of 0.1 that
#: follows is inexact, so it traps under FPVM.
CONVERT_SRC = RUN_OFF_TEXT_SRC.replace("  addsd xmm0, xmm1\n", "")


@pytest.mark.parametrize("tier", list(TIERS))
@pytest.mark.parametrize("config", [
    FPVMConfig.none(patch_site_source="none"),
    FPVMConfig.seq_short(patch_site_source="none"),
], ids=["NONE", "SEQ_SHORT"])
def test_immediate_destination_faults_like_native(config, tier):
    """A write to an immediate destination (``cvttsd2si 7, xmm0``)
    faults before any run, native or under FPVM: the assembler refuses
    its line.  The register destination the table admits in its place
    is written by FPVM's emulation after the trap exactly as a native
    run writes it."""
    assert _refused_line(CONVERT_SRC, "cvttsd2si 7, xmm0") == (
        "line 9: cvttsd2si first operand must be a general register, got an immediate 7")
    rax = GPR_IDS["rax"]
    native, _, _ = _ending_in(CONVERT_SRC, "cvttsd2si rax, xmm0", None, tier)
    cpu, _, vm = _ending_in(CONVERT_SRC, "cvttsd2si rax, xmm0", config, tier)
    assert cpu.regs.gpr[rax] == native.regs.gpr[rax] == 0
    assert (vm.telemetry.traps, vm.telemetry.emulated_instructions) == (1, 1)


@pytest.mark.parametrize("tier", list(TIERS))
def test_refused_move_shape_is_unsupported(tier):
    """A move shape no x86 encoding has (``movapd xmm2, rax``) is refused
    by the assembler, so nothing is left for FPVM to decline.  A move
    the table admits but FPVM does not emulate (``movhpd``, outside
    ``supported_instructions``) is the unsupported case: the sequence
    after a trap stops before it with reason ``unsupported``, the CPU
    runs it as a native run does, and ``Emulator.emulate`` declines it
    with nothing charged."""
    assert _refused_line(RUN_OFF_TEXT_SRC, "movapd xmm2, rax") == (
        "line 10: movapd second operand must be an XMM register or memory, "
        "got a general register rax")
    line = "movhpd xmm2, [rip + a]"
    xmm2 = XMM_IDS["xmm2"]
    native, _, _ = _ending_in(RUN_OFF_TEXT_SRC, line, None, tier)
    cpu, prog, vm = _ending_in(
        RUN_OFF_TEXT_SRC, line, FPVMConfig.seq_short(patch_site_source="none"), tier)
    assert cpu.regs.read_xmm128(xmm2) == native.regs.read_xmm128(xmm2)
    (rec,) = vm.trace_stats.traces.values()
    assert (rec.length, rec.reason, rec.terminator) == (1, "unsupported", "movhpd")
    assert (vm.telemetry.traps, vm.telemetry.emulated_instructions) == (1, 1)
    move = prog.instructions[-2]
    assert move.mnemonic == "movhpd" and move.addr not in vm.program.patches
    charged = vm.ledger.total()
    assert not vm.emulator.emulate(lower(move), SignalContext(cpu, live=True))
    assert vm.ledger.total() == charged


@pytest.mark.parametrize("tier", list(TIERS))
@pytest.mark.parametrize("config", [
    FPVMConfig.none(patch_site_source="none"),
    FPVMConfig.seq_short(patch_site_source="none"),
], ids=["NONE", "SEQ_SHORT"])
def test_trap_on_unsupported_mnemonic_is_typed(config, tier):
    """A trap on a mnemonic outside ``supported_instructions`` raises
    the typed :class:`UnemulatableTrapError`, an ``FPVMFaultError`` (so
    still a ``RuntimeError``), naming the instruction and its address,
    with nothing emulated."""
    prog = assemble(RUN_OFF_TEXT_SRC + "  hlt\n")
    install_host_library(prog)
    cpu = CPU(prog, uops=TIERS[tier])
    cpu.kernel = LinuxKernel()
    supported = config.supported_instructions - {"addsd"}
    vm = FPVM(config.with_(supported_instructions=supported)).attach(cpu, cpu.kernel)
    with pytest.raises(UnemulatableTrapError, match="addsd xmm0, xmm1 at 0x") as info:
        cpu.run()
    assert isinstance(info.value, FPVMFaultError)
    assert isinstance(info.value, RuntimeError)
    assert info.value.fault == "unemulatable"
    assert (vm.telemetry.traps, vm.telemetry.emulated_instructions) == (1, 0)


class TestTraceStatistics:
    def test_popularity_ranking(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        ranked = vm.trace_stats.by_popularity()
        contribs = [r.emulated_instructions for r in ranked]
        assert contribs == sorted(contribs, reverse=True)

    def test_rank_popularity_cdf_monotone_to_100(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        cdf = vm.trace_stats.rank_popularity_cdf()
        assert all(a <= b + 1e-9 for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == pytest.approx(100.0)

    def test_length_cdf(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        cdf = vm.trace_stats.length_cdf()
        assert cdf[-1][1] == pytest.approx(100.0)
        lengths = [l for l, _ in cdf]
        assert lengths == sorted(lengths)

    def test_weighted_length_converges_to_average(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        stats = vm.trace_stats
        weighted = stats.weighted_length_by_rank()
        assert weighted[-1] == pytest.approx(stats.average_sequence_length())

    def test_average_matches_telemetry(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        assert vm.trace_stats.average_sequence_length() == pytest.approx(
            vm.telemetry.avg_sequence_length
        )

    def test_format_trace_marks_terminator(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        rec = next(
            r for r in vm.trace_stats.by_popularity() if r.terminator == "movhpd"
        )
        text = vm.trace_stats.format_trace(rec, vm.program)
        assert "movhpd" in text
        assert "terminator" in text


class TestTraceCacheBehaviour:
    def test_repeat_encounters_hit_cache(self):
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        # 30 loop iterations; distinct instructions decoded once each.
        t = vm.telemetry
        assert t.decode_misses < 12
        assert t.decode_hits / (t.decode_hits + t.decode_misses) > 0.8

    def test_terminator_inserted_into_cache(self):
        """§4.2: the sequence-terminating instruction goes into the
        decode cache too."""
        _, vm = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        movhpd_addr = next(
            i.addr for i in vm.program.instructions if i.mnemonic == "movhpd"
        )
        assert movhpd_addr in vm.decode_cache

    def test_tiny_cache_still_correct(self):
        cpu_small, _ = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short(decode_cache_capacity=2))
        cpu_big, _ = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        assert cpu_small.output == cpu_big.output

    def test_tiny_cache_costs_more_decode(self):
        _, vm_small = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short(decode_cache_capacity=2))
        _, vm_big = run_fpvm(MOVHPD_SRC, FPVMConfig.seq_short())
        assert vm_small.ledger.by_category["decode"] > vm_big.ledger.by_category["decode"]


class TestDecodeCacheUnit:
    def test_lru_eviction(self):
        cache = DecodeCache(capacity=2)
        prog = assemble("main:\n  mov rax, 1\n  mov rbx, 2\n  mov rcx, 3\n  hlt\n")
        i0, i1, i2 = prog.instructions[:3]
        cache.decode_miss(i0.addr, i0.raw)
        cache.decode_miss(i1.addr, i1.raw)
        assert cache.lookup(i0.addr) is not None  # refresh i0
        cache.decode_miss(i2.addr, i2.raw)        # evicts i1 (LRU)
        assert i1.addr not in cache
        assert i0.addr in cache and i2.addr in cache

    def test_hit_and_miss_counts(self):
        """The sequence emulator's fetch counts decode-cache traffic,
        once per probe, in the VM's telemetry."""
        cpu, vm = run_fpvm("main:\n  addsd xmm0, xmm1\n  hlt\n",
                           FPVMConfig.seq_short())
        addr = cpu.program.instructions[0].addr
        t = vm.telemetry
        hits, misses = t.decode_hits, t.decode_misses
        vm.decode_cache = DecodeCache()
        uop = vm.sequencer._fetch(addr)
        assert vm.sequencer._fetch(addr) is uop
        assert (t.decode_hits - hits, t.decode_misses - misses) == (1, 1)

    def test_decoded_equals_original_semantics(self):
        prog = assemble("main:\n  addsd xmm0, xmm1\n  hlt\n")
        instr = prog.instructions[0]
        decoded = decode_instruction(instr.raw, addr=instr.addr)
        assert decoded.mnemonic == instr.mnemonic
        assert decoded.size == instr.size

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DecodeCache(0)


class TestNoBoxedSourceRule:
    def test_unboxed_fp_op_stops_sequence(self):
        """An exact FP op (no trap, no boxed sources) following the
        faulting one terminates the sequence with no_boxed_source."""
        src = """
.data
a: .double 0.1
b: .double 0.2
c: .double 1.0
d: .double 2.0
.text
main:
  movsd xmm0, [rip + a]
  movsd xmm1, [rip + c]
  addsd xmm0, [rip + b]    ; faults (inexact): sequence starts
  movsd xmm2, xmm0         ; move: emulated
  addsd xmm1, [rip + d]    ; exact, no boxed source: rule (2) stop
  call print_f64
  hlt
"""
        cpu, vm = run_fpvm(src, FPVMConfig.seq_short())
        reasons = {r.reason for r in vm.trace_stats.traces.values()}
        assert "no_boxed_source" in reasons
        # xmm1 was computed natively (3.0 exactly).
        from repro.fpu import bits as B

        assert cpu.regs.xmm[1][0] == B.float_to_bits(3.0)
