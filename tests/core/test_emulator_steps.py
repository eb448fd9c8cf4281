"""Bound emulation steps: built once per (VM, micro-op), no larger than
the slotted steps they replaced, addressing memory operands like the
CPU in every form, and a config naming an unemulatable mnemonic
rejected up front."""

import tracemalloc

import pytest

import repro.core.emulator as emulator_mod
from repro.core import nanbox
from repro.core.emulator import DEFAULT_SUPPORTED, EMULATABLE, ENTER
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import ConfigError
from repro.fpu import bits as B
from repro.harness.configs import named_configs
from repro.harness.runner import run_fpvm
from repro.kernel.kernel import LinuxKernel
from repro.kernel.signals import SignalContext
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.isa import GPR_IDS, Instruction, Mem, Reg, Xmm
from repro.machine.uops import lower
from repro.workloads import build_program


def test_bind_runs_at_most_once_per_emulated_micro_op(monkeypatch):
    calls = []
    emulated = set()
    bind = emulator_mod.bind
    emulate = emulator_mod.Emulator.emulate

    def counting_bind(uop, vm):
        calls.append(uop)
        return bind(uop, vm)

    def recording_emulate(self, uop, context, *mode):
        ok = emulate(self, uop, context, *mode)
        if ok:
            emulated.add(uop)
        return ok

    monkeypatch.setattr(emulator_mod, "bind", counting_bind)
    monkeypatch.setattr(emulator_mod.Emulator, "emulate", recording_emulate)
    result = run_fpvm("lorenz", FPVMConfig.seq_short(), scale=150)
    assert result.emulated_instructions > len(emulated)
    assert 1 <= len(calls) <= len(emulated)


def test_steps_stay_bounded_by_the_decode_cache():
    """Each decode miss lowers a fresh micro-op, so under a thrashing
    decode cache the step cache must not grow with every emulation."""
    cpu = CPU(build_program("lorenz", 60))
    kernel = LinuxKernel()
    cpu.kernel = kernel
    vm = FPVM(FPVMConfig.seq_short(decode_cache_capacity=2)).attach(cpu, kernel)
    cpu.run()
    assert vm.telemetry.decode_misses > 100
    assert 1 <= len(vm.emulator.steps) <= 2


@pytest.mark.parametrize("workload,extra", [
    ("enzo", "add"), ("enzo", "jmp"), ("enzo", "sub"), ("enzo", "call"),
    ("fbench", "call"), ("fbench", "ret"),
])
def test_unemulatable_supported_instruction_is_a_config_error(workload, extra):
    config = FPVMConfig.seq_short(supported_instructions=DEFAULT_SUPPORTED | {extra})
    with pytest.raises(ConfigError, match=extra):
        run_fpvm(workload, config, scale=6)
    with pytest.raises(ValueError):
        FPVM(config)


def test_partial_moves_are_emulatable():
    assert EMULATABLE == DEFAULT_SUPPORTED | {"movhpd", "movlpd"}
    FPVM(FPVMConfig.seq_short(supported_instructions=DEFAULT_SUPPORTED
                              | {"movhpd", "movlpd"}))


#: memory operand forms, given the address of ``buf``: the effective
#: address always lands inside ``buf`` (rbx = buf + 0x100, rcx = 5).
_MEM_FORMS = {
    "base": lambda buf: Mem(base="rbx", disp=0x28),
    "index": lambda buf: Mem(index="rcx", scale=8, disp=buf + 0x40),
    "base_index_scale": lambda buf: Mem(base="rbx", index="rcx", scale=4, disp=-0x30),
    "absolute": lambda buf: Mem(disp=buf + 0x48),
}


@pytest.mark.parametrize("live", [True, False], ids=["live", "frame"])
@pytest.mark.parametrize("form", sorted(_MEM_FORMS))
def test_memory_operand_forms_address_like_the_cpu(form, live):
    """Every step kind reaches a memory operand at the address the CPU
    computes for it (``CPU.effective_address``), for each addressing
    form, in live and signal-frame contexts; the probe of a boxed-source
    step and the step entered through it each read it once."""
    program = assemble(".data\nbuf: .space 1024\n.text\nmain:\n  hlt\n")
    buf = program.symbols["buf"]
    cpu = CPU(program)
    cpu.regs.gpr[GPR_IDS["rbx"]] = buf + 0x100
    cpu.regs.gpr[GPR_IDS["rcx"]] = 5
    mem = _MEM_FORMS[form](buf)
    want = cpu.effective_address(mem)
    assert buf <= want < buf + 1024 - 16
    vm = FPVM(FPVMConfig.seq_short())
    vm.ledger.bind_cpu(cpu)
    emulator = vm.emulator
    box = nanbox.box_bits(vm.allocator.alloc(B.float_to_bits(2.5)))
    cpu.mem.write_u64(want, box)
    cpu.regs.xmm[1][0] = B.float_to_bits(1.5)
    seen = []
    cpu.mem.observers.append(lambda addr, size, kind, value: seen.append((addr, kind)))
    ctx = SignalContext(cpu, live=live)

    def uop(mnemonic, *operands):
        return lower(Instruction(mnemonic, operands, addr=0x40_1000, size=8))

    add = uop("addsd", Xmm("xmm1"), mem)
    assert emulator.any_source_boxed(add, ctx)
    assert emulator.step(add).run(ctx, ENTER)
    assert seen == [(want, "fp_load")] * 2
    assert B.bits_to_float(vm.allocator.load(nanbox.unbox(ctx.xmm[1][0])[0])) == 4.0
    cpu.mem.write_u64(want, B.float_to_bits(0.5))
    cpu.mem.write_u64(want + 8, B.float_to_bits(0.25))
    cpu.regs.xmm[1][0] = ctx.xmm[1][0] = B.float_to_bits(1.5)
    seen.clear()
    assert not emulator.any_source_boxed(add, ctx)
    assert not emulator.step(add).run(ctx, ENTER)
    assert seen == [(want, "fp_load")] * 2
    for mnemonic, operands, kinds in (
            ("movsd", (Xmm("xmm2"), mem), ["fp_load"]),
            ("movsd", (mem, Xmm("xmm2")), ["fp_store"]),
            ("movupd", (Xmm("xmm3"), mem), ["fp_load", "fp_load"]),
            ("mov", (Reg("rax"), mem), ["int_load"]),
            ("cvttsd2si", (Reg("rdx"), mem), ["fp_load"]),
            ("addsd", (Xmm("xmm4"), mem), ["fp_load"])):
        seen.clear()
        assert emulator.emulate(uop(mnemonic, *operands), ctx)
        assert seen == [(want + 8 * i, kind) for i, kind in enumerate(kinds)], mnemonic
    seen.clear()
    assert emulator.emulate(uop("lea", Reg("rsi"), mem), ctx)
    assert ctx.gpr[GPR_IDS["rsi"]] == want and seen == []
    assert ctx.gpr[GPR_IDS["rax"]] == B.float_to_bits(0.5)
    assert ctx.gpr[GPR_IDS["rdx"]] == 0


def test_bound_step_size():
    """A bound step (its function, its bound values and its ``_Step``)
    stays smaller than the slotted steps it replaced, which took about
    420 bytes on this run; measured with ``tracemalloc`` around ``bind``
    on the second of two identical runs."""
    sizes = []
    bind = emulator_mod.bind

    def measured(uop, vm):
        before = tracemalloc.get_traced_memory()[0]
        step = bind(uop, vm)
        sizes.append(tracemalloc.get_traced_memory()[0] - before)
        return step

    config = named_configs("mpfr")["SEQ_SHORT"]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(emulator_mod, "bind", measured)
        run_fpvm("enzo", config, scale=6)
        sizes.clear()
        tracemalloc.start()
        try:
            run_fpvm("enzo", config, scale=6)
        finally:
            tracemalloc.stop()
    assert len(sizes) > 100
    assert sum(sizes) / len(sizes) <= 400
