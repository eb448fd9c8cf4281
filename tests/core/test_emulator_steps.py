"""Bound emulation steps: built once per (VM, micro-op), no larger than
the slotted steps they replaced, addressing memory operands like the
CPU in every form, and a config naming an unemulatable mnemonic
rejected up front."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.emulator as emulator_mod
from repro.core import nanbox
from repro.core.emulator import DEFAULT_SUPPORTED, EMULATABLE, ENTER, RUN
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import ConfigError
from repro.fpu import bits as B
from repro.harness.configs import named_configs
from repro.harness.runner import run_fpvm
from repro.kernel.kernel import LinuxKernel
from repro.kernel.signals import SignalContext
from repro.machine.assembler import assemble
from repro.machine.cpu import _DISPATCH, CPU
from repro.machine.hostlib import install_host_library
from repro.machine.isa import GPR_IDS, Instruction, Mem, Reg, Xmm
from repro.machine.uops import lower
from repro.workloads import build_program


def test_bind_runs_at_most_once_per_emulated_micro_op(monkeypatch):
    """Every emulation, interpreted or fused, runs a bound step's
    ``run``; the wrapped steps record which micro-ops emulated."""
    calls = []
    emulated = set()
    bind = emulator_mod.bind

    def counting_bind(uop, vm):
        calls.append(uop)
        step = bind(uop, vm)
        run = step.run

        def recording_run(context, mode=RUN):
            ok = run(context, mode)
            if ok:
                emulated.add(uop)
            return ok
        step.run = recording_run
        return step

    monkeypatch.setattr(emulator_mod, "bind", counting_bind)
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
    form, in live and signal-frame contexts; a boxed-source step entered
    through its probe reads it once, whether the probe finds a box or
    stops the step."""
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
    box = nanbox.box_bits(vm.allocator.alloc(vm.altmath.promote(B.float_to_bits(2.5))))
    cpu.mem.write_u64(want, box)
    cpu.regs.xmm[1][0] = B.float_to_bits(1.5)
    seen = []
    cpu.mem.observers.append(lambda addr, size, kind, value: seen.append((addr, kind)))
    ctx = SignalContext(cpu, live=live)

    def uop(mnemonic, *operands):
        return lower(Instruction(mnemonic, operands, addr=0x40_1000, size=8))

    add = uop("addsd", Xmm("xmm1"), mem)
    assert emulator.step(add).run(ctx, ENTER)
    assert seen == [(want, "fp_load")]
    assert B.bits_to_float(vm.altmath.demote(
        vm.allocator.load(nanbox.unbox(ctx.xmm[1][0])[0]))) == 4.0
    cpu.mem.write_u64(want, B.float_to_bits(0.5))
    cpu.mem.write_u64(want + 8, B.float_to_bits(0.25))
    cpu.regs.xmm[1][0] = ctx.xmm[1][0] = B.float_to_bits(1.5)
    seen.clear()
    assert not emulator.step(add).run(ctx, ENTER)
    assert seen == [(want, "fp_load")]
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


#: Measures the bytes each ``bind`` call allocates, with ``tracemalloc``,
#: on the second of two identical runs; prints the count and the mean.
_STEP_SIZE = """
import tracemalloc
import repro.core.emulator as emulator_mod
from repro.harness.configs import named_configs
from repro.harness.runner import run_fpvm

sizes = []
bind = emulator_mod.bind

def measured(uop, vm):
    before = tracemalloc.get_traced_memory()[0]
    step = bind(uop, vm)
    sizes.append(tracemalloc.get_traced_memory()[0] - before)
    return step

emulator_mod.bind = measured
config = named_configs("mpfr")["SEQ_SHORT"]
run_fpvm("enzo", config, scale=6)
sizes.clear()
tracemalloc.start()
run_fpvm("enzo", config, scale=6)
tracemalloc.stop()
print(len(sizes), sum(sizes) / len(sizes))
"""


def test_bound_step_size():
    """A bound step (its function, its bound values and its ``_Step``)
    stays smaller than the slotted steps it replaced, which took about
    420 bytes.  Measured in a fresh interpreter, so what earlier tests
    left allocated cannot move the reading (about 361 bytes)."""
    src = str(Path(emulator_mod.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _STEP_SIZE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    count, mean = int(out[0]), float(out[1])
    assert count > 100
    assert mean <= 400


#: the size prefixes the assembler accepts on a memory operand.
_SIZES = ("byte", "word", "dword", "qword", "xmmword")
#: every emulatable move in its load and store forms (``M`` is the
#: memory operand), and the packed reads of a bound arithmetic step.
_FORMS = [
    *(f"{mn} {form}" for mn in ("movsd", "movapd", "movupd", "movq", "movhpd", "movlpd")
      for form in ("xmm2, M", "M, xmm2")),
    "mov rax, M", "mov M, rax", "lea rax, M", "push M", "pop M",
    "addpd xmm2, M", "xorpd xmm2, M",
]


def _machine(text: str):
    """A CPU whose buffer, stack, rax and xmm2 hold distinct patterns,
    about to run ``text`` (rbx points into the buffer), the one
    instruction, and the observer traffic list."""
    program = assemble(f".data\nbuf: .space 256\n.text\nmain:\n  {text}\n  hlt\n")
    cpu = CPU(program)
    buf = program.symbols["buf"]
    for i in range(32):
        cpu.mem.write_u64(buf + 8 * i, 0x0101_0101_0101_0101 * (i + 1))
    rsp = cpu.regs.gpr[GPR_IDS["rsp"]]
    for i in range(-4, 4):
        cpu.mem.write_u64(rsp + 8 * i, 0x7700 + i)
    cpu.regs.gpr[GPR_IDS["rbx"]] = buf + 0x40
    cpu.regs.gpr[GPR_IDS["rax"]] = 0x1122_3344_5566_7788
    cpu.regs.xmm[2][:] = [B.float_to_bits(1.25), B.float_to_bits(-3.5)]
    events = []
    cpu.mem.observers.append(lambda *event: events.append(event))
    return cpu, program.by_addr[program.entry], events


def _outcome(cpu, events, demote=lambda bits: bits) -> dict:
    regs = cpu.regs
    buf = cpu.program.symbols["buf"]
    rsp = regs.gpr[GPR_IDS["rsp"]]
    return {"gpr": list(regs.gpr), "flags": regs.flags.copy(),
            "xmm": [[demote(lane) for lane in lanes] for lanes in regs.xmm],
            "buf": [cpu.mem.read_u64(buf + 8 * i) for i in range(32)],
            "stack": [cpu.mem.read_u64(rsp + 8 * i) for i in range(-5, 5)],
            "events": events}


@pytest.mark.parametrize("live", [True, False], ids=["live", "frame"])
@pytest.mark.parametrize("size", _SIZES)
@pytest.mark.parametrize("form", _FORMS)
def test_moves_and_packed_reads_match_the_cpu(form, size, live):
    """An emulated move or packed read of a memory operand of any size
    leaves the registers, memory words and observer traffic the CPU's
    handler (``cpu._DISPATCH``) leaves; a 128-bit access is two 8-byte
    ones and a read that is not sized loads 8 bytes, as on the CPU.
    Packed arithmetic results are compared demoted."""
    text = form.replace("M", f"{size} [rbx + 8]")
    cpu, instr, events = _machine(text)
    _DISPATCH[instr.mnemonic](cpu, instr)
    assert events or instr.mnemonic == "lea", "the CPU made no memory access"

    emu_cpu, emu_instr, emu_events = _machine(text)
    vm = FPVM(FPVMConfig.seq_short(supported_instructions=EMULATABLE))
    vm.ledger.bind_cpu(emu_cpu)
    ctx = SignalContext(emu_cpu, live=live)
    assert vm.emulator.emulate(lower(emu_instr), ctx)
    ctx.apply()
    assert (_outcome(emu_cpu, emu_events, vm.emulator.demote_bits)
            == _outcome(cpu, events))


#: A trapping divide, then a 128-bit store under the sequence emulator,
#: two words below a word the store must leave alone.
_XMMWORD_STORE_SRC = """
.data
buf: .space 64
a: .double 0.1
b: .double 3.0
.text
main:
  lea rbx, [rip + buf]
  mov qword [rbx + 16], 4660
  movsd xmm0, [rip + a]
  divsd xmm0, [rip + b]     ; inexact: traps under FPVM
  movapd xmmword [rbx], xmm0
  mov rdi, [rbx + 16]
  call print_i64
  hlt
"""


@pytest.mark.parametrize("config", [None, FPVMConfig.none(), FPVMConfig.seq()],
                         ids=["native", "NONE", "SEQ"])
def test_xmmword_store_leaves_the_next_word(config):
    """``movapd xmmword [rbx], xmm0`` writes 16 bytes natively and when
    emulated after a trap: the word at ``[rbx + 16]`` keeps 4660."""
    program = assemble(_XMMWORD_STORE_SRC)
    install_host_library(program)
    cpu = CPU(program)
    cpu.kernel = LinuxKernel()
    vm = FPVM(config).attach(cpu, cpu.kernel) if config else None
    cpu.run()
    assert cpu.output == ["4660"]
    if config is not None:
        assert vm.telemetry.traps == 1
        assert vm.telemetry.emulated_instructions == (3 if config.sequence_emulation else 1)
