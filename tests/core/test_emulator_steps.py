"""Pre-bound emulation steps: built once per (VM, micro-op), and a
config naming an unemulatable mnemonic rejected up front."""

import pytest

import repro.core.emulator as emulator_mod
from repro.core.emulator import DEFAULT_SUPPORTED, EMULATABLE
from repro.core.vm import FPVM, FPVMConfig
from repro.errors import ConfigError
from repro.harness.runner import run_fpvm
from repro.kernel.kernel import LinuxKernel
from repro.machine.cpu import CPU
from repro.workloads import build_program


def test_bind_runs_at_most_once_per_emulated_micro_op(monkeypatch):
    calls = []
    emulated = set()
    bind = emulator_mod.bind
    emulate = emulator_mod.Emulator.emulate

    def counting_bind(uop, vm):
        calls.append(uop)
        return bind(uop, vm)

    def recording_emulate(self, uop, context):
        ok = emulate(self, uop, context)
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
