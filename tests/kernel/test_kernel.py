"""Kernel simulator tests: signal delivery, sigreturn semantics, and
trap short-circuiting."""

import pytest

from repro.fpu import bits as B
from repro.kernel.fpvm_dev import (
    FPVM_IOCTL_REGISTER_ENTRY,
    FPVMDevice,
    FPVMDeviceError,
    FPVMDeviceHandle,
)
from repro.kernel.kernel import LinuxKernel
from repro.kernel.signals import SIGFPE, SIGTRAP, SignalContext
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, MachineError, TrapKind
from repro.machine.registers import MXCSR_FPVM

f2b = B.float_to_bits

TRAPPY = (
    ".data\na: .double 0.1\nb: .double 0.2\n.text\nmain:\n"
    "  movsd xmm0, [rip + a]\n  addsd xmm0, [rip + b]\n  hlt\n"
)


def make_cpu(source=TRAPPY, unmask=True):
    prog = assemble(source)
    cpu = CPU(prog)
    kernel = LinuxKernel()
    cpu.kernel = kernel
    if unmask:
        cpu.regs.mxcsr = MXCSR_FPVM
    return cpu, kernel


def skip_handler(signum, context, trap):
    """A handler that 'emulates' by writing a result and skipping."""
    context.write_xmm(0, f2b(99.0))
    context.rip = trap.addr + trap.instruction.size


class TestSignalPath:
    def test_sigfpe_delivered_to_handler(self):
        cpu, kernel = make_cpu()
        seen = []

        def handler(signum, context, trap):
            seen.append((signum, trap.kind, trap.addr))
            context.rip = trap.addr + trap.instruction.size

        kernel.sigaction(SIGFPE, handler)
        cpu.run()
        assert len(seen) == 1
        assert seen[0][0] == SIGFPE
        assert seen[0][1] is TrapKind.XF

    def test_handler_mutations_applied_at_sigreturn(self):
        cpu, kernel = make_cpu()
        kernel.sigaction(SIGFPE, skip_handler)
        cpu.run()
        assert cpu.regs.xmm[0][0] == f2b(99.0)

    def test_no_handler_kills_process(self):
        cpu, kernel = make_cpu()
        with pytest.raises(MachineError, match="SIGFPE"):
            cpu.run()

    def test_signal_costs_charged(self):
        cpu, kernel = make_cpu()
        kernel.sigaction(SIGFPE, skip_handler)
        before = cpu.cycles
        cpu.run()
        costs = kernel.costs
        overhead = costs.hw_trap + costs.kernel_internal + costs.signal_deliver + costs.sigreturn
        assert cpu.cycles - before >= overhead

    def test_sigtrap_for_breakpoints(self):
        prog = assemble("main:\n  mov rax, 1\n  mov rbx, 2\n  hlt\n")
        target = prog.instructions[1].addr
        prog.patch_int3(target)
        cpu = CPU(prog)
        kernel = LinuxKernel()
        cpu.kernel = kernel
        seen = []

        def handler(signum, context, trap):
            seen.append(signum)
            context.suppress_patch_at = trap.addr

        kernel.sigaction(SIGTRAP, handler)
        cpu.run()
        assert seen == [SIGTRAP]
        assert cpu.regs.gpr[1] == 2  # single-stepped after handler

    def test_frame_mode_isolates_handler_from_live_regs(self):
        cpu, kernel = make_cpu()

        def handler(signum, context, trap):
            # Mutate the frame: live registers unchanged until sigreturn.
            context.gpr[0] = 1234
            assert cpu.regs.gpr[0] != 1234
            context.rip = trap.addr + trap.instruction.size

        kernel.sigaction(SIGFPE, handler)
        cpu.run()
        assert cpu.regs.gpr[0] == 1234

    def test_trap_counts(self):
        cpu, kernel = make_cpu()
        kernel.sigaction(SIGFPE, skip_handler)
        cpu.run()
        assert kernel.trap_counts[TrapKind.XF] == 1
        assert kernel.signal_counts[SIGFPE] == 1


class TestShortCircuit:
    def test_registered_process_bypasses_signals(self):
        cpu, kernel = make_cpu()
        device = FPVMDevice(kernel)
        handle = device.open(cpu)
        seen = []

        def entry(context, trap):
            seen.append(trap.addr)
            context.write_xmm(0, f2b(42.0))
            context.rip = trap.addr + trap.instruction.size

        handle.ioctl(FPVM_IOCTL_REGISTER_ENTRY, entry)
        # No SIGFPE handler installed: would die on the signal path.
        cpu.run()
        assert len(seen) == 1
        assert cpu.regs.xmm[0][0] == f2b(42.0)
        assert device.delivery_count == 1

    def test_short_circuit_is_8x_cheaper(self):
        def run_with(short: bool) -> int:
            cpu, kernel = make_cpu()
            if short:
                device = FPVMDevice(kernel)
                handle = device.open(cpu)

                def entry(context, trap):
                    context.write_xmm(0, f2b(1.0))
                    context.rip = trap.addr + trap.instruction.size

                handle.ioctl(FPVM_IOCTL_REGISTER_ENTRY, entry)
            else:
                kernel.sigaction(SIGFPE, skip_handler)
            base = 3  # three instructions' native cost, roughly
            cpu.run()
            return cpu.cycles - base

        slow = run_with(False)
        fast = run_with(True)
        # Paper: kern+ret drops 5600 -> ~380; total trap cost ~8x lower.
        assert slow / fast > 6

    def test_unregistered_process_falls_back_to_signals(self):
        cpu, kernel = make_cpu()
        FPVMDevice(kernel)  # module loaded, but process never registered
        kernel.sigaction(SIGFPE, skip_handler)
        cpu.run()
        assert cpu.regs.xmm[0][0] == f2b(99.0)

    def test_close_revokes_registration(self):
        cpu, kernel = make_cpu()
        device = FPVMDevice(kernel)
        handle = device.open(cpu)
        handle.ioctl(FPVM_IOCTL_REGISTER_ENTRY, lambda c, t: None)
        assert device.is_registered(cpu)
        handle.close()
        assert not device.is_registered(cpu)

    def test_ioctl_after_close_rejected(self):
        cpu, kernel = make_cpu()
        device = FPVMDevice(kernel)
        handle = device.open(cpu)
        handle.close()
        with pytest.raises(FPVMDeviceError):
            handle.ioctl(FPVM_IOCTL_REGISTER_ENTRY, lambda c, t: None)

    def test_bad_ioctl_rejected(self):
        cpu, kernel = make_cpu()
        device = FPVMDevice(kernel)
        handle = device.open(cpu)
        with pytest.raises(FPVMDeviceError, match="unknown ioctl"):
            handle.ioctl(0xBEEF)

    def test_register_requires_entry(self):
        cpu, kernel = make_cpu()
        device = FPVMDevice(kernel)
        handle = device.open(cpu)
        with pytest.raises(FPVMDeviceError, match="entry point"):
            handle.ioctl(FPVM_IOCTL_REGISTER_ENTRY)

    def test_live_context_mutations_immediate(self):
        cpu, kernel = make_cpu()
        device = FPVMDevice(kernel)
        handle = device.open(cpu)

        def entry(context, trap):
            context.gpr[0] = 777
            assert cpu.regs.gpr[0] == 777  # live, not a frame
            context.rip = trap.addr + trap.instruction.size

        handle.ioctl(FPVM_IOCTL_REGISTER_ENTRY, entry)
        cpu.run()
        assert cpu.regs.gpr[0] == 777


class TestLedgerRouting:
    def test_categories_charged(self):
        class Ledger:
            def __init__(self):
                self.by_cat = {}

            def charge(self, cat, cycles, **kwargs):
                self.by_cat[cat] = self.by_cat.get(cat, 0) + cycles

            def count(self, name, n=1):
                pass

        cpu, kernel = make_cpu()
        ledger = Ledger()
        kernel.ledger = ledger
        kernel.sigaction(SIGFPE, skip_handler)
        cpu.run()
        assert ledger.by_cat["hw"] == kernel.costs.hw_trap
        assert ledger.by_cat["kernel"] >= kernel.costs.signal_deliver
        assert ledger.by_cat["ret"] == kernel.costs.sigreturn
