"""The FPVM trap short-circuiting kernel module (§3).

The real artifact is a Linux kernel module that (a) exposes an
``ioctl()`` interface via ``/dev``, (b) replaces the x86 #XF trap
handler, and (c) for registered processes edits the interrupt frame so
the ``iret`` lands on FPVM's user-space entry stub instead of going
through ``math_error()`` and general signal delivery.

The simulation keeps the full protocol: a process opens the device,
registers its entry point, and from then on #XF traps are delivered in
~350 cycles ("stealing" the trap from Linux); unregistered processes
fall back to normal SIGFPE delivery, keeping the rest of the system
compatible.  Closing the device (or process death) revokes the
registration.
"""

from __future__ import annotations

from repro.errors import DeviceProtocolError
from repro.kernel.signals import SignalContext

FPVM_IOCTL_REGISTER_ENTRY = 0xF9_01
FPVM_IOCTL_UNREGISTER = 0xF9_02


class FPVMDeviceError(DeviceProtocolError):
    """Bad ioctl, double-registration, or use after close."""


class FPVMDeviceHandle:
    """An open file descriptor on /dev/fpvm_dev."""

    def __init__(self, device: "FPVMDevice", cpu) -> None:
        self._device = device
        self._cpu = cpu
        self._open = True

    def ioctl(self, request: int, arg=None):
        if not self._open:
            raise FPVMDeviceError("ioctl on closed fd")
        if request == FPVM_IOCTL_REGISTER_ENTRY:
            if arg is None:
                raise FPVMDeviceError("REGISTER_ENTRY needs an entry point")
            self._device._register(self._cpu, arg)
            return 0
        if request == FPVM_IOCTL_UNREGISTER:
            self._device._unregister(self._cpu)
            return 0
        raise FPVMDeviceError(f"unknown ioctl request {request:#x}")

    def close(self) -> None:
        """Revokes the registration — the crash-safety property §3.1
        calls out (the process's registration dies with its fd)."""
        if self._open:
            self._device._unregister(self._cpu)
            self._open = False


class FPVMDevice:
    """The loaded kernel module.  Instantiating it 'loads' the module
    into a kernel (replacing the #XF handler)."""

    def __init__(self, kernel) -> None:
        self._entries: dict[int, object] = {}  # id(cpu) -> entry stub
        self.delivery_count = 0
        kernel.fpvm_module = self
        self._kernel = kernel

    # ------------------------------------------------------------- /dev
    def open(self, cpu) -> FPVMDeviceHandle:
        return FPVMDeviceHandle(self, cpu)

    def _register(self, cpu, entry) -> None:
        """entry(context, trap) is FPVM's landing pad.  It receives a
        live ucontext built by the entry stub."""
        self._entries[id(cpu)] = entry

    def _unregister(self, cpu) -> None:
        self._entries.pop(id(cpu), None)

    def is_registered(self, cpu) -> bool:
        return id(cpu) in self._entries

    # ---------------------------------------------------- trap stealing
    def short_circuit(self, kernel, cpu, trap) -> None:
        """Bespoke delivery: edit the interrupt frame, iret to the entry
        stub, run the FPVM handler, exit stub restores and jumps back."""
        entry = self._entries.get(id(cpu))
        if entry is None:
            # A revoked registration must never be short-circuited into:
            # the entry stub belongs to a process that gave it up.
            raise FPVMDeviceError(
                f"short-circuit delivery for unregistered thread {id(cpu):#x}"
            )
        self.delivery_count += 1
        # Bare-minimum kernel processing + iret to the landing pad.
        kernel._charge(cpu, "kernel", kernel.costs.short_deliver)
        # Entry stub: saves GPR/FPR/mxcsr/rflags state "in the format of
        # a ucontext" — live mode models the stub operating in-process.
        context = SignalContext(cpu, live=True)
        entry(context, trap)
        # Exit stub: restore machine state, jump to the address FPVM
        # decided on.
        kernel._charge(cpu, "ret", kernel.costs.short_return)
        context.apply()
