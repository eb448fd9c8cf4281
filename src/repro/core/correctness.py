"""Correctness instrumentation: int3 traps and magic traps (§2.6, §5.2).

Before an instruction that reinterprets a floating point value as an
integer executes, any NaN-boxed value it is about to read must be
demoted back to a plain binary64.  Two delivery mechanisms:

- **int3** (the baseline): a breakpoint pre-hook raises #BP, the kernel
  delivers SIGTRAP, FPVM's handler demotes and single-steps over the
  instruction.  Cost: hw + SIGTRAP delivery + sigreturn (~5980 cyc).
- **magic traps** (§5.2): the patch is a ``call`` to a trampoline
  baked into the binary.  The trampoline cannot see FPVM's symbols
  (it's later in the ELF chain), so on first invocation it rendezvouses
  through the **magic page** — a page FPVM maps at a well-known address
  holding a cookie and the demotion handler's address — then caches the
  pointer.  Cost: a double-indirect call + register save (~100 cyc).
"""

from __future__ import annotations

import itertools
import struct
import types
import weakref

from repro.core import nanbox
from repro.errors import MagicPageCorruptionError
from repro.kernel.signals import SignalContext
from repro.machine.isa import GPR_IDS, Mem, OpClass
from repro.machine.memory import PROT_READ, PROT_WRITE
from repro.machine.program import MAGIC_PAGE_ADDR

MAGIC_COOKIE = 0xF9D0_C0DE_B0A7_1E55

#: registry of live demotion handlers, indexed by the id stored on the
#: magic page (the simulation's stand-in for a function pointer).  Each
#: entry is a zero-argument resolver returning the handler, or None once
#: it is gone: bound methods (``FPVM._magic_demote``) are held weakly,
#: so a finished VM — with its CPU, program and box heap — is not kept
#: alive by the registry, and its entry drops out when the VM dies.
_HANDLER_REGISTRY: dict[int, object] = {}
_HANDLER_IDS = itertools.count(1)


def register_demotion_handler(handler) -> int:
    """Give ``handler(cpu, addr)`` an address-like id trampolines can
    resolve through the magic page."""
    hid = next(_HANDLER_IDS)
    if isinstance(handler, types.MethodType):
        _HANDLER_REGISTRY[hid] = weakref.WeakMethod(
            handler, lambda _ref: _HANDLER_REGISTRY.pop(hid, None))
    else:
        _HANDLER_REGISTRY[hid] = lambda: handler
    return hid


def map_magic_page(cpu, handler_id: int) -> None:
    """Map the magic page (read-only, like the VDSO) and populate the
    cookie + handler pointer."""
    cpu.mem.map_page(MAGIC_PAGE_ADDR, PROT_READ | PROT_WRITE)
    cpu.mem.write_bytes(
        MAGIC_PAGE_ADDR, struct.pack("<QQ", MAGIC_COOKIE, handler_id)
    )
    cpu.mem.protect(MAGIC_PAGE_ADDR, PROT_READ)


class MagicTrampoline:
    """The patched-in ``call`` target.

    Mimics the real trampoline's constraints: it starts with *no* link
    to FPVM and must find the handler through the magic page on its
    first invocation, caching the pointer for all later calls.
    """

    def __init__(self) -> None:
        self._handler = None
        self.rendezvous_count = 0
        #: total invocations (for the conformance oracle's invariant
        #: corr_events == sum of trampoline calls under magic traps).
        self.call_count = 0

    def __call__(self, cpu, addr: int) -> None:
        self.call_count += 1
        if self._handler is None:
            self.rendezvous_count += 1
            cookie, handler_id = struct.unpack(
                "<QQ", cpu.mem.read_bytes(MAGIC_PAGE_ADDR, 16)
            )
            if cookie != MAGIC_COOKIE:
                raise MagicPageCorruptionError(
                    f"magic page cookie mismatch at {MAGIC_PAGE_ADDR:#x}: "
                    f"read {cookie:#x}, want {MAGIC_COOKIE:#x}"
                )
            resolve = _HANDLER_REGISTRY.get(handler_id)
            handler = resolve() if resolve is not None else None
            if handler is None:
                raise MagicPageCorruptionError(
                    f"magic page names unknown demotion handler {handler_id}"
                )
            self._handler = handler
        self._handler(cpu, addr)


def demote_instruction_inputs(vm, context_or_cpu, addr: int) -> int:
    """The demotion handler body: scan the patched instruction's memory
    and register sources for boxed values and demote them in place.
    Returns the number of demotions performed."""
    program = vm.program
    instr = program.by_addr[addr]
    mem = context_or_cpu.mem if hasattr(context_or_cpu, "mem") else context_or_cpu.memory
    regs = _regs_view(context_or_cpu)
    demoted = 0

    memop = instr.memory_operand()
    if memop is not None and _reads_memory(instr, memop):
        ea = _effective_address(memop, regs)
        count = 2 if memop.size == 16 else 1
        for i in range(count):
            bits = mem.read_u64(ea + 8 * i)
            plain = vm.emulator.demote_bits(bits)
            if plain != bits:
                mem.write_u64(ea + 8 * i, plain)
                demoted += 1

    # movq r64, xmmN: the register-to-register porosity path.
    if instr.mnemonic == "movq" and instr.operands and _xmm_source(instr):
        xid = instr.operands[1].id
        bits = regs.xmm[xid][0]
        plain = vm.emulator.demote_bits(bits)
        if plain != bits:
            regs.write_xmm(xid, plain, 0)
            demoted += 1

    vm.telemetry.corr_events += 1
    return demoted


def _xmm_source(instr) -> bool:
    from repro.machine.isa import Xmm

    return len(instr.operands) == 2 and isinstance(instr.operands[1], Xmm)


def _reads_memory(instr, memop: Mem) -> bool:
    if instr.opclass is OpClass.INT_MOV:
        if instr.mnemonic == "mov":
            return isinstance(instr.operands[1], Mem)
        if instr.mnemonic == "push":
            return isinstance(instr.operands[0], Mem)
        return instr.mnemonic not in ("lea", "pop")
    return True


def _effective_address(memop: Mem, regs) -> int:
    ea = memop.disp
    if memop.base is not None:
        ea += regs.gpr[GPR_IDS[memop.base]]
    if memop.index is not None:
        ea += regs.gpr[GPR_IDS[memop.index]] * memop.scale
    return ea & 0xFFFF_FFFF_FFFF_FFFF


class _CpuRegsView:
    """Adapter giving a raw CPU the SignalContext register interface."""

    def __init__(self, cpu):
        self._cpu = cpu
        self.gpr, self.xmm = cpu.regs.gpr, cpu.regs.xmm

    def write_xmm(self, xid, value, lane=0):
        self._cpu.regs.write_xmm_lane(xid, lane, value)


def _regs_view(context_or_cpu):
    if isinstance(context_or_cpu, SignalContext):
        return context_or_cpu
    return _CpuRegsView(context_or_cpu)
