"""Program image: instructions, symbols, data, and patching.

A :class:`Program` is what the assembler emits and what the CPU, FPVM,
the static analysis and the profiler all consume.  It plays the role of
the ELF binary in the real system:

- the text section is a concrete byte stream (FPVM decodes the bytes);
- the symbol table is *rewritable*, which is how magic wrapping (§5.3)
  redirects ``printf`` to ``printf$fpvm`` the way the paper uses Lief;
- instructions can be patched with pre-hooks — an ``int3`` breakpoint
  or a magic-trap ``call`` — which is how the e9patch-based correctness
  instrumentation is modelled (§2.6, §5.2).
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from enum import Enum

from repro.machine.encoding import encode_instruction
from repro.machine.isa import Instruction, Label, OpClass

TEXT_BASE = 0x400000
DATA_BASE = 0x600000
HEAP_BASE = 0x1000_0000
STACK_TOP = 0x7FFF_0000
MAGIC_PAGE_ADDR = 0x7FFE_0000
#: Host ("shared library") functions live at fake high addresses; a
#: call that lands in this range dispatches to a registered Python
#: callable instead of simulated code.
HOST_FUNC_BASE = 0x7000_0000


class PatchKind(Enum):
    """Pre-hooks attachable in front of an instruction (e9patch model)."""

    INT3 = "int3"
    MAGIC_CALL = "magic_call"


@dataclass
class Patch:
    kind: PatchKind
    #: for MAGIC_CALL: the trampoline callable invoked in user space.
    trampoline: object | None = None


@dataclass
class HostFunction:
    """A simulated shared-library function.

    ``fn(cpu)`` implements the body against raw machine state — it sees
    *bit patterns*, not virtualized values, exactly like real libc
    (which is why foreign-function correctness instrumentation exists).
    ``cost`` is the cycle charge of one call.
    """

    name: str
    fn: object
    cost: int = 30
    #: number of double arguments consumed from xmm0.. (metadata the
    #: wrapper generator uses to know what to demote).
    fp_args: int = 0
    #: True if the function returns a double in xmm0.
    fp_ret: bool = False


class Program:
    """An assembled binary."""

    def __init__(self) -> None:
        self.instructions: list[Instruction] = []
        self.by_addr: dict[int, Instruction] = {}
        self.text: bytes = b""
        self.text_base: int = TEXT_BASE
        self.data: bytes = b""
        self.data_base: int = DATA_BASE
        #: symbol name -> address (labels + data symbols + host funcs).
        self.symbols: dict[str, int] = {}
        self.entry: int = TEXT_BASE
        self.host_functions: dict[int, HostFunction] = {}
        self._next_host_addr = HOST_FUNC_BASE
        #: live pre-hooks, addr -> patch.  Patches are metadata the
        #: front end consults before executing an address; they never
        #: splice bytes, so ``text`` stays the pristine image the guest
        #: reads (§2.6, §5.2).
        self.patches: dict[int, Patch] = {}
        #: append-only log of patched addresses, one entry per
        #: patch-state change.  ``patch_seq`` (== len(patch_events)) is
        #: the global cursor; consumers remember the last sequence they
        #: processed and invalidate only the sites in the suffix.
        self.patch_events: list[int] = []
        self.patch_seq: int = 0
        #: source line info for diagnostics: addr -> line number.
        self.lines: dict[int, int] = {}

    # ------------------------------------------------------------ build
    def add_instruction(self, instr: Instruction) -> None:
        self.instructions.append(instr)
        self.by_addr[instr.addr] = instr

    def finalize_text(self) -> None:
        blob = bytearray()
        base = self.text_base
        for instr in self.instructions:
            expected = base + len(blob)
            if instr.addr != expected:
                raise ValueError(
                    f"instruction at {instr.addr:#x} not contiguous "
                    f"(expected {expected:#x})"
                )
            raw = encode_instruction(instr)
            instr.raw = raw
            instr.size = len(raw)
            blob += raw
        self.text = bytes(blob)

    def register_host_function(self, host: HostFunction) -> int:
        """Give a host function an address and a symbol table entry."""
        addr = self._next_host_addr
        self._next_host_addr += 16
        self.host_functions[addr] = host
        self.symbols[host.name] = addr
        return addr

    # --------------------------------------------------------- queries
    def instruction_at(self, addr: int) -> Instruction:
        try:
            return self.by_addr[addr]
        except KeyError:
            raise KeyError(f"no instruction at {addr:#x}") from None

    def raw_bytes_at(self, addr: int) -> bytes:
        """The encoded bytes of the instruction at ``addr`` (what the
        Capstone-analog decoder consumes on a cache miss)."""
        return self.instruction_at(addr).raw

    def resolve(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"undefined symbol {name!r}") from None

    def is_host_addr(self, addr: int) -> bool:
        return addr in self.host_functions

    # -------------------------------------------------------- patching
    def _note_patch_change(self, addr: int) -> None:
        self.patch_events.append(addr)
        self.patch_seq += 1

    def sites_since(self, cursor: int | None) -> set[int] | None:
        """Sites whose patch state changed after ``cursor`` (a
        ``patch_seq`` a consumer recorded earlier).  ``None`` for an
        unset cursor: the consumer has seen nothing yet and adopts
        ``patch_seq`` as it stands."""
        if cursor is None:
            return None
        return set(self.patch_events[cursor:])

    def patch_int3(self, addr: int) -> None:
        """Insert an ``int3``-style breakpoint in front of ``addr``."""
        self.instruction_at(addr)  # validate
        self.patches[addr] = Patch(PatchKind.INT3)
        self._note_patch_change(addr)

    def patch_call(self, addr: int, trampoline) -> None:
        """Insert a magic-trap ``call <trampoline>`` in front of ``addr``."""
        self.instruction_at(addr)
        self.patches[addr] = Patch(PatchKind.MAGIC_CALL, trampoline)
        self._note_patch_change(addr)

    def unpatch(self, addr: int) -> None:
        """Remove the pre-hook at ``addr`` (no-op if none)."""
        if self.patches.pop(addr, None) is not None:
            self._note_patch_change(addr)

    def clear_patches(self) -> None:
        for addr in list(self.patches):
            del self.patches[addr]
            self._note_patch_change(addr)

    def rebind_symbol(self, name: str, new_addr: int) -> None:
        """Point an existing symbol somewhere else (the Lief move)."""
        if name not in self.symbols:
            raise KeyError(f"cannot rebind undefined symbol {name!r}")
        self.symbols[name] = new_addr

    # ------------------------------------------------------------- CFG
    def basic_blocks(self) -> list[list[Instruction]]:
        """Partition the text into basic blocks (leaders at branch
        targets and after control transfers)."""
        if not self.instructions:
            return []
        leaders = {self.instructions[0].addr}
        for instr in self.instructions:
            if instr.opclass is OpClass.CONTROL:
                for op in instr.operands:
                    if isinstance(op, Label) and op.addr is not None:
                        leaders.add(op.addr)
                nxt = instr.addr + instr.size
                if nxt in self.by_addr:
                    leaders.add(nxt)
        blocks: list[list[Instruction]] = []
        current: list[Instruction] = []
        for instr in self.instructions:
            if instr.addr in leaders and current:
                blocks.append(current)
                current = []
            current.append(instr)
        if current:
            blocks.append(current)
        return blocks

    def copy(self) -> "Program":
        """A deep-enough copy: fresh patches and symbol table so a run
        can instrument freely without contaminating the original."""
        clone = Program.__new__(Program)
        clone.instructions = self.instructions
        clone.by_addr = self.by_addr
        clone.text = self.text
        clone.text_base = self.text_base
        clone.data = self.data
        clone.data_base = self.data_base
        clone.symbols = dict(self.symbols)
        clone.entry = self.entry
        clone.host_functions = dict(self.host_functions)
        clone._next_host_addr = self._next_host_addr
        clone.patches = {a: _copy.copy(p) for a, p in self.patches.items()}
        clone.patch_events = list(self.patch_events)
        clone.patch_seq = self.patch_seq
        clone.lines = self.lines
        return clone
