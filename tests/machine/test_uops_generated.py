"""Generated micro-op functions against the interpreter, shape by shape.

``bind_exec``/``bind_control`` return one function per micro-op,
generated from text keyed by the mnemonic and the operand shape.  Every
bound shape of the ISA — each mnemonic over register, immediate and
memory operands, each memory form (base, index, base+index*scale,
absolute, sized) — runs one step through its generated function and one
through ``CPU.step`` on the ``interp`` tier, from the same state, under
each MXCSR setting (all masked, FPVM's, FP unit off) and from two
states: one whose accesses stay inside mapped pages, and one whose
accesses straddle pages, touch unmapped pages and store into read-only
ones.  Registers, flags, MXCSR, RIP, memory, the observer events, a
returned ``Trap`` and a raised fault must all match.
"""

import hashlib
import itertools
import random
import tracemalloc

import pytest

from repro.errors import AssemblerError
from repro.harness.configs import named_configs
from repro.harness.runner import run_fpvm
from repro.machine import uops
from repro.machine.assembler import assemble
from repro.machine.cpu import CPU, TIERS, RETURN_SENTINEL
from repro.machine.isa import GPR_IDS, OPCODES, OpClass
from repro.machine.memory import PAGE_SIZE, PROT_READ, MemoryFault
from repro.machine.program import HostFunction
from repro.machine.registers import MXCSR_DEFAULT, MXCSR_FPVM
from repro.machine.process import Process
from repro.workloads import get_workload
from tests.machine.flags import pack_flags, unpack_flags

#: mapped RW data, the read-only page after it, the stack page and the
#: page the absolute operand names.
DATA = 0x20000
READONLY = DATA + 2 * PAGE_SIZE
STACK = 0x30000
ABSOLUTE = 0x9000

MEMORY_FORMS = {
    "base": "[rbx + 8]",
    "index": "[rcx*8]",
    "base+index*scale": "[rbx + rcx*4 - 16]",
    "absolute": f"[{ABSOLUTE + 8:#x}]",
}
SIZED = {"dword": "dword [rbx + 8]", "word": "word [rbx + 6]", "byte": "byte [rbx + 3]"}
OPERANDS = ["xmm1", "xmm2", "rax", "rdx", "rsp", "0x11",
            *MEMORY_FORMS.values(), *SIZED.values()]
#: operands that share a key: one program per pattern of repeats.
KIND = {"xmm1": "x", "xmm2": "x", "rax": "r", "rdx": "r"}
MXCSR = {"masked": MXCSR_DEFAULT, "fpvm": MXCSR_FPVM, "fp-off": None}

#: FP bit patterns that reach every flag: NaNs, infinities, zeros,
#: subnormals, inexact quotients and integers.
_FP = [0x7FF8_0000_0000_0001, 0x7FF0_0000_0000_0001, 0x7FF0_0000_0000_0000,
       0x8000_0000_0000_0000, 0x0000_0000_0000_0003, 0x3FF0_0000_0000_0000,
       0x4008_0000_0000_0000, 0xBFD5_5555_5555_5555, 0x7FEF_FFFF_FFFF_FFFF,
       0x4330_0000_0000_0001, 0x0000_0000_0000_0000]


def _host(cpu):
    cpu.regs.gpr[0] = 0x4242
    cpu.regs.xmm[0][0] ^= 1


def _shapes():
    """``(label, program)`` per bound exec shape and per control form:
    one program per key and per pattern of repeated operands."""
    out = []
    seen = set()
    for mn, info in OPCODES.items():
        if info.opclass in (OpClass.CONTROL, OpClass.SYS):
            continue
        for ops in itertools.product(OPERANDS, repeat=info.arity):
            key = (mn, *(KIND.get(op, op) for op in ops), len(set(ops)))
            if key in seen:
                continue
            seen.add(key)
            text = f"{mn} {', '.join(ops)}"
            try:
                prog = assemble(f"main:\n  {text}\n  hlt\n")
                uop = uops.lower(prog.by_addr[prog.entry])
            except (AssemblerError, AttributeError):
                continue  # rejected, or not lowered (an XMM-writing op into memory)
            if uops.bind_exec(uop, CPU(prog).mem) is not None:
                out.append((text, prog))
    for target in ("far", "rdx"):
        for mn in ("jmp", "jne", "jb", "call"):
            out.append((f"{mn} {target}", assemble(
                f"main:\n  {mn} {target}\n  hlt\nfar:\n  hlt\n")))
    out.append(("ret", assemble("main:\n  ret\n")))
    prog = assemble("main:\n  call hostfn\n  hlt\n")
    prog.register_host_function(HostFunction("hostfn", _host, cost=7))
    out.append(("call host", prog))
    return out


SHAPES = _shapes()


class _Kernel:
    """Records the trap the interpreter delivers."""

    def __init__(self):
        self.traps = []

    def deliver_trap(self, cpu, trap):
        self.traps.append(trap)


def _state(prog, edge: bool, mxcsr, seed: int, tier: str) -> CPU:
    rng = random.Random(seed)
    cpu = CPU(prog, uops=TIERS[tier])
    cpu.kernel = _Kernel()
    mem = cpu.mem
    for base in (DATA, DATA + PAGE_SIZE, READONLY, STACK, ABSOLUTE):
        mem.map_page(base)
        mem.write_bytes(base, rng.randbytes(PAGE_SIZE))
    mem.protect(READONLY, PROT_READ)
    regs = cpu.regs
    gpr = regs.gpr
    for name in ("rax", "rdx", "rsi", "rdi"):
        gpr[GPR_IDS[name]] = rng.choice((rng.getrandbits(64), rng.getrandbits(6), *_FP))
    gpr[GPR_IDS["rdx"]] = prog.symbols.get("far", gpr[GPR_IDS["rdx"]])
    if edge:
        # 8-byte accesses at rbx + 8 straddle into the read-only page;
        # [rcx*8] touches an unmapped page; the absolute page is
        # read-only; the stack sits on a page edge.
        gpr[GPR_IDS["rbx"]] = READONLY - 12
        gpr[GPR_IDS["rcx"]] = 0x50000 // 8
        mem.protect(ABSOLUTE, PROT_READ)
        gpr[GPR_IDS["rsp"]] = STACK + 4
    else:
        gpr[GPR_IDS["rbx"]] = DATA + 0x100
        gpr[GPR_IDS["rcx"]] = (DATA + PAGE_SIZE + 0x40) // 8
        gpr[GPR_IDS["rsp"]] = STACK + 0x800
    top = RETURN_SENTINEL if seed % 2 else prog.symbols["main"] + 0x40
    mem.write_u64(gpr[GPR_IDS["rsp"]] & ~7, top)
    for lanes in regs.xmm:
        lanes[0], lanes[1] = rng.choice(_FP), rng.choice(_FP)
    regs.flags = unpack_flags(rng.getrandbits(12))
    if mxcsr is None:
        cpu.fp_disabled = True
    else:
        regs.mxcsr = mxcsr
    return cpu


def _digest(mem) -> str:
    h = hashlib.sha256()
    for pno in sorted(mem._pages):
        page = mem._pages[pno]
        h.update(pno.to_bytes(8, "little") + page.prot.to_bytes(4, "little") + page.data)
    return h.hexdigest()


def _observed(cpu, events, outcome, control: bool) -> dict:
    regs = cpu.regs
    out = {"outcome": outcome, "gpr": list(regs.gpr), "xmm": [list(x) for x in regs.xmm],
           "flags": pack_flags(regs.flags), "mxcsr": regs.mxcsr, "rip": regs.rip,
           "halted": cpu.halted, "memory": _digest(cpu.mem), "events": events}
    if control:
        out.update(cycles=cpu.cycles, work=cpu.work_cycles, count=cpu.instruction_count,
                   classes=dict(cpu.retired_by_class))
    return out


def _run(fn, cpu):
    try:
        return ("ok", fn(cpu))
    except MemoryFault:
        return ("fault", MemoryFault)


def _trap_fields(trap):
    if trap is None:
        return None
    return (trap.kind, trap.addr, trap.instruction, trap.fp_flags)


@pytest.mark.parametrize("mxcsr", list(MXCSR))
def test_generated_matches_interpreter(mxcsr):
    assert len(SHAPES) > 700
    for text, prog in SHAPES:
        uop = uops.lower(prog.by_addr[prog.entry])
        control = uop.opclass is OpClass.CONTROL
        for seed, edge in ((1, False), (2, True)):
            got_cpu = _state(prog, edge, MXCSR[mxcsr], seed, "chained")
            if control:
                fn = uops.bind_control(uop, got_cpu.mem, prog)
            else:
                fn = uops.bind_exec(uop, got_cpu.mem)
            assert fn.__code__.co_filename == "<micro-op>"
            got_events, want_events = [], []
            # Attached after binding: the function must still see it.
            got_cpu.mem.observers.append(lambda *ev: got_events.append(ev))
            got = _run(fn, got_cpu)
            if got[0] == "ok":
                got = ("ok", _trap_fields(got[1]))

            want_cpu = _state(prog, edge, MXCSR[mxcsr], seed, "interp")
            want_cpu.mem.observers.append(lambda *ev: want_events.append(ev))
            want = _run(CPU.step, want_cpu)
            if want[0] == "ok":
                traps = want_cpu.kernel.traps
                want = ("ok", _trap_fields(traps[0]) if traps else None)
            assert (_observed(got_cpu, got_events, got, control)
                    == _observed(want_cpu, want_events, want, control)), (text, seed)


def test_every_listed_shape_binds():
    """Each family the engine runs, and each memory form, is among the
    bound shapes the differential above covers."""
    bound = {text.split()[0] for text, _ in SHAPES}
    assert bound >= {
        "addsd", "subpd", "sqrtsd", "sqrtpd", "vfmadd213sd", "ucomisd", "comisd",
        "cmpltsd", "cvtsi2sd", "cvttsd2si", "cvtsd2si", "xorpd", "andpd", "orpd",
        "andnpd", "movsd", "movapd", "movupd", "movhpd", "movlpd", "movq", "movddup",
        "unpcklpd", "unpckhpd", "shufpd", "mov", "lea", "push", "pop", "xchg", "add",
        "sub", "cmp", "and", "or", "xor", "test", "imul", "shl", "shr", "sar", "inc",
        "dec", "neg", "not", "jmp", "jne", "call", "ret"}
    texts = [text for text, _ in SHAPES]
    for form in (*MEMORY_FORMS.values(), *SIZED.values()):
        assert any(form in text for text in texts), form
    assert any(text.startswith("mov " + SIZED["dword"]) for text in texts)


def test_maker_table_stays_small():
    """The four benchmark workloads (lorenz, fbench, enzo, mixed_mt)
    bind a few dozen keys between them: the text is compiled per key,
    not per micro-op."""
    uops._MAKERS.clear()
    for name in ("lorenz", "fbench", "enzo", "mixed_mt"):
        w = get_workload(name)
        Process(w.build_program(w.quick_scale or w.default_scale)).run()
    bound = [key for key, make in uops._MAKERS.items() if make is not None]
    assert 20 <= len(bound) and len(uops._MAKERS) <= 100


#: bytes a bound micro-op retained on enzo@6 under SEQ_SHORT/mpfr when
#: each was a web of nested closures (1,292), and the ceiling for the
#: generated function, half of it; it measures about 237.
CLOSURE_BYTES = 1292
MAX_BYTES = CLOSURE_BYTES // 2


def test_bound_uop_size():
    """A bound micro-op (its function and its defaults) takes at most
    half the bytes of the closure web it replaced; measured with
    ``tracemalloc`` around ``bind_exec`` on the second of two identical
    runs, so no text is compiled inside the window."""
    sizes = []
    bind = uops.bind_exec

    def measured(uop, mem):
        before = tracemalloc.get_traced_memory()[0]
        fn = bind(uop, mem)
        if fn is not None:
            sizes.append(tracemalloc.get_traced_memory()[0] - before)
        return fn

    config = named_configs("mpfr")["SEQ_SHORT"]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(uops, "bind_exec", measured)
        run_fpvm("enzo", config, scale=6)
        sizes.clear()
        tracemalloc.start()
        try:
            run_fpvm("enzo", config, scale=6)
        finally:
            tracemalloc.stop()
    assert len(sizes) > 1000
    assert sum(sizes) / len(sizes) <= MAX_BYTES
