"""Generate the ISA reference (docs/ISA.md) from the opcode table.

The table in :mod:`repro.machine.isa` is the single source of truth;
this renderer keeps the documentation honest by deriving it, including
each mnemonic's admitted operand forms and its FPVM-emulator support
status (the §4.2 supported / ignored split).
"""

from __future__ import annotations

from repro.machine.isa import OPCODES, OpClass

_CLASS_TITLES = {
    OpClass.FP_ARITH: "Floating point arithmetic (raise #XF)",
    OpClass.FP_CVT: "Conversions (raise #XF)",
    OpClass.FP_BITWISE: "FP bitwise (no FP exceptions)",
    OpClass.FP_MOV: "XMM moves",
    OpClass.INT_MOV: "Integer moves / stack",
    OpClass.INT_ALU: "Integer ALU",
    OpClass.CONTROL: "Control flow",
    OpClass.SYS: "System",
}

_CLASS_ORDER = [
    OpClass.FP_ARITH, OpClass.FP_CVT, OpClass.FP_BITWISE, OpClass.FP_MOV,
    OpClass.INT_MOV, OpClass.INT_ALU, OpClass.CONTROL, OpClass.SYS,
]


def render_isa_reference() -> str:
    from repro.core.emulator import DEFAULT_SUPPORTED

    lines = [
        "# ISA reference",
        "",
        "Generated from `repro.machine.isa.OPCODES` by",
        "`repro.machine.isadoc` — regenerate with",
        "`python -c \"from repro.machine.isadoc import write_isa_reference;"
        " write_isa_reference()\"`.",
        "",
        "The **operand forms** column lists the only operand shapes an",
        "instruction may have, however it is built (IR, assembler or",
        "decoder): alternatives are separated by `;`, operands by `,`, and",
        "`/` separates the kinds one operand may be (`xmm` an XMM register,",
        "`reg` a general register, `mem` memory, `imm` an immediate, `label`",
        "a code label).  Any other shape is an `EncodingError`.",
        "",
        "The **emulated** column is FPVM's §4.2 support split: supported",
        "mnemonics can appear inside emulated instruction sequences;",
        "unsupported ones terminate sequences and run natively.",
        "",
    ]
    for opclass in _CLASS_ORDER:
        members = sorted(
            (info for info in OPCODES.values() if info.opclass is opclass),
            key=lambda i: i.mnemonic,
        )
        if not members:
            continue
        lines.append(f"## {_CLASS_TITLES[opclass]}")
        lines.append("")
        lines.append("| mnemonic | operand forms | lanes | native cycles | emulated |")
        lines.append("|---|---|---|---|---|")
        for info in members:
            emulated = "yes" if info.mnemonic in DEFAULT_SUPPORTED else "no"
            forms = f"`{info.forms}`" if info.forms else "none"
            lines.append(
                f"| `{info.mnemonic}` | {forms} | {info.lanes} "
                f"| {info.cost} | {emulated} |"
            )
        lines.append("")
    lines += _render_thread_api()
    supported = sum(1 for m in OPCODES if m in DEFAULT_SUPPORTED)
    lines.append(
        f"Totals: {len(OPCODES)} mnemonics, {supported} emulator-supported, "
        f"{len(OPCODES) - supported} sequence terminators."
    )
    return "\n".join(lines) + "\n"


def _render_thread_api() -> list[str]:
    """The pthread-flavoured host functions, derived from the same
    ``THREAD_API`` table :class:`repro.machine.process.Process`
    registers them from."""
    from repro.machine.process import THREAD_API

    lines = [
        "## Thread host functions (Process-scheduled programs only)",
        "",
        "Installed by `repro.machine.process.Process` (generated from",
        "its `THREAD_API` table); `call`-able like any host function.",
        "Programs using them must run under a `Process`, not a bare CPU.",
        "",
        "| function | signature | host cycles | behaviour |",
        "|---|---|---|---|",
    ]
    for spec in THREAD_API:
        lines.append(
            f"| `{spec.name}` | `{spec.signature}` | {spec.cost} "
            f"| {spec.description} |"
        )
    lines.append("")
    return lines


def write_isa_reference(path: str = "docs/ISA.md") -> str:
    import pathlib

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    text = render_isa_reference()
    out.write_text(text)
    return str(out)
