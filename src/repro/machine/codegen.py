"""Functions generated from source text keyed by operand shape.

An instruction's two bound forms, the chained engine's micro-op
(:mod:`repro.machine.uops`) and the FPVM emulator's step
(:mod:`repro.core.emulator`), are each one function.  Its text
depends only on a key: the mnemonic and each operand's kind and memory
form, never on register numbers or displacements.  :func:`scan` reads
the shape and the values from the operands in one pass; :func:`maker`
compiles a key's text once per process into a ``make`` that binds one
use's values into the function it returns, as defaults.
"""

from __future__ import annotations

import re

from repro.machine.isa import GPR_IDS, Label, Mem, Reg, Xmm

U64 = 0xFFFF_FFFF_FFFF_FFFF


def scan(ops) -> tuple[list, dict]:
    """``(shape, params)`` of ``ops``.  Per operand, the shape holds its
    kind: ``"x"`` (XMM), ``"r"`` (GPR), ``"i"`` (immediate), ``"l"``
    (a label with a known address), ``"L"`` (one resolved by name) or a
    memory form ``(has base, has index, size)``.  ``params`` holds the
    values the text names: ``x{pos}``/``r{pos}`` a register id,
    ``b{pos}``/``n{pos}``/``s{pos}``/``d{pos}`` a memory operand's base,
    index, scale and displacement (``ea{pos}``, the address itself,
    when it has neither register) and ``i{pos}`` an immediate's value or
    a label's address."""
    shape: list = []
    params: dict = {}
    for pos, op in enumerate(ops):
        x, r, b, n, s, ea, d, i = _NAMES[pos]
        if isinstance(op, Xmm):
            params[x] = op.id
            shape.append("x")
        elif isinstance(op, Reg):
            params[r] = op.id
            shape.append("r")
        elif isinstance(op, Mem):
            base, index = op.base, op.index
            if base is not None:
                params[b] = GPR_IDS[base]
            if index is not None:
                params[n] = GPR_IDS[index]
                params[s] = op.scale
            if base is None and index is None:
                params[ea] = op.disp & U64
            else:
                params[d] = op.disp
            shape.append((base is not None, index is not None, op.size))
        elif isinstance(op, Label):
            params[i] = (op.addr or 0) & U64
            shape.append("l" if op.addr is not None and op.addr != -1 else "L")
        else:
            params[i] = op.value & U64
            shape.append("i")
    return shape, params


#: per operand position, the names of its values in ``params``.
_NAMES = [tuple(f"{name}{pos}" for name in ("x", "r", "b", "n", "s", "ea", "d", "i"))
          for pos in range(4)]


def address(pos: int, op: Mem, gpr: str) -> list[str]:
    """The line computing memory operand ``pos``'s effective address
    ``ea{pos}`` from the GPR list ``gpr``, unless it is a constant."""
    terms = []
    if op.base is not None:
        terms.append(f"{gpr}[b{pos}]")
    if op.index is not None:
        terms.append(f"{gpr}[n{pos}] * s{pos}")
    return [f"ea{pos} = ({' + '.join(terms)} + d{pos}) & U64"] if terms else []


def used(text: str, names) -> list[str]:
    """The ``names`` that ``text`` mentions as words, in order: only
    these are bound as defaults."""
    return [name for name in names if re.search(rf"\b{name}\b", text)]


def maker(table: dict, key, source, namespace: dict, filename: str):
    """The ``make`` for ``key`` in ``table``.  On a miss ``source()``
    gives the text that defines ``make``, or None when nothing is made
    for this key; it is compiled with ``namespace`` as its globals and
    kept, None included, so every later request with the key is one
    lookup.  A table serves every CPU or VM of the process and holds
    one entry per distinct key ever bound, a few dozen."""
    try:
        return table[key]
    except KeyError:
        pass
    text = source()
    make = None
    if text is not None:
        code = dict(namespace)
        exec(compile(text, filename, "exec"), code)
        make = code["make"]
    table[key] = make
    return make
