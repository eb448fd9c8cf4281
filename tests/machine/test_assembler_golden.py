"""Assembler golden: every workload's assembled program.

``assembler_golden.json`` pins, for every registered workload at its
quick scale and its default scale, a SHA-256 digest of the assembled
text bytes, the data image, the symbol table, the source line table
and every instruction's parsed operands.  Every run starts from these
bytes, so an assembler change that moves any of them moves every
result.  Regenerate only when the assembler's output changes on
purpose:

    PYTHONPATH=src python tests/machine/test_assembler_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads import WORKLOAD_NAMES, get_workload

FIXTURE = Path(__file__).with_name("assembler_golden.json")


def cases() -> list[tuple[str, int]]:
    out = []
    for name in WORKLOAD_NAMES:
        w = get_workload(name)
        out += [(name, w.quick_scale or w.default_scale), (name, w.default_scale)]
    return out


def _digest(blob: bytes | str) -> str:
    if isinstance(blob, str):
        blob = blob.encode()
    return hashlib.sha256(blob).hexdigest()


def fingerprint(name: str, scale: int) -> dict:
    program = get_workload(name).build_program(scale)
    return {
        "instructions": len(program.instructions),
        "text": _digest(program.text),
        "data": _digest(program.data),
        "symbols": _digest(json.dumps(sorted(program.symbols.items()))),
        "lines": _digest(json.dumps(sorted(program.lines.items()))),
        "operands": _digest("\n".join(repr(i.operands)
                                      for i in program.instructions)),
    }


_GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_workload_at_both_scales():
    assert set(_GOLDEN) == {f"{n}@{s}" for n, s in cases()}


@pytest.mark.parametrize("name,scale", cases())
def test_program_matches_golden(name, scale):
    assert fingerprint(name, scale) == _GOLDEN[f"{name}@{scale}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_assembler_golden.py --write")
    rows = [f"{json.dumps(f'{n}@{s}')}: {json.dumps(fingerprint(n, s), sort_keys=True)}"
            for n, s in cases()]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {FIXTURE}")
