"""Every module under ``src/repro`` has a caller outside the tests: some
module in ``src/``, ``benchmarks/``, ``bench_fpvm/`` or ``examples/``
imports it.  Code that only tests reach (a harness, an oracle, a
fixture) lives beside its tests in ``tests/``.  A module that is an
entry point rather than a library must be a deliberate addition to
the allowlist below."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
CALLER_DIRS = ("src", "benchmarks", "bench_fpvm", "examples")

#: Modules that nothing imports because they are entry points.
ALLOWED = {
    "repro.__main__": "the `python -m repro` CLI entry",
    "repro.machine.isadoc": "generates docs/ISA.md (write_isa_reference)",
    "repro.harness.export": "the metrics export surface (result_to_dict, compare_runs)",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.AST, package: str) -> set[str]:
    """Every module ``tree`` names in an import: ``import a.b``, the
    ``a.b`` of ``from a.b import c`` and, since ``c`` may itself be a
    module, ``a.b.c``.  ``package`` resolves relative imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[:len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def _callers() -> dict[str, set[str]]:
    """Imported module name -> the files that import it."""
    callers: dict[str, set[str]] = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "results" in path.relative_to(ROOT).parts:
                continue  # run outputs, not sources
            package = _module_name(path.parent / "__init__.py") if top == "src" else ""
            for name in _imports(ast.parse(path.read_text(), str(path)), package):
                callers.setdefault(name, set()).add(str(path.relative_to(ROOT)))
    return callers


def test_every_src_module_has_a_caller():
    callers = _callers()
    orphans = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        name = _module_name(path)
        if name in ALLOWED:
            continue
        own = str(path.relative_to(ROOT))
        if not callers.get(name, set()) - {own}:
            orphans.append(name)
    assert orphans == [], (
        f"modules only tests import (move them into tests/): {orphans}")


def test_allowlist_names_real_modules():
    names = {_module_name(p) for p in SRC.rglob("*.py")}
    assert set(ALLOWED) <= names


def test_guard_sees_each_import_form():
    tree = ast.parse(
        "import repro.a.b\n"
        "from repro.c import d\n"
        "from . import e\n"
        "from .f import g\n")
    assert _imports(tree, "repro.pkg") == {
        "repro.a.b", "repro.c", "repro.c.d", "repro.pkg", "repro.pkg.e",
        "repro.pkg.f", "repro.pkg.f.g"}
