"""Every module under ``src/repro`` has a caller outside the tests: some
module in ``src/``, ``benchmarks/``, ``bench_fpvm/`` or ``examples/``
imports it.  So does every public function and method: code in those
directories names it.  Code that only tests reach (a harness, an
oracle, a fixture, a helper) lives beside its tests in ``tests/``.  A
module that is an entry point rather than a library, or a public
function kept for library users, must be a deliberate addition to an
allowlist below."""

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

#: Public functions and methods nothing outside the tests names, kept
#: for library users.  Those of the modules in ``ALLOWED`` need no entry.
ALLOWED_FUNCTIONS = {
    "repro.core.vm.FPVM.detach": "the shutdown half of attach: closes the "
                                 "kernel-module handles, restores every thread's MXCSR",
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


def _used_names(tree: ast.AST):
    """Every name ``tree`` uses: variables, attributes, imported names
    and identifier-shaped strings (``getattr`` dispatch, dict keys).
    Names inside f-strings count; comments and definitions do not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _public_functions(path: Path):
    """``(qualified name, bare name)`` of each public module-level
    function and class method in ``path``."""
    module = _module_name(path)
    tree = ast.parse(path.read_text(), str(path))
    scopes = [(module, tree.body)] + [
        (f"{module}.{node.name}", node.body)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for scope, body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                yield f"{scope}.{node.name}", node.name


def _caller_files():
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "results" not in path.relative_to(ROOT).parts:  # run outputs
                yield top, path


def _callers() -> dict[str, set[str]]:
    """Imported module name -> the files that import it."""
    callers: dict[str, set[str]] = {}
    for top, path in _caller_files():
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


def test_every_public_src_function_has_a_caller():
    used = set()
    for _, path in _caller_files():
        used.update(_used_names(ast.parse(path.read_text(), str(path))))
    orphans = [qualified for path in sorted(SRC.rglob("*.py"))
               if _module_name(path) not in ALLOWED
               for qualified, name in _public_functions(path)
               if name not in used and qualified not in ALLOWED_FUNCTIONS]
    assert orphans == [], (
        f"public functions only tests name (move them into tests/): {orphans}")


def test_allowlist_names_real_modules():
    names = {_module_name(p) for p in SRC.rglob("*.py")}
    assert set(ALLOWED) <= names


def test_function_allowlist_names_real_functions():
    names = {q for p in SRC.rglob("*.py") for q, _ in _public_functions(p)}
    assert set(ALLOWED_FUNCTIONS) <= names


def test_guard_sees_each_import_form():
    tree = ast.parse(
        "import repro.a.b\n"
        "from repro.c import d\n"
        "from . import e\n"
        "from .f import g\n")
    assert _imports(tree, "repro.pkg") == {
        "repro.a.b", "repro.c", "repro.c.d", "repro.pkg", "repro.pkg.e",
        "repro.pkg.f", "repro.pkg.f.g"}


def test_guard_sees_each_use_form():
    tree = ast.parse(
        "from repro.x import a\n"
        "b()\n"
        "obj.c\n"
        "getattr(obj, 'd')\n"
        "f'{obj.e}'\n"
        "# f\n"
        "def g(): pass\n"
        "'not a name'\n")
    assert set(_used_names(tree)) == {"a", "b", "obj", "c", "getattr", "d", "e"}
