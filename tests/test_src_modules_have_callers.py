"""Every module under ``src/repro`` has a caller outside the tests: some
module in ``src/``, ``benchmarks/``, ``bench_fpvm/`` or ``examples/``
imports it.  So does every public function and method: code in those
directories names it, a method as an attribute (``x.name``) or an
identifier string, since a bare name is some other function.  Code
that only tests reach (a harness, an oracle, a fixture, a helper)
lives beside its tests in ``tests/``.  A module that is an entry point
rather than a library, or a public function kept for library users,
must be a deliberate addition to an allowlist below."""

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
    "repro.observability.flow.FlowRecorder.fingerprint": "the flow graph's order-independent "
                                                         "digest for comparing runs across "
                                                         "tiers (docs/architecture.md)",
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


def _used_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """``(names, attributes)`` that ``tree`` uses.  Names are variables
    and imported names; attributes are ``x.name`` and identifier-shaped
    strings (``getattr`` dispatch, dict keys).  Uses inside f-strings
    count; comments and definitions do not."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            attributes.add(node.value)
    return names, attributes


def _has_caller(name: str, method: bool, names: set[str], attributes: set[str]) -> bool:
    """Is the function (or, with ``method``, the method) ``name`` used?
    A method is only ever reached through an attribute or a string."""
    return name in attributes or (not method and name in names)


def _public_functions(path: Path):
    """``(qualified name, bare name, is a method)`` of each public
    module-level function and class method in ``path``."""
    module = _module_name(path)
    tree = ast.parse(path.read_text(), str(path))
    scopes = [(module, tree.body, False)] + [
        (f"{module}.{node.name}", node.body, True)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for scope, body, method in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                yield f"{scope}.{node.name}", node.name, method


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
    names, attributes = set(), set()
    for _, path in _caller_files():
        file_names, file_attributes = _used_names(ast.parse(path.read_text(), str(path)))
        names |= file_names
        attributes |= file_attributes
    orphans = [qualified for path in sorted(SRC.rglob("*.py"))
               if _module_name(path) not in ALLOWED
               for qualified, name, method in _public_functions(path)
               if not _has_caller(name, method, names, attributes)
               and qualified not in ALLOWED_FUNCTIONS]
    assert orphans == [], (
        f"public functions only tests name (move them into tests/): {orphans}")


def test_allowlist_names_real_modules():
    names = {_module_name(p) for p in SRC.rglob("*.py")}
    assert set(ALLOWED) <= names


def test_function_allowlist_names_real_functions():
    names = {q for p in SRC.rglob("*.py") for q, _, _ in _public_functions(p)}
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
        "'not a name'\n"
        "all(obj)\n")
    names, attributes = _used_names(tree)
    assert names == {"a", "b", "obj", "getattr", "all"}
    assert attributes == {"c", "d", "e"}
    # A bare name calls a function of that name, never a method: the
    # builtin ``all`` is no caller of a method ``all``.
    assert _has_caller("all", False, names, attributes)
    assert not _has_caller("all", True, names, attributes)
    assert _has_caller("c", True, names, attributes)
