"""Environment reads under ``src/repro``: the execution tiers are
chosen through ``CPU(uops=)``, ``Process(...)`` and
``repro.machine.cpu.TIERS``, lazy FP switching through
``Process(lazy_fp=)`` and flow recording through ``FPVMConfig.flow``,
never through the environment.  The package reads no variable at all;
a new one must be a deliberate addition here."""

import ast
from pathlib import Path

import repro

ALLOWED: set[str] = set()

SRC = Path(repro.__file__).resolve().parent


def _env_keys(tree: ast.AST) -> list[str]:
    """Every key read through ``os.environ`` / ``os.getenv`` in
    ``tree``; a read whose key is not a string literal is reported as
    ``<dynamic>``."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    keys = []
    for node in ast.walk(tree):
        is_environ = ((isinstance(node, ast.Attribute) and node.attr == "environ")
                      or (isinstance(node, ast.Name) and node.id == "environ"))
        is_getenv = ((isinstance(node, ast.Attribute) and node.attr == "getenv")
                     or (isinstance(node, ast.Name) and node.id == "getenv"))
        if not (is_environ or is_getenv):
            continue
        parent = parents.get(node)
        key = None
        if is_getenv and isinstance(parent, ast.Call) and parent.args:
            key = parent.args[0]
        elif isinstance(parent, ast.Subscript):
            key = parent.slice
        elif isinstance(parent, ast.Attribute):
            call = parents.get(parent)
            if isinstance(call, ast.Call) and call.args:
                key = call.args[0]
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
        else:
            keys.append("<dynamic>")
    return keys


def test_only_allowed_environment_reads():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for key in _env_keys(ast.parse(path.read_text(), str(path))):
            found.setdefault(key, []).append(str(path.relative_to(SRC)))
    assert set(found) == ALLOWED, found


def test_guard_sees_each_read_form():
    tree = ast.parse(
        "import os\n"
        "a = os.environ.get('A', '1')\n"
        "b = os.environ['B']\n"
        "c = os.getenv('C')\n"
        "d = os.environ.get(name)\n")
    assert sorted(_env_keys(tree)) == ["<dynamic>", "A", "B", "C"]
