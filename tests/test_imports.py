"""No module of the package imports a name that it neither uses nor
exports in ``__all__``, and no module defines a private helper that
the package never uses.

The project depends on no linter, so these tests stand in for the
unused-import and dead-code checks. An import line marked ``# noqa`` is
exempt: it keeps a binding that code outside the package reaches
through the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "despeckle"


def unused_imports(source):
    """``"line N: name"`` for each imported name that ``source`` neither
    uses nor exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_unused_and_spares_used_exported_and_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import sys  # noqa: F401\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        "    e,  # noqa\n"
        ")\n"
        "import numpy.linalg\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    from re import compile\n"
        "    return numpy.linalg.norm(osp)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 6: pi", "line 13: compile"]


def dead_private_names(sources):
    """``"module: name"`` for each module-level ``_name`` that ``sources``
    (module name -> source) define but use nowhere outside its own
    definition; a use is a load, an attribute read or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = []
    for tree in trees.values():
        for node in tree.body:
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    used.add(sub.name)
            uses.append((node, used))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if (name.startswith("_") and not name.startswith("__")
                        and not any(name in used for other, used in uses if other is not node)):
                    dead.append(f"{module}: {name}")
    return dead


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def test_dead_name_guard_flags_unused_and_self_only_helpers():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_unused = 1\n"
              "def _recurse(n):\n"
              "    return _recurse(n - 1)\n"
              "def _called():\n"
              "    return _LIMIT\n"
              "def public():\n"
              "    return _called()\n"
              "def _imported():\n"
              "    pass\n"
              "class _Reached:\n"
              "    pass\n"
              "__version__ = '1'\n"),
        "b": ("from .a import _imported\n"
              "import a\n"
              "x = a._Reached\n"),
    }
    assert dead_private_names(sources) == ["a: _unused", "a: _recurse"]
