"""No module of the package imports a name that it neither uses nor
exports in ``__all__``.

The project depends on no linter, so this test stands in for the
unused-import check. An import line marked ``# noqa`` is exempt: it
keeps a binding that code outside the package reaches through the module.
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
