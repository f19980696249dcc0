"""Every top-level import of a library module is used in that module.

The package `__init__` is exempt: its imports are the public re-exports.
Names count as used when they appear as a name or as the root of an
attribute chain anywhere in the module, annotations included.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cartanquiver"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # string annotations such as "Subspace" name their types too
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_guard_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from .errors import A, B\n"
              "def f(x: 'B') -> int:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: A"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
