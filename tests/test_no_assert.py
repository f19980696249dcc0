"""The library checks its invariants with raises, never with `assert`,
which `python -O` strips."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cartanquiver"
MODULES = sorted(SRC.glob("*.py"))


def asserts(source: str) -> list[int]:
    """Line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_guard_sees_asserts():
    source = "def f(x):\n    assert x\n    if x:\n        assert x > 1\n"
    assert asserts(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_in_library(path):
    assert asserts(path.read_text()) == []
