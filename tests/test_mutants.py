"""The mutation catalogue `mutants.json` stays runnable: every snippet
occurs exactly once in its file and every test it names exists.  The
mutants themselves run with `python3 tests/run_mutants.py`."""

import ast
import pathlib

import pytest

import run_mutants

ROOT = pathlib.Path(__file__).resolve().parents[1]
MUTANTS = run_mutants.load()


def _defines(path: pathlib.Path, names: list[str]) -> bool:
    """Whether the file defines the class and function path `names`
    (a parametrised case's [...] ignored)."""
    body = ast.parse(path.read_text()).body
    for name in names:
        name = name.split("[")[0]
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = getattr(found[0], "body", [])
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_applies_and_names_existing_tests(mutant):
    assert set(mutant) == {"name", "what", "file", "snippet", "replacement",
                           "tests"}
    text = (ROOT / mutant["file"]).read_text()
    assert text.count(mutant["snippet"]) == 1
    assert mutant["replacement"] != mutant["snippet"]
    assert mutant["tests"]
    for test in mutant["tests"]:
        file, *names = test.split("::")
        assert names and _defines(ROOT / file, names), test


def test_mutant_names_are_unique():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)
