"""The benchmark tracer patches library functions by name: every path in
`perfbench/tracing.TRACED` must name an entry of its owner's `__dict__`,
as `Tracer.install` looks it up."""

import importlib.util
import pathlib

import cartanquiver

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def _traced_paths():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [path for path, _, _ in module.TRACED]


def test_traced_paths_resolve():
    paths = _traced_paths()
    assert paths
    for path in paths:
        *owner_path, attr = path.split(".")
        owner = cartanquiver
        for part in owner_path:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), path
