"""Guards of the benchmark contract.  The tracer patches library functions
by name: every path in `perfbench/tracing.TRACED` must name an entry of its
owner's `__dict__`, as `Tracer.install` looks it up.  The worker empties the
one process-wide cache before each pass, so that no other may exist."""

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

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


def _library_modules():
    return [importlib.import_module(f"cartanquiver.{info.name}")
            for info in pkgutil.iter_modules(cartanquiver.__path__)]


def test_candidate_cache_controls():
    # the benchmark worker empties this cache before every pass and reads
    # its statistics
    cache = cartanquiver.flagvar._vertex_candidates
    assert callable(cache.cache_clear) and callable(cache.cache_info)


def test_no_other_process_wide_cache():
    """Only the candidate tables persist between calls: any other cache
    with a cache_clear would stay warm across benchmark passes."""
    found = []
    for module in _library_modules():
        owners = [(module.__name__, vars(module))]
        owners += [(f"{module.__name__}.{name}", vars(obj))
                   for name, obj in vars(module).items()
                   if inspect.isclass(obj)
                   and obj.__module__ == module.__name__]
        for owner, namespace in owners:
            found += [f"{owner}.{name}" for name, obj in namespace.items()
                      if hasattr(obj, "cache_clear")]
    assert found == ["cartanquiver.flagvar._vertex_candidates"]
