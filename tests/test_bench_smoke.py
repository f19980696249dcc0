"""The benchmark's workloads (`perfbench/workloads.py`) built with seed 1,
and the first items of each run through their correctness gates, as the
benchmark worker runs them: a change to the flag enumeration, the tangent
spaces, the reduction fibers or the decompositions that breaks a gate
fails here."""

import importlib.util
import pathlib
import sys

import pytest

import cartanquiver

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"
ITEMS = 40


def _load():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load()


@pytest.mark.parametrize("name", ["decomp", "flags", "count"])
def test_first_items_pass_their_gates(name):
    workload = workloads.WORKLOADS[name](cartanquiver, 1)
    checked = 0
    items = workload.pass_items()
    for item in items:
        item.answer = item.run()
        if item.answer is workloads.NO_ITEM:
            continue
        item.value = item.check(item.answer)
        checked += 1
        if checked == ITEMS:
            break
    items.close()
    assert checked == ITEMS
