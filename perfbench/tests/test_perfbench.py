"""Tests of the benchmark itself: its correctness gates, its reference data
and the tracer.  Run from the repository root:

    python -m pytest perfbench/tests
"""

import copy
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cartanquiver  # noqa: E402
import worker as bench_worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(workloads.REFERENCE_FILE.read_text())["decomp"]
RUN_ONLY = {"trace.items_per_s", "trace.overhead_items_per_s",
            "probe.bad_reduction.failed"}


def run_pass(workload):
    """One pass the way the worker runs it, without timing."""
    for item in workload.pass_items():
        item.answer = item.run()
        if item.answer is not workloads.NO_ITEM:
            item.check(item.answer)


def worker(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# --- correctness gates --------------------------------------------------------

def test_corrupted_decomposition_reference_trips_the_gate():
    corrupted = copy.deepcopy(REFERENCE)
    corrupted["A2"]["1,1"] = [[1, 0], [0, 1]]
    workload = workloads.Decomp(cartanquiver, seed=0, reference=corrupted)
    with pytest.raises(workloads.GateError, match="decomp/A2/r11/k1/p2"):
        run_pass(workload)


def test_corrupted_euler_form_trips_the_tangent_gate(monkeypatch):
    workload = workloads.Flags(cartanquiver, seed=0)
    real = workloads.euler
    monkeypatch.setattr(workloads, "euler",
                        lambda *args: real(*args) + 1)
    with pytest.raises(workloads.GateError, match="tangent dimension"):
        run_pass(workload)


def test_corrupted_closed_form_trips_the_count_gate(monkeypatch):
    workload = workloads.Count(cartanquiver, seed=0)
    real = workloads.free_submodules
    monkeypatch.setattr(workloads, "free_submodules",
                        lambda *args: real(*args) + 1)
    with pytest.raises(workloads.GateError, match="closed form"):
        run_pass(workload)


def test_answers_that_change_between_passes_trip_the_gate():
    calls = itertools.count()

    class Drifting(workloads.Workload):
        def pass_items(self):
            yield workloads.Item("drift", lambda: next(calls), lambda x: x)

    with pytest.raises(workloads.GateError, match="between passes"):
        bench_worker.run_passes(Drifting(cartanquiver, 0), 2, 0, None,
                                cartanquiver.errors.CartanQuiverError)


def test_passes_repeat_their_answers_and_keep_each_items_fastest_time():
    args = ["--workload", "count", "--seed", "3", "--max-items", "40"]
    one = worker(*args)
    three = worker(*args, "--passes", "3")
    assert three["passes"] == 3 and three["items"] == one["items"] == 40
    assert three["answers_digest"] == one["answers_digest"]
    assert three["attempted"] == 3 * one["attempted"]
    assert len(three["latencies_s"]) == 40


# --- reference data -----------------------------------------------------------

def positive_real_roots(c, bound):
    """Positive real roots with entries at most `bound`, by reflections."""
    n = len(c)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, todo = set(simple), list(simple)
    while todo:
        alpha = todo.pop()
        for i in range(n):
            pairing = sum(c[i][j] * alpha[j] for j in range(n))
            beta = tuple(a - pairing * (j == i) for j, a in enumerate(alpha))
            if all(0 <= b <= bound for b in beta) and any(beta) \
                    and beta not in roots:
                roots.add(beta)
                todo.append(beta)
    return roots


def is_imaginary_root(c, d, alpha):
    """Rank 2: support on both vertices and non-positive norm."""
    sym = [[d[i] * c[i][j] for j in range(2)] for i in range(2)]
    norm = sum(alpha[i] * sym[i][j] * alpha[j]
               for i in range(2) for j in range(2))
    return all(alpha) and norm <= 0


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_parts_are_roots_summing_to_the_rank(name):
    c, d, _ = workloads.DATA[name]
    real = positive_real_roots(c, 3)
    for rank_text, parts in REFERENCE[name].items():
        rank = tuple(int(x) for x in rank_text.split(","))
        assert tuple(map(sum, zip(*parts))) == rank
        for part in parts:
            assert tuple(part) in real or is_imaginary_root(c, d, part), \
                (name, rank, part)


def test_reference_table_covers_the_workload():
    workload = workloads.Decomp(cartanquiver, seed=0)
    for name, _, _, r in workload.specs:
        assert r in workload.reference[name]


# --- tracing ------------------------------------------------------------------

@pytest.mark.parametrize("name,items", [("decomp", 6), ("flags", 80),
                                        ("count", 60)])
def test_traced_and_untraced_runs_give_identical_answers(name, items):
    args = ["--workload", name, "--seed", "3",
            "--max-items", str(items)]
    plain = worker(*args)
    traced = worker(*args, "--trace")
    assert plain["items"] == traced["items"] == items
    assert plain["answers_digest"] == traced["answers_digest"]


@pytest.mark.parametrize("name,items", [("flags", 80), ("count", 60)])
def test_traced_runs_repeat_their_counts(name, items):
    args = ["--workload", name, "--seed", "4",
            "--max-items", str(items), "--trace"]
    first, second = worker(*args)["layers"], worker(*args)["layers"]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] == "count" and m["name"] not in RUN_ONLY]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert any(first[n] for n in counts)


def test_tracer_reports_every_declared_layer_metric():
    layers = worker("--workload", "decomp", "--seed", "0",
                    "--max-items", "3", "--trace")["layers"]
    declared = {m["name"] for m in SPEC["per_layer"]} - RUN_ONLY
    assert declared == set(layers)


# --- the command --------------------------------------------------------------

def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decomp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
