"""Run the mutation catalogue `mutants.json`: each mutant must be caught by
the tests it names.

    python3 tests/run_mutants.py [NAME ...]

Run from anywhere; with no NAME every mutant runs.  A mutant replaces one
snippet, which occurs exactly once in its file, in a temporary copy of
`src`, `tests` and `pyproject.toml`, never in the working tree.  The
mutants run one after another, each in one pytest process over its named
tests only.  A mutant is caught when every named test fails (for a
parametrised test, at least one of its cases).  Prints one line per
mutant and exits non-zero when one is missed.

pytest does not collect this script; `test_mutants.py` checks the
catalogue itself: every snippet occurs once and every named test exists.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tests" / "mutants.json"
OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)")


def load() -> list[dict]:
    return json.loads(CATALOGUE.read_text())


def _failed(test: str, outcomes: dict) -> bool:
    """Whether the node id `test` failed: it, or one of its parametrised
    cases test[...], has a FAILED or ERROR outcome."""
    return any(state != "PASSED" for node, state in outcomes.items()
               if node == test or node.startswith(test + "["))


def run(mutant: dict) -> tuple[bool, list[str], float]:
    """(caught, the named tests that did not fail, seconds) of one mutant
    in a fresh copy of the tree."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant["file"]
        text = target.read_text()
        if text.count(mutant["snippet"]) != 1:
            raise SystemExit(f"{mutant['name']}: the snippet does not occur "
                             f"exactly once in {mutant['file']}")
        target.write_text(text.replace(mutant["snippet"],
                                       mutant["replacement"]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p",
             "no:cacheprovider", *mutant["tests"]],
            cwd=copy, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(copy / "src")))
    outcomes = {}
    for line in proc.stdout.splitlines():
        match = OUTCOME.match(line)
        if match:
            outcomes[match[2]] = match[1]
    missed = [t for t in mutant["tests"] if not _failed(t, outcomes)]
    return not missed, missed, time.perf_counter() - start


def main(names: list[str]) -> int:
    mutants = load()
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    missed = 0
    start = time.perf_counter()
    for mutant in mutants:
        if names and mutant["name"] not in names:
            continue
        caught, survivors, seconds = run(mutant)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED'}  {mutant['name']}  "
              f"({seconds:.1f} s)", flush=True)
        for test in survivors:
            print(f"    passed: {test}", flush=True)
    print(f"{missed} missed, {time.perf_counter() - start:.1f} s in all")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
