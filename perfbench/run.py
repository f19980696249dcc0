"""Benchmark of the cartanquiver library: one workload, one seed, one result.

    python3 perfbench/run.py --workload decomp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
Workloads (see BENCHMARK.json and layers.json):

  decomp  canonical decompositions of small rank vectors (gendecomp, homext)
  flags   tangent dimensions and reduction fibers at flag points (flagvar)
  count   point counts of flag varieties over several primes (flagvar)

An item is one user-visible query; a pass runs the workload's items once,
in a fixed order, in a closed loop with one caller.  --trace 0 measures the
end-to-end metrics in one worker process that makes round(--seconds / pass
time) passes; the library's candidate cache is emptied before each pass, so
every pass starts cold as a CLI call does.  A shared host's speed can
drift by up to a factor of two for minutes at a time, so every item time
is put at a reference speed with a kernel timed between items (gauge.py),
and an item's latency is the median of those over the passes; the times
as measured are in the detail line.  Set-up time (process start to inputs
ready) is the median over set-up-only processes, each put at the reference
speed with kernel samples taken just before and after it.  --trace 1
ignores --seconds: it runs one pass untraced and one traced, checks that
both give identical answers, and reports the per-layer metrics of the
traced process (set-up included) and the tracing overhead.  Spans are
written to .bench_out/ in the checkout.

Every answer is checked against an independent reference; a wrong answer
makes the run exit non-zero without a result.  The last line of standard
output is the result object; the line before it holds the run's details
(environment, item counts, tail percentile, error classes).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gauge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIBRARY = ROOT / "src" / "cartanquiver"
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 7          # set-up-only processes per end-to-end run
# an end-to-end run makes round(--seconds / this) passes, so that its work
# is fixed: at --seconds 20, decomp 4, flags 5 and count 4.  On a 2-core
# 2.1 GHz Xeon VM a pass takes about 4, 5 and 4 s at the host's faster
# speed and up to twice that at its slower one.  flags gets 5 passes because
# its tail item sits at the top of a dense plateau of ~5 ms items.
PASS_SECONDS = {"decomp": 5.0, "flags": 4.0, "count": 5.0}
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def spawn(args, timeout):
    """Run one worker; return (seconds until its inputs were ready, result).

    The worker's standard error passes through; it is killed at `timeout`.
    """
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                ready = time.perf_counter() - start
            elif event["event"] == "result":
                result = event
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise ChildFailed(f"worker {' '.join(args)} exited with {code}")
    return ready, result


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(LIBRARY.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "source_sha256": digest.hexdigest()}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies):
    """Latency at the highest percentile with at least ten items beyond it,
    and that percentile; the maximum when there are ten items or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(result):
    """The end-to-end figures of one worker's result, at the reference
    speed and, for the detail line, as measured."""
    latencies = result.pop("latencies_s")
    measured = result.pop("measured_latencies_s")
    tail_s, tail_pct = tail(latencies)
    return {
        **result,
        "p50_ms": 1000 * statistics.median(latencies),
        "tail_ms": 1000 * tail_s, "tail_percentile": tail_pct,
        "measured": {"items_per_s": len(measured) / sum(measured),
                     "item_p50_ms": 1000 * statistics.median(measured),
                     "item_tail_ms": 1000 * tail(measured)[0]},
    }


def setup_time(base, speed):
    """Seconds one set-up-only process takes until its inputs are ready, as
    measured and at the reference speed of `speed`, sampled around it."""
    for _ in range(gauge.WINDOW):
        speed.sample(force=True)
    at = time.perf_counter()
    ready, _ = spawn(base + ["--mode", "setup"], SETUP_TIMEOUT_S)
    for _ in range(gauge.WINDOW):
        speed.sample(force=True)
    return ready, ready * speed.factor(at)


def end_to_end(workload, seed, seconds):
    base = ["--workload", workload, "--seed", str(seed)]
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    speed = gauge.Gauge()
    measured, samples = zip(*(setup_time(base, speed)
                              for _ in range(SETUP_SAMPLES)))
    _, result = spawn(base + ["--passes", str(passes), "--probe"],
                      RUN_TIMEOUT_S)
    result = summarize(result)
    result["measured"]["setup_s"] = statistics.median(measured)
    values = {"items_per_s": result["items_per_s"],
              "item_p50_ms": result["p50_ms"],
              "item_tail_ms": result["tail_ms"],
              "setup_s": statistics.median(samples),
              "peak_rss_mb": result["peak_rss_mb"]}
    return values, result, {"setup_samples_s": samples}


def per_layer(workload, seed):
    base = ["--workload", workload, "--seed", str(seed)]
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    _, plain = spawn(base, RUN_TIMEOUT_S)
    _, traced = spawn(base + ["--trace", "--probe", "--spans-out",
                              str(spans)], RUN_TIMEOUT_S)
    if plain["answers_digest"] != traced["answers_digest"]:
        raise ChildFailed("traced and untraced passes gave different answers")
    values = dict(traced.pop("layers"))
    values["trace.items_per_s"] = traced["items_per_s"]
    values["trace.overhead_items_per_s"] = (traced["items_per_s"]
                                            - plain["items_per_s"])
    values["probe.bad_reduction.failed"] = traced["probe"]["failed"]
    extra = {"untraced_items_per_s": plain["items_per_s"],
             "self_s_by_layer": traced.pop("self_s_by_layer"),
             "spans": traced.pop("spans"),
             "spans_file": str(spans.relative_to(ROOT))}
    return values, summarize(traced), extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("decomp", "flags", "count"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (LIBRARY / "__init__.py").is_file():
        print(f"no library sources at {LIBRARY}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            values, result, extra = per_layer(args.workload, args.seed)
        else:
            values, result, extra = end_to_end(args.workload, args.seed,
                                               args.seconds)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {**environment(), "numpy": result["numpy"]},
        "items": result["items"], "passes": result["passes"],
        "group_checks": result["group_checks"],
        "pass_wall_s": result["pass_wall_s"],
        "speed_factor": result["speed_factor"],
        "gauge_samples": result["gauge_samples"],
        "measured": result["measured"],
        "tail_percentile": result["tail_percentile"],
        "failed_frac": result["failed"] / result["attempted"],
        "error_classes": result["errors"],
        "probe": result["probe"],
        **extra,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
