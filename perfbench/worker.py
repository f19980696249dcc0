"""One benchmark process: set up one workload, run some passes of it, and
print one JSON line per event on standard output.

Started by run.py, once per run, so that peak memory belongs to one workload.
The library's process-wide candidate cache is emptied before every pass, so
each pass starts cold as a CLI call does.  The library is imported from the
`src` directory of the checkout this file lives in.

    python3 perfbench/worker.py --workload flags --seed 1 [--mode setup]
        [--passes N] [--trace] [--probe] [--max-items N] [--spans-out F]

Lines: {"event": "ready"} once set-up is done, then (mode "run") one
{"event": "result", ...} line.  A wrong answer exits with code 3.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXIT_WRONG_ANSWER = 3
EXIT_NO_LIBRARY = 4


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def import_library():
    """Import cartanquiver from this checkout's src, never from elsewhere."""
    if not (SRC / "cartanquiver" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_LIBRARY)
    sys.path.insert(0, str(SRC))
    import cartanquiver

    if Path(cartanquiver.__file__).resolve().parent != SRC / "cartanquiver":
        print(f"cartanquiver imported from {cartanquiver.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_LIBRARY)
    return cartanquiver


def _labelled(items, tracer):
    """Label spans with the current item; group checks that run inside the
    pass generator are labelled "check"."""
    for item in items:
        if tracer is not None:
            tracer.item = item.key
        yield item
        if tracer is not None:
            tracer.item = "check"


def run_pass(workload, max_items, tracer, errors_base, gauge):
    """One pass in a closed loop with one caller: each item is issued after
    the previous answer was checked.  The gauge samples the host's speed
    between items, outside their timings."""
    workload.cq.flagvar._vertex_candidates.cache_clear()
    gc.collect()
    starts, latencies = [], []
    attempted = failed = 0
    errors = collections.Counter()
    digest = hashlib.sha256()
    gauge.sample(force=True)
    start = time.perf_counter()
    for item in _labelled(workload.pass_items(), tracer):
        gauge.sample()
        t0 = time.perf_counter()
        try:
            item.answer = item.run()
        except errors_base as exc:
            item.error = exc
            attempted += 1
            failed += 1
            errors[type(exc).__name__] += 1
        elapsed = time.perf_counter() - t0
        if item.error is None and item.answer is not workloads.NO_ITEM:
            attempted += 1
            item.value = item.check(item.answer)
            starts.append(t0)
            latencies.append(elapsed)
            digest.update(f"{item.key}={item.value!r}\n".encode())
            if len(latencies) == max_items:
                break
    wall = time.perf_counter() - start
    gauge.sample(force=True)
    if tracer is not None:
        tracer.item = "after"
    return {
        "items": len(latencies), "attempted": attempted, "failed": failed,
        "errors": errors, "wall_s": wall, "starts": starts,
        "latencies_s": latencies, "answers_digest": digest.hexdigest(),
    }


def run_passes(workload, passes, max_items, tracer, errors_base):
    """`passes` passes over the same items; every pass must give the same
    answers.  An item's latency is the median over the passes of its time
    at the gauge's reference speed; its measured times are reported too."""
    gauge = Gauge()
    runs = [run_pass(workload, max_items, tracer, errors_base, gauge)
            for _ in range(passes)]
    first = runs[0]
    for other in runs[1:]:
        if other["answers_digest"] != first["answers_digest"]:
            raise workloads.GateError("answers differ between passes")
    scaled = [[t * gauge.factor(at)
               for at, t in zip(r["starts"], r["latencies_s"])] for r in runs]
    latencies = [statistics.median(times) for times in zip(*scaled)]
    measured = [statistics.median(times)
                for times in zip(*(r["latencies_s"] for r in runs))]
    errors = sum((r["errors"] for r in runs), collections.Counter())
    return {
        "items": len(latencies), "passes": passes,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": dict(errors),
        "pass_wall_s": [r["wall_s"] for r in runs],
        "speed_factor": gauge.median_factor(),
        "gauge_samples": len(gauge.durations),
        "items_per_s": len(latencies) / sum(latencies),
        "latencies_s": latencies,
        "measured_latencies_s": measured,
        "answers_digest": first["answers_digest"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="also run the workload's known-defect probe")
    parser.add_argument("--max-items", type=int, default=0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    cq = import_library()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(cq)
        tracer.install()
    try:
        workload = workloads.WORKLOADS[args.workload](cq, args.seed)
    except workloads.SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    emit({"event": "ready"})
    if args.mode == "setup":
        return 0
    try:
        result = run_passes(workload, args.passes, args.max_items, tracer,
                            cq.errors.CartanQuiverError)
    except workloads.GateError as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return EXIT_WRONG_ANSWER
    result["group_checks"] = workload.group_checks
    result["numpy"] = sys.modules["numpy"].__version__
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(
            cq.flagvar._vertex_candidates.cache_info())
        result["self_s_by_layer"] = tracer.self_time_by_layer()
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    if args.probe:
        result["probe"] = workload.probe()
    emit({"event": "result", **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
