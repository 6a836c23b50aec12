"""Run one workload of the benchmark and print its metrics.

    python3 benchmarks/perf/run.py --workload replay_tweets --seed 43 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  The lines before
it say how the numbers were obtained (rounds, samples, raw and observed
calibration values).  Exit code 1 when an output differed from the
reference; the metrics are printed all the same.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from pathlib import Path
from statistics import median

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def bootstrap() -> None:
    """Pin the hash seed and make ``repro`` and this package importable.

    String hashing decides set iteration order and dict collisions, so the
    interpreter is re-executed with ``PYTHONHASHSEED=0`` when it was started
    without.  Run as a script, ``sys.path[0]`` is this directory, whose
    module names must not shadow anything; it is replaced by the repo root.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {REPO_ROOT / 'src/repro'} "
                         "is missing")
    if sys.path and Path(sys.path[0] or ".").resolve() == PERF_DIR:
        sys.path.pop(0)
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]


def timed_setups(build, discard, repeats: int, kernel):
    """Run ``build(pulse)`` ``repeats`` times; keep the last product.

    Returns ``(product, setup_s)``: ``setup_s`` is the median of the
    speed-normalised set-up times (``build`` calls ``pulse`` as it goes, see
    ``calibration.Stopwatch``).  ``discard`` releases a product that is not
    kept — a booted server must be stopped — also when a later set-up fails
    or is interrupted.
    """
    from benchmarks.perf.calibration import Stopwatch

    times = []
    product = None
    try:
        for _ in range(repeats):
            if product is not None:
                discard(product)
                product = None
            stopwatch = Stopwatch(kernel)
            product = build(stopwatch.pulse)
            times.append(stopwatch.stop())
    except BaseException:
        if product is not None:
            discard(product)
        raise
    return product, median(times)


def run_replay(workload, args, kernel) -> dict:
    from benchmarks.perf import OUT_DIR, replay

    inputs, setup_s = timed_setups(
        lambda pulse: replay.prepare(workload, args.seed, args.smoke, pulse),
        lambda product: None,
        args.setups, kernel,
    )
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        outcome = replay.measure_traced(
            workload, inputs, args.seconds, kernel,
            OUT_DIR / f"{workload.name}.trace.json",
        )
    else:
        outcome = replay.measure(workload, inputs, args.seconds, kernel)
        outcome["metrics"]["setup_s"] = setup_s
        outcome["metrics"]["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome


def run_serve(args, kernel) -> dict:
    from benchmarks.perf import serve

    def build(pulse):
        inputs = serve.prepare(args.seed, args.seconds, pulse)
        server = serve.Server(traced=bool(args.trace))
        server.start()
        return inputs, server

    inputs, server = None, None
    try:
        (inputs, server), setup_s = timed_setups(
            build, lambda built: built[1].close(), args.setups, kernel
        )
        if args.trace:
            return serve.measure_traced(inputs, server)
        outcome = serve.measure(inputs, server)
        outcome["metrics"]["setup_s"] = setup_s
        return outcome
    finally:
        if server is not None:
            server.close()


def main(argv=None) -> int:
    bootstrap()
    from benchmarks.perf.calibration import Kernel
    from benchmarks.perf.metrics import (
        END_TO_END, PER_LAYER, RUN_SECONDS, zero_filled,
    )
    from benchmarks.perf.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer ledger")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up: exercises the harness")
    args = parser.parse_args(argv)
    args.setups = 1 if args.smoke else SETUP_REPEATS

    # SIGTERM unwinds like Ctrl-C, so the server, its directory and any
    # shard threads are torn down on every exit path.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    kernel = Kernel()
    outcome = run_serve(args, kernel) if workload.kind == "serve" \
        else run_replay(workload, args, kernel)

    if args.trace:
        declared, values = PER_LAYER, zero_filled(outcome["metrics"])
    else:
        declared, values = END_TO_END, outcome["metrics"]
    correct = outcome["failed"] == 0
    print("info " + json.dumps(outcome["info"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
