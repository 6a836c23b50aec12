"""The whole benchmark in one command.

    PYTHONPATH=src python -m benchmarks.perf run [--seed N] [--workload W]
        [--traced] [--aa] [--smoke]
    PYTHONPATH=src python -m benchmarks.perf spread [--workload W]

``run`` executes every workload in a fresh interpreter (``run.py``), first
untraced for the end-to-end metrics, then traced for the per-layer ledger,
and prints every metric with unit, direction and bound.  ``--aa`` runs the
untraced suite twice and fails when two runs of the same code differ by
more than a bound.  A full-size run of the whole suite writes its results,
A/A table and environment stamp to ``baseline.json`` beside this file, under
its seed.  ``spread`` is the steadiness check the benchmark contract asks
for: seeds 1 to 10 per workload, inter-quartile distance over median per
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Dict, Optional

from . import PERF_DIR, REPO_ROOT
from .calibration import CAL_REF_MS
from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from .stats import spread
from .workloads import DEFAULT_SEED, WORKLOADS

BASELINE_PATH = PERF_DIR / "baseline.json"

#: Smoke runs measure for less than ``BENCHMARK.json``'s ``run_seconds``.
SMOKE_SECONDS = 1

#: The seeds ``spread`` runs every workload on.
SPREAD_SEEDS = range(1, 11)

#: The trace overhead compares the traced run's own cost with this metric.
OVERHEAD_BASE = {"replay": "update_us_per_doc", "serve": "server_cpu_us_per_doc"}


def run_once(workload: str, seed: int, seconds: float, trace: int,
             smoke: bool = False) -> dict:
    """One ``run.py`` child; returns its result object plus its info line."""
    command = [sys.executable, str(PERF_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=str(REPO_ROOT),
                               stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload}: no result (exit code {completed.returncode})"
        )
    result = json.loads(lines[-1])
    result["info"] = next(
        (json.loads(line[5:]) for line in lines if line.startswith("info ")),
        {},
    )
    result["run_s"] = time.perf_counter() - started
    result["values"] = {name: entry["value"]
                        for name, entry in result.pop("metrics").items()}
    return result


def environment(seed: int, seconds: float) -> dict:
    """Where and how the numbers were taken."""
    def git(*args: str) -> Optional[str]:
        try:
            return subprocess.run(
                ["git", *args], cwd=str(REPO_ROOT), check=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load_1m = os.getloadavg()[0]
    stamp = {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--", "src")),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()} ({platform.python_compiler()})",
        "cpu_model": cpu_model,
        "usable_cores": len(os.sched_getaffinity(0)),
        "load_average_1m_at_start": load_1m,
        "cal_ref_ms": CAL_REF_MS,
        "seed": seed,
        "run_seconds": seconds,
        "warnings": [],
    }
    if load_1m > 0.5:
        stamp["warnings"].append(
            f"1-minute load average {load_1m:.2f} > 0.5 before the start"
        )
    return stamp


def print_table(title: str, declared, values: Dict[str, float]) -> None:
    print(f"\n{title}")
    for metric in declared:
        value = values[metric.name]
        bound = "" if metric.bound is None else f"  bound {metric.bound:.0%}"
        print(f"  {metric.name:<42} {value:>16.6g} {metric.unit:<11}"
              f" {metric.better} is better{bound}")


def suite(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    stamp = environment(args.seed, seconds)
    for warning in stamp["warnings"]:
        print(f"warning: {warning}")
    recording = not (args.smoke or args.workload or args.traced)
    if recording and stamp["usable_cores"] < 2:
        print("error: refusing to record a baseline on fewer than 2 cores "
              "(the load generator and the server need one each)")
        return 2

    exit_code = 0
    results: Dict[str, dict] = {}
    overhead_pct: Dict[str, float] = {}
    for name in names:
        entry: Dict[str, dict] = {}
        passes = [] if args.traced else ["untraced"]
        if args.aa:
            passes.append("untraced_again")
        passes.append("traced")
        for which in passes:
            outcome = run_once(name, args.seed, seconds,
                               int(which == "traced"), args.smoke)
            entry[which] = outcome
            declared = PER_LAYER if which == "traced" else END_TO_END
            print_table(
                f"{name} [{which}] seed {args.seed}: "
                f"{outcome['attempted']} operations, {outcome['failed']} "
                f"failed, failed_share "
                f"{outcome['failed'] / outcome['attempted']:.6f}; "
                f"{json.dumps(outcome['info'], sort_keys=True)}",
                declared, outcome["values"],
            )
            if not outcome["correct"]:
                print(f"FAILED: {name} [{which}] differs from its reference")
                exit_code = 1
            if outcome["info"].get("valid") is False:
                print(f"INVALID: {name} [{which}] ran with a late generator "
                      "or a growing backlog")
        if "untraced" in entry:
            base = OVERHEAD_BASE[WORKLOADS[name].kind]
            traced = entry["traced"]["values"]["trace.traced_us_per_doc"]
            untraced = entry["untraced"]["values"][base]
            overhead_pct[name] = (traced / untraced - 1.0) * 100.0
            print(f"  trace_overhead_pct {overhead_pct[name]:.2f} "
                  f"(traced {traced:.4g} vs untraced {base} {untraced:.4g})")
        results[name] = entry

    aa_table = []
    if args.aa:
        print("\nA/A: two untraced runs of the same code")
        for name in names:
            first = results[name]["untraced"]
            second = results[name]["untraced_again"]
            for metric in END_TO_END:
                a = first["values"][metric.name]
                b = second["values"][metric.name]
                difference = abs(b - a) / a
                # One pair of runs resolves a change of the bound's size
                # only where the same code differs by less than half of it.
                if difference > metric.bound:
                    verdict = "EXCEEDED"
                elif 2 * difference > metric.bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                aa_table.append({
                    "workload": name, "metric": metric.name,
                    "first": a, "second": b, "difference": difference,
                    "bound": metric.bound, "verdict": verdict,
                    "disturbed_share": [
                        first["info"].get("disturbed_share"),
                        second["info"].get("disturbed_share"),
                    ],
                })
                print(f"  {name:<15} {metric.name:<24} {a:>14.6g} "
                      f"{b:>14.6g}  diff {difference:>7.2%}  bound "
                      f"{metric.bound:.0%}  {verdict}")
                if verdict == "EXCEEDED" and not args.smoke:
                    exit_code = 1

    if recording:
        stamp["workloads"] = {
            name: {which: {"rounds": outcome["info"].get("rounds"),
                           "run_s": outcome["run_s"]}
                   for which, outcome in entry.items()}
            for name, entry in results.items()
        }
        try:
            with open(BASELINE_PATH, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            baseline = {}
        baseline[f"seed_{args.seed}"] = {
            "environment": stamp, "results": results,
            "trace_overhead_pct": overhead_pct, "aa": aa_table,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nrecorded seed {args.seed} in "
              f"{BASELINE_PATH.relative_to(REPO_ROOT)}")
    return exit_code


def spread_check(args) -> int:
    """Ten seeds per workload: is every end-to-end metric steady enough?"""
    names = [args.workload] if args.workload else list(WORKLOADS)
    exit_code = 0
    for name in names:
        runs = [run_once(name, seed, RUN_SECONDS, 0) for seed in SPREAD_SEEDS]
        print(f"\n{name}: seeds {SPREAD_SEEDS[0]}..{SPREAD_SEEDS[-1]}, "
              f"median run {median(r['run_s'] for r in runs):.1f} s, "
              f"failed {sum(r['failed'] for r in runs)}")
        for metric in END_TO_END:
            values = [run["values"][metric.name] for run in runs]
            share = spread(values)
            verdict = "ok" if share <= metric.bound else "TOO WIDE"
            if metric.name != "setup_s" and share > metric.bound:
                exit_code = 1
            print(f"  {metric.name:<24} median {median(values):>14.6g}  "
                  f"spread {share:>7.2%}  bound {metric.bound:.0%}  {verdict}")
            print("    " + " ".join(f"{value:.5g}" for value in values))
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="the suite: metrics and ledger")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    passes = run.add_mutually_exclusive_group()
    passes.add_argument("--traced", action="store_true",
                        help="only the traced pass (the per-layer ledger)")
    passes.add_argument("--aa", action="store_true",
                        help="run the untraced pass twice and compare")
    run.add_argument("--smoke", action="store_true",
                     help="tiny workloads, no bounds: exercises the harness")
    run.set_defaults(handler=suite)
    check = commands.add_parser("spread", help="ten-seed steadiness check")
    check.add_argument("--workload", choices=sorted(WORKLOADS))
    check.set_defaults(handler=spread_check)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
