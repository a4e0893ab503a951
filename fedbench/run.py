#!/usr/bin/env python3
"""Federation benchmark: three workloads timed end to end, traced per layer.

Run from the repository root:

  python3 fedbench/run.py --workload device_covtype --seed 1 --trace 0
  python3 fedbench/run.py --workload robust_mnist --seed 1 --trace 1
  python3 fedbench/run.py --check

The first call configures and builds the fedbench binary (Release) under
.bench_build/. Every federation run is a fresh fedbench process.

--trace 0 repeats untraced runs of the workload until --seconds have passed
(the last run started is completed) and reports the end-to-end metrics over
the runs: loop timings as means, set-up time and memory as medians.
--trace 1 makes one untraced and one traced run and reports the per-layer
metrics of the traced run, plus the tracing overhead. Both check the outputs
and print, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. Attempts are rounds: a round that misses quorum fails, and
so does every round of a run that aborts, misses its target or fails a check.
A run that aborts ends the measurement; the result then carries the metrics
of the runs before it, if any. A failed check or an aborted run sets correct
to false and exits with status 1.

--check runs every workload for a few rounds in both modes and applies every
check that does not need a full run (the target and the accuracy floor need
one). It exits with status 1 if any check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "fedbench"
OUT = ROOT / ".bench_build" / "fedbench-out"
BINARY = BUILD / "fedbench"
WORKLOADS = ("silo_cifar", "device_covtype", "robust_mnist")
CHECK_ROUNDS = {"silo_cifar": 3, "device_covtype": 20, "robust_mnist": 10}
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_target_s": "s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "updates_per_s": "1/s",
    "cpu_ms_per_update": "ms",
    "final_accuracy": "fraction",
    "delivered_share": "fraction",
    "peak_rss_mb": "MB",
}
COUNTERS = ("sampled", "unavailable", "dropped", "crashed", "straggled",
            "rejected", "poisoned", "aggregated", "resample_retries",
            "bytes_uplink")


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "fedbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(ROOT / "fedbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "fedbench",
         "-j", jobs],
    ]
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed, see {build_log}")


def parse_json(line):
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return None


def run_binary(args, deadline):
    """One fedbench process. Returns its plan, the JSON object it prints
    first, and its result, the one it prints last. Either is None if it is
    missing; the result is also None if the process failed or timed out."""
    remaining = deadline - time.monotonic()
    if remaining < 5:
        log(f"no time left to run fedbench {' '.join(args)}")
        return None, None
    failure = None
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, timeout=remaining, cwd=ROOT)
        stdout = proc.stdout
        if proc.returncode != 0:
            failure = f"failed ({proc.returncode})\n{proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired as expired:
        stdout = expired.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        failure = "timed out"
    lines = stdout.strip().splitlines()
    plan = parse_json(lines[0]) if lines else None
    result = parse_json(lines[-1]) if len(lines) > 1 else None
    if plan is not None and plan["build_type"] != "Release":
        raise BenchError(f"refusing a {plan['build_type']} build: "
                         "numbers come from Release builds only")
    if failure is None and result is None:
        failure = "printed no result"
    if failure is not None:
        log(f"fedbench {' '.join(args)}: {failure}")
        return plan, None
    return plan, result


def tail(values):
    """The value at the highest percentile with at least ten values beyond
    it, that percentile, and the sample count (the maximum, as the 100th
    percentile, when there are fewer than eleven values)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def check_run(run, full):
    """Failed checks of one fedbench run."""
    problems = []
    if run["conservation_violations"]:
        problems.append(f"{run['conservation_violations']} rounds where "
                        "sampled != unavailable+dropped+crashed+rejected+"
                        "aggregated")
    if run["checkpoint_every"] > 0:
        if not run["checkpoints_ok"]:
            problems.append("SaveCheckpoint failed")
        if not run.get("checkpoint_reload_ok"):
            problems.append("reloaded checkpoint differs from live state")
    if run.get("replay_decode_failures"):
        problems.append("codec replay failed to decode")
    if full:
        if run["time_to_target_s"] < 0:
            problems.append(f"target {run['target_accuracy']} not reached")
        if run["final_accuracy"] < run["accuracy_floor"]:
            problems.append(f"final accuracy {run['final_accuracy']:.4f} "
                            f"below floor {run['accuracy_floor']}")
    return problems


def check_same(runs):
    """Failed checks across runs of one seed: results must repeat exactly."""
    problems = []
    first = runs[0] if runs else None
    for run in runs[1:]:
        if run["digest"] != first["digest"]:
            problems.append(f"{run['mode']} run's final state {run['digest']} "
                            f"!= {first['mode']} run's {first['digest']}")
        if run["counts"] != first["counts"]:
            problems.append(f"{run['mode']} run's round counts differ")
        if run["eval_accuracy"] != first["eval_accuracy"]:
            problems.append(f"{run['mode']} run's accuracy curve differs")
    return problems


def end_to_end(runs):
    """The end-to-end metrics over the runs of one invocation. Loop timings
    are means over the runs: a run's speed follows the machine's state while
    it ran, which flips between a fast and a slow one, and the median of such
    a two-state sample jumps between the states where the mean moves with the
    share of slow runs. Set-up time and memory are medians."""
    tails = [tail(run["round_ms"]) for run in runs]
    counts = runs[0]["counts"]

    def median(values):
        return statistics.median(list(values))

    def mean(values):
        return statistics.fmean(list(values))

    metrics = {
        "setup_s": median(run["setup_s"] for run in runs),
        "time_to_target_s": mean(run["time_to_target_s"] for run in runs),
        "round_ms_p50": mean(median(run["round_ms"]) for run in runs),
        "round_ms_tail": mean(t[0] for t in tails),
        "updates_per_s": mean(run["counts"]["trained"] / run["loop_s"]
                              for run in runs),
        "cpu_ms_per_update": mean(1e3 * run["cpu_s"] /
                                  run["counts"]["trained"] for run in runs),
        "final_accuracy": runs[0]["final_accuracy"],
        "delivered_share": counts["aggregated"] / counts["sampled"],
        "peak_rss_mb": median(run["peak_rss_mb"] for run in runs),
    }
    notes = {"round_ms_tail": f"p{tails[0][1]:.1f} over {tails[0][2]} rounds "
                              f"per run, mean of {len(runs)} runs"}
    return ({name: {"value": value, "unit": END_TO_END_UNITS[name]}
             for name, value in metrics.items()}, notes)


def per_layer(timed, traced):
    metrics = dict(traced["layers"])
    for name in COUNTERS:
        metrics["fl." + name] = {
            "value": traced["counts"][name],
            "unit": "bytes" if name == "bytes_uplink" else "count"}
    replays = traced["replay_s"] + traced["record_s"]
    metrics["trace.overhead_share"] = {
        "value": (traced["loop_s"] - replays) / timed["loop_s"] - 1,
        "unit": "fraction"}
    return metrics


def provenance(plan, seed, loadavg):
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "build_type": plan.get("build_type", "unknown"),
        "compiler": plan.get("compiler", "unknown"),
        "nproc": os.cpu_count(),
        "worker_threads": plan.get("threads", "unknown"),
        "seed": seed,
        "loadavg_at_start": list(loadavg),
    }


def measure(workload, seed, seconds, trace, loadavg):
    """One benchmark run; returns (correct, attempted, failed, metrics)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = [f"--workload={workload}", f"--seed={seed}", f"--out_dir={OUT}"]
    runs = []
    problems = []
    attempted = failed = 0
    plan = {}  # the last plan a run announced; runs differ only in mode
    start = time.monotonic()
    while True:
        mode = "traced" if trace and runs else "timed"
        announced, run = run_binary(common + [f"--mode={mode}"], deadline)
        plan = announced or plan
        if run is None:
            problems.append(f"a {mode} run aborted")
            attempted += plan.get("rounds", 1)
            failed += plan.get("rounds", 1)
            break
        run_problems = check_run(run, full=True)
        problems += run_problems
        attempted += run["rounds"]
        failed += run["rounds"] if run_problems else run["failed_rounds"]
        runs.append(run)
        done = len(runs) == 2 if trace else (
            time.monotonic() - start >= seconds)
        if done:
            break
    problems += check_same(runs)
    metrics, notes = {}, {}
    if trace and len(runs) == 2:
        metrics = per_layer(runs[0], runs[1])
        notes = {"trace.overhead_share": f"{runs[1]['spans']:.0f} spans in "
                                         f"{runs[1]['trace_file']}"}
    elif not trace and runs:
        metrics, notes = end_to_end(runs)
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "provenance": provenance(plan, seed, loadavg),
              "metrics": metrics, "notes": notes, "problems": problems,
              "runs": [{k: v for k, v in run.items() if k != "layers"}
                       for run in runs]}
    record_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload}: {len(runs)} run(s), record {record_path}")
    print("provenance " + json.dumps(record["provenance"]))
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return not problems, attempted, failed, metrics


def self_check():
    """Few-round runs of every workload in both modes; True if all pass."""
    ok = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + RUN_LIMIT_S
        args = [f"--workload={workload}", "--seed=1", f"--out_dir={OUT}",
                f"--rounds={CHECK_ROUNDS[workload]}"]
        runs = [run_binary(args + [f"--mode={mode}"], deadline)[1]
                for mode in ("timed", "traced")]
        if None in runs:
            print(f"{workload}: CHECK FAILED: a run aborted")
            ok = False
            continue
        problems = check_same(runs)
        for run in runs:
            problems += check_run(run, full=False)
        metrics = per_layer(runs[0], runs[1])
        metrics.update(end_to_end(runs[:1])[0])
        problems += [f"metric {name} is not finite"
                     for name, metric in metrics.items()
                     if not math.isfinite(metric["value"])]
        print(f"{workload}: {len(metrics)} metrics, "
              f"digest {runs[0]['digest']}, "
              + ("ok" if not problems else "CHECK FAILED"))
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="few-round self-test of every check")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")
    loadavg = os.getloadavg()
    try:
        build()
        if args.check:
            return 0 if self_check() else 1
        correct, attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, args.trace, loadavg)
    except BenchError as error:
        log(f"fedbench: {error}")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
