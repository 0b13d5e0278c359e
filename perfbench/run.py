#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package twice (plain, and with `--features stats`
into a `stats/` subdirectory of the target directory), then runs its modes,
one structure per process:

  --trace 0  five end-to-end passes of `--seconds / 5` each; every
             end-to-end metric is the median over the passes, with
             `peak_rss_mib` the median of the passes' peak resident sets and
             `correct_op_share` the share of all calls the checker passed;
  --trace 1  the traced run, one process per cost-ladder rung, and the event
             counts of the stats build; prints every per-layer metric.

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is the environment header.  Exits non-zero, without a
result line, if a build or a run fails.  See README.md beside this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read-mostly-large", "write-heavy-small", "map-skew-scan")
RUNGS = ("seq", "coarse", "lfbst-pin", "lfbst-guard", "lfbst-map", "sharded1", "elastic1")
PASSES = 5
THREADS = 2
# Every benchmark process is killed once this long has passed since the
# builds finished.
DEADLINE_S = 170


def build(target_dir, features=None):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target_dir]
    if features:
        cmd += ["--features", features]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args, deadline):
    """Runs one mode; returns its JSON report and its peak RSS in MiB."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 reports this child's own peak RSS, not the builds'.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024.0


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment(args, reports):
    cpus = len(os.sched_getaffinity(0))
    git = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
    return {
        "cpus": cpus,
        "threads": THREADS,
        "label": f"{cpus} CPUs; scaling beyond {cpus} threads unmeasured",
        "git_rev": git,
        "rustc": command_output(["rustc", "-V"]),
        "l2_bytes": command_output(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": command_output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "lfbst_stats_compiled": sorted({r["stats_compiled"] for r in reports}),
        "info": [r["info"] for r in reports if r["info"]],
    }


def end_to_end(plain, common, seconds, deadline):
    reports, rss = [], []
    for p in range(PASSES):
        report, peak = run(plain, ["e2e", *common, "--seconds", repr(seconds / PASSES),
                                   "--pass", str(p)], deadline)
        reports.append(report)
        rss.append(peak)
    metrics = {}
    for name, first in reports[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    metrics["peak_rss_mib"] = {"value": statistics.median(rss), "unit": "MiB"}
    return reports, metrics


def per_layer(plain, stats, common, seconds, deadline):
    reports = [run(plain, ["trace", *common, "--seconds", repr(seconds)], deadline)[0]]
    for rung in RUNGS:
        reports.append(run(plain, ["rung", *common, "--seconds", repr(seconds),
                                   "--rung", rung], deadline)[0])
    reports.append(run(stats, ["counts", *common, "--seconds", repr(seconds)], deadline)[0])
    metrics = {}
    for r in reports:
        metrics.update(r["metrics"])
    return reports, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be in (0, 60] and --seed non-negative")

    try:
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
        # Both builds every run, so only the first run of a checkout compiles.
        plain = build(target)
        stats = build(os.path.join(target, "stats"), "stats")
        deadline = time.monotonic() + DEADLINE_S
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.trace:
            reports, metrics = per_layer(plain, stats, common, args.seconds, deadline)
        else:
            reports, metrics = end_to_end(plain, common, args.seconds, deadline)
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if not args.trace:
        metrics["correct_op_share"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    print(json.dumps({"env": environment(args, reports)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
