#!/usr/bin/env python3
"""Served-path benchmark: builds the driver from this checkout and runs one
workload.

    python3 servebench/run.py --workload paper30_batch --seed 1 \
        --seconds 2 --trace 0

Runs the timed, untraced pass, then the check pass (with --trace 1 also the
traced replay) in processes of their own, and prints the run record and, as
the last line, the result JSON.  Exits non-zero when a correctness gate
fails or the build does.  See servebench/NOTES.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
DRIVER = os.path.join(BUILD, "servebench_driver")
WORKLOADS = ("paper30_batch", "flat320_sampler", "cells2k_churn")
TIMEOUT_S = 170


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; the build is incremental."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "servebench_driver",
              "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            return False
    return True


def driver_env():
    env = dict(os.environ)
    # One worker-less pool: the 4-worker candidate scan is slower and noisier.
    env["VCOPT_THREADS"] = "1"
    for var in ("VCOPT_METRICS", "VCOPT_TRACE", "VCOPT_TIMESERIES"):
        env.pop(var, None)
    return env


def run_driver(args):
    r = subprocess.run([DRIVER] + args, cwd=ROOT, env=driver_env(),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=TIMEOUT_S)
    if r.stderr:
        sys.stderr.write(r.stderr[-4000:])
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver {args[0]} printed nothing (exit {r.returncode})")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short warm-up and one set-up: exercises every gate "
                         "quickly, measures nothing meaningful")
    a = ap.parse_args(argv)

    if not build():
        log("build failed")
        return 2
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.smoke:
        common += ["--warmup", "300", "--quality", "200", "--repeats", "1"]
    serve = run_driver(["serve"] + common + ["--seconds", str(a.seconds)])
    if "error" in serve:
        print(json.dumps({"run_record": serve}, sort_keys=True))
        log("serve pass failed: " + serve["error"])
        return 1
    spans = os.path.join(BUILD, f"spans-{a.workload}.csv")
    check = run_driver(
        ["check"] + common +
        ["--requests", str(int(serve["requests_served"])),
         "--journal-bytes", str(int(serve["journal"]["bytes"])),
         "--journal-hash", serve["journal"]["hash"],
         "--trace", str(a.trace),
         "--untraced-us", repr(serve["untraced_us_per_decision"]),
         "--spans-out", spans if a.trace else ""])
    if "error" in check:
        print(json.dumps({"run_record": check}, sort_keys=True))
        log("check pass failed: " + check["error"])
        return 1
    correct = bool(serve["correct"]) and bool(check["correct"])

    record = {
        "workload": a.workload,
        "seed": a.seed,
        "heldout_seed": a.seed + 1_000_003,
        "seconds": a.seconds,
        "trace": a.trace,
        "nproc": os.cpu_count(),
        "pool_workers": serve["pool_workers"],
        "pinned_threads_env": driver_env()["VCOPT_THREADS"],
        "threads_peak": serve["threads_peak"],
        "build_type": serve["build_type"],
        "compiler": serve["compiler"],
        "probe": serve["probe"],
        "setup_probe": serve["setup_probe"],
        "corrected": serve["metrics"],
        "raw": serve["raw"],
        "setup_s_runs": serve["setup_s_runs"],
        "setup_s_raw_runs": serve["setup_s_raw_runs"],
        "decide_samples": serve["decide_samples"],
        "beyond_p99": serve["beyond_p99"],
        "deciding_calls": serve["deciding_calls"],
        "requests_served": serve["requests_served"],
        "timed_wall_s": serve["timed_wall_s"],
        "phases": {"serve": serve["phases"], "check": check["phases"]},
        "gates": {**serve["gates"], **check["gates"]},
        "check_counts": check["counts"],
    }
    if a.trace:
        record["trace"] = check["trace"]
        record["spans_csv"] = os.path.relpath(spans, ROOT)
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    path = os.path.join(BUILD, "records",
                        f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"run_record": record}, sort_keys=True))

    metrics = check["layers"] if a.trace else serve["metrics"]
    result = {"correct": correct,
              "attempted": int(serve["attempted"]),
              "failed": int(serve["failed"]),
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    if not correct:
        log("correctness gate failed: " + json.dumps(record["gates"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
