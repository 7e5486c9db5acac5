#!/usr/bin/env python3
"""Steadiness check: runs one or more workloads on several seeds and prints,
for every end-to-end metric, the median and the spread (interquartile range
as a share of the median, quartiles as statistics.quantiles(n=4) gives
them), host-corrected and raw side by side, against the metric's bound.

    python3 servebench/steady.py --seeds 1-10 [--workload NAME ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, IQR / median) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {r.returncode}")
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--workload", action="append",
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in workloads:
        rows = [run_once(w, s, a.seconds) for s in seed_list(a.seeds)]
        print(f"{w}  ({len(rows)} seeds)")
        for name, bound in bounds.items():
            corr = [res["metrics"][name]["value"] for _, res in rows]
            med, sp = spread(corr)
            line = f"  {name:16s} median {med:12.4f}  spread {sp:6.2%}"
            if name in rows[0][0]["raw"]:
                raw = [rec["raw"][name]["value"] for rec, _ in rows]
                rmed, rsp = spread(raw)
                line += f"  raw median {rmed:12.4f} spread {rsp:6.2%}"
            line += f"  bound {bound:.0%}"
            if name != "setup_s":
                worst = max(worst, sp / bound)
            print(line, flush=True)
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
