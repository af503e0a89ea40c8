#!/usr/bin/env python3
"""Steadiness check for the live-runtime benchmark.

Runs each workload N times with different seeds and reports, for every
metric, the median, the first and third quartiles and their distance as a
share of the median (the spread), next to the bound BENCHMARK.json gives
the metric. It also reports the host's CPU steal during each run (the
benchmark reads it from /proc/stat and prints it in its summary), and the
share of failed operations.

With --sets 2 it runs two sets back to back and reports how far the
second set's median moved from the first, in the metric's worse
direction: that is how two sets of runs of the same code are compared.

Run from the repository root:

    python3 livebench/steady.py --runs 10 --sets 2
    python3 livebench/steady.py --workloads hub --runs 5 --first-seed 100
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def steal_pct(stderr):
    """The host CPU steal the run itself reports (read from /proc/stat)."""
    m = re.search(r"host CPU steal during the run: ([0-9.]+)%", stderr)
    return float(m.group(1)) if m else float("nan")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the benchmark judges them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        check=True, env=env, cwd=ROOT)
    return os.path.join(target_dir, "release", "teechain-livebench")


def run_once(binary, workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, steal_pct(proc.stderr), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--target-dir", default=os.environ.get(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bound = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}

    binary = build(args.target_dir)
    ok = True
    for w in workloads:
        sets = []
        seed = args.first_seed
        for s in range(args.sets):
            values, shares = {}, []
            for _ in range(args.runs):
                result, steal, wall = run_once(binary, w, seed, seconds, args.trace)
                shares.append(result["failed"] / result["attempted"])
                line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{w} set {s + 1} seed {seed}: steal {steal:.2f}% wall {wall:.1f}s "
                      f"failed {result['failed']}/{result['attempted']} {line}", flush=True)
                for k, v in result["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                seed += 1
            sets.append((values, shares))
        print(f"\n== {w}: {args.runs} runs x {args.sets} set(s), {seconds} s each")
        print(f"{'metric':<28}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for name in sets[0][0]:
            for s, (values, _) in enumerate(sets):
                med, q1, q3, sp = spread(values[name])
                b = bound.get(name)
                flag = ""
                if b is not None and sp > b:
                    flag, ok = "  SPREAD > BOUND", False
                elif b is not None and sp > b / 3:
                    flag = "  spread > bound/3"
                bs = f"{b:.2f}" if b is not None else "-"
                print(f"{name:<28}{s + 1:>4}{med:>14.5g}{q1:>14.5g}{q3:>14.5g}{sp:>9.3f}{bs:>8}{flag}")
            if len(sets) == 2 and bound.get(name) is not None:
                m1 = statistics.median(sets[0][0][name])
                m2 = statistics.median(sets[1][0][name])
                worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
                verdict = "ok" if worse <= bound[name] else "WORSE THAN BOUND"
                if worse > bound[name]:
                    ok = False
                print(f"{'':<28}second median moved {worse:+.3f} in the worse direction: {verdict}")
        shares = [sorted(set(sh)) for _, sh in sets]
        print(f"failed share per run: {shares}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
