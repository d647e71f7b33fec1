#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command several times per workload, each time with
another seed, and prints for every end-to-end metric the median and the
interquartile range as a share of the median, against the metric's bound.
With --determinism it instead runs each workload twice on one seed and
requires identical digests and radio metrics.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload serve_multitenant
    python3 perfbench/steady.py --determinism

Run from the repository root. Exits non-zero if a spread exceeds a third of
its bound (the target; the bound itself is the acceptance limit), or a
determinism check fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

FIRST_SEED = 1
DIGEST = re.compile(r"digest ([0-9a-f]{16}) over")


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    digest = DIGEST.search(proc.stdout)
    return result, (digest.group(1) if digest else None), wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--same-seed", action="store_true",
                    help="repeat the first seed instead of stepping it (run-to-run noise)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True

    if args.determinism:
        radio = [m for m in bounds if m.startswith("radio_") or m.startswith("sim_")]
        for w in workloads:
            (a, da, _), (b, db, _) = (run_once(spec, w, FIRST_SEED, 0) for _ in range(2))
            same = da == db and all(a["metrics"][m] == b["metrics"][m] for m in radio)
            ok &= same and a["correct"] and b["correct"]
            print(f"{w}: digests {da} {db}, radio metrics {'identical' if same else 'DIFFER'}")
        return 0 if ok else 1

    for w in workloads:
        results = []
        for k in range(args.runs):
            seed = FIRST_SEED + (0 if args.same_seed else k)
            res, digest, wall = run_once(spec, w, seed, 0)
            results.append(res)
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} digest={digest} wall={wall:.1f}s", flush=True)
            ok &= res["correct"] and res["failed"] == 0
        print(f"{w}: {args.runs} runs")
        print(f"  {'metric':<28} {'median':>14} {'iqr/median':>11} {'bound':>7}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            verdict = "ok" if rel <= bound / 3 else ("within bound" if rel <= bound else "OVER")
            ok &= rel <= bound / 3
            print(f"  {name:<28} {med:>14.6g} {rel:>11.4f} {bound:>7.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
