#!/usr/bin/env python3
"""Steadiness record for the benchmark.

    python3 perfbench/steady.py [--workloads replay,figures,serve] [--seeds 1-10]
                                [--seconds N] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per workload and seed (seconds default to
BENCHMARK.json's run_seconds) and prints, per metric, the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound. `--out` also saves every
run's result line as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if bounds.get(k) is not None), file=sys.stderr, flush=True)
    print(f"| workload | metric | median | Q1 | Q3 | spread | bound | runs |")
    print(f"|---|---|---|---|---|---|---|---|")
    for workload, rs in runs.items():
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | "
                  f"{'' if bound is None else bound} | {len(values)} |")
        print(f"| {workload} | all runs correct | {all(r['correct'] for r in rs)} | | | | | {len(rs)} |")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
