#!/usr/bin/env python3
"""Self-tests of the benchmark itself: determinism and completeness.

    python3 perfbench/selftest.py

- The probe's unit tests pass (request sequence, JSON field reader).
- The same seed gives the same replay job list, corpus and model outputs,
  and another seed changes them.
- One command prints every end-to-end metric of BENCHMARK.json with its
  unit, and a traced run prints every per-layer metric.
- A traced run's deterministic counts repeat exactly for the same seed.

Takes a few minutes; exits 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from harness import HERE, PROBE_MANIFEST, ROOT, build, clean_env, fresh_dir  # noqa: E402
from run import WORKLOADS  # noqa: E402

# Per-layer counts that depend on thread scheduling (figures' two
# workers) or on how many requests a time-bound serve load completed.
UNSTEADY_COUNTS = {"sim.pipeline.peak_live_jobs", "sim.cache.trace_hits", "sim.cache.trace_misses",
                   "sim.cache.run_hits", "sim.cache.disk_writes"}
FAILED = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        FAILED.append(what)


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def replay_pass(bins, seed):
    tmp = fresh_dir(ROOT / ".perfbench-tmp" / f"selftest-{seed}")
    done = subprocess.run([bins / "asd-perfbench", "replay", "--seed", str(seed), "--seconds", "0",
                           "--dir", tmp], capture_output=True, text=True, env=clean_env())
    shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0:
        sys.exit(f"asd-perfbench replay failed:\n{done.stderr}")
    r = json.loads(done.stdout)
    return {k: r[k] for k in ("job_list_digest", "corpus_digest", "model")}, r


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"} - UNSTEADY_COUNTS

    tests = subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path", str(PROBE_MANIFEST)],
                           cwd=ROOT, env=clean_env(), capture_output=True, text=True)
    check(tests.returncode == 0, "probe unit tests pass")

    bins = build()
    a, ra = replay_pass(bins, 7)
    b, _ = replay_pass(bins, 7)
    c, _ = replay_pass(bins, 8)
    check(a == b, "same seed: identical job list, corpus and model outputs")
    check(all(a[k] != c[k] for k in a), "new seed: job list, corpus and model outputs all change")
    check(ra["failed"] == 0, "replay checks pass (replay = generate, passes repeat)")

    # Every workload run.py offers, including any BENCHMARK.json leaves out.
    for workload in WORKLOADS:
        r = bench(workload, 11, 1, 0)
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        check(r["correct"] and got == end_to_end, f"{workload}: untraced run prints every end-to-end metric")
        t1 = bench(workload, 11, 1, 1)
        got = {k: v["unit"] for k, v in t1["metrics"].items()}
        check(t1["correct"] and got == per_layer, f"{workload}: traced run prints every per-layer metric")
        t2 = bench(workload, 11, 1, 1)
        same = {k for k in counts if t1["metrics"][k]["value"] == t2["metrics"][k]["value"]}
        check(same == counts, f"{workload}: deterministic counts repeat (differ: {sorted(counts - same)})")

    if FAILED:
        sys.exit(f"{len(FAILED)} self-test(s) failed")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
