#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload replay|figures|serve --seed N --seconds S --trace 0|1

Builds `figures`, `asd-serve` and the probe package from source, runs one
workload for S seconds, checks the program's outputs, and prints as its
last stdout line one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import sys
import time
import traceback

from harness import (ROOT, Child, Daemon, Spans, build, clean_env, fresh_dir, median, per_job_median,
                     percentile, run_probe, scales)

FIGURES = ["fig2", "fig3", "fig5", "fig8", "fig6", "fig9", "fig7", "fig10", "fig11", "fig12",
           "fig13", "fig14", "fig15", "fig16", "cost", "sched", "arena", "telemetry", "ablations", "smt"]
# Text each figure's stdout section contains, in catalog order.
FIGURE_MARKERS = {**{f: f"Figure {f[3:]}:" for f in FIGURES if f.startswith("fig")},
                  "cost": "Hardware cost", "sched": "Scheduler interaction", "arena": "Arena:",
                  "telemetry": "Telemetry walkthrough", "ablations": "processor-side engine",
                  "smt": "SMT results"}
# Cores available; the figures pipeline runs one worker per core, and
# calibration samples run on each of them.
HOST_THREADS = len(os.sched_getaffinity(0))
# Calibration samples (about 0.5 ms each) per calibration.
CAL_SAMPLES = 200
SERVE_CONNS = 2
SERVE_SETUP_REPS = 3
PING_EVERY_MS = 20
BLOCK_REQUESTS = 1000
# Load length of the short serve session a traced replay or figures run
# makes so it can report the serve layer too.
SERVE_PROBE_SECONDS = 3
CLK_TCK = os.sysconf("SC_CLK_TCK")


def calibrate(run):
    """A calibration sample taken on every core at once:
    {"cal_ms": its time, "cal_nominal_ms": the kernel's nominal time}."""
    answer, _ = run_probe(run.bins, ["calibrate", "--threads", HOST_THREADS, "--samples", CAL_SAMPLES],
                          run.tmp)
    return answer


class Run:
    """One benchmark run: its arguments, built binaries, scratch directory,
    spans and the tally of checked operations."""

    def __init__(self, args, bins, tmp):
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = args.trace == 1
        self.bins = bins
        self.tmp = tmp
        self.spans = Spans(self.traced)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def absorb(self, answer):
        """Count a probe's own attempted/failed operations."""
        self.attempted += answer["attempted"]
        self.failed += answer["failed"]
        self.failures += answer["failures"]

    def spans_file(self, name):
        return self.tmp / f"spans-{name}.jsonl" if self.traced else None


# ---------------------------------------------------------------- replay

def replay(run, seconds, layers):
    spans_file = run.spans_file("replay")
    args = ["replay", "--seed", run.seed, "--seconds", seconds, "--dir", fresh_dir(run.tmp / "replay")]
    if layers:
        args += ["--layers", "1"]
    if spans_file:
        args += ["--spans", spans_file]
    s = run.spans.open("replay.process")
    r, child = run_probe(run.bins, args, run.tmp)
    run.spans.close(s)
    run.spans.adopt(spans_file, s)
    run.absorb(r)
    shutil.rmtree(run.tmp / "replay", ignore_errors=True)
    # Calibrate each execution by the measurements taken before and after
    # its group of jobs, then take each job's median over its repetitions.
    nom, points = r["cal_nominal_ms"], list(zip(r["cal_at"], r["cal_ms"]))
    jobs = r["exec_job"]
    scale, k = [], 0
    for i in range(len(jobs)):
        while k + 2 < len(points) and points[k + 1][0] <= i:
            k += 1
        scale.append(nom / ((points[k][1] + points[k + 1][1]) / 2))
    b_ms, x_ms, c_ms = r["exec_build_ms"], r["exec_run_ms"], r["exec_cpu_ms"]
    build = per_job_median(jobs, [b * k for b, k in zip(b_ms, scale)])
    run_ms = per_job_median(jobs, [x * k for x, k in zip(x_ms, scale)])
    total = per_job_median(jobs, [(b + x) * k for b, x, k in zip(b_ms, x_ms, scale)])
    cpu = per_job_median(jobs, [c * k for c, k in zip(c_ms, scale)])
    raw = per_job_median(jobs, [b + x for b, x in zip(b_ms, x_ms)])
    sc = r["setup_cal_ms"]
    job_ms = list(total.values())
    total_s = sum(job_ms) / 1e3
    metrics = {
        "setup_s": median([t * nom / ((a + b) / 2) for t, a, b in zip(r["setup_s"], sc, sc[1:])]),
        "sim_maccess_per_s": sum(r["job_accesses"]) / total_s / 1e6,
        "wall_s": total_s,
        "cpu_s": sum(cpu.values()) / 1e3,
        "latency_ms_p50": percentile(job_ms, 50),
        "latency_ms_p99": percentile(job_ms, 99),
        "throughput_rps": len(job_ms) / total_s,
        "peak_rss_mb": child.maxrss_mib,
    }
    layer = dict(r.get("layers", {}))
    b, x = sum(build.values()) / 1e3, sum(run_ms.values()) / 1e3
    layer.update({"sim.build_s": b, "sim.run_s": x, "sim.run_share": x / (b + x),
                  "sim.cycles": r["model"]["cycles"]})
    reps = sorted(jobs.count(j) for j in total)
    info = {"passes": r["passes"], "jobs": r["jobs"], "reps_per_job": [reps[0], reps[-1]],
            "timed_s": r["timed_s"], "cal_ms_median": median(r["cal_ms"]),
            "uncalibrated_wall_s": sum(raw.values()) / 1e3,
            "model": r["model"], "job_list_digest": r["job_list_digest"],
            "corpus_digest": r["corpus_digest"], "corpus_bytes": r["corpus_bytes"]}
    return metrics, layer, info


# --------------------------------------------------------------- figures

def figures_once(run, i):
    d = fresh_dir(run.tmp / f"figures{i}")
    env = clean_env()
    env["ASD_FIGURES_JSON"] = str(d / "report.json")
    s = run.spans.open("figures.process", i)
    with open(d / "stdout.txt", "wb") as out, open(d / "stderr.txt", "wb") as err:
        child = Child([run.bins / "figures"], cwd=d, stdout=out, stderr=err, env=env)
        code = child.wait()
    run.spans.close(s)
    stdout = (d / "stdout.txt").read_bytes()
    text = stdout.decode(errors="replace")
    report = json.loads((d / "report.json").read_text()) if code == 0 else {}
    names = [f["name"] for f in report.get("figures", [])]
    positions = [text.find(FIGURE_MARKERS[f]) for f in FIGURES]
    run.check(code == 0, f"figures run {i} exited {code}")
    run.check(names == FIGURES, f"figures run {i}: report lists {names}")
    run.check(all(p >= 0 for p in positions) and positions == sorted(positions),
              f"figures run {i}: stdout is missing a figure or has them out of order")
    shutil.rmtree(d, ignore_errors=True)
    return {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "rss": child.maxrss_mib, "report": report,
            "digest": hashlib.sha256(stdout).hexdigest()}


def figures(run, seconds):
    runs = []
    cal = [calibrate(run)]
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(figures_once(run, len(runs)))
        cal.append(calibrate(run))
    for r, k in zip(runs, scales(cal)):
        r["scale"] = k
    ok = [r for r in runs if r["report"]]
    digests = sorted({r["digest"] for r in runs})
    run.check(len(digests) == 1, f"figures stdout differs between runs: {digests}")
    exact = {(r["report"]["pipeline"]["submitted_jobs"], r["report"]["pipeline"]["unique_jobs"],
              r["report"]["pipeline"]["inflight_joins"], r["report"]["cache"]["run_misses"]) for r in ok}
    run.check(len(exact) == 1, f"figures job counts differ between runs: {exact}")
    if not ok:
        raise RuntimeError("no figures run produced a report")
    pipe = [r["report"]["pipeline"] for r in ok]
    total_s = [p["total_wall_ms"] / 1e3 * r["scale"] for r, p in zip(ok, pipe)]
    ready = [[f["wall_ms"] * r["scale"] for f in r["report"]["figures"]] for r in ok]
    accesses = ok[0]["report"]["opts"]["accesses"]
    metrics = {
        "setup_s": median([r["wall_s"] * r["scale"] - t for r, t in zip(ok, total_s)]),
        "sim_maccess_per_s": median([p["unique_jobs"] * accesses / t / 1e6 for p, t in zip(pipe, total_s)]),
        "wall_s": median([r["wall_s"] * r["scale"] for r in ok]),
        "cpu_s": median([r["cpu_s"] * r["scale"] for r in ok]),
        "latency_ms_p50": median([percentile(x, 50) for x in ready]),
        "latency_ms_p99": median([percentile(x, 99) for x in ready]),
        "throughput_rps": median([p["unique_jobs"] / t for p, t in zip(pipe, total_s)]),
        "peak_rss_mb": median([r["rss"] for r in ok]),
    }
    cache = [r["report"]["cache"] for r in ok]
    layer = {
        "sim.pipeline.submitted_jobs": pipe[0]["submitted_jobs"],
        "sim.pipeline.unique_jobs": pipe[0]["unique_jobs"],
        "sim.pipeline.inflight_joins": pipe[0]["inflight_joins"],
        "sim.pipeline.peak_live_jobs": median([p["peak_live_jobs"] for p in pipe]),
        "sim.pipeline.utilization": median([r["cpu_s"] / (HOST_THREADS * r["wall_s"]) for r in ok]),
        "sim.cache.run_misses": cache[0]["run_misses"],
        "sim.cache.trace_hits": median([c["trace_hits"] for c in cache]),
        "sim.cache.trace_misses": median([c["trace_misses"] for c in cache]),
    }
    info = {"runs": len(runs), "threads": HOST_THREADS, "stdout_sha256": digests[0],
            "uncalibrated_wall_s_each": [r["wall_s"] for r in runs],
            "cal_ms": [c["cal_ms"] for c in cal]}
    return metrics, layer, info


# ----------------------------------------------------------------- serve

def serve_setup(run, rep):
    """Daemon 1 start, cold fill of the hot set, shutdown, then daemon 2
    start on the same directory until its first ping answers."""
    state = fresh_dir(run.tmp / f"serve{rep}")
    digests = state / "digests.txt"
    spans_file = run.spans_file(f"fill{rep}")
    s = run.spans.open("serve.setup", rep)
    t0 = time.perf_counter()
    d1 = Daemon(run.bins, state / "daemon", run.tmp)
    d1.ping()
    t1 = time.perf_counter()
    f = run.spans.open("serve.cold_fill", rep, s)
    args = ["serve-fill", "--seed", run.seed, "--addr", d1.addr, "--digests", digests]
    run_probe(run.bins, args + (["--spans", spans_file] if spans_file else []), run.tmp)
    run.spans.close(f)
    run.spans.adopt(spans_file, f)
    t2 = time.perf_counter()
    r = run.spans.open("serve.restart", rep, s)
    d1.shutdown()
    d2 = Daemon(run.bins, state / "daemon", run.tmp)
    d2.ping()
    t3 = time.perf_counter()
    run.spans.close(r)
    run.spans.close(s)
    return {"setup_s": t3 - t0, "cold_fill_s": t2 - t1, "restart_s": t3 - t2, "daemon": d2,
            "digests": digests}


def serve_windows(r):
    """The load's full windows of `window` requests: seconds, daemon CPU
    ticks, calibration factor (from the kernel times in the pauses before
    and after it), and the latencies and misses of the requests in each.
    A load too short for one full window counts as one."""
    cal, nom = r["cal_ms"], r["cal_nominal_ms"]
    windows = [{"n": r["window"], "s": sec, "ticks": t, "k": nom / ((a + b) / 2), "latency_ms": [],
                "misses": 0}
               for sec, t, a, b in zip(r["window_s"], r["window_ticks"], cal, cal[1:])]
    for k, lat, kind in zip(r["request_window"], r["latency_ms"], r["kinds"]):
        if int(k) < len(windows):
            windows[int(k)]["latency_ms"].append(lat)
            windows[int(k)]["misses"] += kind == "m"
    return windows or [{"n": r["completed"], "s": r["elapsed_s"], "ticks": 0, "k": nom / median(cal),
                        "latency_ms": r["latency_ms"], "misses": r["misses"]}]


def serve(run, seconds, setup_reps):
    setups = []
    cal = [calibrate(run)]
    for rep in range(setup_reps):
        setups.append(serve_setup(run, rep))
        cal.append(calibrate(run))
        if rep + 1 < setup_reps:
            setups[-1]["daemon"].shutdown()
    for st, k in zip(setups, scales(cal)):
        st["scale"] = k
    fills = {st["digests"].read_text() for st in setups}
    run.check(len(fills) == 1, "cold-fill results differ between set-ups")
    fill_digest = hashlib.sha256(min(fills).encode()).hexdigest()
    d2 = setups[-1]["daemon"]
    spans_file = run.spans_file("load")
    args = ["serve-load", "--seed", run.seed, "--addr", d2.addr, "--digests", setups[-1]["digests"],
            "--seconds", seconds, "--conns", SERVE_CONNS, "--cal-threads", HOST_THREADS]
    if spans_file:
        args += ["--ping-ms", PING_EVERY_MS, "--spans", spans_file]
    s = run.spans.open("serve.load")
    r, _ = run_probe(run.bins, args + ["--daemon-pid", d2.child.pid], run.tmp)
    run.spans.close(s)
    run.spans.adopt(spans_file, s)
    run.absorb(r)
    stats = d2.stats()
    d2.shutdown()
    run.check(stats.get("cache_run_misses") == r["misses"] and stats.get("cache_disk_writes") == r["misses"],
              f"daemon simulated {stats.get('cache_run_misses')} runs for {r['misses']} misses")
    for st in setups:
        shutil.rmtree(st["digests"].parent, ignore_errors=True)
    completed = r["completed"]
    if completed == 0:
        raise RuntimeError("no serve request completed")
    # Calibrated per window, then the median over full windows of WINDOW
    # requests each.
    windows = serve_windows(r)
    rss_kb = r["rss_at_kb"]
    metrics = {
        "setup_s": median([st["setup_s"] * st["scale"] for st in setups]),
        "sim_maccess_per_s": median([w["misses"] * r["spec_accesses"] / (w["s"] * w["k"]) / 1e6
                                     for w in windows]),
        "wall_s": median([w["s"] * w["k"] * BLOCK_REQUESTS / w["n"] for w in windows]),
        "cpu_s": median([w["ticks"] / CLK_TCK * w["k"] * BLOCK_REQUESTS / w["n"] for w in windows]),
        "latency_ms_p50": median([percentile(w["latency_ms"], 50) * w["k"] for w in windows]),
        "latency_ms_p99": median([percentile(w["latency_ms"], 99) * w["k"] for w in windows]),
        "throughput_rps": median([w["n"] / (w["s"] * w["k"]) for w in windows]),
        "peak_rss_mb": rss_kb / 1024 if rss_kb is not None else d2.child.maxrss_mib,
    }
    pct = lambda xs, q: percentile(xs, q) if xs else float("nan")  # noqa: E731
    layer = {
        "serve.ping_ms_p50": pct(r["ping_ms"], 50),
        "serve.ping_ms_p99": pct(r["ping_ms"], 99),
        "serve.hit_ms_p50": pct(r["hit_ms"], 50),
        "serve.hit_ms_p99": pct(r["hit_ms"], 99),
        "serve.disk_hit_ms_p50": pct(r["disk_ms"], 50),
        "serve.miss_ms_p50": pct(r["miss_ms"], 50),
        "serve.miss_ms_p99": pct(r["miss_ms"], 99),
        "serve.busy_retries": r["busy_retries"],
        "serve.cold_fill_s": median([st["cold_fill_s"] for st in setups]),
        "serve.restart_s": median([st["restart_s"] for st in setups]),
        "sim.cache.run_hits": stats.get("cache_run_hits"),
        "sim.cache.disk_hits": stats.get("cache_disk_hits"),
        "sim.cache.disk_writes": stats.get("cache_disk_writes"),
        "sim.cache.flight_joins": stats.get("cache_flight_joins"),
    }
    info = {"requests": completed, "misses": r["misses"], "hits": len(r["hit_ms"]),
            "disk_hits": len(r["disk_ms"]), "pings": len(r["ping_ms"]), "windows": len(r["window_s"]),
            "throughput_overall": completed / r["elapsed_s"], "rss_end_mb": d2.child.maxrss_mib,
            "sequence_digest": r["sequence_digest"], "hot_set_results_sha256": fill_digest,
            "uncalibrated_setup_s": median([st["setup_s"] for st in setups]),
            "uncalibrated_latency_ms_p50": median([percentile(w["latency_ms"], 50) for w in windows]),
            "uncalibrated_throughput_rps": median([w["n"] / w["s"] for w in windows]),
            "cal_ms": r["cal_ms"], "setup_cal_ms": [c["cal_ms"] for c in cal]}
    return metrics, layer, info


# ------------------------------------------------------------------ main

WORKLOADS = {
    "replay": lambda run: replay(run, run.seconds, layers=run.traced),
    "figures": lambda run: figures(run, run.seconds),
    "serve": lambda run: serve(run, run.seconds, SERVE_SETUP_REPS),
}

# What a traced run adds for the layers its own workload does not reach.
LAYER_PROBES = {
    "replay": lambda run: replay(run, 0, layers=True)[1],
    "figures": lambda run: figures(run, 0)[1],
    "serve": lambda run: serve(run, SERVE_PROBE_SECONDS, 1)[1],
}


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    end_to_end, per_layer = declared()
    bins = build()
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tmp = fresh_dir(ROOT / ".perfbench-tmp" / f"{args.workload}-{args.seed}-{os.getpid()}")
    run = Run(args, bins, tmp)
    try:
        metrics, layer, info = WORKLOADS[args.workload](run)
        if run.traced:
            for other, probe in LAYER_PROBES.items():
                if other != args.workload:
                    s = run.spans.open(f"layers.{other}")
                    layer = {**probe(run), **layer}
                    run.spans.close(s)
    finally:
        Child.reap_all()
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = per_layer if run.traced else end_to_end
    source = layer if run.traced else metrics
    missing = sorted(n for n in wanted if source.get(n) is None or source[n] != source[n])
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {name: {"value": float(source[name]), "unit": unit} for name, unit in wanted.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "end_to_end": metrics, "per_layer": layer, "info": info, "failures": run.failures[:50]}
    if run.traced:
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.spans.write(spans_path)
        record["span_summary"] = run.spans.summary()
        record["spans"] = str(spans_path.relative_to(ROOT))
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    label = "traced end-to-end (tracing on)" if run.traced else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  {label}:")
    for name, value in metrics.items():
        print(f"    {name:<20} {value:>14.6g} {end_to_end[name]}")
    print(f"  run: {json.dumps(info, separators=(',', ':'))}")
    if run.traced:
        print("  per-layer:")
        for name, value in layer.items():
            print(f"    {name:<36} {value:>14.6g} {per_layer.get(name, '')}")
    for f in run.failures[:10]:
        print(f"  FAILED: {f}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result}))


if __name__ == "__main__":
    # A terminated run still reaps its children on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except SystemExit:
        raise
    except BaseException:  # noqa: BLE001 - no result line on any failure
        traceback.print_exc()
        sys.exit(1)
