"""Process, daemon, span and statistics helpers for perfbench/run.py."""

import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_MANIFEST = HERE / "probe" / "Cargo.toml"
LISTEN_BANNER = "asd-serve listening on "
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def clean_env():
    """The caller's environment without any inherited ASD_* setting."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ASD_")}


def build():
    """Build the `figures` and `asd-serve` binaries from the repository
    workspace and the probe package; return the directory holding them."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SystemExit(f"perfbench: no Cargo workspace at {ROOT}; nothing to build")
    env = clean_env()
    target = Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "asd-bench", "--bin", "figures",
         "-p", "asd-serve", "--bin", "asd-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(PROBE_MANIFEST)],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return target / "release"


class Spans:
    """Spans recorded in memory: name, id, parent, start and end as Unix
    nanoseconds. Disabled recorders ignore every call."""

    def __init__(self, on):
        self.on = on
        self.items = []
        self._t0 = time.perf_counter_ns()
        self._unix0 = time.time_ns()

    def now(self):
        return self._unix0 + time.perf_counter_ns() - self._t0

    def open(self, name, ident=0, parent=None):
        if not self.on:
            return None
        self.items.append({"name": name, "id": ident, "parent": parent, "start_ns": self.now(), "end_ns": None})
        return len(self.items) - 1

    def close(self, idx):
        if idx is not None:
            self.items[idx]["end_ns"] = self.now()

    def adopt(self, path, parent):
        """Append the spans a probe process wrote to `path` under `parent`."""
        if not self.on or not Path(path).is_file():
            return
        base = len(self.items)
        for line in Path(path).read_text().splitlines():
            s = json.loads(line)
            p = s.pop("parent")
            s.pop("idx")
            s["parent"] = parent if p is None else base + p
            self.items.append(s)

    def summary(self):
        """Per span name: count, total and self time in ms (self time is
        the span's duration minus what its children cover)."""
        child_ns = [0] * len(self.items)
        for s in self.items:
            if s["parent"] is not None and s["end_ns"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        out = {}
        for i, s in enumerate(self.items):
            if s["end_ns"] is None:
                continue
            dur = s["end_ns"] - s["start_ns"]
            row = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += max(dur - child_ns[i], 0) / 1e6
        return out

    def write(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.items):
                f.write(json.dumps({"idx": i, **s}, separators=(",", ":")) + "\n")


class Child:
    """A child process reaped with wait4, so its CPU time and peak RSS are
    its own. Every Child is tracked until reaped; `reap_all` kills the
    rest."""

    live = []

    def __init__(self, argv, cwd, stdout, stderr=None, env=None):
        self.argv = [str(a) for a in argv]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.argv, cwd=cwd, env=env or clean_env(), stdout=stdout,
                                     stderr=stderr if stderr is not None else sys.stderr)
        self.wall_s = None
        self.cpu_s = None
        self.maxrss_mib = None
        self.code = None
        Child.live.append(self)

    @property
    def pid(self):
        return self.proc.pid

    def wait(self, timeout=CHILD_TIMEOUT_S):
        result = {}

        def waiter():
            _, status, ru = os.wait4(self.proc.pid, 0)
            result.update(t=time.perf_counter(), status=status, ru=ru)

        th = threading.Thread(target=waiter, daemon=True)
        th.start()
        th.join(timeout)
        timed_out = th.is_alive()
        if timed_out:
            self.proc.kill()
            th.join()
        self.proc.returncode = os.waitstatus_to_exitcode(result["status"])
        Child.live.remove(self)
        self.code = self.proc.returncode
        self.wall_s = result["t"] - self.t0
        ru = result["ru"]
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.maxrss_mib = ru.ru_maxrss / 1024.0
        if timed_out:
            raise RuntimeError(f"{self.argv[0]} timed out after {timeout} s")
        return self.code

    @classmethod
    def reap_all(cls):
        for c in list(cls.live):
            try:
                c.proc.kill()
                c.wait(timeout=30)
            except Exception as e:  # noqa: BLE001 - best effort on the way out
                log(f"could not reap {c.argv[0]}: {e}")


def run_probe(bins, args, tmp, timeout=CHILD_TIMEOUT_S):
    """Run the probe binary; return (parsed JSON answer, Child)."""
    out = tmp / f"probe-{time.perf_counter_ns()}.json"
    with open(out, "w") as f:
        child = Child([bins / "asd-perfbench", *args], cwd=tmp, stdout=f)
        code = child.wait(timeout)
    text = out.read_text()
    if code != 0:
        raise RuntimeError(f"asd-perfbench {args[0]} exited {code}")
    return json.loads(text.strip().splitlines()[-1]), child


def frame_request(addr, payload, timeout=60):
    """One request/response over the frame format in DESIGN.md."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as s:
        body = json.dumps(payload, separators=(",", ":")).encode()
        s.sendall(f"{len(body)}\n".encode() + body + b"\n")
        f = s.makefile("rb")
        n = int(f.readline())
        return json.loads(f.read(n + 1)[:n])


class Daemon:
    """`asd-serve serve --dir DIR` with default flags."""

    def __init__(self, bins, state_dir, tmp):
        self.err = open(tmp / "daemon.err", "a")
        self.child = Child([bins / "asd-serve", "serve", "--dir", state_dir], cwd=tmp,
                           stdout=subprocess.PIPE, stderr=self.err)
        line = self.child.proc.stdout.readline().decode()
        if not line.startswith(LISTEN_BANNER):
            raise RuntimeError(f"asd-serve printed {line!r} instead of its listen banner")
        self.addr = line[len(LISTEN_BANNER):].strip()
        threading.Thread(target=self.child.proc.stdout.read, daemon=True).start()

    def ping(self):
        resp = frame_request(self.addr, {"op": "ping"})
        if resp.get("ok") is not True:
            raise RuntimeError(f"ping refused: {resp}")

    def stats(self):
        return frame_request(self.addr, {"op": "stats"})

    def shutdown(self):
        frame_request(self.addr, {"op": "shutdown"})
        code = self.child.wait()
        self.err.close()
        if code != 0:
            raise RuntimeError(f"asd-serve exited {code}")


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


def per_job_median(jobs, values):
    """{job: median of its values} for parallel lists of jobs and values."""
    per = {}
    for j, v in zip(jobs, values):
        per.setdefault(j, []).append(v)
    return {j: median(v) for j, v in per.items()}


def scales(cals):
    """Calibration factor of each interval between consecutive samples:
    the nominal sample time over the mean of the samples at its ends."""
    return [a["cal_nominal_ms"] / ((a["cal_ms"] + b["cal_ms"]) / 2) for a, b in zip(cals, cals[1:])]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
