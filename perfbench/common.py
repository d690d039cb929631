"""Shared pieces of the benchmark: metric table, build, statistics, host
block, child-process reaping and span arithmetic."""

import hashlib
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
HARNESS = os.path.join(BUILD_DIR, "iddq_perfbench")
SERVER = os.path.join(BUILD_DIR, "iddqsyn", "iddqsyn_server")

WORKLOADS = ["sweep_big", "search_probe"]
DEFAULT_SEED = 42

# name -> unit. Every workload reports every end-to-end metric untraced and
# every per-layer metric traced (README.md has the per-workload meaning).
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "us_per_eval": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "netlist.load_ms": "ms",
    "context.build_ms": "ms",
    "planner.plan_ms": "ms",
    "evolution.s": "s",
    "evolution.evals": "count",
    "evolution.us_per_eval": "us",
    "standard.s": "s",
    "tabu.us_per_eval": "us",
    "tabu.evals": "count",
    "annealing.us_per_eval": "us",
    "annealing.evals": "count",
    "greedy.us_per_eval": "us",
    "greedy.evals": "count",
    "evaluate_method.ms": "ms",
    "job.self_ms": "ms",
    "evaluator.build_ms": "ms",
    "evaluator.copy_us": "us",
    "evaluator.probe_us": "us",
    "evaluator.move_fitness_us": "us",
    "coverage.build_ms": "ms",
    "coverage.score_ms": "ms",
    "cache.lookup_us": "us",
    "cache.store_us": "us",
    "cache.replay_ms": "ms",
    "cache.hit_ratio": "ratio",
    "proto.accept_ms": "ms",
    "jobs.queue_wait_ms": "ms",
    "jobs.run_ms": "ms",
    "delivery.tail_ms": "ms",
    "jobs.hit_p50_ms": "ms",
    "jobs.miss_p50_ms": "ms",
    "cluster.route_us": "us",
    "cluster.merge_us": "us",
    "cluster.backend_skew": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build --

def build():
    """Configures and builds the harness and the server it drives."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError(f"no iddqsyn sources next to {BENCH_DIR}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        _run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *generator,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    _run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
          "iddq_perfbench", "iddqsyn_server"], 900)


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def _run(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


# ------------------------------------------------------------ statistics --

def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)


# ------------------------------------------------------------------ host --

def host_block(compiler, build_type):
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": build_type,
        "git_sha": source_sha(),
        "loadavg_1m": os.getloadavg()[0],
    }


def source_sha():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


# ------------------------------------------------------------- processes --

def reap(proc, timeout=5.0):
    """Stops `proc` (SIGTERM, then SIGKILL after `timeout`), waits for it and
    returns its peak resident set in MB."""
    deadline = time.monotonic() + timeout
    signalled = False
    while True:
        pid, _, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = 0
            return usage.ru_maxrss / 1024.0
        if not signalled:
            _signal(proc, signal.SIGTERM)
            signalled = True
        if time.monotonic() > deadline:
            _signal(proc, signal.SIGKILL)
            _, _, usage = os.wait4(proc.pid, 0)
            proc.returncode = -9
            return usage.ru_maxrss / 1024.0
        time.sleep(0.01)


def wait_exit(proc, timeout):
    """Waits for `proc` to exit on its own; returns (status, peak RSS MB),
    or kills it and raises BenchError after `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            reap(proc, 0.0)
            raise BenchError(f"{proc.args[0]} did not finish in {timeout}s")
        time.sleep(0.01)


def _signal(proc, sig):
    try:
        os.kill(proc.pid, sig)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------- spans --

def self_times(spans):
    """Span id -> self time in seconds: its duration minus the part of it
    its child spans cover."""
    child_time = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = child_time.get(s["parent"], 0) + \
                s["t1"] - s["t0"]
    return {s["id"]: (s["t1"] - s["t0"] - child_time.get(s["id"], 0)) * 1e-9
            for s in spans}
