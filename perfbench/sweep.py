"""The workloads (sweep_big, search_probe), run in process by the harness,
and the harness's layer probes, which every traced run uses."""

import json
import os
import subprocess

from common import HARNESS, BenchError, median, reap, self_times, wait_exit

HARNESS_TIMEOUT_S = 170


def harness(argv, scratch):
    """Runs the harness; returns (its JSON lines, its peak RSS in MB)."""
    out_path = os.path.join(scratch, "harness.out")
    err_path = os.path.join(scratch, "harness.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([HARNESS, *argv], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
    try:
        status, rss_mb = wait_exit(proc, HARNESS_TIMEOUT_S)
    except BaseException:
        if proc.returncode is None:
            reap(proc, 0.0)
        raise
    if status != 0:
        with open(err_path, errors="replace") as fh:
            raise BenchError(f"harness exited {status}: {fh.read()[-2000:]}")
    with open(out_path) as fh:
        return [json.loads(line) for line in fh if line.strip()], rss_mb


def run(workload, seed, passes, trace, scratch):
    spans_path = os.path.join(scratch, "spans.jsonl")
    argv = ["sweep", "--workload", workload, "--seed", str(seed),
            "--passes", str(passes), "--trace", "1" if trace else "0",
            "--spans", spans_path, "--scratch", scratch]
    lines, rss_mb = harness(argv, scratch)
    spans = []
    if trace:
        with open(spans_path) as fh:
            spans = [json.loads(line) for line in fh]
    by_kind = {}
    for line in lines:
        by_kind.setdefault(line["kind"], []).append(line)
    return {"lines": by_kind, "spans": spans, "rss_mb": rss_mb}


ROW_ENVELOPE = ("kind", "pass", "traced")


def row_key(row):
    return {k: v for k, v in row.items() if k not in ROW_ENVELOPE}


def check(obs, golden):
    """Every pass must reproduce the first untraced pass row for row, and
    the golden rows when there are any. Returns (attempted, failed,
    problems), counted in jobs."""
    rows = obs["lines"].get("row", [])
    jobs = obs["lines"].get("job", [])
    passes = {}
    for row in rows:
        passes.setdefault(row["pass"], []).append(row_key(row))
    reference = passes[min(p for p in passes
                           if not any(r["traced"] for r in rows
                                      if r["pass"] == p))]
    problems = []
    bad_jobs = set()
    for p, got in passes.items():
        for i, row in enumerate(got):
            want = reference[i] if i < len(reference) else None
            if row != want:
                bad_jobs.add((p, row["circuit"]))
                problems.append(f"pass {p} {row['circuit']} {row['method']}:"
                                " differs from the first untraced pass")
            elif golden and i < len(golden) and row != golden[i]:
                bad_jobs.add((p, row["circuit"]))
                problems.append(f"pass {p} {row['circuit']} {row['method']}:"
                                " differs from the golden row")
            if row["evaluations"] < 1 or row["modules"] < 1:
                bad_jobs.add((p, row["circuit"]))
                problems.append(f"pass {p} {row['circuit']}: empty result")
        if golden and len(got) != len(golden):
            problems.append(f"pass {p}: {len(got)} rows, golden has "
                            f"{len(golden)}")
            bad_jobs.add((p, "*"))
    return len(jobs), len(bad_jobs), problems


def end_to_end(obs):
    """Medians over the untraced passes."""
    passes = [p for p in obs["lines"]["pass"] if not p["traced"]]
    return {
        "setup_s": median(p["setup_s"] for p in passes),
        "sweep_s": median(p["seconds"] for p in passes),
        "us_per_eval": median(p["search_s"] * 1e6 / p["search_evals"]
                              for p in passes),
        "peak_rss_mb": obs["rss_mb"],
    }


# Spans summed per traced pass (median over passes), or per circuit over
# the layer probes when the passes do not run that layer.
PASS_SUMS = {
    "netlist.load": ("netlist.load_ms", 1e3),
    "context.build": ("context.build_ms", 1e3),
    "planner.plan": ("planner.plan_ms", 1e3),
    "evaluate_method": ("evaluate_method.ms", 1e3),
    "coverage.build": ("coverage.build_ms", 1e3),
    "coverage.score": ("coverage.score_ms", 1e3),
    "standard": ("standard.s", 1.0),
    "evolution": ("evolution.s", 1.0),
}
OPTIMIZERS = ["evolution", "tabu", "annealing", "greedy"]
# Per-operation probe samples: median per circuit, mean over circuits.
PER_OP = {
    "evaluator.build": ("evaluator.build_ms", 1e3),
    "evaluator.copy": ("evaluator.copy_us", 1e6),
    "evaluator.probe": ("evaluator.probe_us", 1e6),
    "evaluator.move_fitness": ("evaluator.move_fitness_us", 1e6),
    "cache.lookup": ("cache.lookup_us", 1e6),
    "cache.store": ("cache.store_us", 1e6),
    "cache.replay": ("cache.replay_ms", 1e3),
    "cluster.route": ("cluster.route_us", 1e6),
    "cluster.merge": ("cluster.merge_us", 1e6),
}


def _sum_by_pass(spans, name, field):
    """{pass: (sum of span field)} for spans called `name`; pass -1 holds
    the layer probes."""
    sums = {}
    for s in spans:
        if s["name"] == name:
            value = (s["t1"] - s["t0"]) * 1e-9 if field == "seconds" \
                else s["n"]
            sums[s["pass"]] = sums.get(s["pass"], 0) + value
    in_pass = [v for p, v in sums.items() if p >= 0]
    if in_pass:
        return median(in_pass)
    return sums.get(-1)


def per_layer(obs):
    """Layer metrics from the harness spans and probe lines."""
    spans = obs["spans"]
    out = {}
    for name, (metric, scale) in PASS_SUMS.items():
        value = _sum_by_pass(spans, name, "seconds")
        if value is not None:
            out[metric] = value * scale
    for name in OPTIMIZERS:
        seconds = _sum_by_pass(spans, name, "seconds")
        evals = _sum_by_pass(spans, name, "count")
        if seconds is not None and evals:
            out[f"{name}.evals"] = evals
            out[f"{name}.us_per_eval"] = seconds * 1e6 / evals
    selfs = self_times(spans)
    job_self = {}
    for s in spans:
        if s["name"] == "job" and s["pass"] >= 0:
            job_self[s["pass"]] = job_self.get(s["pass"], 0) + selfs[s["id"]]
    if job_self:
        out["job.self_ms"] = median(job_self.values()) * 1e3
    for name, (metric, scale) in PER_OP.items():
        per_circuit = {}
        for s in spans:
            if s["name"] == name:
                per_circuit.setdefault(s["circuit"], []).append(
                    (s["t1"] - s["t0"]) * 1e-9)
        if per_circuit:
            out[metric] = scale * sum(
                median(v) for v in per_circuit.values()) / len(per_circuit)
    routed = obs["lines"].get("routed")
    if routed:
        counts = routed[-1]["per_backend"]
        if min(counts) > 0:
            out["cluster.backend_skew"] = max(counts) / min(counts)
    traced = [p["seconds"] for p in obs["lines"].get("pass", [])
              if p["traced"]]
    untraced = [p["seconds"] for p in obs["lines"].get("pass", [])
                if not p["traced"]]
    if traced and untraced:
        out["trace.overhead_pct"] = (median(traced) / median(untraced)
                                     - 1.0) * 100.0
    return out
