#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep_big --seed 1 --seconds 40 \\
        --trace 0

Builds the harness and the server from this checkout into
.bench_build/perfbench, runs the workload, checks every output row, and
prints as the last stdout line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. The full record, with the host block, is
also written to .bench_build/results/. Exit status: 0 when every
check passed, 1 on a correctness mismatch, 2 when the benchmark could not
run (no result line). See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402
from common import (BENCH_DIR, BUILD_DIR, DEFAULT_SEED, END_TO_END,  # noqa
                    PER_LAYER, RESULTS_DIR, BenchError, log)

# Nominal seconds of one pass on a 4-CPU x86-64 host. A run makes
# --seconds / PASS_S passes (at least MIN_PASSES): a fixed count for a
# given --seconds, so a slower or faster host changes how long a run takes,
# never how many samples its medians hold.
PASS_S = {"sweep_big": 10.0, "search_probe": 1.2}
MIN_PASSES = 3


def golden_path(workload):
    return os.path.join(BENCH_DIR, "golden", f"{workload}.json")


def load_golden(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def passes(workload, seconds):
    return max(MIN_PASSES, math.floor(seconds / PASS_S[workload] + 0.5))


def run_workload(args, scratch, golden):
    """Returns (attempted, failed, problems, metrics, golden rows)."""
    obs = sweep.run(args.workload, args.seed,
                    passes(args.workload, args.seconds), args.trace, scratch)
    attempted, failed, problems = sweep.check(obs, golden or [])
    rows = [sweep.row_key(r) for r in obs["lines"]["row"] if r["pass"] == 0]
    if not args.trace:
        return attempted, failed, problems, sweep.end_to_end(obs), rows
    # The serving layers, measured on the short serving probe.
    probe = serve.run(args.seed, scratch)
    n, f, p = serve.check(probe)
    layers = serve.per_layer(probe)
    layers.update(sweep.per_layer(obs))
    return attempted + n, failed + f, problems + p, layers, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's rows as the golden rows "
                             "(default seed only)")
    args = parser.parse_args()
    # A SIGTERM unwinds through the finally blocks that reap children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    try:
        common.build()
        scratch = os.path.join(BUILD_DIR, "..", "run",
                               f"{args.workload}-{os.getpid()}")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            host_line, _ = sweep.harness(["host"], scratch)
            golden = None if args.write_golden else load_golden(
                args.workload, args.seed)
            attempted, failed, problems, metrics, rows = run_workload(
                args, scratch, golden)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 2

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        log(f"perfbench: no measurement for {', '.join(missing)}")
        return 2
    for problem in problems[:20]:
        log(f"perfbench: MISMATCH {problem}")
    if args.write_golden:
        if args.seed != DEFAULT_SEED or problems:
            log("perfbench: goldens are written only from a clean run at "
                f"seed {DEFAULT_SEED}")
            return 2
        with open(golden_path(args.workload), "w") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")

    host = common.host_block(host_line[0]["compiler"],
                             host_line[0]["build_type"])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  failed_frac=failed / attempted, problems=problems)
    out = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"host: {json.dumps(host)}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed}/{attempted})")
    for name, unit in wanted.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
