#!/usr/bin/env python3
"""Compares benchmark records of two builds.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [...]

Each file is a full record that run.py writes to .bench_build/results/.
Records are grouped by workload and trace mode; for every metric the
script prints both medians and the change, flagged when it is worse than
the BENCHMARK.json bound. It warns when the two sides come from
different hosts (nproc, compiler or build type), since timings from
different hosts do not compare.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "compiler", "build_type")


def load(paths):
    groups = {}
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        groups.setdefault((record["workload"], record["trace"]), []).append(
            record)
    return groups


def hosts(records):
    return {tuple(r["host"][k] for k in HOST_KEYS) for r in records}


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = load(argv[:split]), load(argv[split + 1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for group in sorted(set(base) & set(new)):
        a, b = base[group], new[group]
        if hosts(a) != hosts(b) or len(hosts(a)) > 1:
            print(f"WARNING {group[0]}: records come from different hosts "
                  f"{sorted(hosts(a) | hosts(b))}; timings do not compare")
        print(f"{group[0]} (trace {group[1]}), {len(a)} vs {len(b)} runs")
        for name in a[0]["metrics"]:
            va = statistics.median(r["metrics"][name]["value"] for r in a)
            vb = statistics.median(r["metrics"][name]["value"] for r in b)
            change = (vb / va - 1.0) if va else 0.0
            meta = bounds.get(name, {})
            sign = -1.0 if meta.get("better") == "higher" else 1.0
            flag = ""
            if "bound" in meta and sign * change > meta["bound"]:
                flag = "  WORSE than bound"
                worse += 1
            unit = a[0]["metrics"][name]["unit"]
            print(f"  {name:28s} {va:12.6g} -> {vb:12.6g} {unit:6s} "
                  f"{change * 100:+7.2f}%{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
