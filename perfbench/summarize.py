"""Median, quartiles and spread of benchmark results.

    python3 perfbench/summarize.py [RESULT_DIR]

Reads the result files that run.py writes (default .perfbench_out/) and
prints, per workload and metric, the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json.  It also lists the verdict digests seen
per seed and every run that failed a check.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(result_dir):
    runs = defaultdict(list)
    for path in sorted(Path(result_dir).glob("*-trace0.json")):
        with open(path) as fh:
            info = json.load(fh)
        runs[info["workload"]].append(info)
    return runs


def main(argv):
    result_dir = argv[0] if argv else ROOT / ".perfbench_out"
    with open(ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    for workload, infos in sorted(load(result_dir).items()):
        print("%s: %d runs" % (workload, len(infos)))
        for name, bound in bounds.items():
            values = [i["metrics"][name]["value"] for i in infos]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            print(
                "  %-14s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  bound %.2f"
                % (name, med, q1, q3, (q3 - q1) / med, bound)
            )
        digests = defaultdict(set)
        for i in infos:
            digests[i["seed"]].add(i["verdict_digest"])
        for seed, seen in sorted(digests.items()):
            print("  seed %d digest %s" % (seed, ", ".join(sorted(seen))))
        for i in infos:
            if i["failed"]:
                print("  FAILED seed %d: %d of %d" % (i["seed"], i["failed"], i["attempted"]))


if __name__ == "__main__":
    main(sys.argv[1:])
