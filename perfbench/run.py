"""lieclass benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flag_sweep --seed 1 --seconds 15 --trace 0

One process and one caller: the next call starts only when the last one has
returned.  A run sets up the workload several times (fresh-interpreter
import, input generation, algebra construction) and reports the median as
``setup_s``.  After an untimed warm-up it makes
round(seconds / SECONDS_PER_PASS) whole passes over the workload's calls,
checks every answer, and replays the first pass's records in every later
pass.  Times are scaled by probes of the host's speed (see HostSpeed).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes over the same calls
(one pair, or more until a second has passed) and reports the per-layer
metrics, taken from spans recorded around the calls into each layer (see
spans.py); ``trace.overhead_ratio`` is the traced passes' time over the
untraced ones'.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it, and a result file under
.perfbench_out/, carry the verdict digest, the tail percentile and its call
count, the error rate and the environment.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PINNED_DIGESTS = Path(__file__).resolve().parent / "verdicts.json"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
PROBE_LOOP = 7_000
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
REFERENCE_PROBE_S = 0.0005
TRACE_MIN_S = 1.0


def tail_percentile(count):
    """Highest percentile in TAIL_PERCENTILES with at least ten calls beyond
    it (p50 when there are fewer than twenty calls)."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if count - math.ceil(p / 100 * count) >= TAIL_MIN_BEYOND:
            best = p
    return best


def nearest_rank(sorted_values, p):
    """Value at percentile p by the nearest-rank rule."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


class HostSpeed:
    """Probes of the host's speed, taken between calls, never inside one.

    The host's speed drifts (by up to 1.6x within seconds to minutes on a
    shared 2-core VM), so raw times from different runs are not comparable.
    A probe is the best of three runs of a fixed pure-Python loop, taken
    every PROBE_EVERY_S.  A time measured from t0 to t1 is scaled by
    REFERENCE_PROBE_S over the median probe from t0 - PROBE_WINDOW_S to
    t1 + PROBE_WINDOW_S: it becomes the time the same work would take on a
    host where the probe takes REFERENCE_PROBE_S.
    """

    def __init__(self):
        self.probes = []  # (start, end, best)

    def probe(self):
        start = time.perf_counter()
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i % 7
            best = min(best, time.perf_counter() - t0)
        self.probes.append((start, time.perf_counter(), best))

    def maybe_probe(self):
        if time.perf_counter() - self.probes[-1][1] >= PROBE_EVERY_S:
            self.probe()

    def median_probe_s(self):
        return statistics.median(p[2] for p in self.probes)

    def factors(self, intervals):
        """Scale factor of each (t0, t1) interval; call once no more probes
        will follow it."""
        starts, ends, values = zip(*self.probes)
        out = []
        for t0, t1 in intervals:
            lo = bisect.bisect_left(ends, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + PROBE_WINDOW_S)
            near = values[lo:hi] or (values[min(lo, len(values) - 1)],)
            out.append(REFERENCE_PROBE_S / statistics.median(near))
        return out


class Pass:
    """Latencies, records and failures of one pass over a workload's calls."""

    def __init__(self, calls, host):
        self.records = []
        self.failed = 0
        self.errors = []
        self.intervals = []
        host.probe()
        for call in calls:
            host.maybe_probe()
            t0 = time.perf_counter()
            try:
                ok, record = call()
            except Exception as exc:  # a raised exception is a failed call
                ok, record = False, ("raised", type(exc).__name__, str(exc))
            self.intervals.append((t0, time.perf_counter()))
            self.records.append(record)
            if not ok:
                self.failed += 1
                self.errors.append(repr(record)[:500])
        host.probe()
        self.latencies = [t1 - t0 for t0, t1 in self.intervals]
        self.wall_s = self.intervals[-1][1] - self.intervals[0][0] if calls else 0.0
        self.scaled = None  # set from the host probes after the run

    def mismatches(self, reference):
        """Calls whose record differs from the reference pass's."""
        return sum(a != b for a, b in zip(self.records, reference.records))


def child_import_s(modules, env):
    """Import time of the given modules in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import %s; "
        "print(time.perf_counter() - t)" % ", ".join(modules)
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return float(proc.stdout)


def environment(env):
    from lieclass import rank
    import numpy

    numba = subprocess.run(
        [sys.executable, "-c", "import numba"], env=env, capture_output=True, check=False
    )
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba.returncode == 0,
        "rank.HAS_NUMBA": rank.HAS_NUMBA,
        "LIECLASS_NO_NUMBA": os.environ.get("LIECLASS_NO_NUMBA"),
        "machine": platform.machine(),
    }


def peak_rss_mb(workload):
    # The CLI workload's user waits on the child interpreters.
    who = resource.RUSAGE_CHILDREN if workload == "cli_golden" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pinned_digest(workload):
    """Digest recorded from the seed code.  Every Yes is certified and every
    ProbablyNo reports the exact rank at its best sample, which is the
    generic rank, so a workload's records do not depend on the seed."""
    with open(PINNED_DIGESTS) as fh:
        return json.load(fh).get(workload)


def end_to_end(latencies, setups, tail_p, rss_mb):
    ordered = sorted(latencies)
    return {
        "calls_per_s": {"value": len(ordered) / sum(ordered), "unit": "1/s"},
        "call_p50_ms": {"value": 1000 * nearest_rank(ordered, 50), "unit": "ms"},
        "call_tail_ms": {"value": 1000 * nearest_rank(ordered, tail_p), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lieclass" / "__init__.py").is_file():
        print("error: no lieclass sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("LIECLASS_SEED", None)  # the CLI default seed must not leak in
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    name, seed, root = args.workload, args.seed, str(ROOT)
    child_env = workloads.cli_env(root)

    host = HostSpeed()
    setups, imports, intervals = [], [], []
    for _ in range(SETUP_REPEATS):
        host.probe()
        t0 = time.perf_counter()
        imported = child_import_s(workloads.IMPORTS[name], child_env)
        t1 = time.perf_counter()
        calls = workloads.build(name, seed, root, in_process=bool(args.trace))
        t2 = time.perf_counter()
        setups.append(imported + t2 - t1)
        imports.append(imported)
        intervals.append((t0, t2))
    host.probe()

    for call in workloads.warmup(name, calls, in_process=bool(args.trace)):
        call()
    tracer = None
    if args.trace:
        # untraced and traced passes alternate, for at least TRACE_MIN_S
        tracer = spans.Tracer()
        done, traced = [], []
        while sum(p.wall_s for p in done) < TRACE_MIN_S:
            done.append(Pass(calls, host))
            with tracer:
                traced.append(Pass(calls, host))
            done.append(traced[-1])
    else:
        passes = max(1, round(args.seconds / workloads.SECONDS_PER_PASS[name]))
        done = [Pass(calls, host)]
        for k in range(1, passes):
            # new oracle seeds, same verdicts: the records must replay
            done.append(Pass(workloads.build(name, (seed, k), root), host))
    for p in done:
        p.scaled = [x * f for x, f in zip(p.latencies, host.factors(p.intervals))]
    setup_factors = host.factors(intervals)
    scaled_setups = [x * f for x, f in zip(setups, setup_factors)]

    first = done[0]
    failed = sum(p.failed for p in done) + sum(p.mismatches(first) for p in done[1:])
    attempted = sum(len(p.records) for p in done)
    verdict_digest = digest(first.records)
    pinned = pinned_digest(name)
    errors = [e for p in done for e in p.errors][:20]
    if pinned != verdict_digest:
        failed += 1
        errors.append("verdict digest differs from verdicts.json")
    tail_p = tail_percentile(attempted)
    info = {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "passes": len(done),
        "calls_per_pass": len(first.records),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "verdict_digest": verdict_digest,
        "pinned_digest": pinned,
        "tail_percentile": tail_p,
        "tail_calls": attempted,
        "host_probe_ms": 1000 * host.median_probe_s(),
        "pass_wall_s": [p.wall_s for p in done],
        "setup_samples_s": setups,
        "import_samples_s": imports,
        "environment": environment(child_env),
        "errors": errors,
    }

    if args.trace:
        untraced = [p for p in done if p not in traced]
        raw_traced = sum(sum(p.latencies) for p in traced)
        scaled_traced = sum(sum(p.scaled) for p in traced)
        report = spans.layer_report(tracer, raw_traced)
        overhead = scaled_traced / sum(sum(p.scaled) for p in untraced)
        cli_import_s = 0.0
        if name == "cli_golden":
            cli_import_s = statistics.median(x * f for x, f in zip(imports, setup_factors))
        metrics = spans.per_layer_metrics(
            report,
            time_scale=scaled_traced / raw_traced,
            overhead_ratio=overhead,
            cli_import_s=cli_import_s,
            host_probe_ms=info["host_probe_ms"],
        )
        info["layers"] = report
    else:
        rss = peak_rss_mb(name)
        metrics = end_to_end([x for p in done for x in p.scaled], scaled_setups, tail_p, rss)
        info["scaled_latencies_ms"] = [round(1000 * x, 4) for p in done for x in p.scaled]
        info["raw_metrics"] = end_to_end(
            [x for p in done for x in p.latencies], setups, tail_p, rss
        )
    info["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (name, seed, args.trace)
    with open(OUT_DIR / (stem + ".json"), "w") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(OUT_DIR / ("spans-%s-seed%d.npz" % (name, seed)))

    for key in ("workload", "seed", "passes", "calls_per_pass", "error_rate",
                "verdict_digest", "tail_percentile", "tail_calls"):
        print("%s: %s" % (key, info[key]))
    for key, value in info["environment"].items():
        print("env.%s: %s" % (key, value))
    for key, m in info.get("raw_metrics", {}).items():
        print("raw.%s: %r %s" % (key, m["value"], m["unit"]))
    print("host_probe_ms: %r" % info["host_probe_ms"])
    for key, m in metrics.items():
        print("%s: %r %s" % (key, m["value"], m["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
