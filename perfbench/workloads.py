"""The four benchmark workloads.

Each workload builds a list of calls from a workload seed.  A call is one
top-level unit of the workload: it runs the program, checks the answer and
returns ``(ok, record)``.  The record is what the verdict digest hashes, so
it holds every verdict's (kind, rank, target), every complexity and every
CLI stdout.  Calls reach the library through module attributes
(``oracle.is_spherical_flag``), so installed spans see them.

Inputs are fixed lists taken from the acceptance tests and copied here, so
that a later change to the tests does not silently change what is timed.
Only the per-call oracle seeds depend on the workload seed.
"""

from __future__ import annotations

import io
import itertools
import os
import subprocess
import sys
from functools import partial

import numpy as np

from lieclass import algebras, classifier, cli, oracle, snmod, sphericaltable
from lieclass.algebras import ModuleSpec, make_algebra
from lieclass.classifier import ClassificationDatum
from lieclass.partitions import canonical_flag

# Measurement budget per pass: a run makes round(seconds / SECONDS_PER_PASS)
# whole passes, so at one --seconds every commit does the same work and the
# same number of calls stands behind each percentile.  At 15 seconds that is
# one flag pass, two product passes, four exact passes and seven CLI passes.
# The seed code's passes take about 11, 11, 3.3 and 2.2 s (2 cores,
# Python 3.11, numpy 2.4, no numba).
SECONDS_PER_PASS = {
    "flag_sweep": 15.0,
    "product_sweep": 7.5,
    "exact_span": 3.75,
    "cli_golden": 2.2,
}

# Modules whose fresh import is part of each workload's set-up.
IMPORTS = {
    "flag_sweep": ("lieclass.classifier", "lieclass.oracle"),
    "product_sweep": ("lieclass.classifier", "lieclass.oracle"),
    "exact_span": ("lieclass.sphericaltable", "lieclass.oracle", "lieclass.snmod"),
    "cli_golden": ("lieclass.cli",),
}


def call_seeds(seed, count):
    """Per-call oracle seeds derived from the workload seed (an int, or a
    (seed, pass) pair for passes after the first)."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def int_partitions(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxpart), 0, -1):
        for rest in int_partitions(n - p, p):
            yield (p,) + rest


# --- flag_sweep --------------------------------------------------------------


def small_data():
    """The criterion-1 classification data, n = 2..7 (1455 of them)."""

    def tags_for(size):
        out = [("sl", size)]
        if size >= 3:
            out.append(("so", size))
        if size >= 4 and size % 2 == 0:
            out.append(("sp", size))
        return out

    for n in range(2, 8):
        flag_sets = [
            dims
            for length in (1, 2, 3)
            for dims in itertools.combinations(range(1, n), length)
        ]
        for part in int_partitions(n):
            trivial = sum(1 for p in part if p == 1)
            big = [p for p in part if p >= 2]
            for assign in itertools.product(*(tags_for(p) for p in big)):
                if tuple(assign) != tuple(sorted(assign)):
                    continue
                for dims in flag_sets:
                    yield ClassificationDatum(dims, list(assign), trivial)


def _flag_call(datum, algebra, seed):
    verdict = classifier.classify_flag_datum(datum)
    found = oracle.is_spherical_flag(algebra, datum.flag, samples=5, seed=seed)
    record = (
        datum.dims,
        datum.factors,
        datum.trivial,
        verdict.spherical,
        verdict.case_id,
        found.kind,
        found.rank,
        found.target,
    )
    return bool(verdict) == bool(found), record


def flag_sweep(seed):
    data = list(small_data())
    seeds = call_seeds(seed, len(data))
    groups = {}
    calls = []
    for datum, s in zip(data, seeds):
        key = (datum.factors, datum.trivial)
        if key not in groups:
            groups[key] = classifier.datum_algebra(datum)
        calls.append(partial(_flag_call, datum, groups[key], s))
    return calls


# --- product_sweep -----------------------------------------------------------


def step_multisets(n):
    return [p for p in int_partitions(n) if len(p) >= 2]


def _product_call(n, a, b, f1, f2, seed):
    c = oracle.product_flag_complexity(n, f1, f2, samples=5, seed=seed)
    listed = classifier.product_flags_spherical(a, b)
    return (c == 0) == listed, ("product", n, a, b, c, listed)


def _levi_call(n, a, b, f1, f2, seeds):
    c1 = oracle.product_flag_complexity(n, f1, f2, samples=5, seed=seeds[0])
    c2 = oracle.levi_flag_complexity(n, f1, f2, samples=5, seed=seeds[1])
    c3 = oracle.levi_flag_complexity(n, f2, f1, samples=5, seed=seeds[2])
    return c1 == c2 == c3, ("levi", n, a, b, c1, c2, c3)


def product_sweep(seed):
    """All unordered step-multiset pairs for n = 2..7 against the product
    list (195 calls), then the Levi identity c1 == c2 == c3 for n <= 5 over
    ordered pairs (57 calls)."""
    pairs = [
        (n, a, b)
        for n in range(2, 8)
        for a, b in itertools.combinations_with_replacement(step_multisets(n), 2)
    ]
    levi = [
        (n, a, b)
        for n in range(2, 6)
        for a in step_multisets(n)
        for b in step_multisets(n)
    ]
    seeds = call_seeds(seed, len(pairs) + 3 * len(levi))
    calls = []
    for i, (n, a, b) in enumerate(pairs):
        f1, f2 = canonical_flag(a, n), canonical_flag(b, n)
        calls.append(partial(_product_call, n, a, b, f1, f2, seeds[i]))
    for i, (n, a, b) in enumerate(levi):
        f1, f2 = canonical_flag(a, n), canonical_flag(b, n)
        s = seeds[len(pairs) + 3 * i : len(pairs) + 3 * i + 3]
        calls.append(partial(_levi_call, n, a, b, f1, f2, s))
    return calls


# --- exact_span --------------------------------------------------------------

TABLE_CASES = [
    ([("sl", 3)], [("natural", 0)]),
    ([("sl", 4)], [("natural", 0)]),
    ([("so", 4)], [("natural", 0)]),
    ([("so", 6)], [("natural", 0)]),
    ([("sp", 6)], [("natural", 0)]),
    ([("sl", 4)], [("sym2", 0)]),
    ([("sl", 5)], [("wedge2", 0)]),
    ([("sl", 2), ("sl", 3)], [("tensor", (0, "n"), (1, "n"))]),
    ([("sl", 3), ("sl", 3)], [("tensor", (0, "n"), (1, "d"))]),
    ([("sl", 2), ("sp", 6)], [("tensor", (0, "n"), (1, "n"))]),
    ([("sl", 3), ("sp", 4)], [("tensor", (0, "n"), (1, "n"))]),
    ([("sl", 4)], [("natural", 0), ("dual", 0)]),
    ([("sl", 3)], [("natural", 0), ("natural", 0)]),
    ([("sl", 4)], [("natural", 0), ("wedge2", 0)]),
    ([("sl", 2), ("sp", 4)], [("tensor", (0, "n"), (1, "n")), ("natural", 0)]),
]
NEGATIVE_CASE = ([("so", 5)], [("natural", 0), ("natural", 0)])
PF_SIZES = (2, 3, 4)


def _verdict_record(v):
    return (v.kind, v.rank, v.target)


def _table_call(factors, spec, seed):
    """Table verdict, cross-checked by the oracle on the matched group
    (k + the centers the verdict attached)."""
    verdict = sphericaltable.is_spherical_module_by_table(factors, spec, centers="entries")
    rep = algebras.representation(list(factors), spec)
    centers = [list(map(list, m)) for m in verdict.center_ops]
    group = algebras.CatalogAlgebra(
        [list(map(list, m)) for m in rep.basis] + centers,
        [list(map(list, m)) for m in rep.borel_basis] + centers,
        rep.n,
        dict(rep.meta),
    )
    found = oracle.is_spherical_module(group, with_scalar=False, samples=5, seed=seed)
    record = ("table", verdict.spherical, verdict.entries, verdict.reason) + _verdict_record(found)
    return bool(verdict) == bool(found), record


def _negative_call(factors, spec, seed):
    verdict = sphericaltable.is_spherical_module_by_table(factors, spec)
    found = oracle.is_spherical_module(factors, spec, with_scalar=True, samples=5, seed=seed)
    record = ("negative", verdict.spherical, verdict.reason) + _verdict_record(found)
    return not verdict and not found, record


def _pf_call(n):
    spans = snmod.pf_generators_span(n)
    return spans is True, ("pf", n, spans)


def exact_span(seed):
    seeds = call_seeds(seed, len(TABLE_CASES) + 1)
    calls = []
    for (factors, summands), s in zip(TABLE_CASES, seeds):
        algs = [make_algebra(tag, n) for tag, n in factors]
        calls.append(partial(_table_call, algs, ModuleSpec(summands), s))
    factors, summands = NEGATIVE_CASE
    algs = [make_algebra(tag, n) for tag, n in factors]
    calls.append(partial(_negative_call, algs, ModuleSpec(summands), seeds[-1]))
    calls.extend(partial(_pf_call, n) for n in PF_SIZES)
    return calls


# --- cli_golden --------------------------------------------------------------

GOLDEN_CASES = [
    ("tuple.txt", ["tuple", "16/3,5,4,3,2,1"]),
    ("joseph_sl.txt", ["joseph", "sl", "2,3,1"]),
    ("odd_pair.txt", ["odd-pair", "5/2,3/2,1/2"]),
    ("count_simples.txt", ["count-simples", "--quiver", "A", "--n", "2", "--monodromy", "1/3"]),
    ("order.txt", ["order", "--flag1", "1", "--flag2", "2", "--n", "6"]),
    ("classify.txt", ["classify", "--dims", "2", "--k", "sp(4)+sl(3)"]),
    ("oracle_flag.txt", ["oracle", "--k", "sp(4)", "--dims", "1,2", "--seed", "5"]),
    ("product.txt", ["product", "--steps1", "2,3", "--steps2", "1,2,2", "--check", "--seed", "3"]),
    ("table.txt", ["table", "--k", "sl(2)+sp(4) on C2xC4"]),
]


def cli_env(root):
    """Environment of a CLI child: the checkout's sources first on the
    path, and no LIECLASS_SEED, since the golden argv fix their own seeds."""
    env = dict(os.environ)
    env.pop("LIECLASS_SEED", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _cli_process_call(argv, expected, env):
    """One question in a fresh interpreter: start, import, parse, answer."""
    proc = subprocess.run(
        [sys.executable, "-m", "lieclass.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        check=False,
    )
    return proc.returncode == 0 and proc.stdout == expected, ("cli", argv, proc.stdout)


def _cli_inprocess_call(argv, expected):
    """The same question through cli.run, so spans can see its layers."""
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    stdout = buf.getvalue().encode()
    return code == 0 and stdout == expected, ("cli", argv, stdout)


def cli_golden(seed, root, in_process=False):
    """The seed does not apply: the golden argv fix their own seeds."""
    env = cli_env(root)
    calls = []
    for fname, argv in GOLDEN_CASES:
        with open(os.path.join(root, "tests", "golden", fname), "rb") as fh:
            expected = fh.read()
        if in_process:
            calls.append(partial(_cli_inprocess_call, argv, expected))
        else:
            calls.append(partial(_cli_process_call, argv, expected, env))
    return calls


def build(name, seed, root, in_process=False):
    """Calls of one pass of the named workload."""
    if name == "cli_golden":
        return cli_golden(seed, root, in_process)
    return {"flag_sweep": flag_sweep, "product_sweep": product_sweep, "exact_span": exact_span}[name](seed)


def warmup(name, calls, in_process=False):
    """Calls run once, untimed, before the first timed pass, so that
    first-use costs (lazy imports, heap growth, cold caches) are not charged
    to the first pass only: a spread of the flag and product calls, and
    every exact_span call.  CLI questions asked in fresh interpreters get
    none."""
    if name == "flag_sweep":
        return calls[::50]
    if name == "product_sweep":
        return calls[::25]
    if name == "cli_golden" and not in_process:
        return []
    return calls


WORKLOADS = tuple(SECONDS_PER_PASS)
