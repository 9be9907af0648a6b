"""Timing of the mod-p rank kernels on the matrices the oracle ranks.

The matrices are real constraint rows mod p, built by the oracle's own
residue pipeline at one seed: every flag of C^n with up to three steps
(n = 2..7) under the gl, so and sp Borels (at most 34 x 28), and the
stacked rows of every pair of canonical flags under the gl_n Borel
(n = 2..7, at most 112 x 28).  The numpy kernel is always timed.  The
numba kernel is timed beside it, and its ranks checked against numpy's,
only when numba imports and LIECLASS_NO_NUMBA is unset; otherwise the
script says so and exits 0.

Run with:

    python3 benchmarks/rank_bench.py
    python3 benchmarks/rank_bench.py --repeats 5 --seed 3
"""

import argparse
import itertools
import time

import numpy as np

from lieclass import rank
from lieclass.algebras import make_algebra
from lieclass.oracle import _flag_residues, _gl_borel, sample_flag_point
from lieclass.partitions import FlagType, canonical_flag


def flags_of(n, lengths):
    return [
        FlagType(dims, n)
        for length in lengths
        for dims in itertools.combinations(range(1, n), length)
    ]


def canonical_flags(n):
    """One flag per step multiset of C^n."""
    steps = {
        tuple(sorted(np.diff((0,) + f.dims + (n,)).tolist()))
        for f in flags_of(n, range(1, n))
    }
    return [canonical_flag(s) for s in sorted(steps)]


def residue_matrices(borel, flags, rng):
    points = [tuple(sample_flag_point(f, rng) for f in flags)]
    return list(_flag_residues(borel, points, flags))


def workloads(seed):
    """Name -> list of int64 residue matrices, as the oracle ranks them."""
    rng = np.random.default_rng(seed)
    flag, product = [], []
    for n in range(2, 8):
        tags = ["gl"] + ["so"] * (n >= 3) + ["sp"] * (n % 2 == 0)
        for tag in tags:
            borel = make_algebra(tag, n).borel_basis
            for f in flags_of(n, (1, 2, 3)):
                flag += residue_matrices(borel, (f,), rng)
        gl = _gl_borel(n)
        pairs = itertools.combinations_with_replacement(canonical_flags(n), 2)
        for f1, f2 in pairs:
            product += residue_matrices(gl, (f1, f2), rng)
    return {"flag": flag, "product": product}


def time_kernel(fn, mats, repeats):
    """Best-of-repeats wall time for running fn over every matrix once."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for m in mats:
            fn(m)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    kernels = [("numpy", rank._rank_modp_numpy)]
    if rank.HAS_NUMBA:
        kernels.append(("numba", rank._rank_modp_numba))
        # Trigger JIT compilation outside the timed region.
        rank._rank_modp_numba(np.eye(8, dtype=np.int64))
    else:
        print("numba: absent (not installed or LIECLASS_NO_NUMBA set); "
              "timing the numpy kernel only")

    header = f"{'matrices':>8} {'count':>6} {'max shape':>10}" + "".join(
        f" {name + ' us/mat':>15}" for name, _ in kernels
    )
    print(header)
    print("-" * len(header))
    for name, mats in workloads(args.seed).items():
        ranks = [rank._rank_modp_numpy(m) for m in mats]
        for _, fn in kernels[1:]:
            assert [fn(m) for m in mats] == ranks
        rows = max(m.shape[0] for m in mats)
        cols = max(m.shape[1] for m in mats)
        line = f"{name:>8} {len(mats):>6} {f'{rows}x{cols}':>10}"
        for _, fn in kernels:
            t = time_kernel(fn, mats, args.repeats)
            line += f" {1e6 * t / len(mats):>15.1f}"
        print(line)


if __name__ == "__main__":
    main()
