"""Seeded oracle verdicts pinned as one SHA-256 digest per group of calls.

A digest covers (kind, rank, target, samples, seed, certificate) of every
call in its group, in order, so a change to any verdict, rank, random
stream or certificate point changes it.  A product pair is public only as
a complexity: that group hashes the complexity product_flag_complexity
returns, next to the full verdict of the Levi scan of the same pair
(is_spherical_flag under levi_borel), in both orders.

Run this file as a script to print the digests of the current code."""

import hashlib
import itertools

from lieclass.algebras import make_algebra
from lieclass.classifier import datum_algebra
from lieclass.cli import parse_algebra_module
from lieclass.oracle import (
    FlagPoint,
    is_spherical_flag,
    is_spherical_module,
    levi_borel,
    product_flag_complexity,
)
from lieclass.partitions import canonical_flag
from test_acceptance import small_data, step_multisets

MODULES = (
    "sl(3) on C3",
    "sl(3) on C3+C3",
    "gl(3) on C3+C3",
    "sl(4) on C4+C4*",
    "so(5) on C5+C5",
    "sp(6) on C6+C1",
    "sl(2)+sp(4) on C2xC4",
    "sl(10) on C10+C10+C10",
    "so(16) on C16+C16",
    "sp(16) on C16+C16",
)

PINNED = {
    "criterion-1 flags, n <= 6": (
        "39fef1a81253d9e71620094f348400760a2c5facc180f0458ce16139afd72978"
    ),
    "product and Levi pairs, n <= 7": (
        "c088003da72a4d2cb6c6059576fe417063ae76ef96d01f6885ff6626d0c3b927"
    ),
    "module questions": (
        "73b173a7d7fd1a903ab514bb5bc6eee56972f65e415ff6e8e0a9bd1df0da6a0e"
    ),
}


def _record(v):
    cert = v.certificate
    if isinstance(cert, FlagPoint):
        cert = (cert.ambient, cert.dims, cert.lower.tolist())
    return (v.kind, v.rank, v.target, v.samples, v.seed, cert)


def _criterion_1():
    cache = {}
    for i, d in enumerate(small_data(range(2, 7))):
        key = (d.factors, d.trivial)
        if key not in cache:
            cache[key] = datum_algebra(d)
        for seed in (i, i + 1000):
            yield _record(is_spherical_flag(cache[key], d.flag, samples=5, seed=seed))


def _pairs():
    for n in range(2, 8):
        for i, (a, b) in enumerate(
            itertools.combinations_with_replacement(step_multisets(n), 2)
        ):
            f1, f2 = canonical_flag(a, n), canonical_flag(b, n)
            for x, y in ((f1, f2), (f2, f1)):
                seed = i % 5
                yield product_flag_complexity(n, x, y, samples=5, seed=seed)
                yield _record(
                    is_spherical_flag(levi_borel(n, y), x, samples=5, seed=seed)
                )


def _modules():
    for text in MODULES:
        factors, spec = parse_algebra_module(text)
        ks = [make_algebra(*f) for f in factors]
        for with_scalar in (True, False):
            for seed in range(3):
                yield _record(is_spherical_module(ks, spec, with_scalar, 5, seed))


GROUPS = {
    "criterion-1 flags, n <= 6": _criterion_1,
    "product and Levi pairs, n <= 7": _pairs,
    "module questions": _modules,
}


def digest(group):
    h = hashlib.sha256()
    for record in GROUPS[group]():
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_seeded_verdicts_are_pinned():
    got = {group: digest(group) for group in GROUPS}
    changed = [group for group in GROUPS if got[group] != PINNED[group]]
    assert not changed, "seeded verdicts changed in: %s" % ", ".join(changed)


if __name__ == "__main__":
    for group in GROUPS:
        print("%r: %r," % (group, digest(group)))
