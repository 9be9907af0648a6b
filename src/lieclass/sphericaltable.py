"""The spherical-module table and its normalizer criterion.

A module W of a reductive K is spherical exactly when every weakly
irreducible block of ([k,k], W) appears in the table below and the algebra
k + (attached centers) is its own normalizer in gl(W).  Blocks are matched
structurally; the bracketed centers attached to an entry are per-summand
scalar operators.  This predicate is used as the P(V) test: the overall
scalar is appended by default, matching sphericity of the projectivized
module.

_match_block is the one statement of the table: it returns the id of the
entry a block matches (0, i-1..i-6, ii-1..ii-6, iii-1..iii-17) with the
centers attached to it.  The table's entries for spin representations, G2,
E6 and the triality of so_8 have no matrix constructors and are not matched
as such, though a spin module can arise from a ModuleSpec: sp(4) on C4 is
the spin module of so(5) = sp(4), and matches i-3.  Two low-rank
isomorphisms are not matched, so their blocks read "block not in table"
while the oracle proves both spherical (open, ROADMAP.md direction 3):
wedge2 of sl(3) = C3* beside another summand (sl(3) on C3+wedge2 is iii-3's
C3+C3*), and wedge2 of so(3) = C3, the adjoint (so(3) on wedge2).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .algebras import (
    CatalogAlgebra,
    ModuleSpec,
    _factor_refs,
    normalizer_dim,
    representation,
    scalar_on_summands,
    summand_scalars,
)
from .errors import BadParameter, UnrecognizedShape


class Block:
    """One weakly irreducible piece: factors plus the summands they share.

    summand entries use block-local factor indices and carry the global
    summand position for center bookkeeping.
    """

    __slots__ = ("factors", "summands", "positions")

    def __init__(self, factors, summands, positions):
        self.factors = tuple(factors)  # ((tag, size), ...)
        self.summands = tuple(summands)
        self.positions = tuple(positions)  # global summand indices


def _canonical_factor(tag, size):
    if tag == "sp" and size == 2:
        return ("sl", 2)
    if tag == "gl":
        return ("sl", size)
    return (tag, size)


def _canonical_summands(spec: ModuleSpec, factor_pairs):
    """Rewrite summands so that rank-0 factors and degenerate squares become
    trivial summands; returns list of (summand, referenced local factors)."""
    out = []
    for s in spec.summands:
        if s[0] == "trivial":
            out.append(("trivial",))
            continue
        if s[0] in ("natural", "dual", "sym2", "wedge2"):
            f = s[1]
            size = factor_pairs[f][1]
            if size == 1:
                if s[0] == "wedge2":
                    continue  # zero-dimensional
                out.append(("trivial",))
                continue
            if s[0] == "wedge2" and size == 2:
                out.append(("trivial",))
                continue
            if s[0] == "dual" and factor_pairs[f][0] != "sl":
                # the natural modules of so/sp are self-dual
                out.append(("natural", f))
                continue
            out.append(s)
            continue
        (i, ci), (j, cj) = s[1], s[2]
        if factor_pairs[i][1] == 1 and factor_pairs[j][1] == 1:
            out.append(("trivial",))
        elif factor_pairs[i][1] == 1:
            out.append(("natural" if cj == "n" else "dual", j))
        elif factor_pairs[j][1] == 1:
            out.append(("natural" if ci == "n" else "dual", i))
        else:
            if factor_pairs[i][0] != "sl":
                ci = "n"
            if factor_pairs[j][0] != "sl":
                cj = "n"
            out.append(("tensor", (i, ci), (j, cj)))
    return out


def decompose_blocks(factors, spec: ModuleSpec):
    """Split (factors, module) into weakly irreducible blocks."""
    pairs = [_canonical_factor(f.meta["type"], f.n) for f in factors]
    summands = _canonical_summands(spec, pairs)
    # union-find over summand positions through shared factors
    parent = list(range(len(summands)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    by_factor = {}
    for pos, s in enumerate(summands):
        for f in _factor_refs(s):
            if f in by_factor:
                ra, rb = find(by_factor[f]), find(pos)
                parent[ra] = rb
            else:
                by_factor[f] = pos
    groups = {}
    for pos in range(len(summands)):
        groups.setdefault(find(pos), []).append(pos)
    blocks = []
    for poss in groups.values():
        facs = sorted({f for p in poss for f in _factor_refs(summands[p])})
        local = {f: i for i, f in enumerate(facs)}

        def relabel(s):
            if s[0] == "trivial":
                return s
            if s[0] == "tensor":
                return (
                    "tensor",
                    (local[s[1][0]], s[1][1]),
                    (local[s[2][0]], s[2][1]),
                )
            return (s[0], local[s[1]])

        blocks.append(
            Block(
                [pairs[f] for f in facs],
                [relabel(summands[p]) for p in poss],
                poss,
            )
        )
    return blocks


def _is(fac, tag, lo=None, hi=None, eq=None, parity=None):
    t, k = fac
    if t != tag:
        return False
    if eq is not None and k != eq:
        return False
    if lo is not None and k < lo:
        return False
    if hi is not None and k > hi:
        return False
    if parity is not None and k % 2 != parity:
        return False
    return True


def _match_block(block: Block):
    """Return (entry id, centers) or None.  Centers are lists of weight
    dicts {local summand position: weight}."""
    facs = block.factors
    ss = list(block.summands)
    nf, ns = len(facs), len(ss)

    def h1_all():
        return [{i: 1 for i in range(ns)}]

    # -- no factors: trivial line
    if nf == 0:
        if ns == 1 and ss[0] == ("trivial",):
            return ("0", [])
        return None

    if nf == 1:
        (tag, k) = facs[0]
        if ns == 1:
            s = ss[0]
            if s[0] in ("natural", "dual"):
                if tag == "sl" and k >= 2:
                    return ("i-1", h1_all())
                if tag == "so" and k >= 3:
                    return ("i-2", [])
                if tag == "sp" and k >= 4:
                    return ("i-3", h1_all())
                return None
            if s[0] == "sym2" and tag == "sl":
                if k >= 3:
                    return ("i-4", [])
                if k == 2:  # S^2 C^2 is the natural so_3-module
                    return ("i-2", [])
                return None
            if s[0] == "wedge2" and tag == "sl":
                if k == 3:  # isomorphic to the dual natural module
                    return ("i-1", h1_all())
                if k == 4:  # isomorphic to the natural so_6-module
                    return ("i-2", [])
                if k >= 5 and k % 2 == 1:
                    return ("i-5", h1_all())
                if k >= 6 and k % 2 == 0:
                    return ("i-6", [])
                return None
            return None
        if ns == 2 and tag == "sl":
            kinds = sorted(s[0] for s in ss)
            if kinds == ["natural", "natural"] or kinds == ["dual", "dual"]:
                if k >= 3:
                    return ("iii-2", h1_all())
                if k == 2:
                    return ("iii-12", [])
            if kinds == ["dual", "natural"]:
                if k == 2:
                    return ("iii-12", [])
                if k >= 3:
                    a = next(i for i, s in enumerate(ss) if s[0] == "natural")
                    b = 1 - a
                    return ("iii-3", [{a: 1, b: -1}])
            if "wedge2" in kinds and k >= 4:
                w = next(i for i, s in enumerate(ss) if s[0] == "wedge2")
                v = 1 - w
                if ss[v][0] in ("natural", "dual"):
                    if k % 2 == 0:
                        return ("iii-4", [{v: 0, w: 1}])
                    if ss[v][0] == "natural":
                        return ("iii-5", [{v: 1, w: -2}])
                    return ("iii-6", [{v: 1, w: 2}])
            return None
        return None

    if nf == 2:
        for a, b in permutations(range(2)):
            fa, fb = facs[a], facs[b]
            if ns == 1 and ss[0][0] == "tensor":
                (i, _), (j, _) = ss[0][1], ss[0][2]
                if {i, j} != {0, 1}:
                    return None
                if _is(fa, "sl") and _is(fb, "sl"):
                    n, m = fa[1], fb[1]
                    if 2 <= n < m:
                        return ("ii-1", h1_all())
                    if n == m and n >= 2:
                        return ("ii-2", [])
                if _is(fa, "sl", eq=2) and _is(fb, "sp", lo=4):
                    return ("ii-3", [])
                if _is(fa, "sl", eq=3) and _is(fb, "sp", lo=4):
                    return ("ii-4", [])
                if _is(fa, "sl", lo=5) and _is(fb, "sp", eq=4):
                    return ("ii-5", h1_all())
                if _is(fa, "sl", eq=4) and _is(fb, "sp", eq=4):
                    return ("ii-6", [])
                continue
            if ns == 2:
                plain = [i for i, s in enumerate(ss) if s[0] in ("natural", "dual")]
                tens = [i for i, s in enumerate(ss) if s[0] == "tensor"]
                if len(plain) != 1 or len(tens) != 1:
                    return None
                p, t = plain[0], tens[0]
                if ss[p][1] != a:
                    continue
                (i, ci), (j, cj) = ss[t][1], ss[t][2]
                if (i, j) == (b, a):
                    (i, ci), (j, cj) = (j, cj), (i, ci)
                if (i, j) != (a, b):
                    continue
                if _is(fa, "sl") and _is(fb, "sl"):
                    n, m = fa[1], fb[1]
                    same_conj = ("n" if ss[p][0] == "natural" else "d") == ci
                    if same_conj or n == 2:
                        if 2 <= n < m:
                            return ("iii-7", [{p: 1, t: 0}])
                        if m >= 2 and n >= m + 2:
                            return ("iii-8", h1_all())
                        if n == m and n >= 2:
                            return ("iii-13", [])
                        if n == m + 1 and m >= 2:
                            return ("iii-14", [])
                    if not same_conj:
                        if 2 <= n < m:
                            return ("iii-9", [{p: 1, t: 0}])
                        if m >= 2 and n >= m + 2:
                            return ("iii-10", [{p: 1, t: -1}])
                        if n == m and n >= 2:
                            return ("iii-13", [])
                        if n == m + 1 and m >= 2:
                            return ("iii-14", [])
                    continue
                if _is(fa, "sl", eq=2) and _is(fb, "sp", lo=4):
                    return ("iii-15", [])
                continue
        return None

    if nf == 3 and ns == 2 and all(s[0] == "tensor" for s in ss):
        for perm in permutations(range(3)):
            a, b, c = perm  # c plays the sl_2 role
            if not _is(facs[c], "sl", eq=2):
                continue
            t0 = [s for s in ss if {s[1][0], s[2][0]} == {a, c}]
            t1 = [s for s in ss if {s[1][0], s[2][0]} == {b, c}]
            if len(t0) != 1 or len(t1) != 1:
                continue
            p0 = ss.index(t0[0])
            p1 = ss.index(t1[0])
            if _is(facs[a], "sl", lo=3) and _is(facs[b], "sl", lo=3):
                return ("iii-1", [{p0: 1, p1: 0}, {p0: 0, p1: 1}])
            if _is(facs[a], "sl", lo=3) and _is(facs[b], "sp", lo=2):
                return ("iii-11", [{p0: 0, p1: 1}])
            if _is(facs[a], "sp", lo=4) and _is(facs[b], "sp", lo=4):
                return ("iii-16", [])
            if _is(facs[a], "sl", eq=2) and _is(facs[b], "sl", eq=2):
                return ("iii-17", [])
        return None
    return None


class TableVerdict:
    __slots__ = ("spherical", "entries", "reason", "center_ops")

    def __init__(self, spherical, entries, reason="", center_ops=()):
        self.spherical = spherical
        self.entries = tuple(entries)
        self.reason = reason
        self.center_ops = tuple(center_ops)

    def __bool__(self):
        return self.spherical

    def __repr__(self):
        return "TableVerdict(%s, entries=%r, %r)" % (
            self.spherical,
            self.entries,
            self.reason,
        )


def is_spherical_module_by_table(
    factors, spec: ModuleSpec, with_scalar=True, centers="entries"
):
    """Match every weakly irreducible block and test the normalizer fixed
    point for k + centers (+ overall scalar).

    centers="entries" adjoins the center attached to each matched table
    entry; centers="summands" adjoins every per-summand scalar instead,
    which answers whether ANY choice of center makes the module spherical
    (sphericity is monotone in the group, so the maximal torus of
    summand scalars is decisive).  The summand scalars span the overall
    scalar, so with_scalar=False under "summands" raises BadParameter, as
    does any other centers value."""
    if centers not in ("entries", "summands"):
        raise BadParameter("centers must be 'entries' or 'summands', got %r" % (centers,))
    if centers == "summands" and not with_scalar:
        raise BadParameter(
            "the overall scalar cannot be left out with centers='summands': "
            "the summand scalars sum to it"
        )
    if isinstance(factors, CatalogAlgebra):
        factors = [factors]
    for f in factors:
        if f.meta["type"] not in ("sl", "so", "sp", "gl"):
            raise UnrecognizedShape(
                "factor type %r not in table vocabulary" % (f.meta["type"],)
            )
    blocks = decompose_blocks(factors, spec)
    matched = []
    center_weights = []  # dicts over global summand positions
    for blk in blocks:
        hit = _match_block(blk)
        if hit is None:
            return TableVerdict(False, [e for e, _ in matched], "block not in table")
        eid, block_centers = hit
        matched.append((eid, blk))
        for cw in block_centers:
            center_weights.append(
                {blk.positions[local]: w for local, w in cw.items()}
            )
    sizes = [f.n for f in factors]
    rep = representation(list(factors), spec)
    nsum = len(spec.summands)
    extra = []
    if centers == "summands":
        extra.extend(summand_scalars(spec, sizes))
    else:
        for cw in center_weights:
            weights = [cw.get(i, 0) for i in range(nsum)]
            extra.append(scalar_on_summands(spec, sizes, weights))
        for f_index, f in enumerate(factors):
            if f.meta["type"] == "gl":
                # the gl center acts as a scalar on each summand it touches
                weights = [
                    1 if f_index in _factor_refs(s) else 0
                    for s in spec.summands
                ]
                extra.append(scalar_on_summands(spec, sizes, weights))
        if with_scalar:
            extra.append(np.eye(rep.n, dtype=np.int64))
    dim = normalizer_dim(rep.basis, extra, rep.n)
    ok = dim == dim.span_dim
    return TableVerdict(
        ok,
        [e for e, _ in matched],
        "" if ok else "normalizer strictly larger",
        center_ops=extra,
    )
