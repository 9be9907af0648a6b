"""End-to-end acceptance checks: list-vs-oracle sweeps, exhaustive order
facts, randomized suites with fixed seeds, and reproducibility."""

import io
import itertools
import os
from fractions import Fraction
from math import factorial

import numpy as np

from lieclass import cli, oracle
from lieclass.algebras import ModuleSpec, gl_borel, make_algebra, representation
from lieclass.classifier import (
    ClassificationDatum,
    classify_flag_datum,
    datum_algebra,
    product_flags_spherical,
)
from lieclass.joseph import bounded_count_sl, is_joseph_sl, odd_pair
from lieclass.oracle import (
    is_spherical_flag,
    levi_flag_complexity,
    product_flag_complexity,
    sample_flag_point,
)
from lieclass.partitions import (
    FlagType,
    Partition,
    canonical_flag,
    cotangent_equivalent,
    dominance_leq,
    flag_order,
    orbit_dim,
)
from lieclass.quivers import (
    QuiverSpec,
    check_relations,
    count_P,
    enumerate_simples,
    is_simple,
    monodromy_scalar,
    witness,
)
from lieclass.snmod import (
    conjugacy_classes,
    direct_sum_rep,
    lsn_check,
    mn_character,
    partitions_of,
    permutation_rep,
    pf_generators_span,
    sign_rep,
    standard_rep,
    tensor_sign,
    trivial_rep,
)
from lieclass.tuples import (
    MonodromyClass,
    classify_tuple,
    is_positive_sw,
    is_shale_weil,
    monodromy,
    mu0,
    removal_residues,
    sigma,
)

SEED = 20260823


def int_partitions(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxpart), 0, -1):
        for rest in int_partitions(n - p, p):
            yield (p,) + rest


def all_flags(n, max_len=None):
    top = len(range(1, n)) if max_len is None else max_len
    for length in range(1, top + 1):
        for dims in itertools.combinations(range(1, n), length):
            yield FlagType(dims, n)


# ---------------------------------------------------------------------------
# 1. classifier agrees with the rank oracle on every small datum


def small_data(ns=range(2, 8)):
    def tags_for(size):
        out = [("sl", size)]
        if size >= 3:
            out.append(("so", size))
        if size >= 4 and size % 2 == 0:
            out.append(("sp", size))
        return out

    for n in ns:
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
                    continue  # unordered factor multiset
                for dims in flag_sets:
                    yield ClassificationDatum(dims, list(assign), trivial)


def _criterion_1_sweep(data):
    alg_cache = {}
    count = 0
    for d in data:
        verdict = classify_flag_datum(d)
        key = (d.factors, d.trivial)
        if key not in alg_cache:
            alg_cache[key] = datum_algebra(d)
        found = is_spherical_flag(
            alg_cache[key], d.flag, samples=5, seed=SEED
        )
        assert bool(verdict) == bool(found), (d, verdict, found)
        count += 1
    return count


def test_criterion_1_classifier_oracle_agreement():
    assert _criterion_1_sweep(small_data()) > 1000


def test_criterion_1_classifier_oracle_agreement_n8():
    assert _criterion_1_sweep(small_data([8])) == 1953


# ---------------------------------------------------------------------------
# 2. specific oracle facts


class TestCriterion2OracleFacts:
    def test_a_all_c4_flags_sp4_spherical(self):
        k = make_algebra("sp", 4)
        for flag in all_flags(4):
            assert is_spherical_flag(k, flag, seed=SEED), flag

    def test_b_fl_2_4_not_sp6_spherical(self):
        k = make_algebra("sp", 6)
        v = is_spherical_flag(k, FlagType((2, 4), 6), seed=SEED)
        assert v.kind == "ProbablyNo"

    def test_c_fl_1_2_not_so_spherical(self):
        for n in (5, 6, 7):
            k = make_algebra("so", n)
            v = is_spherical_flag(k, FlagType((1, 2), n), seed=SEED)
            assert v.kind == "ProbablyNo", n

    def test_d_grassmannian_of_tensor_planes(self):
        expected = {2: True, 3: False, 4: False}
        for m, spherical in expected.items():
            rep = representation(
                [make_algebra("sl", 2), make_algebra("sl", m)],
                ModuleSpec([("tensor", (0, "n"), (1, "n"))]),
            )
            v = is_spherical_flag(rep, FlagType((2,), 2 * m), seed=SEED)
            assert bool(v) == spherical, m

    def test_d_dimension_inequality(self):
        # necessary condition: the Borel of SL2 x SLm must be at least as
        # big as Gr(2; C^{2m}); this reduces to (m-2)(m-5) >= 0
        for m in range(2, 9):
            borel_dim = (
                make_algebra("sl", 2).borel_dim
                + make_algebra("sl", m).borel_dim
            )
            gr_dim = FlagType((2,), 2 * m).dim()
            assert (borel_dim >= gr_dim) == ((m - 2) * (m - 5) >= 0), m


# ---------------------------------------------------------------------------
# 3. product-flag list equals the oracle verdict for all pairs, n <= 8


def step_multisets(n):
    return [p for p in int_partitions(n) if len(p) >= 2]


def test_criterion_3_product_list_vs_oracle():
    for n in range(2, 9):
        ms = step_multisets(n)
        for a, b in itertools.combinations_with_replacement(ms, 2):
            c = product_flag_complexity(
                n, canonical_flag(a, n), canonical_flag(b, n),
                samples=5, seed=99,
            )
            assert (c == 0) == product_flags_spherical(a, b), (n, a, b, c)


def test_criterion_3_levi_scans_are_as_certain_as_stacked_ones(monkeypatch):
    # the scan over both flags' stacked rows gave 98 Yes and 328 No on
    # this sweep, 274 of the Nos stopped early (a stop is a certain No)
    counts, scan = {"Yes": 0, "ProbablyNo": 0, "early": 0}, oracle._scan

    def spy(borel, scalars, target, draw, rows, *rest):
        ranked = []

        def counted(x, p):
            if p is not None:
                ranked.append(x)
            return rows(x, p)

        v = scan(borel, scalars, target, draw, counted, *rest)
        counts[v.kind] += 1
        counts["early"] += v.kind == "ProbablyNo" and len(ranked) < v.samples
        return v

    monkeypatch.setattr(oracle, "_scan", spy)
    for n in range(2, 9):
        ms = step_multisets(n)
        for a, b in itertools.combinations_with_replacement(ms, 2):
            product_flag_complexity(
                n, canonical_flag(a, n), canonical_flag(b, n),
                samples=5, seed=99,
            )
    assert (counts["Yes"], counts["ProbablyNo"]) == (98, 328)
    assert counts["early"] >= 274


# ---------------------------------------------------------------------------
# 4. product complexity computed two ways agrees, n <= 7


def stacked_rows(points, p=oracle.MOD_PRIME):
    """The constraint rows of the gl_n Borel at a point of G/P x G/Q: each
    flag's rows over gl_borel(n), stacked in order (dim G/P + dim G/Q rows,
    n (n + 1) / 2 columns); residues mod p, or exact for p None."""
    n = points[0].ambient
    return np.concatenate(
        [oracle._flag_residues(gl_borel(n), x, p) for x in points]
    )


def stacked_product_verdict(n, f1, f2, samples, seed):
    """Reference for product_flag_complexity: the gl_n Borel on the product
    itself, one point per flag per sample (f1's, then f2's, as drawn when
    the scan reaches the sample), ranked by the oracle's scan on the
    stacked rows.  A Yes carries the pair of points."""
    return oracle._scan(
        gl_borel(n),
        True,
        f1.dim() + f2.dim(),
        lambda rng: (sample_flag_point(f1, rng), sample_flag_point(f2, rng)),
        stacked_rows,
        samples,
        seed,
    )


def test_criterion_4_product_vs_levi_complexity():
    for n in range(2, 8):
        ms = step_multisets(n)
        for a in ms:
            for b in ms:
                f1 = canonical_flag(a, n)
                f2 = canonical_flag(b, n)
                c1 = stacked_product_verdict(n, f1, f2, 5, 7).complexity
                c2 = levi_flag_complexity(n, f1, f2, samples=5, seed=8)
                c3 = levi_flag_complexity(n, f2, f1, samples=5, seed=9)
                c4 = product_flag_complexity(n, f1, f2, samples=5, seed=7)
                assert c1 == c2 == c3 == c4, (n, a, b, c1, c2, c3, c4)


# ---------------------------------------------------------------------------
# 5. partition-order facts, exhaustively


class TestCriterion5PartitionFacts:
    def test_fact_1_projective_space_is_minimal(self):
        for n in range(2, 9):
            pv = FlagType((1,), n)
            for f in all_flags(n):
                rel = flag_order(f, pv).value
                assert rel in ("Higher", "CotangentEquivalent"), f

    def test_fact_2_grassmannian_chain(self):
        for n in range(2, 9):
            for r2 in range(1, n // 2 + 1):
                for r1 in range(r2 + 1, n // 2 + 1):
                    rel = flag_order(FlagType((r1,), n), FlagType((r2,), n))
                    assert rel.value == "Higher", (n, r1, r2)

    def test_fact_3_grassmannians_totally_ordered(self):
        for n in range(2, 9):
            for r in range(1, n):
                for s in range(1, n):
                    rel = flag_order(FlagType((r,), n), FlagType((s,), n))
                    assert rel.value != "Incomparable", (n, r, s)

    def test_fact_4_gr2_below_everything_else(self):
        for n in range(4, 9):
            pv = FlagType((1,), n)
            gr2 = FlagType((2,), n)
            for f in all_flags(n):
                if cotangent_equivalent(f, pv):
                    continue
                rel = flag_order(f, gr2).value
                assert rel in ("Higher", "CotangentEquivalent"), f

    def test_fact_5_low_rungs_of_the_order(self):
        for n in range(4, 9):
            fl13 = FlagType((1, 3), n)
            for f in all_flags(n):
                if len(f.dims) == 1:
                    continue
                if cotangent_equivalent(f, FlagType((1, 2), n)):
                    continue
                if cotangent_equivalent(f, fl13):
                    continue
                assert flag_order(f, fl13).value == "Higher", f

    def test_fact_6_next_rung(self):
        for n in range(5, 9):
            fl24 = FlagType((2, 4), n)
            for f in all_flags(n):
                if len(f.dims) == 1:
                    continue
                if any(
                    cotangent_equivalent(f, FlagType((1, r), n))
                    for r in range(2, n)
                ):
                    continue
                if n > 3 and cotangent_equivalent(f, FlagType((1, 2, 3), n)):
                    continue
                if cotangent_equivalent(f, fl24):
                    continue
                assert flag_order(f, fl24).value == "Higher", f

    def test_dominance_is_a_partial_order(self):
        for n in range(1, 13):
            parts = [Partition(p) for p in int_partitions(n)]
            for p in parts:
                assert dominance_leq(p, p)
            for p in parts:
                for q in parts:
                    if dominance_leq(p, q) and dominance_leq(q, p):
                        assert p == q
            for p in parts:
                for q in parts:
                    if not dominance_leq(p, q):
                        continue
                    for r in parts:
                        if dominance_leq(q, r):
                            assert dominance_leq(p, r), (p, q, r)

    def test_orbit_dim_monotone_under_dominance(self):
        for n in range(1, 11):
            parts = [Partition(p) for p in int_partitions(n)]
            for p in parts:
                for q in parts:
                    if dominance_leq(p, q):
                        assert orbit_dim(p) <= orbit_dim(q), (p, q)


# ---------------------------------------------------------------------------
# 6. tuple suite with independent brute-force reimplementations


def brute_decreasing(t):
    return all(
        (t[i] - t[i + 1]).denominator == 1 and t[i] >= t[i + 1]
        for i in range(len(t) - 1)
    )


def brute_integral(t):
    return all((a - b).denominator == 1 for a in t for b in t)


def brute_joseph_sl(t):
    """Direct reading of the three case definitions."""
    semi_dec = not brute_decreasing(t) and any(
        brute_decreasing(t[:r] + t[r + 1 :]) for r in range(len(t))
    )
    integral = brute_integral(t)
    semi_integral = not integral and any(
        brute_integral(t[:r] + t[r + 1 :]) for r in range(len(t))
    )
    regular = len(set(t)) == len(t)
    if semi_integral and semi_dec:
        return "CaseA"
    if integral and not regular and semi_dec:
        return "CaseB"
    if integral and regular:
        hits = []
        for i in range(len(t) - 1):
            s = list(t)
            s[i], s[i + 1] = s[i + 1], s[i]
            if all(s[j] > s[j + 1] for j in range(len(s) - 1)):
                hits.append(i + 1)
        if len(hits) == 1 and t[hits[0] - 1] < t[hits[0]]:
            return ("CaseC", hits[0])
    return "NotJoseph"


def random_semi_decreasing(rng, integral_bias):
    n = int(rng.integers(3, 9))
    start = int(rng.integers(-3, 10))
    base = [start]
    for _ in range(n - 2):
        base.append(base[-1] - int(rng.integers(0, 4)))
    pos = int(rng.integers(0, n))
    if integral_bias and rng.random() < 0.5:
        extra = Fraction(base[0] + int(rng.integers(1, 5)))
    else:
        extra = (
            Fraction(int(rng.integers(-20, 40)), int(rng.integers(2, 7)))
        )
    t = tuple(Fraction(x) for x in base[:pos]) + (extra,) + tuple(
        Fraction(x) for x in base[pos:]
    )
    return t


class TestCriterion6TupleSuite:
    def test_monodromy_removal_independence_1000_random(self):
        rng = np.random.default_rng(SEED)
        checked = 0
        while checked < 1000:
            t = random_semi_decreasing(rng, integral_bias=True)
            cls = classify_tuple(t)
            if not cls.semi_decreasing:
                continue
            residues = removal_residues(t)
            assert len(residues) == 1, t
            assert monodromy(t).residue == next(iter(residues))
            # residue 0 exactly for integral tuples
            assert (monodromy(t).residue == 0) == cls.integral, t
            checked += 1

    def test_sigma_involution_and_positivity_flip(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            halves = sorted(
                rng.choice(np.arange(1, 40, 2), size=n, replace=False),
                reverse=True,
            )
            mu = tuple(Fraction(int(h), 2) for h in halves)
            assert sigma(sigma(mu)) == mu
            if is_shale_weil(mu):
                assert is_positive_sw(mu) != is_positive_sw(sigma(mu))

    def test_joseph_matches_brute_force(self):
        vals3 = [Fraction(k, 2) for k in range(0, 9)]
        for t in itertools.product(vals3, repeat=3):
            expect = brute_joseph_sl(t)
            got = is_joseph_sl(t)
            assert got == expect, (t, got, expect)
        vals4 = [Fraction(k) for k in range(0, 5)] + [Fraction(1, 2)]
        for t in itertools.product(vals4, repeat=4):
            assert is_joseph_sl(t) == brute_joseph_sl(t), t

    def test_joseph_matches_brute_force_random_long(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(400):
            n = int(rng.integers(3, 9))
            t = tuple(
                Fraction(int(rng.integers(-6, 12)), int(rng.integers(1, 3)))
                for _ in range(n)
            )
            assert is_joseph_sl(t) == brute_joseph_sl(t), t


# ---------------------------------------------------------------------------
# 7. quiver suite


def residues_up_to(den_cap):
    out = set()
    for q in range(1, den_cap + 1):
        for p in range(q):
            out.add(Fraction(p, q))
    return sorted(out)


def scalar_to_residue(rep):
    s = monodromy_scalar(rep)
    if s.is_rational():
        v = s.as_rational()
        return {Fraction(1): Fraction(0), Fraction(-1): Fraction(1, 2)}[v]
    m = rep.field.m
    for k in range(m):
        if s == rep.field.zeta(k):
            return Fraction(k, m)
    raise AssertionError("monodromy scalar is not a root of unity")


class TestCriterion7QuiverSuite:
    def test_every_descriptor_has_a_certified_witness(self):
        for kind in ("A", "B"):
            for n in range(1, 5):
                spec = QuiverSpec(kind, n)
                for c in residues_up_to(6):
                    descs = enumerate_simples(spec, MonodromyClass(c))
                    for d in descs:
                        r = witness(d)
                        assert check_relations(r), d
                        assert is_simple(r), d
                        assert scalar_to_residue(r) == c, d
                    inner = [
                        d
                        for d in descs
                        if d.support not in (frozenset({0}), frozenset({n}))
                    ]
                    assert count_P(spec, MonodromyClass(c)) == len(inner)

    def test_counts_depend_only_on_residue(self):
        pairs = [
            ((Fraction(16, 3), 5, 4, 3, 2, 1),
             (9, Fraction(28, 3), 8, 7, 6, 5)),
            ((Fraction(11, 2), 5, 4, 3, 2, 1),
             (7, 6, 5, 4, 3, Fraction(5, 2))),
        ]
        for a, b in pairs:
            assert monodromy(a) == monodromy(b)
            assert bounded_count_sl(a, "wedge2", 4) == bounded_count_sl(
                b, "wedge2", 4
            )
        sym_pairs = [
            ((Fraction(10, 3), 3, 2), (5, 4, Fraction(13, 3))),
        ]
        for a, b in sym_pairs:
            assert monodromy(a) == monodromy(b)
            assert bounded_count_sl(a, "sym2", 2) == bounded_count_sl(
                b, "sym2", 2
            )


# ---------------------------------------------------------------------------
# 8. odd pairs


class TestCriterion8OddPairs:
    def test_fifty_random_positive_sw_tuples(self):
        rng = np.random.default_rng(SEED + 3)
        done = 0
        while done < 50:
            n = int(rng.integers(2, 7))
            halves = sorted(
                rng.choice(np.arange(1, 60, 2), size=n, replace=False),
                reverse=True,
            )
            mu = tuple(Fraction(int(h), 2) for h in halves)
            pair = odd_pair(mu)
            assert pair.dims[0] == pair.dims[1], mu
            done += 1

    def test_half_spin_dims_at_minimal_tuple(self):
        for n in range(2, 7):
            assert odd_pair(mu0(n)).dims == (2 ** (n - 1),) * 2


# ---------------------------------------------------------------------------
# 9. symmetric group suite


class TestCriterion9SnSuite:
    def test_character_orthogonality_through_n8(self):
        for n in range(1, 9):
            classes = conjugacy_classes(n)
            order = factorial(n)
            shapes = partitions_of(n)
            for a in shapes:
                for b in shapes:
                    acc = sum(
                        size * mn_character(a, ct) * mn_character(b, ct)
                        for ct, size in classes
                    )
                    assert acc == (order if a == b else 0), (n, a, b)

    def test_lsn_fuzz_conclusions_restricted(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            parts = {
                0: trivial_rep,
                1: sign_rep,
                2: standard_rep,
                3: permutation_rep,
                4: lambda m: tensor_sign(standard_rep(m)),
            }
            rep = parts[int(rng.integers(0, 5))](n)
            for _ in range(int(rng.integers(0, 3))):
                rep = direct_sum_rep(rep, parts[int(rng.integers(0, 5))](n))
            res = lsn_check(rep)  # raises if a conclusion is out of range
            if res.kind == "Conclusion":
                assert set(res.decomposition) <= {(n,), (n - 1, 1)}

    def test_generators_span_group_ring(self):
        for n in range(2, 6):
            assert pf_generators_span(n), n


# ---------------------------------------------------------------------------
# 10. reproducibility


class TestCriterion10Reproducibility:
    def test_probably_no_replays_bit_identically(self):
        cases = [
            (make_algebra("so", 5), FlagType((1, 2), 5)),
            (make_algebra("sp", 6), FlagType((2, 4), 6)),
            (make_algebra("so", 7), FlagType((1, 2, 3), 7)),
        ]
        for k, flag in cases:
            first = is_spherical_flag(k, flag, samples=4, seed=SEED)
            assert first.kind == "ProbablyNo"
            again = is_spherical_flag(
                k, flag, samples=first.samples, seed=first.seed
            )
            assert (again.kind, again.rank, again.target) == (
                first.kind,
                first.rank,
                first.target,
            )

    def test_golden_cli_reports(self):
        golden = os.path.join(os.path.dirname(__file__), "golden")
        from test_cli import GOLDEN_CASES

        for fname, argv in GOLDEN_CASES:
            buf = io.StringIO()
            assert cli.run(argv, out=buf) == 0
            with open(os.path.join(golden, fname), "rb") as fh:
                assert buf.getvalue().encode() == fh.read(), fname
