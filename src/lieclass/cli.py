"""Command line front end.

Every subcommand prints a line-oriented key: value report so runs can be
diffed and replayed.  Stochastic subcommands embed the seed and sample
count in the report; the default seed comes from LIECLASS_SEED.

Exit codes: 0 when a decision was reached, 2 on input errors, 3 when the
requested shape has no supported matrix model.

Each handler imports the modules that answer it, so that a question about
tuples, partitions or quivers loads neither numpy nor the oracle.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .errors import (
    LieclassError,
    BadParameter,
    NoMatrixModel,
    TooLarge,
    UnsupportedShape,
)

_FACTOR_RE = re.compile(r"^(sl|so|sp|gl)\((\d+)\)$")

# Decimal digits a rational literal may have, its exponent counted as that
# many digits: checked on the text, before Fraction builds 10**exponent.
MAX_LITERAL_DIGITS = 1000
# Entries a tuple may have: odd-pair multiplies a Fraction over every pair
# of entries, so its time grows faster than the square of the length.
MAX_TUPLE_LENGTH = 100


def parse_fraction(text):
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    try:
        if len(exponent) > len(str(MAX_LITERAL_DIGITS)) or (
            sum(c.isdigit() for c in mantissa) + int(exponent or 0)
            > MAX_LITERAL_DIGITS
        ):
            raise TooLarge("a number has more than %d digits" % MAX_LITERAL_DIGITS)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter("bad number %r: %s" % (text, exc))


def parse_tuple(text):
    from .tuples import as_tuple

    parts = text.split(",")
    if len(parts) > MAX_TUPLE_LENGTH:
        raise TooLarge("a tuple has more than %d entries" % MAX_TUPLE_LENGTH)
    return as_tuple(parse_fraction(part) for part in parts)


def parse_ints(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise BadParameter("bad integer list %r: %s" % (text, exc))


def parse_factors(text):
    out = []
    for piece in text.replace(" ", "").split("+"):
        m = _FACTOR_RE.match(piece)
        if not m:
            raise BadParameter("bad algebra factor %r" % piece)
        out.append((m.group(1), int(m.group(2))))
    return out


def _factor_of_size(sizes, used, k):
    for i, s in enumerate(sizes):
        if s == k and i not in used:
            used.add(i)
            return i
    for i, s in enumerate(sizes):
        if s == k:
            return i
    raise BadParameter("no factor of size %d for summand C%d" % (k, k))


def parse_module_spec(text, sizes):
    """Summand syntax: C1 (trivial line), Ck / Ck* (natural / dual of the
    k-dimensional factor), CjxCk (tensor of naturals), wedge2 / sym2 of a
    single factor."""
    from .algebras import ModuleSpec

    used = set()
    summands = []
    for piece in text.replace(" ", "").split("+"):
        if piece in ("wedge2", "sym2"):
            if len(sizes) != 1:
                raise BadParameter("%s needs exactly one factor" % piece)
            summands.append((piece, 0))
            continue
        if piece == "C1" and 1 not in sizes:
            summands.append(("trivial",))
            continue
        m = re.match(r"^C(\d+)(\*?)$", piece)
        if m:
            k = int(m.group(1))
            idx = _factor_of_size(sizes, used, k)
            summands.append(("dual" if m.group(2) else "natural", idx))
            continue
        m = re.match(r"^C(\d+)xC(\d+)$", piece)
        if m:
            i = _factor_of_size(sizes, used, int(m.group(1)))
            j = _factor_of_size(sizes, used, int(m.group(2)))
            summands.append(("tensor", (i, "n"), (j, "n")))
            continue
        raise BadParameter("bad module summand %r" % piece)
    return ModuleSpec(summands)


def parse_algebra_module(text):
    """'sl(3)+sp(4) on C3+C4' -> factor list and module spec."""
    if " on " not in text:
        raise BadParameter("expected '<factors> on <module>'")
    left, right = text.split(" on ", 1)
    factors = parse_factors(left)
    spec = parse_module_spec(right, [s for _, s in factors])
    return factors, spec


def _seed(args):
    if args.seed is not None:
        return args.seed
    text = os.environ.get("LIECLASS_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise BadParameter("LIECLASS_SEED must be an integer >= 0, got %r" % text)
    return seed


def _emit(out, pairs):
    for key, value in pairs:
        print("%s: %s" % (key, value), file=out)


def _cmd_tuple(args, out):
    from .tuples import classify_tuple, is_positive_sw, is_shale_weil, monodromy

    t = parse_tuple(args.tuple)
    cls = classify_tuple(t)
    rows = [
        ("tuple", args.tuple),
        ("kind", cls.kind),
        ("integral", "yes" if cls.integral else "no"),
        ("semi-integral", "yes" if cls.semi_integral else "no"),
        ("regular", "yes" if cls.regular else "no"),
    ]
    if cls.semi_decreasing:
        rows.append(("monodromy", str(monodromy(t))))
    rows.append(("shale-weil", "yes" if is_shale_weil(t) else "no"))
    if is_shale_weil(t):
        rows.append(("positive", "yes" if is_positive_sw(t) else "no"))
    _emit(out, rows)
    return 0


def _cmd_joseph(args, out):
    from .joseph import is_joseph_sl, is_joseph_sp

    t = parse_tuple(args.tuple)
    if args.algebra == "sl":
        verdict = is_joseph_sl(t)
        rows = [("algebra", "sl"), ("case", repr(verdict))]
        rows.append(("joseph", "yes" if verdict.is_joseph else "no"))
    else:
        ok = is_joseph_sp(t)
        rows = [("algebra", "sp"), ("joseph", "yes" if ok else "no")]
    _emit(out, rows)
    return 0


def _cmd_odd_pair(args, out):
    from .joseph import odd_pair

    pair = odd_pair(parse_tuple(args.tuple))
    _emit(
        out,
        [
            ("mu", ",".join(str(x) for x in pair.mu)),
            ("lambda", ",".join(str(x) for x in pair.lam)),
            ("sigma-lambda", ",".join(str(x) for x in pair.sigma_lam)),
            ("dims", "%d,%d" % pair.dims),
        ],
    )
    return 0


def _cmd_count_simples(args, out):
    from .quivers import QuiverSpec, count_P, enumerate_simples
    from .tuples import MonodromyClass

    spec = QuiverSpec(args.quiver, args.n)
    if args.monodromy == "generic":
        c = MonodromyClass.generic()
    else:
        c = MonodromyClass(parse_fraction(args.monodromy))
    descs = enumerate_simples(spec, c)
    rows = [
        ("quiver", args.quiver),
        ("n", str(args.n)),
        ("monodromy", str(c)),
        ("count-P", str(count_P(spec, c))),
        ("simples", str(len(descs))),
    ]
    for i, d in enumerate(descs):
        rows.append(
            (
                "simple-%d" % i,
                "%s support=%s eigenvalue=%s"
                % (
                    "-".join(str(x) for x in d.variant),
                    ",".join(str(v) for v in sorted(d.support)),
                    d.eigenvalue,
                ),
            )
        )
    _emit(out, rows)
    return 0


def _cmd_order(args, out):
    from .partitions import FlagType, flag_order

    n = args.n
    f1 = FlagType(parse_ints(args.flag1), n)
    f2 = FlagType(parse_ints(args.flag2), n)
    rel = flag_order(f1, f2)
    _emit(
        out,
        [
            ("flag1", args.flag1),
            ("flag2", args.flag2),
            ("n", str(n)),
            ("relation", rel.value),
        ],
    )
    return 0


def _cmd_classify(args, out):
    from .classifier import ClassificationDatum, classify_flag_datum

    factors = parse_factors(args.k)
    datum = ClassificationDatum(
        parse_ints(args.dims), factors, trivial=args.trivial
    )
    verdict = classify_flag_datum(datum)
    rows = [
        ("dims", args.dims),
        ("k", args.k),
        ("spherical", "yes" if verdict.spherical else "no"),
    ]
    if verdict.spherical:
        rows.append(("case", verdict.case_id))
    else:
        rows.append(("reason", verdict.reason))
    _emit(out, rows)
    return 0


def _cmd_oracle(args, out):
    from .algebras import make_algebra
    from .oracle import is_spherical_flag, is_spherical_module
    from .partitions import FlagType

    seed = _seed(args)
    if " on " in args.k:
        if args.dims is not None:
            raise BadParameter("a module question takes no --dims")
        factors, spec = parse_algebra_module(args.k)
        algs = [make_algebra(tag, size) for tag, size in factors]
        verdict = is_spherical_module(
            algs, spec, samples=args.samples, seed=seed
        )
        mode = "module"
    else:
        if args.dims is None:
            raise BadParameter("flag oracle needs --dims")
        factors = parse_factors(args.k)
        if len(factors) != 1:
            raise BadParameter("flag oracle takes a single algebra")
        alg = make_algebra(*factors[0])
        flag = FlagType(parse_ints(args.dims), alg.n)
        verdict = is_spherical_flag(alg, flag, samples=args.samples, seed=seed)
        mode = "flag"
    _emit(
        out,
        [
            ("mode", mode),
            ("k", args.k),
            ("verdict", verdict.kind),
            ("rank", str(verdict.rank)),
            ("target", str(verdict.target)),
            ("samples", str(verdict.samples)),
            ("seed", str(seed)),
        ],
    )
    return 0


def _cmd_product(args, out):
    from .classifier import product_flags_spherical

    s1 = parse_ints(args.steps1)
    s2 = parse_ints(args.steps2)
    ok = product_flags_spherical(s1, s2)
    rows = [
        ("steps1", args.steps1),
        ("steps2", args.steps2),
        ("spherical", "yes" if ok else "no"),
    ]
    if args.check:
        from .oracle import product_flag_complexity
        from .partitions import canonical_flag

        seed = _seed(args)
        n = sum(s1)
        c = product_flag_complexity(
            n,
            canonical_flag(s1),
            canonical_flag(s2),
            samples=args.samples,
            seed=seed,
        )
        rows += [("complexity", str(c)), ("seed", str(seed))]
    _emit(out, rows)
    return 0


def _cmd_table(args, out):
    from .algebras import make_algebra
    from .sphericaltable import is_spherical_module_by_table

    factors, spec = parse_algebra_module(args.k)
    algs = [make_algebra(tag, size) for tag, size in factors]
    verdict = is_spherical_module_by_table(
        algs, spec, with_scalar=not args.no_scalar, centers=args.centers
    )
    rows = [
        ("k", args.k),
        ("centers", args.centers),
        ("spherical", "yes" if verdict.spherical else "no"),
    ]
    if verdict.entries:
        rows.append(("entries", ",".join(verdict.entries)))
    if not verdict.spherical and verdict.reason:
        rows.append(("reason", verdict.reason))
    _emit(out, rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lieclass", description="spherical flag and module toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tuple", help="classify a rational tuple")
    p.add_argument("tuple")
    p.set_defaults(func=_cmd_tuple)

    p = sub.add_parser("joseph", help="Joseph-ideal predicates")
    p.add_argument("algebra", choices=("sl", "sp"))
    p.add_argument("tuple")
    p.set_defaults(func=_cmd_joseph)

    p = sub.add_parser("odd-pair", help="paired Spin module dimensions")
    p.add_argument("tuple")
    p.set_defaults(func=_cmd_odd_pair)

    p = sub.add_parser("count-simples", help="count quiver simples")
    p.add_argument("--quiver", choices=("A", "B"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--monodromy", required=True, help="p/q residue or 'generic'")
    p.set_defaults(func=_cmd_count_simples)

    p = sub.add_parser("order", help="compare flag varieties")
    p.add_argument("--flag1", required=True)
    p.add_argument("--flag2", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("classify", help="classify a flag datum")
    p.add_argument("--dims", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--trivial", type=int, default=0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("oracle", help="Monte Carlo sphericity oracle")
    p.add_argument("--k", required=True, help="algebra, or '<factors> on <module>'")
    p.add_argument("--dims")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("product", help="sphericity of a product of two flags")
    p.add_argument("--steps1", required=True)
    p.add_argument("--steps2", required=True)
    p.add_argument("--check", action="store_true", help="also run the oracle")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("table", help="module sphericity by table lookup")
    p.add_argument("--k", required=True, help="'<factors> on <module>'")
    p.add_argument("--centers", choices=("entries", "summands"), default="entries")
    p.add_argument("--no-scalar", action="store_true")
    p.set_defaults(func=_cmd_table)

    return parser


def run(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args, out)
    except (UnsupportedShape, NoMatrixModel) as exc:
        print("error: %s" % exc, file=out)
        return 3
    except LieclassError as exc:
        print("error: %s" % exc, file=out)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=out)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
