import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import lieclass
from lieclass.cli import (
    MAX_LITERAL_DIGITS,
    MAX_TUPLE_LENGTH,
    build_parser,
    parse_algebra_module,
    parse_factors,
    parse_fraction,
    parse_module_spec,
    parse_tuple,
    run,
)
from lieclass.errors import BadParameter, TooLarge

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_CASES = [
    ("tuple.txt", ["tuple", "16/3,5,4,3,2,1"]),
    ("joseph_sl.txt", ["joseph", "sl", "2,3,1"]),
    ("odd_pair.txt", ["odd-pair", "5/2,3/2,1/2"]),
    (
        "count_simples.txt",
        ["count-simples", "--quiver", "A", "--n", "2", "--monodromy", "1/3"],
    ),
    ("order.txt", ["order", "--flag1", "1", "--flag2", "2", "--n", "6"]),
    ("classify.txt", ["classify", "--dims", "2", "--k", "sp(4)+sl(3)"]),
    (
        "oracle_flag.txt",
        ["oracle", "--k", "sp(4)", "--dims", "1,2", "--seed", "5"],
    ),
    (
        "product.txt",
        ["product", "--steps1", "2,3", "--steps2", "1,2,2", "--check",
         "--seed", "3"],
    ),
    ("table.txt", ["table", "--k", "sl(2)+sp(4) on C2xC4"]),
]


# The goldens whose questions are answered without numpy.
NUMPY_FREE = (
    "tuple.txt",
    "joseph_sl.txt",
    "odd_pair.txt",
    "count_simples.txt",
    "order.txt",
    "classify.txt",
)


def run_capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def run_child(args, timeout):
    """Run a fresh interpreter that imports this lieclass, with args."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(lieclass.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def python_child(code, *args):
    """Run code in a fresh interpreter and return its output."""
    proc = run_child(["-c", code, *args], timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestGolden:
    @pytest.mark.parametrize("fname,argv", GOLDEN_CASES)
    def test_byte_identical(self, fname, argv):
        code, text = run_capture(argv)
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, fname), "rb") as fh:
            assert text.encode() == fh.read()

    @pytest.mark.parametrize("fname,argv", GOLDEN_CASES)
    def test_deterministic_across_runs(self, fname, argv):
        assert run_capture(argv) == run_capture(argv)

    def test_numpy_free_goldens_with_numpy_blocked(self):
        cases = [(f, argv) for f, argv in GOLDEN_CASES if f in NUMPY_FREE]
        assert len(cases) == len(NUMPY_FREE)
        out = python_child(
            "import io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from lieclass.cli import run\n"
            "answers = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    answers.append((run(argv, out=buf), buf.getvalue()))\n"
            "print(json.dumps(answers))\n",
            json.dumps([argv for _, argv in cases]),
        )
        for (fname, _), (code, text) in zip(cases, json.loads(out)):
            with open(os.path.join(GOLDEN_DIR, fname), "rb") as fh:
                assert (code, text.encode()) == (0, fh.read()), fname


class TestImports:
    def test_cli_import_loads_no_numpy_and_no_oracle(self):
        out = python_child(
            "import sys, lieclass.cli\n"
            "print(' '.join(m for m in ('numpy', 'lieclass.algebras', "
            "'lieclass.oracle') if m in sys.modules))\n"
        )
        assert out.split() == []

    def test_odd_pair_question_loads_no_quivers(self):
        out = python_child(
            "import io, sys\n"
            "from lieclass.cli import run\n"
            "assert run(['odd-pair', '5/2,3/2,1/2'], out=io.StringIO()) == 0\n"
            "print(' '.join(m for m in ('lieclass.quivers', 'lieclass.cyclotomic', "
            "'lieclass.linalg') if m in sys.modules))\n"
        )
        assert out.split() == []


class TestExitCodes:
    def test_input_error_is_2(self):
        code, text = run_capture(["tuple", "1,notanumber"])
        assert code == 2 and text.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--k", "sl(4) on wedge2", "--seed", "-1"],
            ["oracle", "--k", "sp(4)", "--dims", "1,2", "--seed", "-1"],
            ["product", "--steps1", "2,3", "--steps2", "1,2,2", "--check", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_2(self, argv):
        code, text = run_capture(argv)
        assert (code, text) == (2, "error: seed must be >= 0, got -1\n")

    def test_short_tuple_is_2(self):
        code, _ = run_capture(["joseph", "sl", "2,1"])
        assert code == 2

    def test_unsupported_shape_is_3(self):
        code, text = run_capture(
            ["classify", "--dims", "1", "--k", "gl(4)"]
        )
        assert code == 3 and text.startswith("error:")

    def test_mismatched_product_totals(self):
        code, _ = run_capture(["product", "--steps1", "1,2", "--steps2", "1,3"])
        assert code == 2

    def test_missing_dims_for_flag_oracle(self):
        code, _ = run_capture(["oracle", "--k", "sp(4)"])
        assert code == 2

    def test_table_summand_centers_without_the_scalar_is_2(self):
        code, text = run_capture(
            ["table", "--k", "so(5) on C5", "--centers", "summands", "--no-scalar"]
        )
        assert code == 2 and text.startswith("error:")

    @pytest.mark.parametrize("centers", ["entries", "summands"])
    @pytest.mark.parametrize("factor", ["sl(1)", "gl(1)"])
    def test_zero_dimensional_module_is_answered(self, factor, centers):
        k = factor + " on wedge2"
        code, text = run_capture(["table", "--k", k, "--centers", centers])
        assert (code, text) == (
            0, "k: %s\ncenters: %s\nspherical: yes\n" % (k, centers)
        )

    def test_dims_on_a_module_question_is_2(self):
        code, text = run_capture(["oracle", "--k", "sl(3) on C3", "--dims", "1"])
        assert code == 2 and text.startswith("error:")

    @pytest.mark.parametrize("check", [[], ["--check"]])
    @pytest.mark.parametrize(
        "steps1, steps2", [("1,1,1", "3"), ("4", "4"), ("1,2", "3")]
    )
    def test_product_of_one_step_is_2(self, check, steps1, steps2):
        argv = ["product", "--steps1", steps1, "--steps2", steps2] + check
        code, text = run_capture(argv)
        assert code == 2 and text.startswith("error:")

    def test_zero_denominator_monodromy_is_2(self):
        code, text = run_capture(
            ["count-simples", "--quiver", "A", "--n", "2", "--monodromy", "1/0"]
        )
        assert code == 2 and text.startswith("error:")

    @pytest.mark.parametrize("check", [[], ["--check"]])
    def test_product_steps_below_one_are_2(self, check):
        code, text = run_capture(["product", "--steps1", "0,0", "--steps2", "0"] + check)
        assert code == 2 and text.startswith("error:")

    def test_negative_trivial_count_is_2(self):
        code, text = run_capture(
            ["classify", "--dims", "2", "--k", "sl(4)", "--trivial", "-1"]
        )
        assert code == 2 and text.startswith("error:")

    @pytest.mark.parametrize("n", ["1001", "100000", "1000000000"])
    def test_quiver_size_above_the_cap_is_2(self, n):
        start = time.perf_counter()
        code, text = run_capture(
            ["count-simples", "--quiver", "A", "--n", n, "--monodromy", "generic"]
        )
        assert code == 2 and text.startswith("error:")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--k", "sl(3)", "--dims", "1"],
            ["oracle", "--k", "sl(2) on C2"],
            ["product", "--steps1", "1,2", "--steps2", "2,1", "--check"],
        ],
    )
    def test_sample_count_above_the_cap_is_2(self, argv):
        start = time.perf_counter()
        code, text = run_capture(argv + ["--samples", "1000000000"])
        assert code == 2 and text.startswith("error:")
        assert time.perf_counter() - start < 1.0


    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--k", "sl(200)", "--dims", "1"],
            ["oracle", "--k", "sl(32)", "--dims", "16", "--samples", "1000"],
            ["oracle", "--k", "sl(32) on sym2"],
            ["product", "--steps1", "40,40", "--steps2", "40,40", "--check"],
            ["table", "--k", "sl(33) on C33"],
            ["table", "--k", "sl(32) on sym2"],
            ["order", "--flag1", "1", "--flag2", "2", "--n", "3000000"],
            ["order", "--flag1", "1", "--flag2", "2", "--n", "10001"],
            ["classify", "--dims", "1", "--k", "sl(2)", "--trivial", "3000000"],
            ["classify", "--dims", "2", "--k", "sl(2)", "--trivial", "9999"],
            ["tuple", "1e99999999"],
            ["joseph", "sl", "1,2," + "9" * (MAX_LITERAL_DIGITS + 1)],
            ["count-simples", "--quiver", "A", "--n", "2", "--monodromy", "1e99999999"],
            ["odd-pair", ",".join("%d/2" % k for k in range(401, 0, -2))],
        ],
    )
    def test_size_above_the_cap_is_2(self, argv):
        start = time.perf_counter()
        code, text = run_capture(argv)
        assert code == 2 and text.startswith("error:")
        assert time.perf_counter() - start < 1.0


    @pytest.mark.parametrize(
        "argv",
        [
            ["order", "--flag1", "1", "--flag2", "2", "--n", "10000"],
            ["classify", "--dims", "2", "--k", "sl(2)", "--trivial", "9998"],
        ],
    )
    def test_ambient_at_the_cap_is_answered(self, argv):
        start = time.perf_counter()
        code, _ = run_capture(argv)
        assert code == 0
        assert time.perf_counter() - start < 1.0


# Module questions "<factors> on <module>": one factor and one module from
# these, and beyond tier-1 two of each, joined with "+".
SWEEP_FACTORS = ("sl(1)", "sl(2)", "sl(3)", "so(3)", "so(4)", "sp(2)", "sp(4)",
                 "gl(1)", "gl(2)")
SWEEP_MODULES = ("C1", "C2", "C3", "C4", "C2*", "C3*", "wedge2", "sym2", "C2xC2",
                 "C2xC3", "C1xC2", "C1+C1", "C2+C2", "C3+wedge2")


def module_questions(counts):
    for count in counts:
        for factors, modules in itertools.product(
            itertools.product(SWEEP_FACTORS, repeat=count),
            itertools.product(SWEEP_MODULES, repeat=count),
        ):
            yield "%s on %s" % ("+".join(factors), "+".join(modules))


def table_oracle_sweep(questions):
    """Each question asked of the table in both center modes and of the
    oracle: the number answered by all three (exit 0), the number refused
    by all three, and the questions on which they differ.  Every exit must
    be 0, 2 or 3."""
    answered = refused = 0
    mismatched = []
    for k in questions:
        codes = [
            run_capture(argv)[0]
            for argv in (
                ["table", "--k", k, "--centers", "entries"],
                ["table", "--k", k, "--centers", "summands"],
                ["oracle", "--k", k, "--samples", "2", "--seed", "0"],
            )
        ]
        assert set(codes) <= {0, 2, 3}, (k, codes)
        if codes.count(0) == 3:
            answered += 1
        elif 0 not in codes:
            refused += 1
        else:
            mismatched.append((k, codes))
    return answered, refused, mismatched


def test_table_answers_every_module_question_the_oracle_answers():
    assert table_oracle_sweep(module_questions([1])) == (56, 70, [])


@pytest.mark.ci
def test_table_answers_every_module_question_the_oracle_answers_two_factors():
    start = time.perf_counter()
    assert table_oracle_sweep(module_questions([1, 2])) == (3044, 12958, [])
    assert time.perf_counter() - start < 120


class TestSeedEnv:
    def test_env_seed_used(self, monkeypatch):
        monkeypatch.setenv("LIECLASS_SEED", "41")
        _, text = run_capture(["oracle", "--k", "sp(4)", "--dims", "1"])
        assert "seed: 41" in text

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("LIECLASS_SEED", "41")
        _, text = run_capture(
            ["oracle", "--k", "sp(4)", "--dims", "1", "--seed", "7"]
        )
        assert "seed: 7" in text

    @pytest.mark.parametrize("value", ["1.5", "abc", "-3"])
    def test_bad_env_seed_is_2_and_named(self, monkeypatch, value):
        monkeypatch.setenv("LIECLASS_SEED", value)
        code, text = run_capture(["oracle", "--k", "sp(4)", "--dims", "1,2"])
        assert (code, text) == (
            2, "error: LIECLASS_SEED must be an integer >= 0, got %r\n" % value
        )


def cli_child(*argv):
    return ["-m", "lieclass.cli", *argv]


# Questions near the size caps, each asked in a fresh interpreter under a
# wall-clock budget: (interpreter args, exit code, lines the output must
# hold, budget in seconds).
BUDGETED = [
    (cli_child("product", "--steps1", "12,12", "--steps2", "6,6,6,6", "--check"),
     0, ["complexity: 61"], 10),
    # a scan that reaches the highest possible rank stops early
    (cli_child("product", "--steps1", "16,16", "--steps2", "8,8,8,8", "--check"),
     0, ["complexity: 113"], 10),
    # a Yes at the first sample forms that sample's rows alone
    (cli_child("oracle", "--k", "sl(30)", "--dims", ",".join(map(str, range(1, 30))),
               "--samples", "20"),
     0, ["verdict: Yes"], 10),
    (cli_child("oracle", "--k", "so(20)", "--dims", "1,3,5,7,9"), 0, ["rank: 99"], 30),
    # the slowest measured flag question at the size cap
    (cli_child("oracle", "--k", "so(24)", "--dims", "1,3,5,7,9,11"), 0, ["rank: 143"], 90),
    (cli_child("oracle", "--k", "so(16) on C16+C16"), 0, ["rank: 29"], 10),
    (cli_child("oracle", "--k", "sp(16) on C16+C16"), 0, ["rank: 31"], 10),
    *[
        (cli_child("table", "--k", k), 0, ["spherical: yes"], 10)
        for k in (
            "sl(8) on wedge2",
            "sl(4)+sl(8) on C4xC8",
            "so(32) on C32",
            "sp(32) on C32",
            "sl(16)+sl(2) on C16xC2",
        )
    ],
    (cli_child("classify", "--dims", "1", "--k", "so(16)+sp(16)"),
     0, ["spherical: yes", "case: P(V)"], 10),
    *[
        (cli_child(*argv), 2, [], 10)
        for argv in (
            ["oracle", "--k", "sl(200)", "--dims", "1"],
            ["product", "--steps1", "40,40", "--steps2", "40,40", "--check"],
            ["order", "--flag1", "1", "--flag2", "2", "--n", "3000000"],
            ["classify", "--dims", "1", "--k", "sl(2)", "--trivial", "3000000"],
            ["classify", "--dims", "2", "--k", "sl(4)", "--trivial", "-1"],
            ["count-simples", "--quiver", "A", "--n", "2", "--monodromy", "1/0"],
            ["tuple", "1e99999999"],
            ["odd-pair", ",".join("%d/2" % k for k in range(401, 0, -2))],
        )
    ],
    # the group-ring span at n = 5, which the benchmark leaves out
    (["-c", "from lieclass.snmod import pf_generators_span; print(pf_generators_span(5))"],
     0, ["True"], 30),
]


@pytest.mark.ci
@pytest.mark.parametrize(
    "args, code, lines, budget", BUDGETED, ids=[" ".join(a)[:70] for a, *_ in BUDGETED]
)
def test_answered_within_budget(args, code, lines, budget):
    proc = run_child(args, timeout=budget)
    assert proc.returncode == code, proc.stdout + proc.stderr
    out = proc.stdout.splitlines()
    assert [line for line in lines if line not in out] == [], proc.stdout


class TestParsers:
    def test_parse_tuple(self):
        from fractions import Fraction

        assert parse_tuple("1/2,2") == (Fraction(1, 2), Fraction(2))
        with pytest.raises(BadParameter):
            parse_tuple("1,x")
        with pytest.raises(BadParameter):
            parse_tuple("1/0")

    def test_parse_fraction_digit_bound(self):
        from fractions import Fraction

        big = "9" * MAX_LITERAL_DIGITS
        assert parse_fraction(big) == int(big)
        assert parse_fraction("1e%d" % (MAX_LITERAL_DIGITS - 1)) == 10 ** (MAX_LITERAL_DIGITS - 1)
        assert parse_fraction("-1.5E-3") == Fraction(-3, 2000)
        for text in (big + "9", "1e%d" % MAX_LITERAL_DIGITS, "1/" + big + "9",
                     "2e-99999999", "1e1_000", "1e" + "0" * 5000 + "9" * 5000):
            with pytest.raises(TooLarge):
                parse_fraction(text)
        for text in ("1/0", "x", "1ex", "1/2e3"):
            with pytest.raises(BadParameter):
                parse_fraction(text)

    def test_parse_tuple_length_bound(self):
        assert len(parse_tuple(",".join(["1"] * MAX_TUPLE_LENGTH))) == MAX_TUPLE_LENGTH
        with pytest.raises(TooLarge):
            parse_tuple(",".join(["1"] * (MAX_TUPLE_LENGTH + 1)))

    def test_parse_factors(self):
        assert parse_factors("sl(3)+sp(4)") == [("sl", 3), ("sp", 4)]
        with pytest.raises(BadParameter):
            parse_factors("e8(248)")

    def test_parse_module_spec(self):
        spec = parse_module_spec("C3+C3*", [3])
        assert spec.summands == (("natural", 0), ("dual", 0))
        spec = parse_module_spec("C2xC4", [2, 4])
        assert spec.summands == (("tensor", (0, "n"), (1, "n")),)
        spec = parse_module_spec("C4+C1", [4])
        assert spec.summands == (("natural", 0), ("trivial",))

    def test_parse_algebra_module(self):
        factors, spec = parse_algebra_module("sl(2)+sp(4) on C2xC4")
        assert factors == [("sl", 2), ("sp", 4)]
        assert spec.summands == (("tensor", (0, "n"), (1, "n")),)
        with pytest.raises(BadParameter):
            parse_algebra_module("sl(2)")

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
