"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def sample_calls(seed):
    """A few calls of every workload, spread over its input list."""
    root = str(ROOT)
    return (
        workloads.build("flag_sweep", seed, root)[::150]
        + workloads.build("product_sweep", seed, root)[::50]
        + workloads.build("exact_span", seed, root)[:4]
        + workloads.build("exact_span", seed, root)[-2:]
        + workloads.build("cli_golden", seed, root, in_process=True)[5:8]
    )


def bindings():
    return {
        (mod.__name__, attr): value
        for mod in spans.lieclass_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tail_percentile_rule():
    assert run.tail_percentile(1455) == 99
    assert run.tail_percentile(252) == 95
    assert run.tail_percentile(63) == 75
    assert run.tail_percentile(76) == 75
    assert run.tail_percentile(19) == 50
    assert run.tail_percentile(9) == 50


def test_tail_value_has_ten_calls_beyond_it():
    values = list(range(1455))
    cut = run.nearest_rank(values, run.tail_percentile(len(values)))
    assert sum(v > cut for v in values) >= 10
    assert run.nearest_rank(list(range(20)), 50) == 9


def test_traced_and_untraced_passes_give_one_digest():
    calls = sample_calls(seed=3)
    host = run.HostSpeed()
    untraced = run.Pass(calls, host)
    with spans.Tracer() as tracer:
        traced = run.Pass(calls, host)
    assert untraced.failed == traced.failed == 0
    assert run.digest(untraced.records) == run.digest(traced.records)
    assert traced.mismatches(untraced) == 0
    report = spans.layer_report(tracer, traced.wall_s)
    for name in ("oracle", "oracle.sample", "rank.modp", "rank.exact", "rank.capped",
                 "algebras.normalizer_dim", "sphericaltable.table", "classifier.classify",
                 "snmod.pf_span", "snmod.multiply", "cli.run"):
        assert report["calls"].get(name, 0) > 0, name
    assert 0 < report["covered_s"] <= traced.wall_s


def test_spans_see_every_binding_and_uninstall_restores_them():
    from lieclass import algebras, oracle, rank

    before = bindings()
    original = rank.rank_modp
    with spans.Tracer():
        # oracle and algebras hold their own bindings (from .rank import ...)
        assert oracle.rank_modp is rank.rank_modp is not original
        assert algebras.rank_capped is rank.rank_capped
        assert algebras.rank_capped.__wrapped__ is before[("lieclass.rank", "rank_capped")]
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_workload_seed_changes_the_oracle_seeds():
    def seeds_seen(seed):
        calls = workloads.build("flag_sweep", seed, str(ROOT))[:5]
        with spans.Tracer() as tracer:
            run.Pass(calls, run.HostSpeed())
        return [
            tracer.observed[i][2]
            for i, nid in enumerate(tracer.name_ids)
            if tracer.names[nid] == "oracle"
        ]

    assert len(seeds_seen(1)) == 5
    assert seeds_seen(1) == seeds_seen(1)
    assert seeds_seen(1) != seeds_seen(2)


def test_host_speed_scales_by_the_median_probe_near_a_call():
    ref = run.REFERENCE_PROBE_S
    host = run.HostSpeed()
    host.probes = [
        (0.0, 0.1, 2 * ref),
        (0.2, 0.3, 2 * ref),
        (0.4, 0.5, 9 * ref),
        (10.0, 10.1, 4 * ref),
        (10.2, 10.3, 4 * ref),
    ]
    # the 9x outlier is outvoted; past the last probe, the last one counts
    assert host.factors([(0.6, 0.7), (10.4, 10.5), (20.0, 21.0)]) == [0.5, 0.25, 0.25]
    host.probe()
    assert host.probes[-1][2] > 0


def test_self_time_subtracts_child_spans():
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    assert spans.self_times(parents, starts, ends) == [5.0, 2.0, 1.0, 2.0]


def test_calls_per_pass():
    root = str(ROOT)
    assert len(workloads.build("flag_sweep", 0, root)) == 1455
    assert len(workloads.build("product_sweep", 0, root)) == 252
    assert len(workloads.build("exact_span", 0, root)) == 19
    assert len(workloads.build("cli_golden", 0, root)) == 9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "cli_golden", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
