"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

The runner tests start one short run per workload and trace mode, about
two minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from orthozero import montecarlo  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def one_pass(items, results):
    return [run.Pass(1.0, [(it, 0.1, r) for it, r in zip(items, results)])]


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.inputs(7) == w.inputs(7)
    assert w.inputs(7) != w.inputs(8)


def test_kac_degree_shifts_keep_total_degree():
    for seed in range(20):
        ns = [int(it.key[it.key.index("--n") + 1]) for it in workloads.Kac.inputs(seed)]
        assert sum(ns[:4]) == 2500 and sum(ns[4:]) == 992
        assert max(ns) <= 1000


def test_wrong_kac_result_raises_fail_frac():
    items = workloads.Kac.inputs(0)
    state = {"tables": {k: SimpleNamespace(ortho_residual=1e-15)
                        for k in ("freud:0.5:2", "freud:1:4")}}

    def output(item, count):
        n = int(item.key[item.key.index("--n") + 1])
        if "--scaled" in item.key:
            return 0, "scaled_expected_zeros_per_n\n0.352\n"
        return 0, f"x,density\n0,1\nexpected_count,{count * n}\nerror,1e-08\n"

    good = [output(it, 0.579) for it in items]
    assert run.run_checks(workloads.Kac, state, one_pass(items, good))[1] == 0
    bad = list(good)
    bad[1] = output(items[1], 0.5)  # 13% below 1/sqrt(3)
    bad[4] = (1, "")
    attempted, failed, _ = run.run_checks(workloads.Kac, state,
                                          one_pass(items, bad))
    assert (attempted, failed) == (6, 2)


def test_wrong_mc_count_raises_fail_frac():
    items = workloads.McCount.inputs(0)
    state = workloads.McCount.setup(final=False)

    def result(counts):
        counts = np.asarray(counts, dtype=float)
        return montecarlo.McResult(
            mean=float(counts.mean()),
            stderr=float(counts.std(ddof=1) / np.sqrt(counts.size)),
            counts=counts, trials=counts.size)

    rng = np.random.default_rng(0)
    good = [result(116.6 + 8 * rng.standard_normal(300)) for _ in items]
    assert run.run_checks(workloads.McCount, state,
                          one_pass(items, good))[1] == 0
    too_many = good[1].counts.copy()
    too_many[5] = 250  # more zeros than the degree
    for bad in ([result(good[0].counts - 10), good[1]],
                [good[0], result(too_many)]):
        attempted, failed, _ = run.run_checks(workloads.McCount, state,
                                              one_pass(items, bad))
        assert (attempted, failed) == (600, 300)


def test_wrong_eigen_result_raises_fail_frac():
    items = workloads.EigenKs.inputs(0)
    state = workloads.EigenKs.setup(final=False)
    good = [workloads.EigenKs.run(state, it) for it in items]
    assert run.run_checks(workloads.EigenKs, state,
                          one_pass(items, good))[1] == 0
    bad = list(good)
    z, m, ks = bad[0]
    bad[0] = (z[:-1], m, ks)  # a lost eigenvalue
    assert run.run_checks(workloads.EigenKs, state,
                          one_pass(items, bad))[1] == 1
    bad = list(good)
    bad[3] = (z, m, 0.5)  # a KS far from the limit law fails its weight
    per_weight = len(items) // 2
    assert run.run_checks(workloads.EigenKs, state,
                          one_pass(items, bad))[1] == per_weight


def test_changed_artifact_fails_the_trace_check():
    items = workloads.Kac.inputs(0)
    plain = one_pass(items, [(0, f"out {i}\n") for i in range(len(items))])
    traced = one_pass(items, [(0, f"out {i}\n") for i in range(len(items))])
    assert run.artifact_check(workloads.Kac, plain + traced).ok
    traced[0].rows[2] = (items[2], 0.1, (0, "out 2 changed\n"))
    check = run.artifact_check(workloads.Kac, plain + traced)
    assert not check.ok and check.blame == [len(items) + 2]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            p = bench("--workload", name, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
            assert p.returncode == 0, p.stderr
            out[name, trace] = json.loads(p.stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_printed_metrics_match_benchmark_json(results, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = results[name, trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_spans_cover_the_run(results, name):
    assert results[name, 1]["metrics"]["trace.span_coverage"]["value"] >= 0.9


def test_fails_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "kac", "--seed", "0", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
