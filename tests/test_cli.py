import argparse
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import orthozero as oz
from orthozero.cli import build_parser, read_config, run


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_mrs_prints_radius():
    code, out = capture(["mrs", "--weight", "freud:1:2", "--n", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a_n,residual"
    a8 = float(lines[1].split(",")[1])
    assert a8 == pytest.approx(math.sqrt(8.0), rel=1e-10)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    assert "mrs" in capsys.readouterr().err


def test_bad_weight_exits_2():
    code, _ = capture(["mrs", "--weight", "nope:1", "--n", "5"])
    assert code == 2


def test_kac_full_line_summary():
    code, out = capture(["kac", "--weight", "freud:0.5:2", "--n", "40",
                         "--full-line", "--tol", "1e-6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,density"
    summary = dict(line.split(",") for line in lines[-2:])
    ratio = float(summary["expected_count"]) / 40.0
    assert 0.55 <= ratio <= 0.62
    assert float(summary["error"]) <= 1e-5


def test_kac_monomial_basis():
    code, out = capture(["kac", "--n", "1", "--basis", "monomial",
                         "--full-line", "--tol", "1e-8"])
    assert code == 0
    summary = dict(line.split(",") for line in out.strip().splitlines()[-2:])
    assert float(summary["expected_count"]) == pytest.approx(1.0, abs=1e-6)


def test_kac_scaled_interval():
    code, out = capture(["kac", "--weight", "freud:0.5:2", "--n", "60",
                         "--interval", "-0.5", "0.5", "--scaled"])
    assert code == 0
    val = float(out.strip().splitlines()[-1])
    assert 0.2 <= val <= 0.5
    code, _ = capture(["kac", "--weight", "freud:0.5:2", "--n", "10",
                       "--scaled", "--full-line"])
    assert code == 2


@pytest.mark.parametrize("exp_form,plain", [
    (("-1e1", "1"), ("-10", "1")),
    (("-1E-1", "1e-1"), ("-0.1", "0.1")),
    (("-2.5e+0", "-1e-3"), ("-2.5", "-0.001")),
])
def test_kac_interval_ends_in_exponent_form(exp_form, plain):
    # argparse reads a bare "-1e1" as an option unless kac says otherwise
    base = ["kac", "--n", "5", "--interval"]
    code, out = capture(base + list(exp_form))
    assert code == 0
    assert (code, out) == capture(base + list(plain))


def test_kac_rejects_scaled_full_line_before_building_a_table(capsys):
    from orthozero import orthopoly

    spec = oz.parse_weight("freud:0.5:2")
    assert run(["kac", "--n", "777", "--scaled", "--full-line"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (spec.fingerprint, 778) not in orthopoly._TABLE_CACHE


@pytest.mark.parametrize("basis", ["orthonormal", "monomial"])
def test_kac_needs_interval_or_full_line(basis, capsys):
    assert run(["kac", "--n", "10", "--basis", basis]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("basis", ["orthonormal", "monomial"])
def test_kac_rejects_interval_with_full_line(basis, capsys):
    assert run(["kac", "--n", "10", "--basis", basis, "--interval", "-1", "1",
                "--full-line"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--full-line" in err


def test_density_rejects_empty_table(capsys):
    assert run(["density", "--n", "10", "--points", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _must_not_run(*args, **kwargs):
    raise AssertionError("called after the failure should have been raised")


@pytest.mark.parametrize("argv", [
    ["kac", "--weight", "freud:inf:2", "--n", "5", "--full-line"],
    ["kac", "--weight", "freud:1:inf", "--n", "5", "--full-line"],
    *(["kac", "--n", "5", "--full-line", f"--tol={t}"]
      for t in ("0", "-1", "nan")),
    *(["simulate", "--n", "10", "--trials", "2", flag] for flag in (
        "--partition=nan,1", "--partition=-1,inf", "--dist=gaussian:inf",
        "--dist=gaussian:abc", "--dist=gaussian:1:2", "--seed=-1",
        "--dist=gaussian:0.5")),
    *(["kac", "--n", "10", "--basis", basis, "--interval", lo, hi]
      for basis in ("orthonormal", "monomial")
      for lo, hi in (("0", "inf"), ("-1", "nan"), ("nan", "1"))),
    ["kac", "--n", "10", "--interval", "1", "1"],
    *(["kac", "--n", "200", "--scaled", "--interval", lo, hi]
      for lo, hi in (("-0.5", "1.5"), ("nan", "0.5"))),
    *(["simulate", "--n", "10", f"--trials={t}"] for t in ("1", "0")),
    ["kac", "--n", "10", "--interval", "-inf", "1"]])
def test_bad_value_exits_2_before_any_work(argv, monkeypatch, capsys):
    from orthozero import kac, orthopoly, scaling

    # a table build starts with the radius solve, so it integrates too; a
    # cached table would skip both, so get_table itself may not run either,
    # and a cached phi-rule would let a radius solve slip past the _mesh
    # patch, so its builder may not run
    for module, name in ((orthopoly, "_mesh"), (scaling, "_mesh"),
                         (orthopoly, "get_table"), (kac, "adaptive_gl"),
                         (scaling, "_phi_rule")):
        monkeypatch.setattr(module, name, _must_not_run)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_over_grid_budget_exits_1(monkeypatch, capsys):
    from orthozero import montecarlo

    monkeypatch.setattr(montecarlo, "_GRID_CACHE", {})
    monkeypatch.setattr(montecarlo, "_MAX_GRID", 50)
    # the count runs first, so the budget fails before any eigensolve
    monkeypatch.setattr(montecarlo, "eigen_measures", _must_not_run)
    assert run(["simulate", "--n", "37", "--trials", "2"]) == 1
    assert capsys.readouterr().err.startswith("numerical failure")


def test_density_table():
    code, out = capture(["density", "--weight", "freud:1:2", "--n", "30",
                         "--points", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,sigma_star,limit_density"
    assert len(lines) == 6
    s, sig, mu = map(float, lines[3].split(","))
    # quadratic weight: both columns are the semicircle
    assert sig == pytest.approx(mu, abs=1e-8)


def test_density_table_below_exponent_two():
    # the cusp of Q' at 0: every row, s = 0 included, within --tol
    code, out = capture(["density", "--weight", "freud:1:1.5", "--n", "90"])
    assert code == 0
    rows = [tuple(map(float, line.split(",")))
            for line in out.strip().splitlines()[1:]]
    assert len(rows) == 101 and min(abs(s) for s, _, _ in rows) < 1e-15
    assert max(abs(sig - mu) for _, sig, mu in rows) <= 1e-8


def test_recurrence_table_and_cache(tmp_path):
    cache = tmp_path / "t.npz"
    code, out = capture(["recurrence", "--weight", "freud:0.5:2",
                         "--n-max", "6", "--cache", str(cache)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,a_k,b_k,gamma_k"
    b1 = float(lines[2].split(",")[2])
    assert b1 == pytest.approx(math.sqrt(0.5), rel=1e-12)
    table = oz.load_table(cache)
    assert table.n_max == 6
    assert lines[-1].startswith("# ortho_residual=")


def test_simulate_json_summary():
    code, out = capture(["simulate", "--weight", "freud:0.5:2", "--n", "20",
                         "--trials", "3", "--seed", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,count"
    summary = json.loads(lines[-1])
    assert summary["trials"] == 3
    assert 0 <= summary["mean"] <= 20
    assert "ks_mean" in summary and "complex_fraction_mean" in summary
    assert list(summary) == sorted(summary)


def test_simulate_partition_fractions_sum():
    code, out = capture(["simulate", "--weight", "freud:0.5:2", "--n", "20",
                         "--trials", "3", "--partition=-1,0,1"])
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert len(summary["partition_fractions"]) == 2
    assert sum(summary["partition_fractions"]) <= 1.0


def test_byte_identical_reruns():
    argv = ["kac", "--weight", "freud:0.5:2", "--n", "25", "--interval",
            "-3", "3"]
    _, first = capture(argv)
    _, second = capture(argv)
    assert first == second
    argv = ["simulate", "--weight", "freud:0.5:2", "--n", "15", "--trials",
            "4"]
    _, first = capture(argv)
    _, second = capture(argv)
    assert first == second


def test_output_file(tmp_path):
    path = tmp_path / "out.csv"
    code, out = capture(["mrs", "--weight", "freud:1:2", "--n", "8",
                         "--output", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("n,a_n,residual")


def test_option_strings_are_exactly_these():
    # a new flag, or a dropped one, must edit this list
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))

    def flags(p):
        return sorted(s for a in p._actions for s in a.option_strings
                      if s not in ("-h", "--help"))

    got = {name: flags(sp) for name, sp in sub.choices.items()}
    assert flags(parser) == ["--config"]
    assert got == {
        "mrs": ["--n", "--output", "--weight"],
        "density": ["--n", "--output", "--points", "--tol", "--weight"],
        "recurrence": ["--cache", "--n-max", "--output", "--weight"],
        "kac": ["--basis", "--full-line", "--interval", "--n", "--output",
                "--scaled", "--tol", "--weight"],
        "simulate": ["--dist", "--n", "--output", "--partition", "--seed",
                     "--trials", "--weight"],
        "verify": ["--only", "--output"],
    }


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# radius run\nweight=freud:1:2\n\nn=8\n")
    assert read_config(cfg) == {"weight": "freud:1:2", "n": "8"}
    _, direct = capture(["mrs", "--weight", "freud:1:2", "--n", "8"])
    _, via_cfg = capture(["--config", str(cfg), "mrs"])
    assert via_cfg == direct
    # explicit flag wins over the config value
    _, override = capture(["--config", str(cfg), "mrs", "--weight",
                           "freud:0.5:2", "--n", "8"])
    a8 = float(override.strip().splitlines()[1].split(",")[1])
    assert a8 == pytest.approx(4.0, rel=1e-10)
    # flag spellings map to parameter names
    cfg.write_text("n-max = 6\n")
    assert read_config(cfg) == {"n_max": "6"}


def test_verify_rejects_unknown_criterion(monkeypatch, capsys):
    from orthozero import acceptance

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (_must_not_run,) * 10)
    assert run(["verify", "--only", "7,99"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "[99]" in err


@pytest.mark.parametrize("argv", [
    ["mrs", "--n", ","], ["verify", "--only", ","],
    ["simulate", "--n", "10", "--trials", "2", "--partition=,"]])
def test_empty_comma_list_exits_2(argv, monkeypatch, capsys):
    from orthozero import acceptance, orthopoly, scaling

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (_must_not_run,) * 10)
    for module, name in ((scaling, "solve_mrs"), (orthopoly, "get_table")):
        monkeypatch.setattr(module, name, _must_not_run)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "empty comma list ','" in err


def test_verify_subset():
    code, out = capture(["verify", "--only", "7"])
    assert code == 0
    assert out.startswith("PASS criterion 7")
