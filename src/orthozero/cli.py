"""Command-line front end.

Subcommands: mrs, density, recurrence, kac, simulate, verify.  Output is
CSV with 17-significant-digit floats (plus JSON summaries with sorted
keys), so identical invocations produce byte-identical artifacts.  A
--config file of key=value lines supplies defaults; explicit flags win.
Exit codes: 0 success, 1 numerical budget failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import acceptance, kac, montecarlo, orthopoly, scaling, weights
from .errors import (
    BracketError,
    BudgetError,
    DegenerateSampleError,
    DiscretizationError,
    DomainError,
)
from .quadrature import check_interval

SUBCOMMANDS = ("mrs", "density", "recurrence", "kac", "simulate", "verify")


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def read_config(path: str) -> dict[str, str]:
    """key=value lines, skipping blanks and # comments.  Dashes in keys
    become underscores, so flag spellings and parameter names agree."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"bad config line {line!r}, expected key=value")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def _write(output, text: str) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_mrs(ns) -> int:
    spec = weights.parse_weight(ns.weight)
    rows = ["n,a_n,residual"]
    for n in ns.n:
        info = scaling.solve_mrs(spec, n)
        rows.append(f"{n},{fmt(info.a_n)},{fmt(info.residual)}")
    _write(ns.output, "\n".join(rows) + "\n")
    return 0


def cmd_density(ns) -> int:
    if ns.points < 1:
        raise DomainError(f"--points must be >= 1, got {ns.points}")
    spec = weights.parse_weight(ns.weight)
    info = scaling.solve_mrs(spec, ns.n)
    s = np.linspace(-1.0, 1.0, ns.points + 2)[1:-1]
    sig = scaling.normalized_density_many(spec, info, s, tol=ns.tol)
    rows = ["s,sigma_star,limit_density"]
    for si, v in zip(s, sig):
        mu = scaling.ullman_density(spec.alpha, float(si), tol=ns.tol)
        rows.append(f"{fmt(si)},{fmt(v)},{fmt(mu)}")
    _write(ns.output, "\n".join(rows) + "\n")
    return 0


def cmd_recurrence(ns) -> int:
    spec = weights.parse_weight(ns.weight)
    table = orthopoly.build_recurrence(spec, ns.n_max)
    if ns.cache:
        orthopoly.save_table(table, ns.cache)
    lead = table.leading
    rows = ["k,a_k,b_k,gamma_k", f"0,{fmt(0.0)},,{fmt(lead[0])}"]
    for k in range(1, ns.n_max + 1):
        # even weights only, so every a_k is zero
        rows.append(f"{k},{fmt(0.0)},{fmt(table.off_diag[k - 1])},{fmt(lead[k])}")
    rows.append(f"# ortho_residual={fmt(table.ortho_residual)}")
    _write(ns.output, "\n".join(rows) + "\n")
    return 0


def cmd_kac(ns) -> int:
    if ns.full_line == (ns.interval is not None):
        raise DomainError("kac needs one of --interval LO HI or --full-line")
    if ns.scaled and ns.basis == "monomial":
        raise DomainError("--scaled applies to the orthonormal basis")
    if ns.scaled and ns.full_line:
        raise DomainError("--scaled needs --interval inside (-1, 1)")
    if not ns.tol > 0:  # before the table build; the integrators refuse it too
        raise DomainError(f"--tol must be > 0, got {ns.tol}")
    if ns.scaled:
        kac.check_scaled_interval(*ns.interval)
    elif ns.interval is not None:
        check_interval(*ns.interval)
    if ns.basis == "monomial":
        prof = kac.expected_zeros_monomial(
            ns.n, None if ns.full_line else tuple(ns.interval), tol=ns.tol)
    else:
        spec = weights.parse_weight(ns.weight)
        table = orthopoly.get_table(spec, ns.n + 1)
        if ns.scaled:
            val = kac.scaled_expected_zeros(
                spec, table, ns.n, ns.interval[0], ns.interval[1], tol=ns.tol)
            _write(ns.output, "scaled_expected_zeros_per_n\n" + fmt(val) + "\n")
            return 0
        info = scaling.solve_mrs(spec, ns.n + 1)
        if ns.full_line:
            prof = kac.expected_zeros_full(table, ns.n, tol=ns.tol,
                                           edge=info.a_n)
        else:
            prof = kac.expected_zeros(table, ns.n, tuple(ns.interval),
                                      tol=ns.tol, edge=info.a_n)
    # all sample rows in one %-format over the interleaved values: the
    # bytes of fmt per value, without two calls per row
    xd = np.column_stack((prof.samples_x, prof.samples_density)).ravel()
    rows = ("%.17g,%.17g\n" * prof.samples_x.size) % tuple(xd.tolist())
    _write(ns.output, f"x,density\n{rows}expected_count,"
           f"{fmt(prof.expected_count)}\nerror,{fmt(prof.quadrature_error)}\n")
    return 0


def cmd_simulate(ns) -> int:
    # every input is checked before the table build
    montecarlo.check_trials(ns.trials)
    if ns.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {ns.seed}")
    spec = weights.parse_weight(ns.weight)
    dist = montecarlo.CoeffDist(ns.dist)
    edges = montecarlo.partition_edges(ns.partition) if ns.partition else None
    table = orthopoly.get_table(spec, ns.n)
    # count first: a grid over budget fails before any eigensolve
    res = montecarlo.mc_expected_zeros(spec, table, ns.n, ns.trials, dist,
                                       ns.seed)
    # the partition shares come from the same eigenvalues as the KS statistic
    ms = montecarlo.eigen_measures(table, scaling.solve_mrs(spec, ns.n), dist,
                                   ns.seed, ns.trials)
    rows = ["trial,count"]
    rows += [f"{t},{int(c)}" for t, c in enumerate(res.counts)]
    summary = {
        "complex_fraction_mean": float(np.mean([m.complex_count / m.total
                                                for m in ms])),
        "imag_tol": ms[0].imag_tol,
        "ks_mean": float(np.mean([montecarlo.ks_to_ullman(m, spec.alpha)
                                  for m in ms])),
        "mean": res.mean,
        "seed": ns.seed,
        "stderr": res.stderr,
        "trials": ns.trials,
    }
    if edges is not None:
        summary["partition_edges"] = list(ns.partition)
        summary["partition_fractions"] = [
            float(v) for v in np.mean([m.shares(edges) for m in ms], axis=0)]
    text = "\n".join(rows) + "\n" + json.dumps(summary, sort_keys=True) + "\n"
    _write(ns.output, text)
    return 0


def cmd_verify(ns) -> int:
    only = set(ns.only) if ns.only else None
    results = acceptance.run_all(only=only)
    lines = [r.line() for r in results]
    _write(ns.output, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _items(text: str) -> list[str]:
    """The items of a comma list; a list with none is a usage error."""
    items = [p for p in text.split(",") if p]
    if not items:
        raise argparse.ArgumentTypeError(f"empty comma list {text!r}")
    return items


def _int_list(text: str) -> list[int]:
    return [int(p) for p in _items(text)]


def _float_list(text: str) -> list[float]:
    return [float(p) for p in _items(text)]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orthozero",
        description="Expected real zeros of random orthogonal polynomials "
                    "for exponential weights")
    p.add_argument("--config", help="key=value file supplying flag defaults")
    sub = p.add_subparsers(dest="subcommand", required=True,
                           metavar="{" + ",".join(SUBCOMMANDS) + "}")

    def add_common(sp):
        sp.add_argument("--weight", default="freud:0.5:2",
                        help="weight registry key, e.g. freud:1:2")
        sp.add_argument("--output", help="write to this path instead of stdout")

    sp = sub.add_parser("mrs", help="support radius a_n")
    add_common(sp)
    sp.add_argument("--n", type=_int_list, required=True,
                    help="degree or comma list of degrees")
    sp.set_defaults(func=cmd_mrs)

    sp = sub.add_parser("density", help="normalized equilibrium density table")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("recurrence", help="recurrence coefficient table")
    add_common(sp)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--cache", help="also save the table to this npz file")
    sp.set_defaults(func=cmd_recurrence)

    sp = sub.add_parser("kac", help="expected real zeros by quadrature")
    # argparse takes "-1e1" and "-inf" for options; read them as values, so
    # "--interval -1e1 1" works like "-10 1" and "-inf" meets check_interval
    sp._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.I)
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    sp.add_argument("--full-line", action="store_true")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--basis", choices=("orthonormal", "monomial"),
                    default="orthonormal")
    sp.add_argument("--scaled", action="store_true",
                    help="report (1/n) E[N] over the expanded interval")
    sp.set_defaults(func=cmd_kac)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo zero counts")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--dist", default="gaussian",
                    help="gaussian | rademacher | uniform")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--partition", type=_float_list,
                    help="comma list of interval edges in [-1, 1]; use "
                         "--partition=-1,0,1 when the first edge is negative")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--only", type=_int_list,
                    help="comma list of criterion numbers")
    sp.add_argument("--output", help="write to this path instead of stdout")
    sp.set_defaults(func=cmd_verify)
    return p


def _merge_config(argv: list[str]) -> list[str]:
    """Inject config key=value pairs as flags right after the subcommand;
    explicit flags come later in argv, so they win."""
    argv = list(argv)
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise DomainError("--config needs a path")
    cfg = read_config(argv[i + 1])
    del argv[i:i + 2]
    sub_at = next((j for j, a in enumerate(argv) if not a.startswith("-")), None)
    if sub_at is None:
        return argv
    injected = []
    for k, v in sorted(cfg.items()):
        flag = "--" + k.replace("_", "-")
        if v.lower() in ("true", "false"):
            if v.lower() == "true":
                injected.append(flag)
        else:
            injected.append(f"{flag}={v}")
    return argv[: sub_at + 1] + injected + argv[sub_at + 1:]


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(_merge_config(argv))
        return ns.func(ns)
    except (DomainError, DegenerateSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, BracketError, DiscretizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
