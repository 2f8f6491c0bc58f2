"""The benchmark's workloads: inputs from the seed, set-up, one timed item,
and the correctness checks that run after the timed phase.

Each workload is a fixed list of items (a "pass") that the runner repeats
until its time is up; every pass runs identical inputs, so counts repeat
exactly and per-pass times are comparable.  An item's `size` is the number
of operations it counts for: one `kac` command, one Monte Carlo trial, one
eigen trial.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orthozero import cli, kac, montecarlo, orthopoly, scaling, weights

INV_SQRT3 = 1.0 / math.sqrt(3.0)
RESIDUAL_MAX = 1e-8
HERMITE = "freud:0.5:2"
# sha256 of each kac command's output for the default seed 0
GOLDENS = Path(__file__).with_name("golden_kac.json")


@dataclass(frozen=True)
class Item:
    key: tuple  # hashable description of the inputs, also the golden key
    size: int = 1


@dataclass
class Check:
    """One correctness check: its description with the bound, whether it
    held, and the indices of the results it condemns when it fails."""

    text: str
    ok: bool
    blame: list


def _setup_tables(keys_nmax, final: bool):
    """Cold table builds.  The last set-up repetition goes through
    `get_table`, so the timed phase finds the tables in its cache; the
    earlier ones call `build_recurrence` directly and stay cold."""
    build = orthopoly.get_table if final else orthopoly.build_recurrence
    return {key: build(weights.parse_weight(key), n_max)
            for key, n_max in keys_nmax}


# ---------------------------------------------------------------------------
# kac: deterministic quadrature through the CLI


class Kac:
    """`orthozero kac` commands run through `cli.run` in this process."""

    TOL = 1e-6  # the CLI's default --tol

    @staticmethod
    def inputs(seed: int) -> list[Item]:
        # the shifts keep the summed degree of the full-line commands at
        # 2500 and of the last two commands at 992, so work barely moves
        d = np.random.default_rng(seed).integers(0, 9, size=4)
        full = (250 + d[0], 500 + d[1], 750 + d[2], 1000 - d[0] - d[1] - d[2])
        items = [("kac", "--weight", HERMITE, "--n", str(n), "--full-line")
                 for n in full]
        items.append(("kac", "--weight", HERMITE, "--n", str(492 + d[3]),
                      "--scaled", "--interval", "-0.5", "0.5"))
        items.append(("kac", "--weight", "freud:1:4", "--n", str(500 - d[3]),
                      "--full-line"))
        return [Item(key=tuple(str(a) for a in argv)) for argv in items]

    @staticmethod
    def setup(final: bool):
        return {"tables": _setup_tables(((HERMITE, 1001), ("freud:1:4", 501)),
                                        final)}

    @staticmethod
    def run(state, item: Item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(list(item.key))
        return rc, buf.getvalue()

    @staticmethod
    def artifact(result) -> bytes:
        return result[1].encode()

    @staticmethod
    def checks(state, results) -> list[Check]:
        """results: list of (item, (rc, text)); an exception in place of
        the pair means the item raised."""
        out = []
        for key, tab in state["tables"].items():
            out.append(Check(f"{key} table ortho_residual "
                             f"{tab.ortho_residual:.3g} <= {RESIDUAL_MAX:g}",
                             tab.ortho_residual <= RESIDUAL_MAX,
                             [i for i, (it, _) in enumerate(results)
                              if _opt(it.key, "--weight") == key]))
        bad = {}
        for i, (item, res) in enumerate(results):
            why = _kac_failure(item.key, res, Kac.TOL)
            if why:
                bad.setdefault(why, []).append(i)
        text = ("every kac command exits 0; error <= tol "
                f"{Kac.TOL:g}; |E/n*sqrt(3) - 1| <= 0.05 on the full line for "
                "n >= 250; scaled value within 5% of the semicircle share")
        if bad:
            text += " -- failed: " + "; ".join(f"{why} ({len(v)}x)"
                                               for why, v in bad.items())
        out.append(Check(text, not bad, sorted(i for v in bad.values() for i in v)))
        return out

    @staticmethod
    def trace_extra(state, rows) -> dict:
        """CLI bytes written by one pass, and how many of its artifacts
        differ from the goldens recorded for the same command."""
        goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
        done = [(" ".join(it.key), r) for it, r in rows
                if not isinstance(r, BaseException)]
        known = [(cmd, r) for cmd, r in done if cmd in goldens]
        return {"bytes_written": sum(len(Kac.artifact(r)) for _, r in done),
                "artifacts_compared": len(known),
                "artifact_changes": sum(goldens[cmd] != digest(Kac.artifact(r))
                                        for cmd, r in known)}


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _kac_failure(argv, res, tol) -> str:
    """Why one kac result is wrong, or '' when it passes."""
    if isinstance(res, BaseException):
        return f"raised {type(res).__name__}"
    rc, text = res
    if rc != 0:
        return f"exit code {rc}"
    lines = text.splitlines()
    n = int(_opt(argv, "--n"))
    try:
        if "--scaled" in argv:
            i = argv.index("--interval")
            lo, hi = float(argv[i + 1]), float(argv[i + 2])
            val = float(lines[1])

            def semicircle_cdf(s):  # (2/pi) int_{-1}^s sqrt(1 - t^2) dt - 1/2
                return (math.asin(s) + s * math.sqrt(1 - s * s)) / math.pi

            target = INV_SQRT3 * (semicircle_cdf(hi) - semicircle_cdf(lo))
            if abs(val / target - 1) <= 0.05:
                return ""
            return f"scaled value {val:.6g} vs {target:.6g}"
        e_row, err_row = lines[-2].split(","), lines[-1].split(",")
        if e_row[0] != "expected_count" or err_row[0] != "error":
            return "summary rows missing"
        count, err = float(e_row[1]), float(err_row[1])
    except (IndexError, ValueError):
        return "unparsable output"
    if not err <= tol:
        return f"quadrature error {err:.3g} > {tol:g}"
    if n >= 250 and not abs(count / n / INV_SQRT3 - 1) <= 0.05:
        return f"E/n deviates from 1/sqrt(3) by more than 5% at n={n}"
    return ""


# ---------------------------------------------------------------------------
# mc_count: sign-change counting


class McCount:
    """`mc_expected_zeros` without a partition, one call per coefficient
    law; the ensemble is what `simulate` and criterion 2 run."""

    N = 200
    TRIALS = 300
    LAWS = ("gaussian", "rademacher")
    ROUTE_TRIALS = 50  # per law, the subsample for the eigenvalue cross-check

    @staticmethod
    def inputs(seed: int) -> list[Item]:
        return [Item(key=(law, McCount.N, McCount.TRIALS, seed),
                     size=McCount.TRIALS) for law in McCount.LAWS]

    @staticmethod
    def setup(final: bool):
        tables = _setup_tables(((HERMITE, McCount.N),), final)
        spec = weights.parse_weight(HERMITE)
        info = scaling.solve_mrs(spec, McCount.N + 1)
        grid = montecarlo.make_count_grid(spec, info, tables[HERMITE])
        return {"tables": tables, "info": info, "grid": grid}

    @staticmethod
    def run(state, item: Item):
        law, n, trials, seed = item.key
        spec = weights.parse_weight(HERMITE)
        return montecarlo.mc_expected_zeros(
            spec, state["tables"][HERMITE], n, trials,
            montecarlo.CoeffDist(law), seed, info=state["info"])

    @staticmethod
    def artifact(result) -> bytes:
        return np.asarray(result.counts).tobytes()

    @staticmethod
    def checks(state, results) -> list[Check]:
        n = McCount.N
        info, grid = state["info"], state["grid"]
        pad = montecarlo.CountConfig().pad
        reach = pad * info.a_n - 1e-12 * info.a_n
        everything = list(range(len(results)))
        out = [Check(f"counting grid reaches pad*a_n: {grid[-1]:.6g} >= "
                     f"{pad:g}*{info.a_n:.6g}", bool(grid[-1] >= reach),
                     everything)]
        raised = [i for i, (_, r) in enumerate(results)
                  if isinstance(r, BaseException)]
        out.append(Check("no trial block raised", not raised, raised))
        ok = [i for i in everything if i not in raised]
        wild = [i for i in ok if not np.all((results[i][1].counts >= 0)
                                            & (results[i][1].counts <= n))]
        out.append(Check(f"every count lies in [0, {n}]", not wild, wild))
        gauss = [i for i in ok if results[i][0].key[0] == "gaussian"]
        if gauss:
            det = kac.expected_zeros_full(state["tables"][HERMITE], n,
                                          edge=info.a_n).expected_count
            z = {i: abs(results[i][1].mean - det) / results[i][1].stderr
                 for i in gauss}
            far = [i for i, v in z.items() if not v <= 4.0]
            out.append(Check(
                f"gaussian mean within 4 stderr of the Kac integral {det:.4f}: "
                f"worst gap {max(z.values()):.2f} stderr", not far, far))
        return out

    @staticmethod
    def trace_extra(state, rows) -> dict:
        """On trials 0..ROUTE_TRIALS-1 of each law, how many sign-change
        counts differ from the number of eigenvalues with |Im| <= 1e-8 a_n.
        Agreement evidence, never a failure: zeros beyond the grid's reach
        and near-real pairs make the routes differ by design."""
        tab = state["tables"][HERMITE]
        a_n = scaling.solve_mrs(weights.parse_weight(HERMITE), McCount.N).a_n
        mismatch = checked = 0
        for item, res in rows:
            if isinstance(res, BaseException):
                continue
            law, n, _, seed = item.key
            for t in range(McCount.ROUTE_TRIALS):
                s = montecarlo.sample_coeffs(montecarlo.CoeffDist(law), seed, t, n)
                z = montecarlo.all_zeros(tab, s)
                real = int(np.sum(np.abs(z.imag) <= 1e-8 * a_n))
                mismatch += real != int(res.counts[t])
                checked += 1
        return {"route_mismatch": mismatch, "route_checked": checked}


# ---------------------------------------------------------------------------
# eigen_ks: comrade-matrix eigenvalues and the KS distance to the limit law


class EigenKs:
    """sample_coeffs -> all_zeros -> empirical_measure -> ks_to_ullman per
    trial, the route of criteria 4 and 5."""

    KEYS = ("freud:1:2", "freud:1:4")
    PLAN = ((500, 10), (100, 4))  # (degree, trials) per weight and pass

    @staticmethod
    def inputs(seed: int) -> list[Item]:
        return [Item(key=(key, n, seed, t)) for key in EigenKs.KEYS
                for n, trials in EigenKs.PLAN for t in range(trials)]

    @staticmethod
    def setup(final: bool):
        tables = _setup_tables(((k, 501) for k in EigenKs.KEYS), final)
        infos = {(k, n): scaling.solve_mrs(weights.parse_weight(k), n)
                 for k in EigenKs.KEYS for n, _ in EigenKs.PLAN}
        return {"tables": tables, "infos": infos}

    @staticmethod
    def run(state, item: Item):
        key, n, seed, t = item.key
        spec = weights.parse_weight(key)
        s = montecarlo.sample_coeffs(montecarlo.CoeffDist("gaussian"), seed, t, n)
        z = montecarlo.all_zeros(state["tables"][key], s)
        m = montecarlo.empirical_measure(z, state["infos"][(key, n)])
        return z, m, montecarlo.ks_to_ullman(m, spec.alpha)

    artifact = None

    @staticmethod
    def trace_extra(state, rows) -> dict:
        return {}

    @staticmethod
    def checks(state, results) -> list[Check]:
        out = []
        broken = [i for i, (it, r) in enumerate(results)
                  if isinstance(r, BaseException) or r[0].size != it.key[1]
                  or not np.all(np.isfinite(r[0]))]
        out.append(Check("n finite eigenvalues per trial", not broken, broken))
        for key in EigenKs.KEYS:
            mine = [i for i, (it, _) in enumerate(results) if it.key[0] == key]
            scored = [(results[i][0].key[1], results[i][1]) for i in mine
                      if i not in broken]
            ks = {n: [r[2] for deg, r in scored if deg == n] for n, _ in EigenKs.PLAN}
            if not all(ks.values()):
                out.append(Check(f"{key}: no scored trials", False, mine))
                continue
            k500, k100 = float(np.mean(ks[500])), float(np.mean(ks[100]))
            out.append(Check(f"{key}: mean KS(500) {k500:.4f} <= 0.05 and < "
                             f"KS(100) {k100:.4f}", k500 <= 0.05 and k500 < k100,
                             mine))
            outside = float(np.mean([np.mean(np.abs(r[1].scaled_points) > 1.05)
                                     for deg, r in scored if deg == 500]))
            out.append(Check(f"{key}: mass outside [-1.05, 1.05] {outside:.5f} "
                             "<= 0.02", outside <= 0.02, mine))
        return out


WORKLOADS = {"kac": Kac, "mc_count": McCount, "eigen_ks": EigenKs}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
