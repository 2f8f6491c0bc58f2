"""Acceptance suite: one callable per criterion, shared by the CLI `verify`
subcommand and the pytest acceptance module.

Each criterion compares a computed quantity against a stated limit at a
fixed tolerance and reports one pass/fail line.  Expensive intermediates
(recurrence tables, eigenvalue batches) are cached per process so criteria
can share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kac, montecarlo, orthopoly, scaling, weights
from .errors import DomainError

INV_SQRT3 = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class CriterionResult:
    num: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.num}: {self.name} | {self.detail}"


def _table(key: str, n_max: int):
    spec = weights.parse_weight(key)
    return spec, orthopoly.get_table(spec, n_max)


@lru_cache(maxsize=None)
def _kac_full(n: int) -> float:
    """Expected real-zero count of degree n on the whole line for
    freud:0.5:2, by the Kac integral (criteria 1 and 2)."""
    spec, tab = _table("freud:0.5:2", max(n + 1, 1001))
    edge = scaling.solve_mrs(spec, n + 1).a_n
    return kac.expected_zeros_full(tab, n, tol=1e-6, edge=edge).expected_count


def criterion_1() -> CriterionResult:
    """Full-line expected count per degree approaches 1/sqrt(3)."""
    r500 = _kac_full(500) / 500
    r1000 = _kac_full(1000) / 1000
    d500 = abs(r500 / INV_SQRT3 - 1.0)
    d1000 = abs(r1000 / INV_SQRT3 - 1.0)
    ok = d500 <= 0.05 and d1000 <= d500
    return CriterionResult(
        1, "global limit E[N]/n -> 1/sqrt(3)", ok,
        f"E/n(500)={r500:.6f} dev={d500:.2%}, E/n(1000)={r1000:.6f} "
        f"dev={d1000:.2%} (allowed 5%, non-increasing)")


@lru_cache(maxsize=None)
def mc_gaussian_200() -> montecarlo.McResult:
    """1000-trial Gaussian ensemble at n = 200 (shared with the tests)."""
    spec, tab = _table("freud:0.5:2", 1001)
    return montecarlo.mc_expected_zeros(
        spec, tab, 200, trials=1000, dist=montecarlo.CoeffDist("gaussian"),
        seed=0)


def criterion_2() -> CriterionResult:
    """Monte Carlo mean matches the deterministic integral at n = 200."""
    det = _kac_full(200)
    res = mc_gaussian_200()
    gap = abs(res.mean - det)
    ok = gap <= 3.0 * res.stderr
    return CriterionResult(
        2, "Monte Carlo consistency at n=200", ok,
        f"mc={res.mean:.4f}+-{res.stderr:.4f}, kac={det:.4f}, "
        f"|gap|={gap:.4f} <= 3se={3 * res.stderr:.4f}")


def criterion_3() -> CriterionResult:
    """Scaled local count over [-1/2, 1/2] approaches the semicircle share."""
    spec, tab = _table("freud:0.5:2", 1001)
    val = kac.scaled_expected_zeros(spec, tab, 500, -0.5, 0.5, tol=1e-6)
    mass = 2.0 * (math.asin(0.5) + 0.5 * math.sqrt(0.75)) / math.pi
    target = INV_SQRT3 * mass
    dev = abs(val / target - 1.0)
    ok = dev <= 0.05
    return CriterionResult(
        3, "local limit on [-1/2, 1/2] at n=500", ok,
        f"value={val:.6f}, target={target:.6f}, dev={dev:.2%} (allowed 5%)")


@lru_cache(maxsize=None)
def _eigen_measures(key: str, n: int, trials: int, seed: int):
    spec, tab = _table(key, 501)
    return montecarlo.eigen_measures(
        tab, scaling.solve_mrs(spec, n), montecarlo.CoeffDist("gaussian"),
        seed, trials)


def criterion_4() -> CriterionResult:
    """Scaled zero measures converge weakly to the limit distribution."""
    details = []
    ok = True
    for key, alpha in (("freud:1:2", 2.0), ("freud:1:4", 4.0)):
        avg = {}
        for n in (100, 500):
            ms = _eigen_measures(key, n, 50, seed=0)
            avg[n] = float(np.mean([montecarlo.ks_to_ullman(m, alpha)
                                    for m in ms]))
        ok = ok and (avg[500] <= 0.05) and (avg[500] < avg[100])
        details.append(f"{key}: KS(100)={avg[100]:.4f}, KS(500)={avg[500]:.4f}")
    return CriterionResult(
        4, "weak convergence of scaled zeros (avg KS over 50 trials)", ok,
        "; ".join(details) + " (need KS(500) <= 0.05 and < KS(100))")


def criterion_5() -> CriterionResult:
    """Almost all scaled zeros concentrate on [-1.05, 1.05]."""
    details = []
    ok = True
    for key in ("freud:1:2", "freud:1:4"):
        ms = _eigen_measures(key, 500, 50, seed=0)
        frac = float(np.mean([np.mean(np.abs(m.scaled_points) > 1.05)
                              for m in ms]))
        ok = ok and frac <= 0.02
        details.append(f"{key}: outside-fraction={frac:.5f}")
    return CriterionResult(
        5, "mass outside [-1.05, 1.05] at n=500", ok,
        "; ".join(details) + " (allowed 0.02)")


def criterion_6() -> CriterionResult:
    """Classical monomial count grows like (2/pi) log n."""
    ns = np.array([100, 300, 1000, 3000], dtype=float)
    Es = np.array([kac.expected_zeros_monomial(int(n)).expected_count
                   for n in ns])
    slope = float(np.polyfit(np.log(ns), Es, 1)[0])
    target = 2.0 / math.pi
    dev = abs(slope / target - 1.0)
    ok = dev <= 0.05
    return CriterionResult(
        6, "monomial-basis slope vs log n", ok,
        f"slope={slope:.6f}, 2/pi={target:.6f}, dev={dev:.2%} (allowed 5%)")


def criterion_7() -> CriterionResult:
    """Constants and the two limit-density routes."""
    worst_prod = 0.0
    for alpha in (1.5, 2.0, 3.0, 4.0, 8.0):
        g, b = scaling.freud_constants(alpha)
        worst_prod = max(worst_prod, abs(g * b - 1.0 / alpha))
    xs = np.linspace(-1.0, 1.0, 101)
    worst_semi = np.max(np.abs(scaling.ullman_density(2.0, xs) - 2.0 / math.pi
                               * np.sqrt(np.maximum(1.0 - xs * xs, 0.0))))
    # the alternative route: sigma_n* of the Freud weight, which is the
    # Ullman density at every n, by the equilibrium divided difference
    worst_alt = 0.0
    pts = (-0.9, -0.5, 0.1, 0.7)
    for alpha in (1.5, 3.0, 8.0):
        spec = weights.make_freud(1.0, alpha)
        alt = scaling.normalized_density_many(
            spec, scaling.solve_mrs(spec, 90), pts)
        worst_alt = max(worst_alt, np.max(np.abs(
            scaling.ullman_density(alpha, pts) - alt)))
    ok = worst_prod <= 1e-12 and worst_semi <= 1e-10 and worst_alt <= 1e-8
    return CriterionResult(
        7, "constants identity and density-route agreement", ok,
        f"|gamma*B-1/alpha|<={worst_prod:.2e} (1e-12), "
        f"semicircle dev<={worst_semi:.2e} (1e-10), "
        f"alt-vs-primary<={worst_alt:.2e} (1e-8)")


def criterion_8() -> CriterionResult:
    """Radius solver against the closed form; density masses."""
    worst_a = worst_mass = 0.0
    for c in (1.0, 0.5):
        for lam in (2.0, 4.0):
            g, _ = scaling.freud_constants(lam)
            spec = weights.make_freud(c, lam)
            for n in (10, 100, 1000):
                info = scaling.solve_mrs(spec, n)
                a_exact = (n * g / c) ** (1.0 / lam)
                worst_a = max(worst_a, abs(info.a_n / a_exact - 1.0))
                mass, _ = scaling.sigma_mass(spec, info, tol=1e-10 * info.n)
                worst_mass = max(worst_mass, abs(mass / info.n - 1.0))
    ok = worst_a <= 1e-10 and worst_mass <= 1e-8
    return CriterionResult(
        8, "radius closed form and equilibrium masses", ok,
        f"radius rel err<={worst_a:.2e} (1e-10), "
        f"|unit mass - 1|<={worst_mass:.2e} (1e-8, sigma_n mass = n scaled)")


def criterion_9() -> CriterionResult:
    """Recurrence oracle and leading-coefficient growth."""
    spec, tab = _table("freud:0.5:2", 1001)
    k = np.arange(1, 61)
    worst_b = float(np.max(np.abs(tab.off_diag[:60] / np.sqrt(k / 2.0) - 1.0)))
    res4 = _table("freud:1:4", 501)[1].ortho_residual
    a200 = scaling.solve_mrs(spec, 200).a_n
    ratio = math.exp(tab.log_leading[200] / 200.0) * a200
    target = 2.0 * math.exp(0.5)
    dev = abs(ratio / target - 1.0)
    ok = worst_b <= 1e-10 and res4 <= 1e-8 and dev <= 0.02
    return CriterionResult(
        9, "recurrence oracle (b_k, residual, leading growth)", ok,
        f"b_k dev<={worst_b:.2e} (1e-10), residual(freud:1:4)={res4:.2e} "
        f"(1e-8), gamma^(1/n)a ratio dev={dev:.2%} (allowed 2%)")


def criterion_10() -> CriterionResult:
    """Diagonal kernel ratios against the universality limits at n=200."""
    spec, tab = _table("freud:0.5:2", 1001)
    a200 = scaling.solve_mrs(spec, 200).a_n
    pi23 = math.pi**2 / 3.0
    worst00 = worst11 = 0.0
    for x in (0.0, 0.4 * a200, -0.4 * a200):
        r00, _, r11 = orthopoly.universality_ratios(spec, tab, 200, x)
        worst00 = max(worst00, abs(r00 - 1.0))
        worst11 = max(worst11, abs(r11 - pi23))
    ok = worst00 <= 0.05 and worst11 <= 0.15 * pi23
    return CriterionResult(
        10, "universality diagnostics at n=200", ok,
        f"|r00-1|<={worst00:.4f} (0.05), |r11-pi^2/3|<={worst11:.4f} "
        f"({0.15 * pi23:.4f})")


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10)


def run_all(only: set[int] | None = None) -> list[CriterionResult]:
    unknown = sorted(set(only or ()) - set(range(1, len(ALL_CRITERIA) + 1)))
    if unknown:
        raise DomainError(f"unknown criterion number(s) {unknown}; the "
                          f"criteria are 1..{len(ALL_CRITERIA)}")
    out = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if only is not None and i not in only:
            continue
        out.append(fn())
    return out
