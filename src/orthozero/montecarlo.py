"""Seeded sampling of random orthogonal polynomials, real-zero counting by
sign changes, full complex zero sets via the comrade matrix, and empirical
scaled-zero measures with a Kolmogorov-Smirnov statistic against the limit
distribution.

Reproducibility contract: every trial's coefficient stream is a pure
function of (dist, seed, trial_index) through a counter-derived generator,
so results are independent of scheduling and batch layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DegenerateSampleError, DomainError
from .orthopoly import RecurrenceTable, _SCALE, _sweep, poly_matrix
from .scaling import (
    ScalingInfo,
    equilibrium_density_many,
    solve_mrs,
    ullman_cdf_many,
)
from .weights import WeightSpec

_DISTS = ("gaussian", "rademacher", "uniform")


@dataclass(frozen=True)
class CoeffDist:
    """Coefficient law: gaussian(sigma), rademacher, or uniform(-1, 1).
    All three satisfy E[|log|c_0||] < inf."""

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in _DISTS:
            raise DomainError(f"unknown coefficient law {self.kind!r}")
        if self.kind == "gaussian" and not self.sigma > 0:
            raise DomainError("gaussian sigma must be positive")


def parse_dist(text: str) -> CoeffDist:
    parts = text.split(":")
    if parts[0] == "gaussian":
        sigma = float(parts[1]) if len(parts) > 1 else 1.0
        return CoeffDist("gaussian", sigma)
    if len(parts) == 1 and parts[0] in _DISTS:
        return CoeffDist(parts[0])
    raise DomainError(f"cannot parse coefficient law {text!r}")


@dataclass(frozen=True)
class CoefficientSample:
    dist: CoeffDist
    seed: int
    trial_index: int
    coeffs: np.ndarray


def sample_coeffs(dist: CoeffDist, seed: int, trial: int, n: int) -> CoefficientSample:
    """Draw c_0..c_n for one trial.

    The stream is keyed by (seed, trial) through SeedSequence spawn keys, so
    regenerating any trial reproduces it exactly regardless of how many
    other trials ran in between."""
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(trial,)))
    if dist.kind == "gaussian":
        c = dist.sigma * rng.standard_normal(n + 1)
    elif dist.kind == "rademacher":
        c = rng.integers(0, 2, size=n + 1).astype(float) * 2.0 - 1.0
    else:
        c = rng.uniform(-1.0, 1.0, size=n + 1)
    return CoefficientSample(dist=dist, seed=seed, trial_index=trial, coeffs=c)


# ---------------------------------------------------------------------------
# counting grid and sign-change counting


@dataclass(frozen=True)
class CountConfig:
    """Controls for the sign-change zero counter.

    The grid step inside the support is `grid_factor`/sigma_{n+1}(x)
    (expected local zero spacing is ~ sqrt(3)/sigma); outside, the grid
    extends geometrically until the Cauchy-type far tail of the zero
    density, ~ 2 b_n/(pi x), drops below `tail_mass` expected zeros."""

    pad: float = 1.5
    grid_factor: float = 0.1
    tail_mass: float = 0.02
    geo_ratio: float = 1.12
    bisect_rel: float = 1e-12
    max_grid: int = 2_000_000
    refine: bool = True


@dataclass(frozen=True)
class CountResult:
    count: int
    zeros: np.ndarray
    complete: bool
    grid_size: int


def make_count_grid(spec: WeightSpec, info: ScalingInfo, table: RecurrenceTable,
                    cfg: CountConfig = CountConfig()) -> np.ndarray:
    """Evaluation grid for counting zeros of degree info.n - 1 polynomials.

    info must be the scaling data for n + 1 (the density that sets the local
    zero spacing).  Near the support edge the step is floored at the
    edge-scaling scale a n^(-2/3), where zero spacings stop shrinking; the
    capped-step region runs a little past the edge before the geometric
    tail takes over."""
    a = info.a_n
    npl = info.n
    # density profile on a fixed fine grid, then linear interpolation
    s_grid = np.linspace(-1.0, 1.0, 2001)[1:-1]
    sig_star = (info.delta_n / npl) * equilibrium_density_many(
        spec, info, info.expand(s_grid), tol=1e-6 * npl)
    floor = npl ** (2.0 / 3.0) / (2.0 * a)

    def sigma_at(x):
        s = min(max(x / a, -1.0 + 1e-9), 1.0 - 1e-9)
        return max(float(np.interp(s, s_grid, sig_star)) * npl / a, floor)

    edge = 1.02 * a
    pts = [-edge]
    x = -edge
    while x < edge:
        x += cfg.grid_factor / sigma_at(x)
        pts.append(min(x, edge))
        if len(pts) > cfg.max_grid:
            raise BudgetError(f"counting grid exceeded {cfg.max_grid} points")
    inner = np.array(pts)
    bn = table.b(npl - 1)
    reach = max(cfg.pad * a, 4.0 * bn / (math.pi * cfg.tail_mass))
    tail = [edge]
    while tail[-1] < reach:
        tail.append(tail[-1] * cfg.geo_ratio)
    tail = np.array(tail[1:])
    # if the far tail does not fit the budget, keep a truncated window; the
    # counter reports such counts as incomplete
    room = (cfg.max_grid - inner.size) // 2
    if tail.size > room:
        tail = tail[:room]
    return np.concatenate([-tail[::-1], inner, tail])


_SUBDIV_DEPTH = 3
_SUBDIV_FAN = 6


def _combo_values(table: RecurrenceTable, Ct: np.ndarray, x: np.ndarray,
                  n: int, derivs: bool):
    """Accumulate sum_j Ct[j, i] p_j(x[i]) (and optionally the derivative
    combination) point by point without storing the polynomial matrix;
    mantissa output under a per-point power-of-two scale."""
    S = np.zeros(x.size)
    Sd = np.zeros(x.size) if derivs else None
    for k, (p, d, big, _) in enumerate(_sweep(table, x, n, derivs)):
        if big is not None:
            S[big] /= _SCALE
            if derivs:
                Sd[big] /= _SCALE
        S += Ct[k] * p
        if derivs:
            Sd += Ct[k] * d
    return S, Sd


def _grid_complete(grid: np.ndarray, info: ScalingInfo,
                   cfg: CountConfig) -> bool:
    """False when a budget-truncated grid stops short of pad * a_n."""
    return bool(grid[-1] >= cfg.pad * info.a_n - 1e-12 * info.a_n)


def _count_and_locate(table: RecurrenceTable, C: np.ndarray, grid: np.ndarray,
                      n: int, width: float, refine: bool):
    """Shared counting core for a block of coefficient rows.

    Sign changes of the combination on the grid give the base brackets; a
    hidden pair of zeros inside a cell forces (Rolle) a sign change of the
    derivative there, so cells with a derivative flip and no value flip are
    recursively subdivided a few levels before being declared zero-free.

    Returns (counts, list of sorted zero arrays per row).
    """
    T = C.shape[0]
    P, D, _ = poly_matrix(table, grid, n, derivs=True)
    S = np.sign(C @ P)
    Sd = np.sign(C @ D)
    pf = (S[:, :-1] * S[:, 1:]) < 0
    df = (Sd[:, :-1] * Sd[:, 1:]) < 0

    ti, ci = np.nonzero(pf)
    br_t = [ti]
    br_lo = [grid[ci]]
    br_hi = [grid[ci + 1]]
    br_sl = [S[ti, ci]]

    # pair-rescue subdivision of derivative-only cells
    tj, cj = np.nonzero(df & ~pf)
    act_t, act_lo, act_hi = tj, grid[cj], grid[cj + 1]
    frac = np.linspace(0.0, 1.0, _SUBDIV_FAN + 1)
    for _ in range(_SUBDIV_DEPTH):
        if act_t.size == 0:
            break
        xs = act_lo[:, None] + (act_hi - act_lo)[:, None] * frac[None, :]
        Ct = np.ascontiguousarray(C[act_t].T)
        sp = np.empty((act_t.size, _SUBDIV_FAN + 1))
        sd = np.empty((act_t.size, _SUBDIV_FAN + 1))
        for j in range(_SUBDIV_FAN + 1):
            sv, dv = _combo_values(table, Ct, np.ascontiguousarray(xs[:, j]),
                                   n, derivs=True)
            sp[:, j] = np.sign(sv)
            sd[:, j] = np.sign(dv)
        sub_pf = (sp[:, :-1] * sp[:, 1:]) < 0
        sub_df = (sd[:, :-1] * sd[:, 1:]) < 0
        fi, fj = np.nonzero(sub_pf)
        if fi.size:
            br_t.append(act_t[fi])
            br_lo.append(xs[fi, fj])
            br_hi.append(xs[fi, fj + 1])
            br_sl.append(sp[fi, fj])
        ki, kj = np.nonzero(sub_df & ~sub_pf)
        act_t = act_t[ki]
        act_lo, act_hi = xs[ki, kj], xs[ki, kj + 1]

    bt = np.concatenate(br_t)
    lo = np.concatenate(br_lo)
    hi = np.concatenate(br_hi)
    sl = np.concatenate(br_sl)
    if refine and bt.size:
        Ct = np.ascontiguousarray(C[bt].T)
        steps = max(1, math.ceil(math.log2(max(np.max(hi - lo) / width, 2.0))))
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            sv, _ = _combo_values(table, Ct, mid, n, derivs=False)
            sm = np.sign(sv)
            left = sl * sm < 0
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            sl = np.where(left | (sm == 0), sl, sm)
    roots = 0.5 * (lo + hi)

    exact = np.sum(S == 0, axis=1)
    counts = np.bincount(bt, minlength=T) + exact
    zeros = [np.sort(roots[bt == t]) for t in range(T)]
    return counts, zeros


def count_real_zeros(table: RecurrenceTable, sample: CoefficientSample,
                     info: ScalingInfo, cfg: CountConfig = CountConfig(),
                     spec: WeightSpec | None = None,
                     grid: np.ndarray | None = None) -> CountResult:
    """Count real zeros of sum c_j p_j by sign changes of the weighted
    polynomial (same zeros, no overflow), bracketing each change and
    bisecting to width bisect_rel * a_n.

    Pass a precomputed `grid` (from make_count_grid) when running many
    trials; otherwise `spec` is required to build one.
    """
    n = len(sample.coeffs) - 1
    if grid is None:
        if spec is None:
            raise DomainError("need either a grid or a spec to build one")
        grid = make_count_grid(spec, info, table, cfg)
    counts, zeros = _count_and_locate(table, sample.coeffs[None, :], grid, n,
                                      cfg.bisect_rel * info.a_n, cfg.refine)
    return CountResult(count=int(counts[0]), zeros=zeros[0],
                       complete=_grid_complete(grid, info, cfg),
                       grid_size=grid.size)


# ---------------------------------------------------------------------------
# all zeros via the comrade matrix


def comrade_matrix(table: RecurrenceTable, coeffs: np.ndarray) -> np.ndarray:
    """Comrade matrix of sum c_j p_j after degree reduction: the n x n
    Jacobi matrix with its final row perturbed by -(b_n/c_n) c_0..c_{n-1}."""
    c = np.asarray(coeffs, dtype=float)
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise DegenerateSampleError("all coefficients vanish")
    n = int(nz[-1])
    if n == 0:
        raise DegenerateSampleError("constant polynomial has no zeros")
    c = c[: n + 1]
    M = np.zeros((n, n))
    off = table.off_diag
    for k in range(1, n):
        M[k, k - 1] = M[k - 1, k] = off[k - 1]
    M[n - 1, :] -= (off[n - 1] / c[n]) * c[:n]
    return M


def all_zeros(table: RecurrenceTable, sample: CoefficientSample) -> np.ndarray:
    """All complex zeros, as eigenvalues of the comrade matrix."""
    return np.linalg.eigvals(comrade_matrix(table, sample.coeffs))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Scaled real parts of one trial's zeros, with multiplicity."""

    scaled_points: np.ndarray
    total: int
    complex_count: int
    imag_tol: float


def empirical_measure(zeros: np.ndarray, info: ScalingInfo,
                      imag_tol: float | None = None) -> EmpiricalMeasure:
    """Normalized counting measure of zeros contracted by a_n.  No point is
    discarded; complex_count records how many had |Im z| above imag_tol
    (default 1e-8 a_n)."""
    z = np.asarray(zeros)
    if imag_tol is None:
        imag_tol = 1e-8 * info.a_n
    pts = np.sort(z.real / info.a_n)
    n_complex = int(np.sum(np.abs(z.imag) > imag_tol))
    return EmpiricalMeasure(scaled_points=pts, total=z.size,
                            complex_count=n_complex, imag_tol=imag_tol)


def ks_to_ullman(measure: EmpiricalMeasure, alpha: float) -> float:
    """sup_x |F_emp(x) - F_limit(x)|, exact over the step function's jumps."""
    if not (alpha > 1 or math.isinf(alpha)):
        raise DomainError(f"alpha must lie in (1, inf], got {alpha}")
    pts = measure.scaled_points
    n = pts.size
    F = ullman_cdf_many(alpha, pts)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F))))


# ---------------------------------------------------------------------------
# ensemble driver


@dataclass(frozen=True)
class McResult:
    """Ensemble statistics; `complete` is False when the counting grid was
    cut short by its budget, so counts may be low."""

    mean: float
    stderr: float
    counts: np.ndarray
    trials: int
    partition: tuple[float, ...] | None = None
    partition_fractions: np.ndarray | None = None
    complete: bool = True


def mc_expected_zeros(spec: WeightSpec, table: RecurrenceTable, n: int,
                      trials: int, dist: CoeffDist, seed: int,
                      partition: tuple[float, ...] | None = None,
                      cfg: CountConfig = CountConfig(),
                      info: ScalingInfo | None = None) -> McResult:
    """Mean and standard error of the real-zero count over independent
    trials, optionally with per-interval scaled-zero fractions for a
    partition of [-1, 1] (estimates of E[N*(E)]/n)."""
    if trials < 2:
        raise DomainError("need at least 2 trials for a standard error")
    if info is None:
        info = solve_mrs(spec, n + 1)
    grid = make_count_grid(spec, info, table, cfg)
    counts = np.zeros(trials)
    frac = None
    edges = None
    if partition is not None:
        edges = np.asarray(partition, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise DomainError("partition must be an increasing list of edges")
        frac = np.zeros((trials, edges.size - 1))
        a_scale = solve_mrs(spec, n).a_n  # contraction uses a_n, not a_{n+1}

    width = cfg.bisect_rel * info.a_n
    chunk = max(1, min(trials, 64_000_000 // (8 * grid.size)))
    for t0 in range(0, trials, chunk):
        t1 = min(t0 + chunk, trials)
        C = np.stack([sample_coeffs(dist, seed, t, n).coeffs
                      for t in range(t0, t1)])
        # counts are fixed before bracket refinement, so the ensemble skips it
        blk_counts, _ = _count_and_locate(table, C, grid, n, width,
                                          refine=False)
        counts[t0:t1] = blk_counts
        if frac is not None:
            # interval statistics of the contracted polynomial count all n
            # zeros through their real parts (imaginary parts vanish under
            # the contraction), so they come from the eigenvalue route
            for t in range(t0, t1):
                z = all_zeros(table, CoefficientSample(dist, seed, t, C[t - t0]))
                hist, _ = np.histogram(np.sort(z.real) / a_scale, bins=edges)
                frac[t] = hist / n
    mean = float(np.mean(counts))
    stderr = float(np.std(counts, ddof=1) / math.sqrt(trials))
    return McResult(mean=mean, stderr=stderr, counts=counts, trials=trials,
                    partition=tuple(partition) if partition is not None else None,
                    partition_fractions=(frac.mean(axis=0) if frac is not None
                                         else None),
                    complete=_grid_complete(grid, info, cfg))
