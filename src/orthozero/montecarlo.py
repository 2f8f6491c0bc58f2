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


# the inner grid, stepped at grid_factor / sigma, spans |x| <= _EDGE * a_n;
# the geometric tail beyond it has cells far wider than a zero spacing
_EDGE = 1.02


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

    edge = _EDGE * a
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
# an inner derivative-only cell is declared zero-free when the cubic Hermite
# interpolant of its end values and slopes stays above this fraction of the
# larger end value; the dense-scan audit (tests/test_pair_rescue.py) finds
# the interpolant's relative error on the cells it clears below a third of
# it, on grids stepped at _AUDITED_GRID_FACTOR / sigma.  The error grows
# like the fourth power of the step, so coarser grids clear nothing.
_EXCLUDE_MARGIN = 0.5
_AUDITED_GRID_FACTOR = 0.1
# coefficient block of one subdivision sweep
_SLAB_BYTES = 8_000_000


def _combo_values(table: RecurrenceTable, Ct: np.ndarray, x: np.ndarray,
                  n: int, derivs: bool):
    """Accumulate sum_j Ct[j, i] p_j(x[i]) (and optionally the derivative
    combination) point by point without storing the polynomial matrix.
    Returns mantissas only: their signs are the true combination's."""
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


def _clear_edge(cfg: CountConfig, info: ScalingInfo) -> float:
    """Reach of the cells the Hermite exclusion test may clear: the inner
    grid, |x| <= _EDGE * a_n, of a make_count_grid grid stepped at the
    audited grid_factor or finer; 0 (clear nothing) on coarser grids."""
    return _EDGE * info.a_n if cfg.grid_factor <= _AUDITED_GRID_FACTOR else 0.0


def _hermite_min(f0, f1, m0, m1):
    """Minimum over s in [0, 1] of the cubic Hermite interpolant with
    values f0, f1 and slopes m0, m1 (per unit s) at s = 0, 1: the smaller
    end value or the cubic at a root of its quadratic derivative."""
    c2 = 3.0 * (f1 - f0) - 2.0 * m0 - m1
    c3 = 2.0 * (f0 - f1) + m0 + m1
    # H'(s) = m0 + b s + a s^2, roots by the cancellation-free formula
    a, b = 3.0 * c3, 2.0 * c2
    disc = b * b - 4.0 * a * m0
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    low = np.minimum(f0, f1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in (q / a, m0 / q):
            s = np.where((disc >= 0) & (s > 0) & (s < 1), s, 0.0)
            low = np.minimum(low, f0 + s * (m0 + s * (c2 + s * c3)))
    return low


def _rescue_cells(V: np.ndarray, Vd: np.ndarray, expo: np.ndarray,
                  grid: np.ndarray, pf: np.ndarray, edge: float):
    """Rows and cells that may hide a pair of zeros: a derivative flip and
    no value flip (Rolle), less the inner cells (both ends within `edge`)
    whose Hermite interpolant stays above _EXCLUDE_MARGIN of the larger
    end value.  V, Vd are the combination mantissas on the grid and expo
    their per-point exponents; the ends of a cell are aligned to the
    larger exponent before comparison."""
    Sd = np.sign(Vd)
    t, c = np.nonzero((Sd[:, :-1] * Sd[:, 1:] < 0) & ~pf)
    x0, x1 = grid[c], grid[c + 1]
    inner = (np.abs(x0) <= edge) & (np.abs(x1) <= edge)
    t_in, c_in = t[inner], c[inner]
    e0, e1 = expo[c_in], expo[c_in + 1]
    top = np.maximum(e0, e1)
    f0 = np.ldexp(V[t_in, c_in], e0 - top)
    f1 = np.ldexp(V[t_in, c_in + 1], e1 - top)
    h = x1[inner] - x0[inner]
    m0 = h * np.ldexp(Vd[t_in, c_in], e0 - top)
    m1 = h * np.ldexp(Vd[t_in, c_in + 1], e1 - top)
    # no value flip: f0 + f1 carries the cell's sign; a vanishing end
    # gives a 0 or NaN minimum and keeps the cell
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.sign(f0 + f1) / np.maximum(np.abs(f0), np.abs(f1))
        low = _hermite_min(f0 * norm, f1 * norm, m0 * norm, m1 * norm)
    keep = np.ones(t.size, dtype=bool)
    keep[inner] = ~(low > _EXCLUDE_MARGIN)
    return t[keep], c[keep]


def _count_and_locate(table: RecurrenceTable, C: np.ndarray, grid: np.ndarray,
                      n: int, width: float, refine: bool, edge: float):
    """Shared counting core for a block of coefficient rows.

    Sign changes of the combination on the grid give the base brackets.  A
    hidden pair of zeros inside a cell forces (Rolle) a sign change of the
    derivative there; such cells, less those the Hermite exclusion test
    clears (see _rescue_cells), are subdivided a few levels, every fan
    point of a level evaluated in one sweep, before being declared
    zero-free.  `edge` bounds the cells the test may clear (_clear_edge).

    Returns (counts, list of sorted zero arrays per row).
    """
    T = C.shape[0]
    P, D, expo = poly_matrix(table, grid, n, derivs=True)
    V = C @ P
    Vd = C @ D
    S = np.sign(V)
    pf = (S[:, :-1] * S[:, 1:]) < 0

    ti, ci = np.nonzero(pf)
    br_t = [ti]
    br_lo = [grid[ci]]
    br_hi = [grid[ci + 1]]
    br_sl = [S[ti, ci]]

    # pair-rescue subdivision of the surviving derivative-only cells, in
    # slabs that bound the repeated coefficient block
    tj, cj = _rescue_cells(V, Vd, expo, grid, pf, edge)
    frac = np.linspace(0.0, 1.0, _SUBDIV_FAN + 1)
    slab = max(1, _SLAB_BYTES // (8 * (n + 1) * frac.size))
    for s0 in range(0, tj.size, slab):
        act_t, c = tj[s0:s0 + slab], cj[s0:s0 + slab]
        act_lo, act_hi = grid[c], grid[c + 1]
        for _ in range(_SUBDIV_DEPTH):
            if act_t.size == 0:
                break
            xs = act_lo[:, None] + (act_hi - act_lo)[:, None] * frac[None, :]
            Ct = np.ascontiguousarray(np.repeat(C[act_t], frac.size, axis=0).T)
            sv, dv = _combo_values(table, Ct, xs.ravel(), n, derivs=True)
            sp = np.sign(sv).reshape(xs.shape)
            sd = np.sign(dv).reshape(xs.shape)
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

    per_row = np.bincount(bt, minlength=T)
    counts = per_row + np.sum(S == 0, axis=1)
    order = np.lexsort((roots, bt))
    zeros = np.split(roots[order], np.cumsum(per_row)[:-1])
    return counts, zeros


def count_real_zeros(table: RecurrenceTable, sample: CoefficientSample,
                     info: ScalingInfo, cfg: CountConfig = CountConfig(),
                     spec: WeightSpec | None = None,
                     grid: np.ndarray | None = None) -> CountResult:
    """Count real zeros of sum c_j p_j by sign changes of the weighted
    polynomial (same zeros, no overflow), bracketing each change and
    bisecting to width bisect_rel * a_n.

    Pass a precomputed `grid` (from make_count_grid) when running many
    trials; otherwise `spec` is required to build one.  The exclusion test
    of the pair rescue runs only on a grid built here: a caller's grid may
    be coarser than the audited step, so there every cell where the
    derivative flips and the value does not is subdivided.
    """
    n = len(sample.coeffs) - 1
    edge = 0.0
    if grid is None:
        if spec is None:
            raise DomainError("need either a grid or a spec to build one")
        grid = make_count_grid(spec, info, table, cfg)
        edge = _clear_edge(cfg, info)
    counts, zeros = _count_and_locate(table, sample.coeffs[None, :], grid, n,
                                      cfg.bisect_rel * info.a_n, cfg.refine,
                                      edge)
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


def partition_edges(partition) -> np.ndarray:
    """Validated interval edges of a partition of the scaled line."""
    edges = np.asarray(partition, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("partition must be an increasing list of edges")
    return edges


def interval_shares(zeros: np.ndarray, edges: np.ndarray, a_scale: float,
                    n: int) -> np.ndarray:
    """Per interval of `edges`, the share of a degree-n polynomial's zeros
    whose real parts, contracted by a_scale, fall inside it."""
    hist, _ = np.histogram(np.sort(zeros.real) / a_scale, bins=edges)
    return hist / n


@dataclass(frozen=True)
class McResult:
    """Ensemble statistics; `complete` is False when the counting grid was
    cut short by its budget, so counts may be low."""

    mean: float
    stderr: float
    counts: np.ndarray
    trials: int
    complete: bool = True


def mc_expected_zeros(spec: WeightSpec, table: RecurrenceTable, n: int,
                      trials: int, dist: CoeffDist, seed: int,
                      cfg: CountConfig = CountConfig(),
                      info: ScalingInfo | None = None) -> McResult:
    """Mean and standard error of the real-zero count over independent
    trials."""
    if trials < 2:
        raise DomainError("need at least 2 trials for a standard error")
    if info is None:
        info = solve_mrs(spec, n + 1)
    grid = make_count_grid(spec, info, table, cfg)
    counts = np.zeros(trials)
    width = cfg.bisect_rel * info.a_n
    edge = _clear_edge(cfg, info)
    chunk = max(1, min(trials, 64_000_000 // (8 * grid.size)))
    for t0 in range(0, trials, chunk):
        t1 = min(t0 + chunk, trials)
        C = np.stack([sample_coeffs(dist, seed, t, n).coeffs
                      for t in range(t0, t1)])
        # counts are fixed before bracket refinement, so the ensemble skips it
        counts[t0:t1], _ = _count_and_locate(table, C, grid, n, width,
                                             refine=False, edge=edge)
    mean = float(np.mean(counts))
    stderr = float(np.std(counts, ddof=1) / math.sqrt(trials))
    return McResult(mean=mean, stderr=stderr, counts=counts, trials=trials,
                    complete=_grid_complete(grid, info, cfg))
