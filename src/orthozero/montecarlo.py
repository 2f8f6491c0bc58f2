"""Seeded sampling of random orthogonal polynomials, real-zero counting by
sign changes, full complex zero sets via the comrade matrix, and empirical
scaled-zero measures with a Kolmogorov-Smirnov statistic against the limit
distribution.

Reproducibility contract: sample_coeffs(dist, seed, trial, n) is a pure
function of its arguments through a counter-derived generator, so the draws
do not depend on scheduling or batch layout.  A row's grid values may differ
in the last bits with the rows that share its block; its counts do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DegenerateSampleError, DomainError
from .kac import kac_density
from .orthopoly import (
    _BASIS_BYTES,
    RecurrenceTable,
    _basis_into,
    combo_values,
    kernel_triple_many,
    poly_matrix,  # unused here, but perfbench's tracer rebinds this name
)
from .quadrature import refine_roots
from .scaling import ScalingInfo, solve_mrs, ullman_cdf_many
from .weights import WeightSpec

_DISTS = ("gaussian", "rademacher", "uniform")


@dataclass(frozen=True)
class CoeffDist:
    """Coefficient law: standard gaussian, rademacher, or uniform(-1, 1).
    All three satisfy E[|log|c_0||] < inf.  A common scale of the c_j
    moves no zero, so none is offered."""

    kind: str

    def __post_init__(self):
        if self.kind not in _DISTS:
            raise DomainError(f"unknown coefficient law {self.kind!r}")


def sample_coeffs(dist: CoeffDist, seed: int, trial: int, n: int) -> np.ndarray:
    """Draw c_0..c_n for one trial.

    The stream is keyed by (seed, trial) through SeedSequence spawn keys, so
    regenerating any trial reproduces it exactly regardless of how many
    other trials ran in between."""
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(trial,)))
    if dist.kind == "gaussian":
        return rng.standard_normal(n + 1)
    if dist.kind == "rademacher":
        return rng.integers(0, 2, size=n + 1).astype(float) * 2.0 - 1.0
    return rng.uniform(-1.0, 1.0, size=n + 1)


# ---------------------------------------------------------------------------
# counting grid and sign-change counting


@dataclass(frozen=True)
class CountConfig:
    """The counting grid reaches at least `pad` * a_n; the far-tail rule
    below carries it much further (to about 34 a_n)."""

    pad: float = 1.5


@dataclass(frozen=True)
class CountResult:
    count: int
    zeros: np.ndarray


# The grid step on |x| <= _EDGE a_n is _GRID_FACTOR / sigma(x), with
# sigma = sqrt(3) rho the table's own Kac zero density (the expected local
# zero spacing is ~ sqrt(3)/sigma = 1/rho).  Past _EDGE a_n the same walk
# grows its step by _GEO_RATIO per point and ends at the first
# _EDGE a_n _GEO_RATIO^k beyond where the Cauchy-type far tail of the zero
# density, ~ 2 b_n/(pi x), drops below _TAIL_MASS expected zeros.  Zeros
# are refined to brackets of width _ZERO_WIDTH * a_n.  A grid of more than
# _MAX_GRID points raises BudgetError: it is never cut short.
_GRID_FACTOR = 0.1
_EDGE = 1.02
_TAIL_MASS = 0.02
_GEO_RATIO = 1.12
_ZERO_WIDTH = 1e-12
_MAX_GRID = 2_000_000

_GRID_CACHE: dict[tuple, np.ndarray] = {}


def make_count_grid(spec: WeightSpec, info: ScalingInfo,
                    table: RecurrenceTable) -> np.ndarray:
    """Evaluation grid for counting zeros of degree info.n - 1 polynomials,
    read-only and cached on what it reads: the table, named as get_table
    names it (spec.cache_key and table.n_max), and info.

    info must be the scaling data for n + 1.  The grid is one walk from 0,
    mirrored about the origin exactly, with a single 0 (the zero density is
    even; _brackets builds its basis on x >= 0 only and rests on this).
    Near the support edge the step is floored at the scale a n^(-2/3), where
    zero spacings stop shrinking; past _EDGE a_n the step grows
    geometrically from the last inner step.  Raises BudgetError when the
    whole grid would exceed _MAX_GRID points."""
    key = (spec.cache_key, table.n_max, info)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        grid = _build_grid(table, info)
        grid.flags.writeable = False
        _GRID_CACHE[key] = grid
    return grid


def _build_grid(table: RecurrenceTable, info: ScalingInfo) -> np.ndarray:
    a, npl = info.a_n, info.n
    edge = _EDGE * a
    reach = max(CountConfig.pad * a,
                4.0 * table.b(npl - 1) / (math.pi * _TAIL_MASS))
    end = edge
    while end < reach:
        end *= _GEO_RATIO
    # density profile on a fixed fine grid of [0, a), then linear
    # interpolation (held at its last value beyond it)
    x_prof = a * np.linspace(0.0, 1.0, 1001)[:-1]
    sig = math.sqrt(3.0) * kac_density(
        *kernel_triple_many(table, x_prof, npl - 1)[:3])
    floor = npl ** (2.0 / 3.0) / (2.0 * a)
    pts = [0.0]
    x = step = 0.0
    while x < end:
        if x < edge:
            step = _GRID_FACTOR / max(float(np.interp(x, x_prof, sig)), floor)
        else:
            step *= _GEO_RATIO
        x = min(x + step, end)
        pts.append(x)
        if 2 * len(pts) - 1 > _MAX_GRID:
            raise BudgetError(f"counting grid exceeded {_MAX_GRID} points")
    half = np.array(pts)
    return np.concatenate([-half[:0:-1], half])


_SUBDIV_DEPTH = 3
_SUBDIV_FAN = 6
# an inner derivative-only cell, of the grid or of a subdivision fan, is
# declared zero-free when the cubic Hermite interpolant of its end values and
# slopes stays above this fraction of the larger end value.  On the grid
# cells it clears, the interpolant's error relative to that value stays below
# a third of the margin in the dense-scan audits (tests/test_pair_rescue.py,
# 30 trials per law at n = 200) but reaches 0.157 (gaussian) and 0.204
# (rademacher), under half of it, over 1000 trials per law at n = 200; on the
# fan sub-cells of depths 1 and 2 it stays below 6e-4.
_EXCLUDE_MARGIN = 0.5


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


def _flips(V: np.ndarray) -> np.ndarray:
    """Boolean mask, one column shorter than V, of the cells of each row
    whose two ends have opposite signs; a zero or NaN end makes no flip."""
    neg = np.signbit(V)
    live = (V != 0) & ~np.isnan(V)
    return (neg[:, :-1] != neg[:, 1:]) & live[:, :-1] & live[:, 1:]


def _rescue_cells(V: np.ndarray, Vd: np.ndarray, expo: np.ndarray,
                  xs: np.ndarray, pf: np.ndarray, a_n: float):
    """Rows and cells that may hide a pair of zeros: a derivative flip and
    no value flip (Rolle), less the inner cells (both ends within
    _EDGE * a_n) whose Hermite interpolant stays above _EXCLUDE_MARGIN of
    the larger end value.  V, Vd are the combination mantissas, one row per
    coefficient row; expo their exponents and xs the points, either one row
    shared by all (the grid) or one row each (a fan).  The ends of a cell
    are aligned to the larger exponent before comparison."""
    edge = _EDGE * a_n
    xs = np.broadcast_to(xs, V.shape)
    expo = np.broadcast_to(expo, V.shape)
    t, c = np.nonzero(_flips(Vd) & ~pf)
    x0, x1 = xs[t, c], xs[t, c + 1]
    inner = (np.abs(x0) <= edge) & (np.abs(x1) <= edge)
    t_in, c_in = t[inner], c[inner]
    e0, e1 = expo[t_in, c_in], expo[t_in, c_in + 1]
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


def _brackets(table: RecurrenceTable, C: np.ndarray, grid: np.ndarray,
              a_n: float, brackets: bool = True):
    """Zero counts and brackets for a block of coefficient rows.

    Level 0 is the grid.  By the mirror symmetry that make_count_grid
    builds, and p_k(-x) = (-1)^k p_k(x) bit for bit in the recurrence sweep,
    P and D are built on the half grid x >= 0 only, in blocks of grid
    columns that keep them under _BASIS_BYTES: the side x >= 0 is C @ P,
    C @ D and the side x <= 0 is Cs @ P, -(Cs @ D), Cs = C (-1)^k, the same
    products exactly.  Each side walks outward from 0 in blocks of rows
    whose working set (V, Vd, masks, Hermite scratch: about four V-sized
    arrays) fits the budget too, and carries each row's last value into the
    next column block, so every cell is seen once; the side x <= 0 reaches
    `level` in ascending x.  Grid sign changes give the base brackets.
    A hidden pair of zeros inside a cell forces (Rolle) a sign change of the
    derivative there; such cells, less those the Hermite exclusion test
    clears (see _rescue_cells), are split into a fan of _SUBDIV_FAN
    sub-cells, and the fan points of all of them are the next level,
    evaluated in one sweep.  Every level adds its sign changes as brackets
    and picks its cells to split by the same rule, down to _SUBDIV_DEPTH
    levels below the grid; a cell it drops, or any cell of the last level,
    is declared zero-free.

    A count also includes grid points where a value vanishes, x = 0 once.
    Returns (counts, (rows, lo, hi, sign at lo)), one bracket entry per
    counted zero: a sign change, or a grid point x where a value vanishes
    as the bracket [x, x] with sign 0; (counts, None) without `brackets`.
    """
    n = C.shape[1] - 1
    counts = np.zeros(len(C), dtype=np.int64)
    found = []

    def level(V, Vd, expo, xs, rows, last=False):
        pf = _flips(V)
        np.add.at(counts, rows, np.count_nonzero(pf, axis=1))
        xb = np.broadcast_to(xs, V.shape)
        if brackets:
            i, j = np.nonzero(pf)
            found.append((rows[i], xb[i, j], xb[i, j + 1], np.sign(V[i, j])))
        if not last:
            i, j = _rescue_cells(V, Vd, expo, xs, pf, a_n)
            return rows[i], xb[i, j], xb[i, j + 1]

    h = grid.size // 2
    walks = (grid[h:], grid[h::-1])  # outward from 0 on each side
    Cs = C * (-1.0) ** np.arange(n + 1)  # weights of the p_k(x) at -x
    step = max(1, _BASIS_BYTES // (8 * (n + 1)))
    w = min(step, h + 1)
    nr = min(len(C), max(1, _BASIS_BYTES // (4 * 8 * (w + 1))))
    PD = np.empty(2 * (n + 1) * w)  # one basis block, reused
    buf = np.empty(2 * nr * (w + 1))  # V and Vd of one row block, reused
    carry = np.empty((2, 2, len(C), 1))  # per side, last V, Vd of each row
    expo = np.empty(0, dtype=np.int64)  # so the first block carries none
    kept = []
    for g in range(0, h + 1, step):
        x = walks[0][g:g + step]
        P, D, e = _basis_into(table, x, PD[:2 * (n + 1) * x.size]
                              .reshape(2, n + 1, x.size))
        c0 = min(g, 1)  # the carried column, past the first block
        xs, expo = walks[0][g - c0:g + step], np.concatenate((expo[-1:], e))
        for r in range(0, len(C), nr):
            blk = slice(r, min(r + nr, len(C)))
            V, Vd = buf[:2 * (blk.stop - r) * xs.size].reshape(2, -1, xs.size)
            for side, (Cx, walk) in enumerate(zip((C, Cs), walks)):
                V[:, :c0], Vd[:, :c0] = carry[side, :, blk, :c0]
                np.matmul(Cx[blk], P, out=V[:, c0:])
                np.matmul(Cx[blk], D, out=Vd[:, c0:])
                if side:
                    np.negative(Vd[:, c0:], out=Vd[:, c0:])
                carry[side, :, blk] = V[:, -1:], Vd[:, -1:]
                s0 = max(c0, side)  # x = 0 is side 0's
                hit = V[:, s0:] == 0
                counts[blk] += hit.sum(axis=1)
                if brackets:
                    i, j = np.nonzero(hit)
                    xz = walk[g - c0 + s0:g + step][j]
                    found.append((r + i, xz, xz, np.zeros(i.size)))
                rev = slice(None, None, 1 - 2 * side)  # ascending x
                kept.append(level(V[:, rev], Vd[:, rev], expo[rev],
                                  walk[g - c0:g + step][rev],
                                  np.arange(r, blk.stop)))
    rows, x0, x1 = (np.concatenate(a) for a in zip(*kept))
    frac = np.linspace(0.0, 1.0, _SUBDIV_FAN + 1)
    for depth in range(1, _SUBDIV_DEPTH + 1):
        if rows.size == 0:
            break
        xs = x0[:, None] + (x1 - x0)[:, None] * frac[None, :]
        V, Vd, expo = combo_values(table, C[rows], xs)
        if nxt := level(V, Vd, expo, xs, rows, depth == _SUBDIV_DEPTH):
            rows, x0, x1 = nxt
    if not brackets:
        return counts, None
    return counts, tuple(np.concatenate(a) for a in zip(*found))


def _coeff_vector(coeffs) -> np.ndarray:
    """coeffs as a float array, refused unless finite, 1-D and nonzero."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or not np.isfinite(c).all():
        raise DomainError("coefficients must be a finite 1-D array")
    if not c.any():
        raise DegenerateSampleError("all coefficients vanish")
    return c


def count_real_zeros(spec: WeightSpec, table: RecurrenceTable,
                     coeffs: np.ndarray) -> CountResult:
    """Count real zeros of sum c_j p_j, j = 0..n, on the make_count_grid
    grid of solve_mrs(spec, n + 1) by sign changes of the unweighted sum's
    mantissas from the recurrence sweep (same signs, no overflow), each
    bracketed and refined to width _ZERO_WIDTH * a_n; a zero exactly at a
    grid point is that point.  A nonzero constant has none."""
    coeffs = _coeff_vector(coeffs)
    if coeffs.size == 1:
        return CountResult(count=0, zeros=np.empty(0))
    info = solve_mrs(spec, coeffs.size)  # n + 1
    grid = make_count_grid(spec, info, table)
    counts, (_, lo, hi, sl) = _brackets(table, coeffs[None], grid, info.a_n)
    # value and slope mantissas share each point's exponent: V/Vd = f/f'
    zeros = refine_roots(lambda x: combo_values(
        table, coeffs[None], x[None])[:2], lo, hi, sl,
        _ZERO_WIDTH * info.a_n)
    return CountResult(count=int(counts[0]), zeros=np.sort(zeros))


# ---------------------------------------------------------------------------
# all zeros via the comrade matrix


def comrade_matrix(table: RecurrenceTable, coeffs: np.ndarray) -> np.ndarray:
    """Comrade matrix of sum c_j p_j after degree reduction: the n x n
    Jacobi matrix with its final row perturbed by -(b_n/c_n) c_0..c_{n-1};
    0 x 0 for a nonzero constant, which has no zeros."""
    c = _coeff_vector(coeffs)
    n = int(np.flatnonzero(c)[-1])
    M = np.zeros((n, n))
    if n == 0:
        return M
    off = table.off_diag
    k = np.arange(1, n)
    M[k, k - 1] = M[k - 1, k] = off[:n - 1]
    M[n - 1, :] -= (off[n - 1] / c[n]) * c[:n]
    return M


def all_zeros(table: RecurrenceTable, coeffs: np.ndarray) -> np.ndarray:
    """All complex zeros, as eigenvalues of the comrade matrix."""
    return np.linalg.eigvals(comrade_matrix(table, coeffs))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Scaled real parts of one trial's zeros, with multiplicity."""

    scaled_points: np.ndarray
    total: int
    complex_count: int
    imag_tol: float

    def shares(self, edges: np.ndarray) -> np.ndarray:
        """Per interval of `edges`, the share of the points inside it;
        points outside the edges are not counted."""
        return np.histogram(self.scaled_points, edges)[0] / self.total


def empirical_measure(zeros: np.ndarray, info: ScalingInfo) -> EmpiricalMeasure:
    """Normalized counting measure of zeros contracted by a_n.  No point is
    discarded; complex_count records how many had |Im z| above
    imag_tol = 1e-8 a_n."""
    z = np.asarray(zeros)
    imag_tol = 1e-8 * info.a_n
    pts = np.sort(z.real / info.a_n)
    n_complex = int(np.sum(np.abs(z.imag) > imag_tol))
    return EmpiricalMeasure(scaled_points=pts, total=z.size,
                            complex_count=n_complex, imag_tol=imag_tol)


def ks_to_ullman(measure: EmpiricalMeasure, alpha: float) -> float:
    """sup_x |F_emp(x) - F_limit(x)|, exact over the step function's jumps;
    ullman_cdf_many rejects alpha outside (1, inf]."""
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
    if (edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
            or np.any(np.diff(edges) <= 0)):
        raise DomainError("partition edges must be finite and increasing")
    return edges


def eigen_measures(table: RecurrenceTable, info: ScalingInfo,
                   dist: CoeffDist, seed: int,
                   trials: int) -> list[EmpiricalMeasure]:
    """Scaled zero measures of trials 0..trials-1 at degree info.n, each
    from the comrade-matrix eigenvalues of its own coefficient draw."""
    return [empirical_measure(
        all_zeros(table, sample_coeffs(dist, seed, t, info.n)), info)
        for t in range(trials)]


@dataclass(frozen=True)
class McResult:
    """Ensemble statistics of the per-trial real-zero counts."""

    mean: float
    stderr: float
    counts: np.ndarray
    trials: int


def check_trials(trials: int) -> None:
    """DomainError unless trials >= 2, the fewest with a standard error."""
    if trials < 2:
        raise DomainError("need at least 2 trials for a standard error")


def mc_expected_zeros(spec: WeightSpec, table: RecurrenceTable, n: int,
                      trials: int, dist: CoeffDist, seed: int,
                      info: ScalingInfo | None = None) -> McResult:
    """Mean and standard error of the real-zero count over independent
    trials; info, if given, must be solve_mrs(spec, n + 1)."""
    check_trials(trials)
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    if info is None:
        info = solve_mrs(spec, n + 1)
    elif info.n != n + 1:
        raise DomainError(f"degree {n} needs info = solve_mrs(spec, {n + 1})")
    grid = make_count_grid(spec, info, table)
    counts = np.zeros(trials)
    # a chunk bounds C and its sign-flipped copy, each under _BASIS_BYTES
    chunk = max(1, min(trials, _BASIS_BYTES // (8 * (n + 1))))
    for t0 in range(0, trials, chunk):
        t1 = min(t0 + chunk, trials)
        C = np.stack([sample_coeffs(dist, seed, t, n) for t in range(t0, t1)])
        counts[t0:t1], _ = _brackets(table, C, grid, info.a_n,
                                     brackets=False)
    mean = float(np.mean(counts))
    stderr = float(np.std(counts, ddof=1) / math.sqrt(trials))
    return McResult(mean=mean, stderr=stderr, counts=counts, trials=trials)
