"""Audit of the Hermite exclusion test that decides which derivative-only
cells the zero counter subdivides, on the grid and at every fan level.

A dense 401-point scan of every derivative-only cell (a derivative sign
flip and no value flip between the ends) is the reference: the grid cells,
and the fan sub-cells of subdivision depths 1 and 2 (past the last depth,
_SUBDIV_DEPTH = 3, no cell is split whatever the test says).  Every cell
whose scan shows a sign change must be kept and get its zeros counted.  On
the inner cells the test clears, the cubic Hermite interpolant H of the end
data must stay within a third of the exclusion margin of the scanned
values, relative to the larger end value M: the test clears a cell when
min H > margin * M, so |p - H| < margin * M / 3 leaves p above
2 margin M / 3 on the scan.  On fan sub-cells, a sixth or a thirty-sixth
of a grid cell wide, the residual is orders of magnitude below that.
Cells the test keeps are subdivided, and their residual is not bounded
here: near the support edge it reaches 0.35 in 1000 rademacher trials at
n = 200, always in a cell whose interpolant dips far below the margin.
"""

import numpy as np
import pytest

import orthozero as oz
from orthozero import montecarlo as mc
from orthozero import orthopoly

SCAN = 401
CELLS_PER_SCAN = 16  # bounds the scan's basis matrices to ~20 MB at n = 200


def _hermite_basis(s):
    return (2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s,
            -2 * s**3 + 3 * s**2, s**3 - s**2)


def _setup(n, trials, law):
    spec = oz.parse_weight("freud:0.5:2")
    table = oz.build_recurrence(spec, n + 1)
    info = oz.solve_mrs(spec, n + 1)
    grid = oz.make_count_grid(spec, info, table)
    C = np.stack([oz.sample_coeffs(oz.CoeffDist(law), 0, t, n)
                  for t in range(trials)])
    return table, info, grid, C


def scan(table, C, t, x0, x1, kept, brackets, edge):
    """Dense scan of the derivative-only cells [x0, x1] of rows t; kept
    flags the cells the test keeps.  Asserts every scanned sign change lies
    in a kept cell and is counted; returns (cells with a scanned pair,
    largest Hermite residual on the inner cells the test clears)."""
    n = C.shape[1] - 1
    bt, lo, hi, _ = brackets
    s = np.linspace(0.0, 1.0, SCAN)
    h00, h10, h01, h11 = _hermite_basis(s)
    pairs = 0
    worst = 0.0
    for k0 in range(0, t.size, CELLS_PER_SCAN):
        tk, a, b = (v[k0:k0 + CELLS_PER_SCAN] for v in (t, x0, x1))
        xs = (a[:, None] + (b - a)[:, None] * s[None, :]).ravel()
        Ps, Ds, e = oz.poly_matrix(table, xs, n, derivs=True)
        v = np.einsum("ij,jis->is", C[tk], Ps.reshape(n + 1, tk.size, SCAN))
        d = np.einsum("ij,jis->is", C[tk], Ds.reshape(n + 1, tk.size, SCAN))
        e = e.reshape(tk.size, SCAN)

        sg = np.sign(v)
        changes = np.sum(sg[:, :-1] * sg[:, 1:] < 0, axis=1)
        for k in np.nonzero(changes)[0]:
            assert kept[k0 + k]
            inside = (bt == tk[k]) & (lo >= a[k]) & (hi <= b[k])
            assert np.sum(inside) >= changes[k]
            pairs += 1

        cleared = ((np.abs(a) <= edge) & (np.abs(b) <= edge)
                   & ~kept[k0:k0 + CELLS_PER_SCAN])
        if cleared.any():
            top = np.maximum(e[:, 0], e[:, -1])[:, None]
            f = np.ldexp(v, e - top)
            m = np.ldexp(d, e - top) * (b - a)[:, None]
            H = (f[:, :1] * h00 + m[:, :1] * h10 + f[:, -1:] * h01
                 + m[:, -1:] * h11)
            big = np.maximum(np.abs(f[:, 0]), np.abs(f[:, -1]))
            resid = np.max(np.abs(f - H), axis=1) / big
            worst = max(worst, float(np.max(resid[cleared])))
    return pairs, worst


def _flagged(rows, cells, kept_rows, kept_cells):
    kept = set(zip(kept_rows.tolist(), kept_cells.tolist()))
    return np.array([k in kept for k in zip(rows.tolist(), cells.tolist())],
                    dtype=bool)


def audit(n, trials, law):
    """scan() over the derivative-only grid cells of trials 0..trials-1 at
    seed 0."""
    table, info, grid, C = _setup(n, trials, law)
    P, D, expo = oz.poly_matrix(table, grid, n, derivs=True)
    V, Vd = C @ P, C @ D
    S, Sd = np.sign(V), np.sign(Vd)
    pf = S[:, :-1] * S[:, 1:] < 0
    rows, cells = np.nonzero((Sd[:, :-1] * Sd[:, 1:] < 0) & ~pf)
    kept = _flagged(rows, cells,
                    *mc._rescue_cells(V, Vd, expo, grid, pf, info.a_n))
    _, brackets = mc._brackets(table, C, grid, info.a_n)
    return scan(table, C, rows, grid[cells], grid[cells + 1], kept, brackets,
                mc._EDGE * info.a_n)


def fan_audit(n, trials, law, monkeypatch):
    """scan() over the derivative-only fan sub-cells of subdivision depths
    1 and 2 of trials 0..trials-1 at seed 0; one (pairs, worst residual)
    per depth.  The grid-level calls of _rescue_cells come first: per
    block of grid columns, per block of coefficient rows in row order, the
    side x >= 0 and then the side x <= 0 (whose points start below 0); each
    later call is the next depth."""
    table, info, grid, C = _setup(n, trials, law)
    rescue = mc._rescue_cells
    levels = []
    grid_rows = []  # coefficient rows kept by each grid-level call
    offset = [0]  # coefficient row of the next grid-level call's first row
    active = []  # coefficient row of each fan row at the current level

    def spy(V, Vd, expo, xs, pf, a_n):
        t, c = rescue(V, Vd, expo, xs, pf, a_n)
        if xs.ndim == 1:
            grid_rows.append(offset[0] + t)
            if xs[0] < 0:  # the side x <= 0 ends its block of rows
                offset[0] = (offset[0] + V.shape[0]) % trials
            return t, c
        if not levels:
            active[:] = [np.concatenate(grid_rows)]
        Sd = np.sign(Vd)
        i, j = np.nonzero((Sd[:, :-1] * Sd[:, 1:] < 0) & ~pf)
        levels.append((active[0][i], xs[i, j], xs[i, j + 1],
                       _flagged(i, j, t, c)))
        active[0] = active[0][t]
        return t, c

    monkeypatch.setattr(mc, "_rescue_cells", spy)
    _, brackets = mc._brackets(table, C, grid, info.a_n)
    monkeypatch.undo()
    return [scan(table, C, *level, brackets, mc._EDGE * info.a_n)
            for level in levels[:2]]


# trials per case: enough that each case scans at least one hidden pair
@pytest.mark.parametrize("n,trials,law", [(50, 300, "gaussian"),
                                          (50, 100, "rademacher"),
                                          (200, 30, "gaussian"),
                                          (200, 30, "rademacher")])
def test_dense_scan_audit(n, trials, law):
    pairs, worst = audit(n, trials, law)
    assert pairs > 0  # the kept-and-counted check ran
    assert worst < mc._EXCLUDE_MARGIN / 3


# trials per case: enough that each case holds a pair hidden in a depth-1
# sub-cell (trials 1332, 44 and 899 at seed 0)
@pytest.mark.parametrize("n,trials,law", [(50, 1400, "gaussian"),
                                          (200, 45, "gaussian"),
                                          (200, 900, "rademacher")])
def test_dense_scan_audit_of_fan_levels(n, trials, law, monkeypatch):
    (pairs, worst1), (_, worst2) = fan_audit(n, trials, law, monkeypatch)
    assert pairs > 0  # the kept-and-counted check ran
    assert max(worst1, worst2) < mc._EXCLUDE_MARGIN / 3


@pytest.mark.parametrize("derivs", [True, False])
def test_combo_values_exponents_match_poly_matrix(derivs):
    # points where the sweep rescales: past 0.92 a_n at n = 200, and the
    # geometric tail of the grid out to its end near 34 a_n.  combo_values
    # always carries derivatives; at these points the values-only sweep
    # rescales at the same degrees, so that basis has its exponents too
    n = 200
    table, info, grid, _ = _setup(n, 1, "gaussian")
    xs = np.concatenate([np.linspace(0.8, 1.02, 12) * info.a_n, grid[-12:],
                         grid[:12]])
    P, D, expo = oz.poly_matrix(table, xs, n, derivs=derivs)
    assert np.unique(expo).size >= 3  # rescales at 256, 1024 and 1280
    Ct = np.random.default_rng(3).standard_normal((n + 1, xs.size))
    # one coefficient row per point
    S, Sd, e = orthopoly.combo_values(table, Ct.T, xs[:, None])
    assert np.array_equal(e[:, 0], expo)
    assert np.allclose(S[:, 0], np.einsum("ji,ji->i", Ct, P), rtol=1e-9,
                       atol=0)
    if derivs:
        assert np.allclose(Sd[:, 0], np.einsum("ji,ji->i", Ct, D), rtol=1e-9,
                           atol=0)


def test_hermite_min_matches_dense_minimum():
    rng = np.random.default_rng(5)
    f0, f1 = rng.uniform(0.0, 1.0, (2, 2000))
    m0, m1 = rng.normal(0.0, 3.0, (2, 2000))
    m0[:200] = 0.0  # degenerate derivative quadratics
    m1[:200] = 0.0
    f1[200:300] = f0[200:300]
    low = mc._hermite_min(f0, f1, m0, m1)
    s = np.linspace(0.0, 1.0, 20001)[:, None]
    h00, h10, h01, h11 = _hermite_basis(s)
    dense = np.min(f0 * h00 + m0 * h10 + f1 * h01 + m1 * h11, axis=0)
    assert np.all(low <= dense + 1e-12)
    assert np.max(dense - low) <= 1e-6


def _sorted(br):
    """Brackets (rows, lo, hi, sign at lo) ordered by row, then lo."""
    order = np.lexsort((br[1], br[0]))
    return [a[order] for a in br]


def test_row_split_keeps_results():
    spec = oz.parse_weight("freud:0.5:2")
    table = oz.build_recurrence(spec, 61)
    info = oz.solve_mrs(spec, 61)
    grid = oz.make_count_grid(spec, info, table)
    C = np.stack([oz.sample_coeffs(oz.CoeffDist("rademacher"), 0, t, 60)
                  for t in range(40)])
    counts, whole = mc._brackets(table, C, grid, info.a_n)
    # a row's brackets do not depend on the rows that share its block
    whole = _sorted(whole)
    for t in range(0, 40, 7):
        one_count, one = mc._brackets(table, C[t:t + 1], grid, info.a_n)
        mine = whole[0] == t
        assert one_count[0] == counts[t]
        assert all(np.array_equal(a, b[mine])
                   for a, b in zip(_sorted(one)[1:], whole[1:]))


@pytest.mark.parametrize("law", ["gaussian", "rademacher"])
def test_counts_independent_of_block_layout(law):
    # the grid values of a row in a 300-row block differ from its one-row
    # values in the last bits (BLAS blocks C @ P by shape); counts do not
    n = 200
    table, info, grid, C = _setup(n, 300, law)
    counts, _ = mc._brackets(table, C, grid, info.a_n)
    singles = [mc._brackets(table, C[t:t + 1], grid, info.a_n)[0][0]
               for t in range(50)]
    assert np.array_equal(counts[:50], singles)


def test_grid_column_blocks_keep_brackets(monkeypatch):
    # the grid level builds its basis on the half grid x >= 0: on a 2 MB
    # budget n = 300 runs it in two blocks of grid columns, and on a 1.5 MB
    # budget n = 200 with 300 trials in two blocks of grid columns of six
    # blocks of coefficient rows each; as one block each gives the same
    # counts and brackets
    for n, trials, budget, row_blocks in ((300, 40, 2_000_000, 1),
                                          (200, 300, 1_500_000, 3)):
        table, info, grid, C = _setup(n, trials, "rademacher")
        monkeypatch.setattr(mc, "_BASIS_BYTES", budget)
        step = budget // (8 * (n + 1))
        half = grid[grid.size // 2:]
        assert half[0] == 0
        assert step < half.size <= 2 * step
        assert -(-trials // (budget // (32 * (step + 1)))) >= row_blocks
        counts, blocked = mc._brackets(table, C, grid, info.a_n)
        monkeypatch.setattr(mc, "_BASIS_BYTES", max(
            8 * (n + 1) * grid.size, 32 * (grid.size + 1) * trials))
        one_counts, whole = mc._brackets(table, C, grid, info.a_n)
        assert np.array_equal(counts, one_counts)
        assert all(np.array_equal(a, b)
                   for a, b in zip(_sorted(blocked), _sorted(whole)))


def test_basis_built_on_half_grid(monkeypatch):
    # the grid level's basis covers the points x >= 0 only, 1067 of 2133
    n = 200
    table, info, grid, C = _setup(n, 20, "gaussian")
    basis_into = mc._basis_into
    seen = []

    def spy(table, x, PD):
        seen.append(x.copy())
        return basis_into(table, x, PD)

    monkeypatch.setattr(mc, "_basis_into", spy)
    mc._brackets(table, C, grid, info.a_n)
    assert sum(x.size for x in seen) == grid.size // 2 + 1
    assert np.array_equal(np.concatenate(seen), grid[grid.size // 2:])


@pytest.mark.parametrize("weight,n", [("freud:1:1.5", 90), ("freud:1:4", 200)])
@pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform"])
def test_counts_without_brackets_match(weight, n, law):
    # the ensemble counts without building brackets; the golden digests pin
    # neither weight
    spec = oz.parse_weight(weight)
    table = oz.get_table(spec, n + 1)
    info = oz.solve_mrs(spec, n + 1)
    grid = oz.make_count_grid(spec, info, table)
    C = np.stack([oz.sample_coeffs(oz.CoeffDist(law), 0, t, n)
                  for t in range(100)])
    counts, brackets = mc._brackets(table, C, grid, info.a_n)
    bare, none = mc._brackets(table, C, grid, info.a_n, brackets=False)
    assert none is None
    assert np.array_equal(bare, counts)
    # no coefficient row here vanishes at a grid point: one bracket a zero
    assert np.array_equal(counts, np.bincount(brackets[0], minlength=100))


def test_one_rescue_pass_per_level(monkeypatch):
    # about 1,350 grid cells need rescue here, summed over the grid level's
    # blocks of coefficient rows: more than the 710 that an 8 MB block of
    # coefficients repeated per fan point would hold at n = 200, yet every
    # fan level is still one pass, 3 at most
    n = 200
    table, info, grid, C = _setup(n, 1000, "rademacher")
    rescue = mc._rescue_cells
    # per side (x <= 0 or not) and grid-column block (its point farthest
    # from 0): (rows, kept) of each call
    grid_calls = {}
    fan_calls = []

    def spy(V, Vd, expo, xs, pf, a_n):
        t, c = rescue(V, Vd, expo, xs, pf, a_n)
        if xs.ndim == 1:
            key = (bool(xs[0] < 0), float(np.max(np.abs(xs))))
            grid_calls.setdefault(key, []).append((V.shape[0], t.size))
        else:
            fan_calls.append(t.size)
        return t, c

    monkeypatch.setattr(mc, "_rescue_cells", spy)
    mc._brackets(table, C, grid, info.a_n)
    kept = sum(k for calls in grid_calls.values() for _, k in calls)
    assert kept > 8_000_000 // (8 * (n + 1) * (mc._SUBDIV_FAN + 1))
    assert len(fan_calls) <= mc._SUBDIV_DEPTH
    # the grid-level calls cover every coefficient row once per side per
    # column block of the half grid
    step = mc._BASIS_BYTES // (8 * (n + 1))
    assert len(grid_calls) == 2 * -(-(grid.size // 2 + 1) // step)
    assert all(sum(r for r, _ in calls) == C.shape[0]
               for calls in grid_calls.values())
