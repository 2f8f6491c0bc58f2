"""Audit of the Hermite exclusion test that decides which derivative-only
cells the zero counter subdivides.

A dense 401-point scan of every derivative-only cell (a derivative sign
flip and no value flip between the ends) is the reference.  Every cell
whose scan shows a sign change must be kept and get its zeros counted.  On
the inner cells the test clears, the cubic Hermite interpolant H of the end
data must stay within a third of the exclusion margin of the scanned
values, relative to the larger end value M: the test clears a cell when
min H > margin * M, so |p - H| < margin * M / 3 leaves p above
2 margin M / 3 on the scan.  Cells the test keeps are subdivided, and their
residual is not bounded here: near the support edge it reaches 0.35 in
1000 rademacher trials at n = 200, always in a cell whose interpolant dips
far below the margin.
"""

import numpy as np
import pytest

import orthozero as oz
from orthozero import montecarlo as mc

SCAN = 401
CELLS_PER_SCAN = 16  # bounds the scan's basis matrices to ~20 MB at n = 200


def _hermite_basis(s):
    return (2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s,
            -2 * s**3 + 3 * s**2, s**3 - s**2)


def audit(n, trials, law):
    """(cells with a scanned pair, largest Hermite residual on the inner
    cells the test clears) over trials 0..trials-1 at seed 0; asserts
    every scanned pair is kept and counted."""
    spec = oz.parse_weight("freud:0.5:2")
    table = oz.build_recurrence(spec, n + 1)
    info = oz.solve_mrs(spec, n + 1)
    grid = oz.make_count_grid(spec, info, table)
    edge = mc._EDGE * info.a_n
    C = np.stack([oz.sample_coeffs(oz.parse_dist(law), 0, t, n)
                  for t in range(trials)])
    P, D, expo = oz.poly_matrix(table, grid, n, derivs=True)
    V, Vd = C @ P, C @ D
    S, Sd = np.sign(V), np.sign(Vd)
    pf = S[:, :-1] * S[:, 1:] < 0
    rows, cells = np.nonzero((Sd[:, :-1] * Sd[:, 1:] < 0) & ~pf)
    kept = set(zip(*(a.tolist() for a in
                     mc._rescue_cells(V, Vd, expo, grid, pf, info.a_n))))
    _, (bt, lo, hi, _) = mc._brackets(table, C, grid, n, info.a_n)

    s = np.linspace(0.0, 1.0, SCAN)
    h00, h10, h01, h11 = _hermite_basis(s)
    pairs = 0
    worst = 0.0
    for k0 in range(0, rows.size, CELLS_PER_SCAN):
        t, c = rows[k0:k0 + CELLS_PER_SCAN], cells[k0:k0 + CELLS_PER_SCAN]
        x0, x1 = grid[c], grid[c + 1]
        xs = (x0[:, None] + (x1 - x0)[:, None] * s[None, :]).ravel()
        Ps, Ds, e = oz.poly_matrix(table, xs, n, derivs=True)
        v = np.einsum("ij,jis->is", C[t], Ps.reshape(n + 1, c.size, SCAN))
        d = np.einsum("ij,jis->is", C[t], Ds.reshape(n + 1, c.size, SCAN))
        e = e.reshape(c.size, SCAN)

        sg = np.sign(v)
        changes = np.sum(sg[:, :-1] * sg[:, 1:] < 0, axis=1)
        for k in np.nonzero(changes)[0]:
            assert (int(t[k]), int(c[k])) in kept
            inside = (bt == t[k]) & (lo >= x0[k]) & (hi <= x1[k])
            assert np.sum(inside) >= changes[k]
            pairs += 1

        inner = (np.abs(x0) <= edge) & (np.abs(x1) <= edge)
        top = np.maximum(e[:, 0], e[:, -1])[:, None]
        f = np.ldexp(v, e - top)
        m = np.ldexp(d, e - top) * (x1 - x0)[:, None]
        H = (f[:, :1] * h00 + m[:, :1] * h10 + f[:, -1:] * h01
             + m[:, -1:] * h11)
        big = np.maximum(np.abs(f[:, 0]), np.abs(f[:, -1]))
        resid = np.max(np.abs(f - H), axis=1) / big
        cleared = inner & np.array([(a, b) not in kept for a, b in
                                    zip(t.tolist(), c.tolist())], dtype=bool)
        if cleared.any():
            worst = max(worst, float(np.max(resid[cleared])))
    return pairs, worst


# trials per case: enough that each case scans at least one hidden pair
@pytest.mark.parametrize("n,trials,law", [(50, 300, "gaussian"),
                                          (50, 100, "rademacher"),
                                          (200, 30, "gaussian"),
                                          (200, 30, "rademacher")])
def test_dense_scan_audit(n, trials, law):
    pairs, worst = audit(n, trials, law)
    assert pairs > 0  # the kept-and-counted check ran
    assert worst < mc._EXCLUDE_MARGIN / 3


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


def test_slab_size_and_row_split_keep_results(monkeypatch):
    spec = oz.parse_weight("freud:0.5:2")
    table = oz.build_recurrence(spec, 61)
    info = oz.solve_mrs(spec, 61)
    grid = oz.make_count_grid(spec, info, table)
    C = np.stack([oz.sample_coeffs(oz.parse_dist("rademacher"), 0, t, 60)
                  for t in range(40)])
    counts, whole = mc._brackets(table, C, grid, 60, info.a_n)
    monkeypatch.setattr(mc, "_SLAB_BYTES", 1)  # one cell per slab
    sliced_counts, sliced = mc._brackets(table, C, grid, 60, info.a_n)
    assert np.array_equal(counts, sliced_counts)
    assert all(np.array_equal(a, b)
               for a, b in zip(_sorted(whole), _sorted(sliced)))
    # a row's brackets do not depend on the rows that share its block
    whole = _sorted(whole)
    for t in range(0, 40, 7):
        one_count, one = mc._brackets(table, C[t:t + 1], grid, 60, info.a_n)
        mine = whole[0] == t
        assert one_count[0] == counts[t]
        assert all(np.array_equal(a, b[mine])
                   for a, b in zip(_sorted(one)[1:], whole[1:]))
