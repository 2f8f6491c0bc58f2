import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_hermite

import orthozero as oz
from conftest import ullman_cdf
from orthozero import montecarlo as mc
from orthozero.errors import BudgetError, DegenerateSampleError, DomainError


def test_sample_reproducibility():
    d = oz.CoeffDist("gaussian")
    a = oz.sample_coeffs(d, 7, 3, 50)
    b = oz.sample_coeffs(d, 7, 3, 50)
    assert np.array_equal(a, b)
    c = oz.sample_coeffs(d, 7, 4, 50)
    assert not np.array_equal(a, c)


def test_gaussian_moments():
    d = oz.CoeffDist("gaussian")
    x = oz.sample_coeffs(d, 123, 0, 10**6 - 1)
    assert abs(x.mean()) <= 4.0 / math.sqrt(1e6)
    assert abs(x.var() - 1.0) <= 0.01


def test_coefficient_scale_moves_no_zero(hermite, hermite_table_60):
    # why the gaussian law has no scale: c and 2.5 c have the same zeros
    # and the same real-zero count
    c = oz.sample_coeffs(oz.CoeffDist("gaussian"), 5, 0, 20)
    info = oz.solve_mrs(hermite, 21)
    one, wide = (oz.count_real_zeros(hermite, hermite_table_60, v, info)
                 for v in (c, 2.5 * c))
    assert one.count == wide.count
    assert np.allclose(one.zeros, wide.zeros, rtol=0, atol=1e-9)
    assert np.allclose(np.sort_complex(oz.all_zeros(hermite_table_60, c)),
                       np.sort_complex(oz.all_zeros(hermite_table_60, 2.5 * c)),
                       rtol=0, atol=1e-9)


def test_rademacher_support():
    x = oz.sample_coeffs(oz.CoeffDist("rademacher"), 1, 0, 4000)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_uniform_support():
    x = oz.sample_coeffs(oz.CoeffDist("uniform"), 1, 0, 4000)
    assert np.all((-1.0 < x) & (x < 1.0))


def test_coeff_dist_laws():
    assert oz.CoeffDist("gaussian").kind == "gaussian"
    assert oz.CoeffDist("rademacher").kind == "rademacher"
    for text in ("cauchy", "gaussian:0.5"):
        with pytest.raises(DomainError):
            oz.CoeffDist(text)


def test_linear_sample_one_zero(hermite, hermite_table_60):
    d = oz.CoeffDist("gaussian")
    info2 = oz.solve_mrs(hermite, 2)
    s = oz.sample_coeffs(d, 0, 0, 1)
    res = oz.count_real_zeros(hermite, hermite_table_60, s, info2)
    assert res.count == 1
    # any array-like of coefficients will do, as for all_zeros
    assert oz.count_real_zeros(hermite, hermite_table_60, list(s),
                               info2).count == 1
    # closed form: c0 p0 + c1 p1 = 0 at b_1 * (-c0/c1) for the even table
    z = oz.all_zeros(hermite_table_60, s)
    expect = -hermite_table_60.off_diag[0] * s[0] / s[1]
    assert z[0].real == pytest.approx(expect, rel=1e-12)
    assert res.zeros[0] == pytest.approx(expect, abs=1e-10)


def test_comrade_pure_top_degree_gives_gauss_nodes(hermite_table_60):
    c = np.zeros(11)
    c[10] = 1.0
    z = np.sort(oz.all_zeros(hermite_table_60, c).real)
    assert np.max(np.abs(z - np.sort(roots_hermite(10)[0]))) <= 1e-10


def test_comrade_matrix_matches_loop_reference(hermite_table_60):
    # the band is filled by one index assignment; the loop it replaced,
    # then the perturbed last row, give the same matrix bit for bit
    tab = hermite_table_60
    c = oz.sample_coeffs(oz.CoeffDist("gaussian"), 5, 0, 40)
    ref = np.zeros((40, 40))
    for k in range(1, 40):
        ref[k, k - 1] = ref[k - 1, k] = tab.off_diag[k - 1]
    ref[39, :] -= (tab.off_diag[39] / c[40]) * c[:40]
    assert np.array_equal(oz.comrade_matrix(tab, c), ref)


def test_comrade_trace_identity(hermite_table_60):
    # sum of zeros equals the ratio fixed by the two top monomial
    # coefficients; expand the basis polynomials at small degree to check
    n = 20
    tab = hermite_table_60
    d = oz.CoeffDist("gaussian")
    s = oz.sample_coeffs(d, 21, 0, n)
    z = oz.all_zeros(tab, s)
    polys = [np.polynomial.Polynomial([tab.gamma0]),
             np.polynomial.Polynomial([0.0, tab.gamma0 / tab.off_diag[0]])]
    x = np.polynomial.Polynomial([0.0, 1.0])
    for k in range(2, n + 1):
        polys.append((x * polys[k - 1] - tab.off_diag[k - 2] * polys[k - 2])
                     / tab.off_diag[k - 1])
    P = sum(ci * pi for ci, pi in zip(s, polys))
    coef = P.coef
    assert np.sum(z).real == pytest.approx(-coef[n - 1] / coef[n], rel=1e-8)
    assert abs(np.sum(z).imag) <= 1e-8


def test_all_zeros_degree_reduction(hermite_table_60):
    d = oz.CoeffDist("gaussian")
    c = np.concatenate([oz.sample_coeffs(d, 3, 0, 8), [0.0, 0.0]])
    z = oz.all_zeros(hermite_table_60, c)
    assert z.size == 8
    with pytest.raises(DegenerateSampleError):
        oz.all_zeros(hermite_table_60, np.zeros(5))


def test_zero_scale_invariance(hermite, hermite_table_60):
    d = oz.CoeffDist("gaussian")
    info = oz.solve_mrs(hermite, 31)
    s = oz.sample_coeffs(d, 17, 0, 30)
    # binary scales propagate exactly through every float operation
    s_pow2 = 4.0 * s
    r1 = oz.count_real_zeros(hermite, hermite_table_60, s, info)
    r2 = oz.count_real_zeros(hermite, hermite_table_60, s_pow2, info)
    assert r1.count == r2.count
    assert np.array_equal(r1.zeros, r2.zeros)
    z1 = np.sort_complex(oz.all_zeros(hermite_table_60, s))
    z2 = np.sort_complex(oz.all_zeros(hermite_table_60, s_pow2))
    assert np.array_equal(z1, z2)
    # arbitrary positive scales keep the count
    s_odd = 3.7 * s
    r3 = oz.count_real_zeros(hermite, hermite_table_60, s_odd, info)
    assert r3.count == r1.count


@pytest.mark.parametrize("n", [30, 50])
def test_sign_count_matches_eigen_count(hermite, hermite_table_60, n):
    d = oz.CoeffDist("gaussian")
    info = oz.solve_mrs(hermite, n + 1)
    info_n = oz.solve_mrs(hermite, n)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    window = grid[-1]
    identical = 0
    worst = 0
    for t in range(100):
        s = oz.sample_coeffs(d, 99, t, n)
        res = oz.count_real_zeros(hermite, hermite_table_60, s, info)
        z = oz.all_zeros(hermite_table_60, s)
        realz = z.real[np.abs(z.imag) <= 1e-8 * info_n.a_n]
        n_eig = int(np.sum(np.abs(realz) <= window))
        identical += (n_eig == res.count)
        worst = max(worst, abs(n_eig - res.count))
    assert identical >= 99
    assert worst <= 1


def _real_inside(table, s, grid, a_n):
    """Real eigenvalues of the comrade matrix (|Im| <= 1e-8 a_n) that lie
    on the counting grid's span."""
    z = oz.all_zeros(table, s)
    r = z.real[np.abs(z.imag) <= 1e-8 * a_n]
    return int(np.sum((r >= grid[0]) & (r <= grid[-1])))


# seed-0 trials whose zero pair hid in a grid cell past the edge, where
# neither p nor p' changes sign between the ends, when the tail grid
# restarted from 1.02 a_n in cells 0.12 a_n wide
@pytest.mark.parametrize("weight,n,law,trial", [
    *(("freud:0.5:2", 200, "gaussian", t) for t in (64, 92, 354, 359)),
    ("freud:0.5:2", 200, "rademacher", 457),
    ("freud:1:4", 500, "rademacher", 36)])
def test_tail_cell_pair_is_counted(weight, n, law, trial):
    spec = oz.parse_weight(weight)
    table = oz.get_table(spec, n + 1)
    info = oz.solve_mrs(spec, n + 1)
    s = oz.sample_coeffs(oz.CoeffDist(law), 0, trial, n)
    grid = oz.make_count_grid(spec, info, table)
    assert (oz.count_real_zeros(spec, table, s, info).count
            == _real_inside(table, s, grid, info.a_n))


def test_flip_masks_on_crafted_values():
    nan = np.nan
    V = np.array([[1.0, -1.0, 0.0, -1.0, -0.0, 2.0, nan, -3.0, 4.0],
                  [-nan, 1.0, -np.inf, np.inf, -nan, -2.0, 2.0, -0.0, -1.0]])
    # a zero end (either sign) or a NaN end (either sign) makes no flip
    want = [[1, 0, 0, 0, 0, 0, 0, 1],
            [0, 1, 1, 0, 0, 1, 0, 0]]
    assert np.array_equal(mc._flips(V), np.array(want, dtype=bool))


def test_flip_masks_match_sign_products():
    rng = np.random.default_rng(11)
    V = rng.standard_normal((40, 500))
    for value, share in ((0.0, 0.05), (-0.0, 0.02), (np.nan, 0.02),
                         (-np.nan, 0.02)):
        V[rng.random(V.shape) < share] = value
    S = np.sign(V)
    assert np.array_equal(mc._flips(V), S[:, :-1] * S[:, 1:] < 0)
    assert np.array_equal(mc._flips(V.T.copy()),
                          S.T[:, :-1] * S.T[:, 1:] < 0)


def test_exact_grid_zero_counted_once(hermite, hermite_table_60):
    # p_1 and p_3 vanish exactly at the grid point 0 (odd parity); p_3
    # also changes sign at the Hermite zeros -+sqrt(3/2)
    info = oz.solve_mrs(hermite, 4)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    C = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
    counts, (rows, lo, hi, _) = mc._brackets(hermite_table_60, C, grid, 3,
                                             info.a_n)
    assert 0.0 in grid
    assert counts.tolist() == [3, 1]
    assert rows.tolist() == [0, 0]
    z = np.array([-1.0, 1.0]) * math.sqrt(1.5)
    lo, hi = np.sort(lo), np.sort(hi)
    assert np.all((lo < z) & (z < hi))


def test_count_memory_bounded(hermite, hermite_table_1001):
    # evaluated whole, the grid level at n = 1000 held P and D, 1001
    # degrees at 10,167 points, and the call peaked at 164 MB; in blocks of
    # grid columns it peaks near 16 MB
    info = oz.solve_mrs(hermite, 1001)
    s = oz.sample_coeffs(oz.CoeffDist("gaussian"), 0, 0, 1000)
    tracemalloc.start()
    try:
        res = oz.count_real_zeros(hermite, hermite_table_1001, s, info)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.count == res.zeros.size > 0
    assert peak <= 40e6


def test_ensemble_memory_bounded(hermite):
    # held whole, V = C @ P and Vd = C @ D of 1000 trials at the 2133 grid
    # points of n = 200 took the call to 85 MB; in blocks of coefficient
    # rows the grid level stays under _BASIS_BYTES and the call near 20 MB
    n = 200
    table = oz.get_table(hermite, n + 1)
    info = oz.solve_mrs(hermite, n + 1)
    oz.make_count_grid(hermite, info, table)  # cached before the trace
    tracemalloc.start()
    try:
        res = oz.mc_expected_zeros(hermite, table, n, 1000,
                                   oz.CoeffDist("gaussian"), 0, info)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.trials == 1000 and np.all(res.counts > 0)
    assert peak <= 30e6


def test_counts_below_freud_exponent_two():
    # lam = 1.5: the grid needs only the table, so counting works for every
    # Freud exponent the weights admit
    spec, n, trials = oz.parse_weight("freud:1:1.5"), 90, 300
    table = oz.get_table(spec, n + 1)
    info = oz.solve_mrs(spec, n + 1)
    grid = oz.make_count_grid(spec, info, table)
    for law in ("gaussian", "rademacher"):
        d = oz.CoeffDist(law)
        res = oz.mc_expected_zeros(spec, table, n, trials, d, seed=0)
        eig = [_real_inside(table, oz.sample_coeffs(d, 0, t, n), grid,
                            info.a_n) for t in range(trials)]
        assert np.array_equal(res.counts, eig)
        if law == "gaussian":
            kac = oz.expected_zeros_full(table, n,
                                         edge=info.a_n).expected_count
            assert abs(res.mean - kac) <= 3.0 * res.stderr


def test_empirical_measure_fields(hermite, hermite_table_60):
    d = oz.CoeffDist("gaussian")
    info = oz.solve_mrs(hermite, 12)
    s = oz.sample_coeffs(d, 2, 0, 12)
    z = oz.all_zeros(hermite_table_60, s)
    m = oz.empirical_measure(z, info)
    assert m.total == 12
    assert m.scaled_points.size == 12
    assert np.all(np.diff(m.scaled_points) >= 0)
    assert m.imag_tol == pytest.approx(1e-8 * info.a_n)
    real_only = oz.empirical_measure(np.array([0.1, -0.5, 0.3]), info)
    assert real_only.complex_count == 0


def test_eigen_measures_match_per_trial(hermite, hermite_table_60):
    d = oz.CoeffDist("rademacher")
    info = oz.solve_mrs(hermite, 25)
    ms = oz.eigen_measures(hermite_table_60, info, d, 6, 4)
    assert len(ms) == 4
    for t, m in enumerate(ms):
        one = oz.empirical_measure(
            oz.all_zeros(hermite_table_60, oz.sample_coeffs(d, 6, t, 25)),
            info)
        assert np.array_equal(m.scaled_points, one.scaled_points)
        assert (m.total, m.complex_count, m.imag_tol) == (
            one.total, one.complex_count, one.imag_tol)


def test_shares_leave_outside_points_uncounted():
    info = oz.ScalingInfo(n=5, a_n=2.0, residual=0.0)
    m = oz.empirical_measure(np.array([-3.0, -1.0, 0.5, 1.0, 4.0]), info)
    shares = m.shares(mc.partition_edges((-1.0, 0.0, 1.0)))
    # scaled points -1.5 and 2.0 fall outside [-1, 1]
    assert np.array_equal(shares, [0.2, 0.4])
    assert shares.sum() < 1.0


def test_pure_top_degree_measure_close_to_limit(freud12):
    tab = oz.get_table(freud12, 501)
    c = np.zeros(501)
    c[500] = 1.0
    z = oz.all_zeros(tab, c)
    info = oz.solve_mrs(freud12, 500)
    m = oz.empirical_measure(z, info)
    assert m.complex_count == 0
    assert oz.ks_to_ullman(m, 2.0) <= 0.05


def test_single_trial_concentration(freud12):
    tab = oz.get_table(freud12, 501)
    d = oz.CoeffDist("gaussian")
    s = oz.sample_coeffs(d, 5, 0, 500)
    z = oz.all_zeros(tab, s)
    info = oz.solve_mrs(freud12, 500)
    m = oz.empirical_measure(z, info)
    assert np.mean(np.abs(m.scaled_points) > 1.05) <= 0.02
    # imaginary parts vanish under the contraction even though a fixed
    # fraction of zeros stays strictly complex
    assert np.mean(np.abs(z.imag) > 0.05 * info.a_n) <= 0.05
    assert m.complex_count / m.total >= 0.2


def test_ks_quantile_construction():
    n = 200
    qs = (np.arange(1, n + 1) - 0.5) / n
    pts = np.array([_ullman_quantile(2.0, q) for q in qs])
    info = oz.ScalingInfo(n=n, a_n=1.0, residual=0.0)
    m = oz.empirical_measure(pts.astype(complex), info)
    assert oz.ks_to_ullman(m, 2.0) <= 1.0 / (2.0 * n) + 1e-6


def _ullman_quantile(alpha, q, lo=-1.0, hi=1.0):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ullman_cdf(alpha, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_ks_degenerate_measure():
    info = oz.ScalingInfo(n=5, a_n=1.0, residual=0.0)
    m = oz.empirical_measure(np.zeros(5, dtype=complex), info)
    assert oz.ks_to_ullman(m, 2.0) == pytest.approx(0.5, abs=1e-9)
    assert oz.ks_to_ullman(m, math.inf) == pytest.approx(0.5, abs=1e-9)


def test_mc_two_trials_stderr(hermite, hermite_table_60):
    d = oz.CoeffDist("gaussian")
    res = oz.mc_expected_zeros(hermite, hermite_table_60, 20, 2, d, seed=4)
    assert res.stderr == pytest.approx(abs(res.counts[0] - res.counts[1]) / 2.0)
    with pytest.raises(DomainError):
        oz.mc_expected_zeros(hermite, hermite_table_60, 20, 1, d, seed=4)


def test_mc_reproducible_and_consistent(hermite, hermite_table_60):
    d = oz.CoeffDist("gaussian")
    res1 = oz.mc_expected_zeros(hermite, hermite_table_60, 60, 200, d, seed=0)
    res2 = oz.mc_expected_zeros(hermite, hermite_table_60, 60, 200, d, seed=0)
    assert np.array_equal(res1.counts, res2.counts)
    assert np.all(res1.counts <= 60)
    edge = oz.solve_mrs(hermite, 61).a_n
    det = oz.expected_zeros_full(hermite_table_60, 60, tol=1e-6,
                                 edge=edge).expected_count
    assert abs(res1.mean - det) <= 3.0 * res1.stderr


def test_mc_batching_matches_per_trial(hermite, hermite_table_60):
    d = oz.CoeffDist("gaussian")
    res = oz.mc_expected_zeros(hermite, hermite_table_60, 40, 25, d, seed=9)
    info = oz.solve_mrs(hermite, 41)
    singles = [oz.count_real_zeros(
        hermite, hermite_table_60, oz.sample_coeffs(d, 9, t, 40), info).count
        for t in range(25)]
    assert np.array_equal(res.counts, np.array(singles, dtype=float))


def test_mc_zero_locations_symmetric(hermite, hermite_table_60):
    # even weight: the mean zero location across trials sits at zero
    d = oz.CoeffDist("gaussian")
    info = oz.solve_mrs(hermite, 51)
    means = []
    for t in range(200):
        s = oz.sample_coeffs(d, 31, t, 50)
        res = oz.count_real_zeros(hermite, hermite_table_60, s, info)
        if res.zeros.size:
            means.append(res.zeros.mean())
    m = np.mean(means)
    se = np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(m) <= 3.0 * se


def test_mc_mean_near_global_limit():
    # the 1000-trial ensemble at n = 200 sits in the limit band
    from orthozero import acceptance

    res = acceptance.mc_gaussian_200()
    band = 0.02 + 3.0 * res.stderr / 200.0
    assert abs(res.mean / 200.0 - 1.0 / math.sqrt(3.0)) <= band


def test_rademacher_partition_fractions(hermite):
    # interval shares of all scaled zeros against the limit masses; the
    # weak-convergence theorem needs no Gaussianity
    tab = oz.get_table(hermite, 201)
    edges = mc.partition_edges((-1.0, -0.5, 0.0, 0.5, 1.0))
    ms = oz.eigen_measures(tab, oz.solve_mrs(hermite, 200),
                           oz.CoeffDist("rademacher"), 0, 1000)
    fractions = np.mean([m.shares(edges) for m in ms], axis=0)
    masses = np.array([ullman_cdf(2.0, b) - ullman_cdf(2.0, a)
                       for a, b in ((-1, -0.5), (-0.5, 0), (0, 0.5), (0.5, 1))])
    assert np.max(np.abs(fractions - masses)) <= 0.03


def test_partition_validation():
    for bad in ((0.5, -0.5), (0.0, 0.0), (1.0,), ((0.0, 1.0),)):
        with pytest.raises(DomainError):
            mc.partition_edges(bad)


@pytest.mark.parametrize("budget", ["tail", "inner", "tiny"])
def test_grid_over_budget_raises(hermite, hermite_table_60, monkeypatch,
                                 budget):
    # a grid is whole or the count fails: over budget, neither the counter
    # nor the ensemble counts on a cut-short grid, and nothing is cached
    d = oz.CoeffDist("gaussian")
    info = oz.solve_mrs(hermite, 31)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    n_inner = int(np.sum(np.abs(grid) <= 1.03 * info.a_n))
    n_tails = grid.size - n_inner
    assert n_tails > 4 and n_inner > 10
    monkeypatch.setattr(mc, "_GRID_CACHE", {})
    monkeypatch.setattr(mc, "_MAX_GRID", {"tail": n_inner + 4,
                                          "inner": n_tails + 10,
                                          "tiny": 50}[budget])
    s = oz.sample_coeffs(d, 0, 0, 30)
    with pytest.raises(BudgetError):
        oz.count_real_zeros(hermite, hermite_table_60, s, info)
    with pytest.raises(BudgetError):
        oz.mc_expected_zeros(hermite, hermite_table_60, 30, 2, d, seed=0)
    assert mc._GRID_CACHE == {}


@pytest.mark.parametrize("weight,n", [("freud:0.5:2", 200), ("freud:1:1.5", 90),
                                      ("freud:1:4", 500)])
def test_count_grid_exactly_mirrored(weight, n):
    # the counter evaluates its basis on the half x >= 0 and reads the side
    # x <= 0 off it by parity, so the grid must mirror bit for bit
    spec = oz.parse_weight(weight)
    table = oz.get_table(spec, n + 1)
    grid = oz.make_count_grid(spec, oz.solve_mrs(spec, n + 1), table)
    assert np.array_equal(grid, -grid[::-1])
    assert np.count_nonzero(grid == 0) == 1


@pytest.mark.parametrize("weight,n", [("freud:0.5:2", 30), ("freud:0.5:2", 40),
                                      ("freud:0.5:2", 200), ("freud:1:4", 100),
                                      ("mixed24", 40)])
def test_count_grid_reaches_pad(weight, n, mixed24):
    # the far-tail rule carries every grid past pad * a_n, where no zero is
    # left uncounted; the explicit-info call form counts the same
    spec = mixed24 if weight == "mixed24" else oz.parse_weight(weight)
    table = oz.get_table(spec, n + 1)
    info = oz.solve_mrs(spec, n + 1)
    grid = oz.make_count_grid(spec, info, table)
    assert grid[-1] >= mc.CountConfig().pad * info.a_n
    d = oz.CoeffDist("gaussian")
    default = oz.mc_expected_zeros(spec, table, n, 3, d, seed=2)
    given = oz.mc_expected_zeros(spec, table, n, 3, d, seed=2, info=info)
    assert np.array_equal(default.counts, given.counts)


def test_mc_degree_beyond_table(freud14):
    tab = oz.build_recurrence(freud14, 40)
    d = oz.CoeffDist("gaussian")
    with pytest.raises(DomainError):
        oz.mc_expected_zeros(freud14, tab, 41, 2, d, seed=0)
    s = oz.sample_coeffs(d, 0, 0, 41)
    info = oz.solve_mrs(freud14, 41)
    with pytest.raises(DomainError):
        oz.count_real_zeros(freud14, tab, s, info)


def test_count_grid_cache(hermite, hermite_table_60):
    # one grid per table (named by weight content and n_max, as get_table
    # names it) and scaling data, built once and shared read-only
    info = oz.solve_mrs(hermite, 41)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    assert oz.make_count_grid(oz.parse_weight("freud:0.5:2"),
                              oz.solve_mrs(hermite, 41),
                              hermite_table_60) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0
    # custom weights key on their Q, never on the shared label; each grid
    # is stepped by its own weight's table
    w1, w2 = (oz.make_custom(q=lambda x, c=c: c * x**2,
                             q1=lambda x, c=c: 2.0 * c * x,
                             q2=lambda x, c=c: 2.0 * c + 0.0 * x,
                             even=True, alpha=2.0, label="w")
              for c in (0.5, 2.0))
    t1, t2 = oz.get_table(w1, 60), oz.get_table(w2, 60)
    g1 = oz.make_count_grid(w1, info, t1)
    g2 = oz.make_count_grid(w2, info, t2)
    assert g2.size > g1.size  # four times Q, twice the zero density
    assert not (g1.flags.writeable or g2.flags.writeable)
    assert oz.make_count_grid(w1, info, t1) is g1
