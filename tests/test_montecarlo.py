import math

import numpy as np
import pytest
from scipy.special import roots_hermite

import orthozero as oz
from orthozero import montecarlo as mc
from orthozero.errors import DegenerateSampleError, DomainError


def test_sample_reproducibility():
    d = oz.parse_dist("gaussian")
    a = oz.sample_coeffs(d, 7, 3, 50)
    b = oz.sample_coeffs(d, 7, 3, 50)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = oz.sample_coeffs(d, 7, 4, 50)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_gaussian_moments():
    d = oz.CoeffDist("gaussian", sigma=1.0)
    x = oz.sample_coeffs(d, 123, 0, 10**6 - 1).coeffs
    assert abs(x.mean()) <= 4.0 / math.sqrt(1e6)
    assert abs(x.var() - 1.0) <= 0.01


def test_gaussian_sigma_scales():
    base = oz.sample_coeffs(oz.CoeffDist("gaussian", 1.0), 5, 0, 20).coeffs
    wide = oz.sample_coeffs(oz.CoeffDist("gaussian", 2.5), 5, 0, 20).coeffs
    assert np.allclose(wide, 2.5 * base)


def test_rademacher_support():
    x = oz.sample_coeffs(oz.CoeffDist("rademacher"), 1, 0, 4000).coeffs
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_uniform_support():
    x = oz.sample_coeffs(oz.CoeffDist("uniform"), 1, 0, 4000).coeffs
    assert np.all((-1.0 < x) & (x < 1.0))


def test_parse_dist():
    assert oz.parse_dist("gaussian").sigma == 1.0
    assert oz.parse_dist("gaussian:0.5").sigma == 0.5
    assert oz.parse_dist("rademacher").kind == "rademacher"
    with pytest.raises(DomainError):
        oz.parse_dist("cauchy")
    with pytest.raises(DomainError):
        oz.CoeffDist("gaussian", sigma=0.0)


def test_linear_sample_one_zero(hermite, hermite_table_60):
    d = oz.parse_dist("gaussian")
    info2 = oz.solve_mrs(hermite, 2)
    s = oz.sample_coeffs(d, 0, 0, 1)
    res = oz.count_real_zeros(hermite_table_60, s, info2, spec=hermite)
    assert res.count == 1
    # closed form: c0 p0 + c1 p1 = 0 at b_1 * (-c0/c1) for the even table
    z = oz.all_zeros(hermite_table_60, s)
    expect = -hermite_table_60.off_diag[0] * s.coeffs[0] / s.coeffs[1]
    assert z[0].real == pytest.approx(expect, rel=1e-12)
    assert res.zeros[0] == pytest.approx(expect, abs=1e-10)


def test_comrade_pure_top_degree_gives_gauss_nodes(hermite_table_60):
    c = np.zeros(11)
    c[10] = 1.0
    s = oz.CoefficientSample(oz.CoeffDist("gaussian"), 0, 0, c)
    z = np.sort(oz.all_zeros(hermite_table_60, s).real)
    assert np.max(np.abs(z - np.sort(roots_hermite(10)[0]))) <= 1e-10


def test_comrade_trace_identity(hermite_table_60):
    # sum of zeros equals the ratio fixed by the two top monomial
    # coefficients; expand the basis polynomials at small degree to check
    n = 20
    tab = hermite_table_60
    d = oz.parse_dist("gaussian")
    s = oz.sample_coeffs(d, 21, 0, n)
    z = oz.all_zeros(tab, s)
    polys = [np.polynomial.Polynomial([tab.gamma0]),
             np.polynomial.Polynomial([0.0, tab.gamma0 / tab.off_diag[0]])]
    x = np.polynomial.Polynomial([0.0, 1.0])
    for k in range(2, n + 1):
        polys.append((x * polys[k - 1] - tab.off_diag[k - 2] * polys[k - 2])
                     / tab.off_diag[k - 1])
    P = sum(ci * pi for ci, pi in zip(s.coeffs, polys))
    coef = P.coef
    assert np.sum(z).real == pytest.approx(-coef[n - 1] / coef[n], rel=1e-8)
    assert abs(np.sum(z).imag) <= 1e-8


def test_all_zeros_degree_reduction(hermite_table_60):
    d = oz.parse_dist("gaussian")
    c = np.concatenate([oz.sample_coeffs(d, 3, 0, 8).coeffs, [0.0, 0.0]])
    s = oz.CoefficientSample(d, 3, 0, c)
    z = oz.all_zeros(hermite_table_60, s)
    assert z.size == 8
    with pytest.raises(DegenerateSampleError):
        oz.all_zeros(hermite_table_60,
                     oz.CoefficientSample(d, 0, 0, np.zeros(5)))


def test_zero_scale_invariance(hermite, hermite_table_60):
    d = oz.parse_dist("gaussian")
    info = oz.solve_mrs(hermite, 31)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    s = oz.sample_coeffs(d, 17, 0, 30)
    # binary scales propagate exactly through every float operation
    s_pow2 = oz.CoefficientSample(d, 17, 0, 4.0 * s.coeffs)
    r1 = oz.count_real_zeros(hermite_table_60, s, info, grid=grid)
    r2 = oz.count_real_zeros(hermite_table_60, s_pow2, info, grid=grid)
    assert r1.count == r2.count
    assert np.array_equal(r1.zeros, r2.zeros)
    z1 = np.sort_complex(oz.all_zeros(hermite_table_60, s))
    z2 = np.sort_complex(oz.all_zeros(hermite_table_60, s_pow2))
    assert np.array_equal(z1, z2)
    # arbitrary positive scales keep the count
    s_odd = oz.CoefficientSample(d, 17, 0, 3.7 * s.coeffs)
    r3 = oz.count_real_zeros(hermite_table_60, s_odd, info, grid=grid)
    assert r3.count == r1.count


@pytest.mark.parametrize("n", [30, 50])
def test_sign_count_matches_eigen_count(hermite, hermite_table_60, n):
    d = oz.parse_dist("gaussian")
    info = oz.solve_mrs(hermite, n + 1)
    info_n = oz.solve_mrs(hermite, n)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    window = grid[-1]
    identical = 0
    worst = 0
    for t in range(100):
        s = oz.sample_coeffs(d, 99, t, n)
        res = oz.count_real_zeros(hermite_table_60, s, info, grid=grid)
        z = oz.all_zeros(hermite_table_60, s)
        realz = z.real[np.abs(z.imag) <= 1e-8 * info_n.a_n]
        n_eig = int(np.sum(np.abs(realz) <= window))
        identical += (n_eig == res.count)
        worst = max(worst, abs(n_eig - res.count))
    assert identical >= 99
    assert worst <= 1


def test_empirical_measure_fields(hermite, hermite_table_60):
    d = oz.parse_dist("gaussian")
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


def test_pure_top_degree_measure_close_to_limit(freud12):
    tab = oz.get_table(freud12, 501)
    c = np.zeros(501)
    c[500] = 1.0
    s = oz.CoefficientSample(oz.CoeffDist("gaussian"), 0, 0, c)
    z = oz.all_zeros(tab, s)
    info = oz.solve_mrs(freud12, 500)
    m = oz.empirical_measure(z, info)
    assert m.complex_count == 0
    assert oz.ks_to_ullman(m, 2.0) <= 0.05


def test_single_trial_concentration(freud12):
    tab = oz.get_table(freud12, 501)
    d = oz.parse_dist("gaussian")
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
    info = oz.ScalingInfo(n=n, a_n=1.0, delta_n=1.0, beta_n=0.0, residual=0.0)
    m = oz.empirical_measure(pts.astype(complex), info)
    assert oz.ks_to_ullman(m, 2.0) <= 1.0 / (2.0 * n) + 1e-6


def _ullman_quantile(alpha, q, lo=-1.0, hi=1.0):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if oz.ullman_cdf(alpha, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_ks_degenerate_measure():
    info = oz.ScalingInfo(n=5, a_n=1.0, delta_n=1.0, beta_n=0.0, residual=0.0)
    m = oz.empirical_measure(np.zeros(5, dtype=complex), info)
    assert oz.ks_to_ullman(m, 2.0) == pytest.approx(0.5, abs=1e-9)
    assert oz.ks_to_ullman(m, math.inf) == pytest.approx(0.5, abs=1e-9)


def test_mc_two_trials_stderr(hermite, hermite_table_60):
    d = oz.parse_dist("gaussian")
    res = oz.mc_expected_zeros(hermite, hermite_table_60, 20, 2, d, seed=4)
    assert res.stderr == pytest.approx(abs(res.counts[0] - res.counts[1]) / 2.0)
    with pytest.raises(DomainError):
        oz.mc_expected_zeros(hermite, hermite_table_60, 20, 1, d, seed=4)


def test_mc_reproducible_and_consistent(hermite, hermite_table_60):
    d = oz.parse_dist("gaussian")
    res1 = oz.mc_expected_zeros(hermite, hermite_table_60, 60, 200, d, seed=0)
    res2 = oz.mc_expected_zeros(hermite, hermite_table_60, 60, 200, d, seed=0)
    assert np.array_equal(res1.counts, res2.counts)
    assert np.all(res1.counts <= 60)
    edge = oz.solve_mrs(hermite, 61).a_n
    det = oz.expected_zeros_full(hermite_table_60, 60, tol=1e-6,
                                 edge=edge).expected_count
    assert abs(res1.mean - det) <= 3.0 * res1.stderr


def test_mc_batching_matches_per_trial(hermite, hermite_table_60):
    d = oz.parse_dist("gaussian")
    res = oz.mc_expected_zeros(hermite, hermite_table_60, 40, 25, d, seed=9)
    info = oz.solve_mrs(hermite, 41)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    singles = [oz.count_real_zeros(
        hermite_table_60, oz.sample_coeffs(d, 9, t, 40), info, grid=grid).count
        for t in range(25)]
    assert np.array_equal(res.counts, np.array(singles, dtype=float))


def test_mc_zero_locations_symmetric(hermite, hermite_table_60):
    # even weight: the mean zero location across trials sits at zero
    d = oz.parse_dist("gaussian")
    info = oz.solve_mrs(hermite, 51)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    means = []
    for t in range(200):
        s = oz.sample_coeffs(d, 31, t, 50)
        res = oz.count_real_zeros(hermite_table_60, s, info, grid=grid)
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
    d = oz.parse_dist("rademacher")
    edges = mc.partition_edges((-1.0, -0.5, 0.0, 0.5, 1.0))
    a_n = oz.solve_mrs(hermite, 200).a_n
    fractions = np.mean(
        [mc.interval_shares(oz.all_zeros(tab, oz.sample_coeffs(d, 0, t, 200)),
                            edges, a_n, 200) for t in range(1000)], axis=0)
    masses = np.array([oz.ullman_cdf(2.0, b) - oz.ullman_cdf(2.0, a)
                       for a, b in ((-1, -0.5), (-0.5, 0), (0, 0.5), (0.5, 1))])
    assert np.max(np.abs(fractions - masses)) <= 0.03


def test_grid_budget_partial_flag(hermite, hermite_table_60):
    from orthozero.errors import BudgetError

    d = oz.parse_dist("gaussian")
    info = oz.solve_mrs(hermite, 31)
    s = oz.sample_coeffs(d, 0, 0, 30)
    full = oz.count_real_zeros(hermite_table_60, s, info, spec=hermite)
    assert full.complete
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    n_inner = int(np.sum(np.abs(grid) <= 1.03 * info.a_n))
    tight = oz.CountConfig(max_grid=n_inner + 4)
    res = oz.count_real_zeros(hermite_table_60, s, info, cfg=tight,
                              spec=hermite)
    assert not res.complete
    assert res.count <= full.count
    with pytest.raises(BudgetError):
        oz.count_real_zeros(hermite_table_60, s, info,
                            cfg=oz.CountConfig(max_grid=50), spec=hermite)


def test_partition_validation():
    for bad in ((0.5, -0.5), (0.0, 0.0), (1.0,), ((0.0, 1.0),)):
        with pytest.raises(DomainError):
            mc.partition_edges(bad)


def test_mc_reports_truncated_grid(hermite, hermite_table_60):
    # a budget-truncated grid loses the far-tail zeros; the ensemble says so
    d = oz.parse_dist("gaussian")
    info = oz.solve_mrs(hermite, 41)
    grid = oz.make_count_grid(hermite, info, hermite_table_60)
    n_inner = int(np.sum(np.abs(grid) <= 1.03 * info.a_n))
    full = oz.mc_expected_zeros(hermite, hermite_table_60, 40, 2, d, seed=0)
    tight = oz.mc_expected_zeros(hermite, hermite_table_60, 40, 2, d, seed=0,
                                 cfg=oz.CountConfig(max_grid=n_inner + 4))
    assert full.complete
    assert not tight.complete
    assert tight.mean < full.mean


def test_mc_degree_beyond_table(freud14):
    tab = oz.build_recurrence(freud14, 40)
    d = oz.parse_dist("gaussian")
    with pytest.raises(DomainError):
        oz.mc_expected_zeros(freud14, tab, 41, 2, d, seed=0)
    s = oz.sample_coeffs(d, 0, 0, 41)
    info = oz.solve_mrs(freud14, 41)
    grid = oz.make_count_grid(freud14, info, tab)
    with pytest.raises(DomainError):
        oz.count_real_zeros(tab, s, info, grid=grid)
