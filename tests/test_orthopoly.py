import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln, roots_hermite

import orthozero as oz
from orthozero import orthopoly, quadrature
from orthozero.errors import DiscretizationError, DomainError


def test_hermite_recurrence_oracle(hermite_table_60):
    k = np.arange(1, 61)
    assert np.max(np.abs(hermite_table_60.off_diag / np.sqrt(k / 2.0) - 1.0)) \
        <= 1e-10
    assert hermite_table_60.gamma0 == pytest.approx(np.pi ** -0.25, rel=1e-13)


def test_hermite_oracle_whole_big_table(hermite_table_1001):
    # every b_k of the largest table the package builds, not only b_1..b_60;
    # k/2 is exact in binary, so np.sqrt gives the correctly rounded sqrt(k/2).
    # 998 of the 1001 are exactly rounded and the other three one ulp off
    tab = hermite_table_1001
    exact = np.sqrt(np.arange(1, 1002) / 2.0)
    assert np.all(np.abs(tab.off_diag - exact) <= np.spacing(exact))
    assert np.count_nonzero(tab.off_diag == exact) >= 995
    # ln gamma_0 = -ln(pi)/4, rounded once from extended precision
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert tab.log_leading[0] == float(-mpmath.log(mpmath.pi) / 4)


def test_quartic_freud_equation_oracle(freud14):
    # Freud's equation for W^2 = exp(-2c x^4) (Freud 1976; Nevai 1983):
    #   8c b_n^2 (b_{n-1}^2 + b_n^2 + b_{n+1}^2) = n,
    # run forward from b_0 = 0 and b_1^2 = m_2/m_0 = G(3/4)/(G(1/4) sqrt(2c)).
    # The forward recursion loses digits geometrically, hence 400 digits
    # (800 give the same b_1..b_501).
    mpmath = pytest.importorskip("mpmath")
    c, n_max = 1, 501
    tab = oz.get_table(freud14, n_max)
    with mpmath.workdps(400):
        b2 = [mpmath.mpf(0), mpmath.gamma(0.75) / (mpmath.gamma(0.25)
                                                   * mpmath.sqrt(2 * c))]
        for n in range(1, n_max):
            b2.append(n / (8 * c * b2[n]) - b2[n - 1] - b2[n])
        oracle = np.array([float(mpmath.sqrt(v)) for v in b2[1:]])
    assert np.max(np.abs(tab.off_diag[:n_max] / oracle - 1.0)) <= 1e-14


def _freud_moments(mpmath, c, lam, n):
    # W^2 = exp(-2c|x|^lam): mu_2j = (2/lam) (2c)^(-(2j+1)/lam)
    # Gamma((2j+1)/lam), odd ones 0
    two_c, lam = 2 * mpmath.mpf(c), mpmath.mpf(lam)
    return [(2 / lam) * two_c ** (-(j + 1) / lam) * mpmath.gamma((j + 1) / lam)
            if j % 2 == 0 else 0 for j in range(2 * n + 1)]


def _mixed24_moments(mpmath, n):
    # W^2 = exp(-2x^2 - 2x^4), i.e. exp(-a x^2 - b x^4) at a = b = 2:
    # mu_0 = (1/2) sqrt(a/b) e^z K_{1/4}(z) with z = a^2/(8b) = 1/4, and
    # mu_2 = -d mu_0/da = -e^z (2 K_{1/4}(z) + K'_{1/4}(z))/8, where
    # K'_nu = -(K_{nu-1} + K_{nu+1})/2 and K_{-3/4} = K_{3/4}.  By parts,
    # (2j+1) mu_2j = 4 mu_2j+2 + 8 mu_2j+4; odd moments are 0
    z = mpmath.mpf(1) / 4
    k1, k3, k5 = (mpmath.besselk(mpmath.mpf(v) / 4, z) for v in (1, 3, 5))
    even = [mpmath.exp(z) * k1 / 2,
            -mpmath.exp(z) * (2 * k1 - (k3 + k5) / 2) / 8]
    for j in range(n - 1):
        even.append(((2 * j + 1) * even[j] - 4 * even[j + 1]) / 8)
    return [even[j // 2] if j % 2 == 0 else 0 for j in range(2 * n + 1)]


def test_mixed24_moments_match_quadrature():
    # the closed forms of mu_0 and mu_2 and the by-parts step to mu_4,
    # against mpmath's own quadrature, to 30 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu = _mixed24_moments(mpmath, 2)
        for j in (0, 2, 4):
            quad = mpmath.quad(lambda x: x**j * mpmath.exp(-2 * x**2 - 2 * x**4),
                               [-mpmath.inf, 0, mpmath.inf])
            assert abs(mu[j] / quad - 1) < mpmath.mpf(10) ** -30


@pytest.mark.parametrize("weight", [pytest.param("freud:1:1.5", id="1.0-1.5"),
                                    pytest.param("freud:1:3", id="1.0-3.0"),
                                    pytest.param("freud:1:8", id="1.0-8.0"),
                                    pytest.param("mixed24", id="mixed24")])
def test_freud_table_matches_moment_oracle(weight, mixed24):
    # Gautschi's Chebyshev algorithm (Orthogonal Polynomials: Computation
    # and Approximation, 2004, sec. 2.1) from closed-form moments of three
    # Freud weights and of the one non-Freud weight, mixed24.  Odd moments
    # are 0, so every alpha_k is 0 and
    #   sigma_{k,l} = sigma_{k-1,l+1} - beta_{k-1} sigma_{k-2,l},
    #   beta_k = sigma_{k,k}/sigma_{k-1,k-1}.
    # The algorithm loses digits geometrically, hence dps = n (n + 50 give
    # the same floats for the Freud weights, 2n for mixed24).  It shares no
    # code with the table's build.  Every b_k lies within 2 ulps (all
    # within 1), and ln gamma_k = ln gamma_0 - sum_{j<=k} ln b_j with
    # gamma_0 = mu_0^(-1/2) within the 8 ulps of the Hermite whole-table
    # test (all within 1).  freud:1:8 is the one table here whose mesh
    # radius is clipped where Q reaches 5500 (Q(1.5 a_600) = 7030).
    mpmath = pytest.importorskip("mpmath")
    n = 300
    spec = mixed24 if weight == "mixed24" else oz.parse_weight(weight)
    tab = oz.get_table(spec, n)
    with mpmath.workdps(n):
        if weight == "mixed24":
            mu = _mixed24_moments(mpmath, n)
        else:
            mu = _freud_moments(mpmath, *weight.split(":")[1:], n)
        prev, cur, beta, b2 = [0] * (2 * n + 2), mu + [0], mu[0], []
        for k in range(1, n + 1):
            nxt = [0] * (2 * n + 2)
            for l in range(k, 2 * n + 1 - k, 2):
                nxt[l] = cur[l + 1] - beta * prev[l]
            beta = nxt[k] / cur[k - 1]
            b2.append(beta)
            prev, cur = cur, nxt
        oracle = np.array([float(mpmath.sqrt(v)) for v in b2])
        log_lead = [-mpmath.log(mu[0]) / 2]
        for v in b2:
            log_lead.append(log_lead[-1] - mpmath.log(v) / 2)
        log_lead = np.array([float(v) for v in log_lead])
    assert np.all(np.abs(tab.off_diag - oracle) <= 2 * np.spacing(oracle))
    ulps = np.abs(tab.log_leading - log_lead) / np.spacing(np.abs(log_lead))
    assert np.max(ulps) <= 8


def test_even_weight_diagonal_exactly_zero(hermite_table_60, freud14):
    # a_k = 0 makes p_k(-x) = (-1)^k p_k(x), exactly in floating point
    x = np.array([0.3, 1.7, 4.0, 250.0])
    for tab in (hermite_table_60, oz.get_table(freud14, 40)):
        P, _, e = oz.poly_matrix(tab, x, 40)
        Pm, _, em = oz.poly_matrix(tab, -x, 40)
        parity = (-1.0) ** np.arange(41)[:, None]
        assert np.array_equal(Pm, parity * P)
        assert np.array_equal(em, e)


def test_hermite_leading_coefficients(hermite_table_60):
    # orthonormal Hermite: gamma_n = pi^(-1/4) 2^(n/2) / sqrt(n!)
    n = np.arange(0, 41)
    ln_exact = (-0.25 * math.log(math.pi) + n / 2.0 * math.log(2.0)
                - 0.5 * gammaln(n + 1.0))
    rel = np.abs(hermite_table_60.leading[:41] / np.exp(ln_exact) - 1.0)
    assert np.max(rel) <= 1e-8


def test_hermite_log_leading_whole_big_table(hermite_table_1001):
    # ln gamma_k = -ln(pi)/4 - ln Gamma(k+1)/2 + (k/2) ln 2, to 8 ulps at
    # every k: the partial sums of ln b_j are rounded once, after the
    # subtraction from ln gamma_0, so no entry loses digits to cancellation
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = np.array([float(-mpmath.log(mpmath.pi) / 4
                                - mpmath.loggamma(k + 1) / 2
                                + mpmath.mpf(k) / 2 * mpmath.log(2))
                          for k in range(1002)])
    ulps = np.abs(hermite_table_1001.log_leading - exact) / np.spacing(
        np.abs(exact))
    assert np.max(ulps) <= 8


def test_leading_invariant_gamma_recursion(hermite_table_60):
    t = hermite_table_60
    lead = t.leading
    for k in (1, 5, 30, 60):
        assert lead[k] * t.off_diag[k - 1] == pytest.approx(lead[k - 1],
                                                            rel=1e-12)


def test_build_determinism(hermite):
    t1 = oz.build_recurrence(hermite, 25)
    t2 = oz.build_recurrence(hermite, 25)
    assert np.array_equal(t1.off_diag, t2.off_diag)
    assert np.array_equal(t1.log_leading, t2.log_leading)
    assert t1.ortho_residual == t2.ortho_residual
    assert t1.mesh_signature == t2.mesh_signature


def test_residual_and_independent_gram(hermite_table_60):
    assert hermite_table_60.ortho_residual <= 1e-8
    # independent oracle: Gauss-Hermite quadrature integrates p_i p_j e^{-x^2}
    # exactly for i + j <= 2*200 - 1
    x, w = roots_hermite(200)
    tab = hermite_table_60
    V = np.empty((41, x.size))
    V[0] = tab.gamma0
    p_prev = np.zeros_like(x)
    p_cur = np.full_like(x, tab.gamma0)
    for k in range(1, 41):
        bk = tab.off_diag[k - 1]
        bkm = tab.off_diag[k - 2] if k >= 2 else 0.0
        p_next = (x * p_cur - bkm * p_prev) / bk
        V[k] = p_next
        p_prev, p_cur = p_cur, p_next
    G = (V * w) @ V.T
    assert np.max(np.abs(G - np.eye(41))) <= 1e-8


def _audit_mesh(spec, table):
    """(R, n_target) of the build that produced `table`."""
    n_target = int(re.match(r"gl24x(\d+);", table.mesh_signature).group(1))
    return orthopoly._support_radius(spec, table.n_max), n_target


def _full_mesh_gram_residual(spec, table, R, n_target):
    # the audit without the parity split: both halves of the mirrored mesh,
    # one Gram product over all degrees
    n_check = min(table.n_max, 256)
    nodes, wts = quadrature._mesh(R, int(1.37 * n_target) | 1, order=31,
                                 grade_ratio=0.4, grade_levels=24)
    x = np.concatenate([-nodes[::-1], nodes]).astype(float)
    lw = np.concatenate([wts[::-1], wts]).astype(float)
    T, _, expo = oz.poly_matrix(table, x, n_check)
    scale = np.exp(expo * math.log(2.0) - np.asarray(spec.q(x), dtype=float))
    Tw = T * (scale * np.sqrt(np.maximum(lw, 0.0)))[None, :]
    return float(np.max(np.abs(Tw @ Tw.T - np.eye(n_check + 1))))


def test_parity_split_audit_matches_full_mesh(hermite_table_60, hermite,
                                              freud14):
    for spec, tab in ((hermite, hermite_table_60),
                      (freud14, oz.build_recurrence(freud14, 81))):
        R, n_target = _audit_mesh(spec, tab)
        assert orthopoly._gram_residual(spec, tab, R, n_target) \
            == tab.ortho_residual
        full = _full_mesh_gram_residual(spec, tab, R, n_target)
        assert abs(tab.ortho_residual - full) <= 1e-15


def test_audit_blocks_keep_the_residual(hermite_table_60, hermite,
                                        monkeypatch):
    # the n_max 60 audit is one block; 64 KB blocks split it into 18, whose
    # summed Gram products may differ from the whole one in the last bits
    R, n_target = _audit_mesh(hermite, hermite_table_60)
    monkeypatch.setattr(orthopoly, "_BASIS_BYTES", 1 << 16)
    blocked = orthopoly._gram_residual(hermite, hermite_table_60, R, n_target)
    assert abs(blocked - hermite_table_60.ortho_residual) <= 1e-15


def test_build_memory_bounded(freud14):
    # the audit's basis matrix, 257 degrees at 11,718 half-mesh points, took
    # 24 MB whole; in blocks of _BASIS_BYTES the build peaks near 10 MB
    oz.build_recurrence(freud14, 21)  # lazy imports and caches first
    tracemalloc.start()
    try:
        tab = oz.build_recurrence(freud14, 501)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.ortho_residual <= 1e-8
    assert peak <= 16e6


def test_parity_split_audit_catches_defect_in_each_block(hermite_table_60,
                                                         hermite):
    # b_n at the top of a table moves only p_n: off_diag[59] (odd index) of
    # the n_max 60 table touches the even block alone, off_diag[58] (even
    # index) of the table cut to n_max 59 the odd block alone
    t = hermite_table_60
    R, n_target = _audit_mesh(hermite, t)
    for n in (60, 59):
        off = t.off_diag[:n].copy()
        off[n - 1] *= 1 + 1e-9
        bad = dataclasses.replace(t, n_max=n, off_diag=off,
                                  log_leading=t.log_leading[:n + 1])
        assert orthopoly._gram_residual(hermite, bad, R, n_target) > 1e-11


def test_eval_poly_values(hermite_table_60):
    P, _, e = oz.poly_matrix(hermite_table_60, [1.5], 5)
    scale = 2.0 ** e[0]
    assert P[0, 0] * scale == pytest.approx(np.pi ** -0.25, rel=1e-13)
    assert P[1, 0] * scale == pytest.approx(
        math.sqrt(2.0) * np.pi ** -0.25 * 1.5, rel=1e-12)
    P, _, _ = oz.poly_matrix(hermite_table_60, [-2.0, 0.0, 4.4], 3)
    assert P[0] == pytest.approx(hermite_table_60.gamma0)
    with pytest.raises(DomainError):
        oz.poly_matrix(hermite_table_60, [0.0], 61)
    with pytest.raises(DomainError):
        oz.poly_matrix(hermite_table_60, [0.0], -1)


def test_eval_poly_derivatives_vs_finite_difference(hermite_table_60):
    h = 1e-5
    for x in (0.3, 2.0):
        P, D, e = oz.poly_matrix(hermite_table_60, [x, x + h, x - h], 30,
                                 derivs=True)
        assert np.all(e == 0)
        fd = (P[:, 1] - P[:, 2]) / (2.0 * h)
        rel = np.abs(fd[1:] - D[1:, 0]) / np.abs(D[1:, 0])
        assert np.max(rel) <= 1e-6


def test_eval_poly_exponent_scheme_matches_direct(hermite_table_60):
    # wherever plain evaluation cannot overflow the two must agree closely
    tab = hermite_table_60
    for x in (-5.0, -1.2, 0.4, 3.3, 5.0):
        P, _, e = oz.poly_matrix(tab, [x], 30)
        vals = np.empty(31)
        vals[0] = tab.gamma0
        p_prev, p_cur = 0.0, tab.gamma0
        for k in range(1, 31):
            bk = tab.off_diag[k - 1]
            bkm = tab.off_diag[k - 2] if k >= 2 else 0.0
            p_prev, p_cur = p_cur, (x * p_cur - bkm * p_prev) / bk
            vals[k] = p_cur
        assert np.max(np.abs(P[:, 0] * 2.0 ** e[0] - vals)
                      / np.maximum(np.abs(vals), 1e-300)) <= 1e-12


def test_eval_poly_no_overflow_far_outside(hermite_table_60):
    P, D, e = oz.poly_matrix(hermite_table_60, [200.0], 60, derivs=True)
    assert np.all(np.isfinite(P)) and np.all(np.isfinite(D))
    assert e[0] > 0
    # p_60(200) ~ 10^138: direct evaluation would still fit, so compare
    direct_log10 = None
    p_prev, p_cur = 0.0, hermite_table_60.gamma0
    for k in range(1, 61):
        bk = hermite_table_60.off_diag[k - 1]
        bkm = hermite_table_60.off_diag[k - 2] if k >= 2 else 0.0
        p_prev, p_cur = p_cur, (200.0 * p_cur - bkm * p_prev) / bk
    direct_log10 = np.log10(p_cur)
    scaled_log10 = np.log10(P[60, 0]) + e[0] * np.log10(2.0)
    assert scaled_log10 == pytest.approx(direct_log10, abs=1e-10)


def test_kernel_triple_degree_zero(hermite_table_60):
    A, B, C, _ = oz.kernel_triple_many(hermite_table_60, [0.7], 0)
    assert A[0] == pytest.approx(hermite_table_60.gamma0 ** 2)
    assert B[0] == 0.0
    assert C[0] == 0.0
    assert oz.kac_density(A, B, C)[0] == 0.0


def test_kernel_b_is_half_derivative_of_a(hermite_table_60):
    x, h, n = 0.7, 1e-6, 50
    A, B, _, e2 = oz.kernel_triple_many(hermite_table_60, [x, x + h, x - h], n)
    assert np.all(e2 == 0)
    fd = (A[1] - A[2]) / (2.0 * h)
    assert B[0] == pytest.approx(0.5 * fd, rel=1e-6)


def test_kernel_cauchy_schwarz(freud12):
    tab = oz.get_table(freud12, 60)
    a60 = oz.solve_mrs(freud12, 60).a_n
    rng = np.random.default_rng(11)
    xs = rng.uniform(-a60, a60, size=1000)
    A, B, C, _ = oz.kernel_triple_many(tab, xs, 60)
    assert np.all(A > 0)
    assert np.all(A * C - B * B >= 0)


def test_kernel_even_weight_b_vanishes_at_origin(hermite_table_60):
    _, B, _, _ = oz.kernel_triple_many(hermite_table_60, [0.0], 49)
    assert B[0] == 0.0


def test_forced_rescale_is_invisible(hermite_table_60, monkeypatch):
    for x in (0.4, 2.0, 5.5):
        A1, B1, C1, e1 = oz.kernel_triple_many(hermite_table_60, [x], 50)
        with monkeypatch.context() as m:
            m.setattr(orthopoly, "_FORCE_RESCALE_AT", 25)
            A2, B2, C2, e2 = oz.kernel_triple_many(hermite_table_60, [x], 50)
        d1 = math.sqrt(max(A1[0] * C1[0] - B1[0] ** 2, 0.0)) / (math.pi * A1[0])
        d2 = math.sqrt(max(A2[0] * C2[0] - B2[0] ** 2, 0.0)) / (math.pi * A2[0])
        assert d1.hex() == d2.hex()
        assert e2[0] == e1[0] + 512


def test_universality_domain_error(hermite):
    tab = oz.get_table(hermite, 101)
    info = oz.solve_mrs(hermite, 101)
    with pytest.raises(DomainError):
        oz.universality_ratios(hermite, tab, info, 0.99 * info.a_n)


def test_universality_r01_exact_zero_at_origin(hermite):
    # even weight at the origin: B and Q' both vanish identically
    tab = oz.get_table(hermite, 101)
    info = oz.solve_mrs(hermite, 101)
    _, r01, _ = oz.universality_ratios(hermite, tab, info, 0.0)
    assert r01 == 0.0


def test_table_quad_rule_reproduces_moment(hermite_table_60, freud14):
    # the build's rule integrates the measure: 1/gamma0^2 is the mass of
    # exp(-2c|x|^lam), 2 Gamma(1/lam) / (lam (2c)^(1/lam)) in closed form
    for tab, c, lam in ((hermite_table_60, 0.5, 2.0),
                        (oz.get_table(freud14, 40), 1.0, 4.0)):
        m0 = 2.0 * math.gamma(1.0 / lam) / (lam * (2.0 * c) ** (1.0 / lam))
        assert m0 == pytest.approx(1.0 / tab.gamma0 ** 2, rel=1e-13)


def test_table_save_load_roundtrip(tmp_path, hermite_table_60):
    path = tmp_path / "table.npz"
    oz.save_table(hermite_table_60, path)
    # format-2 files written while the mesh pad was settable carry a pad
    # entry; load_table ignores it
    padded = tmp_path / "padded.npz"
    with np.load(path) as z:
        np.savez_compressed(padded, **z, pad=1.5)
    for back in map(oz.load_table, (path, padded)):
        assert back.label == hermite_table_60.label
        assert np.array_equal(back.off_diag, hermite_table_60.off_diag)
        assert np.array_equal(back.log_leading, hermite_table_60.log_leading)
        assert back.ortho_residual == hermite_table_60.ortho_residual
        assert back.mesh_signature == hermite_table_60.mesh_signature


def test_get_table_bits_independent_of_cache_order(hermite, monkeypatch):
    # each size is built from an empty cache once small-then-large and once
    # large-then-small; a size must get the same bits in both orders
    runs = []
    for order in ((10, 60), (60, 10)):
        monkeypatch.setattr(orthopoly, "_TABLE_CACHE", {})
        runs.append({n: oz.get_table(hermite, n) for n in order})
    for n in (10, 60):
        first, second = runs[0][n], runs[1][n]
        assert first.n_max == second.n_max == n
        assert np.array_equal(first.off_diag, second.off_diag)
        assert np.array_equal(first.log_leading, second.log_leading)
        assert first.ortho_residual == second.ortho_residual
        assert first.mesh_signature == second.mesh_signature
    # and in both orders the two sizes are different builds, not one table
    # sliced: each size has its own mesh (Hermite b_k are exactly rounded at
    # both sizes, so their bits cannot tell a slice apart)
    for run in runs:
        assert run[10].mesh_signature != run[60].mesh_signature
    big = runs[0][60]
    # a separately parsed spec of the same weight hits the same entry
    assert oz.get_table(oz.parse_weight("freud:0.5:2"), 60) is runs[1][60]
    # shared tables are read-only
    with pytest.raises(ValueError):
        big.off_diag[0] = 1.0
    with pytest.raises(ValueError):
        big.log_leading[0] = 1.0


def test_get_table_keys_on_content_not_label():
    quad = oz.make_custom(q=lambda x: x**2, q1=lambda x: 2 * x,
                          q2=lambda x: 2 + 0 * x, even=True, alpha=2.0,
                          label="w")
    mixed = oz.make_custom(q=lambda x: x**2 + x**4, q1=lambda x: 2 * x + 4 * x**3,
                           q2=lambda x: 2 + 12 * x**2, even=True, alpha=4.0,
                           label="w")
    t_quad = oz.get_table(quad, 8)
    t_mixed = oz.get_table(mixed, 8)
    assert t_mixed is not t_quad
    assert not np.array_equal(t_mixed.off_diag, t_quad.off_diag)
    # Q = x^2 is the Hermite weight exp(-2x^2): b_k = sqrt(k)/2
    assert t_quad.off_diag == pytest.approx(np.sqrt(np.arange(1, 9)) / 2,
                                            rel=1e-10)


def test_table_format_v1_rejected(tmp_path, hermite_table_60):
    path = tmp_path / "old.npz"
    t = hermite_table_60
    np.savez_compressed(
        path, format_version=1, label=t.label, n_max=t.n_max,
        off_diag=t.off_diag, diag=np.zeros(t.n_max), log_leading=t.log_leading,
        quad_nodes=np.zeros(3), quad_weights=np.zeros(3),
        ortho_residual=t.ortho_residual, pad=1.5,
        mesh_signature=t.mesh_signature)
    with pytest.raises(DomainError, match=r"format 1 .*recurrence --cache"):
        oz.load_table(path)


def test_truncated_table_file_rejected(tmp_path, hermite_table_60):
    t = hermite_table_60
    for off, log_lead in ((t.off_diag[:-1], t.log_leading),
                          (t.off_diag, t.log_leading[:-1])):
        path = tmp_path / "short.npz"
        np.savez_compressed(
            path, format_version=orthopoly.TABLE_FORMAT_VERSION,
            label=t.label, n_max=t.n_max, off_diag=off, log_leading=log_lead,
            ortho_residual=t.ortho_residual,
            mesh_signature=t.mesh_signature)
        with pytest.raises(DomainError, match="n_max 60"):
            oz.load_table(path)


_STIELTJES = orthopoly._stieltjes


def _spy_stieltjes(monkeypatch):
    """Record (nodes, w2w, n_max, keep, result) of every Stieltjes pass."""
    calls = []

    def spy(nodes, w2w, n_max, keep, *cert):
        out = _STIELTJES(nodes, w2w, n_max, keep, *cert)
        calls.append((nodes, w2w, n_max, keep, out))
        return out

    monkeypatch.setattr(orthopoly, "_stieltjes", spy)
    return calls


@pytest.mark.parametrize("key, sizes", [
    ("freud:0.5:2", (60, 502)), ("freud:1:4", (101, 502)),
    ("freud:1:2", (60, 251)), ("freud:1:1.5", (101, 251)),
    ("freud:1:3", (60, 251))])
def test_stieltjes_window_is_bit_identical(key, sizes, monkeypatch):
    # every pass of these builds, on both meshes of the doubling, drops
    # nodes, is certified, and gives the b_k and gamma_0 of the same pass
    # over the whole mesh
    calls = _spy_stieltjes(monkeypatch)
    spec = oz.parse_weight(key)
    for n_max in sizes:
        oz.build_recurrence(spec, n_max)
    assert len(calls) == 2 * len(sizes)
    for nodes, w2w, n_max, keep, out in calls:
        assert keep < nodes.size and out is not None
        off, gamma0 = _STIELTJES(nodes, w2w, n_max, nodes.size)
        assert np.array_equal(out[0], off) and out[1] == gamma0


@pytest.mark.parametrize("end", [0.8, 1.0])
def test_short_window_falls_back_to_full_mesh(end, hermite, monkeypatch):
    # a window ending inside the support (0.8 a_n), where p_n has zeros past
    # it, or at a_n, inside the edge layer, cuts off terms that count: the
    # certificate must fail on each mesh, and the table is the one built
    # without a window
    n_max = 101
    a_n = oz.solve_mrs(hermite, n_max).a_n
    monkeypatch.setattr(orthopoly, "_window_edge", lambda spec, n: math.inf)
    full = oz.build_recurrence(hermite, n_max)
    monkeypatch.setattr(orthopoly, "_window_edge",
                        lambda spec, n: end * a_n)
    calls = _spy_stieltjes(monkeypatch)
    tab = oz.build_recurrence(hermite, n_max)
    assert [(keep < nodes.size, out is None)
            for nodes, _, _, keep, out in calls] == [(True, True),
                                                     (False, False)] * 2
    assert np.array_equal(tab.off_diag, full.off_diag)
    assert np.array_equal(tab.log_leading, full.log_leading)
    assert tab.ortho_residual == full.ortho_residual


def test_certificate_needs_a_weighted_sentinel_and_decay(hermite):
    # conditions (i) and (ii) on their own: a last kept node without mass
    # says nothing about the nodes past it, and with Q'(x_e) taken as 0
    # nothing bounds the growth of |p_k| e^-Q beyond it
    n_max = 101
    nodes, wts = quadrature._mesh(orthopoly._support_radius(hermite, n_max),
                                 1616, order=24, grade_ratio=0.5,
                                 grade_levels=30)
    w2w = np.exp(np.longdouble(-2) * hermite.q(nodes)) * wts
    keep, slope, spread = orthopoly._window(
        hermite, nodes, wts, orthopoly._window_edge(hermite, n_max))
    assert keep < nodes.size
    assert orthopoly._stieltjes(nodes, w2w, n_max, keep, slope,
                                spread) is not None
    assert orthopoly._stieltjes(nodes, w2w, n_max, keep, 0.0, spread) is None
    massless = w2w.copy()
    massless[keep - 1] = 0
    assert orthopoly._stieltjes(nodes, massless, n_max, keep, slope,
                                spread) is None


def test_q1_decreasing_beyond_window_takes_full_mesh(hermite, monkeypatch):
    # Q = x^2/2 with a dent in Q' on 25 < |x| < 26, past the window's end
    # (about 21 at n_max 100) and inside R = 30: the bound on the dropped
    # nodes no longer holds, so none may be dropped
    def dent(t):
        return np.clip(t - 25, 0, 1)

    spec = oz.make_custom(
        q=lambda x: x**2 / 2 - dent(np.abs(x))**2
        - 2 * np.maximum(np.abs(x) - 26, 0),
        q1=lambda x: x - 2 * np.sign(x) * dent(np.abs(x)),
        q2=lambda x: 1 - 2.0 * ((np.abs(x) > 25) & (np.abs(x) < 26)),
        even=True, alpha=2.0, label="dented")
    calls = _spy_stieltjes(monkeypatch)
    tab = oz.build_recurrence(spec, 100)
    assert calls and all(keep == nodes.size and out is not None
                         for nodes, _, _, keep, out in calls)
    assert tab.ortho_residual <= 1e-8
    # on the build's first mesh the undented weight drops nodes
    nodes, wts = quadrature._mesh(orthopoly._support_radius(spec, 100),
                                 1600, order=24, grade_ratio=0.5,
                                 grade_levels=30)
    assert np.array_equal(nodes, calls[0][0])
    edge = orthopoly._window_edge(spec, 100)
    assert orthopoly._window(hermite, nodes, wts, edge)[0] < nodes.size
    assert orthopoly._window(spec, nodes, wts, edge)[0] == nodes.size


def test_build_rejects_bad_arguments(hermite):
    with pytest.raises(DomainError):
        oz.build_recurrence(hermite, 0)


def test_build_rejects_float64_longdouble(hermite, monkeypatch):
    # where longdouble is plain double (aarch64 macOS, MSVC) the weights
    # underflow inside the mesh; the build must refuse, not truncate
    finfo = np.finfo
    monkeypatch.setattr(np, "finfo", lambda t: finfo(
        np.float64 if t is np.longdouble else t))
    with pytest.raises(DiscretizationError, match="longdouble"):
        oz.build_recurrence(hermite, 10)
