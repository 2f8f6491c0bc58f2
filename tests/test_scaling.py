import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import orthozero as oz
from conftest import ullman_cdf
from orthozero import scaling
from orthozero.errors import DomainError, NonEvenWeightError, SingularityError


# ---------------------------------------------------------------------------
# support radius


@pytest.mark.parametrize("c", [1.0, 0.5])
@pytest.mark.parametrize("lam", [2.0, 4.0, 1.2, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_mrs_matches_freud_closed_form(c, lam, n):
    # below 2 the radius integral has the cusp of Q' at 0, at phi = 0 of
    # the graded rule, and must still resolve it to a few ulps
    g, _ = oz.freud_constants(lam)
    info = oz.solve_mrs(oz.make_freud(c, lam), n)
    assert info.a_n == pytest.approx((n * g / c) ** (1.0 / lam), rel=1e-14)
    assert abs(info.residual) <= 1e-9 * n


@pytest.mark.parametrize("lam", [8.5, 12.0, 15.5, 20.0, 20.5, 25.3, 40.7,
                                 60.0, 100.0])
@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_mrs_solves_large_exponents(lam, n):
    # far from the root I(a) - n reaches 1e18 n and more, where rounding
    # alone exceeds 1e-10 n: the bisection must stop each evaluation once
    # its sign is decided (on an absolute tol lam = 60 and 100 fail)
    info = oz.solve_mrs(oz.make_freud(1.0, lam), n)
    g, _ = oz.freud_constants(lam)
    assert info.a_n == pytest.approx((n * g) ** (1.0 / lam), rel=1e-14)
    assert abs(info.residual) <= 1e-9 * n


def test_mrs_half_gaussian_exact(hermite):
    # Q = x^2/2 turns the defining integral into a_n^2/2 = n
    for n in (8, 50, 501):
        info = oz.solve_mrs(hermite, n)
        assert info.a_n == pytest.approx(math.sqrt(2.0 * n), rel=1e-12)


def test_mrs_newton_carries_a_wrong_slope():
    # Q = x^2/2 with a wrong Q'' = -0.9: the Newton step comes out 10x too
    # long; Q'' = -1e6 makes the slope negative, so no Newton step lands
    # inside the bracket.  The safeguard still brackets the root to width.
    def half_gaussian(q2):
        return oz.make_custom(q=lambda x: 0.5 * x**2, q1=lambda x: 1.0 * x,
                              q2=lambda x: q2 + 0.0 * x,
                              even=True, alpha=2.0, label=f"q2={q2}")
    for n in (7, 100, 1000):
        for q2 in (-1e6, -0.9):
            info = oz.solve_mrs(half_gaussian(q2), n)
            assert info.a_n == pytest.approx(math.sqrt(2.0 * n), rel=1e-12)
            assert abs(info.residual) <= 1e-9 * n


@pytest.mark.parametrize("weight", ["freud:0.5:2", "freud:1:2", "freud:1:4",
                                    "freud:1:3", "freud:1:1.5", "freud:1:1.2",
                                    "freud:1:8"])
def test_mrs_takes_few_defect_evaluations(monkeypatch, weight):
    # bracketing by doubling plus safeguarded Newton: 9-16 evaluations of
    # the defect here, where bisection to the same width took 48-57
    calls = []
    defect = scaling._mrs_defect

    def counted(*args):
        calls.append(args)
        return defect(*args)

    monkeypatch.setattr(scaling, "_mrs_defect", counted)
    for n in (10, 201, 1001):
        calls.clear()
        oz.solve_mrs(oz.parse_weight(weight), n)
        assert len(calls) <= 20


def test_mrs_monotone_in_n(freud14):
    radii = [oz.solve_mrs(freud14, n).a_n for n in range(1, 13)]
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_mrs_rejects_non_even():
    w = oz.make_custom(q=lambda x: x**2, q1=lambda x: 2.0 * x,
                       q2=lambda x: 2.0 + 0.0 * x,
                       even=False, alpha=2.0, label="claimed-uneven")
    with pytest.raises(NonEvenWeightError):
        oz.solve_mrs(w, 5)
    with pytest.raises(DomainError):
        oz.solve_mrs(oz.make_freud(1, 2), 0)


def test_contract_expand_inverse(hermite):
    # the contraction onto [-1, 1] is x / a_n, and expand undoes it
    info = oz.solve_mrs(hermite, 50)
    for x in (-info.a_n, 0.0, info.a_n, 3.7):
        assert info.expand(x / info.a_n) == pytest.approx(x, abs=1e-12)
    assert info.expand(1.0) == pytest.approx(info.a_n)
    assert info.expand(-1.0) == pytest.approx(-info.a_n)
    assert info.expand(0.5) == pytest.approx(5.0)  # a_50 = 10
    assert info.expand(2.2 / info.a_n) == pytest.approx(2.2)


def test_scaling_accessors(hermite):
    info = oz.solve_mrs(hermite, 50)
    jlo, jhi = info.j_interval()
    assert jlo == pytest.approx(-0.95 * info.a_n)


# ---------------------------------------------------------------------------
# equilibrium densities


def test_equilibrium_density_half_gaussian(hermite):
    # sigma_n(x) = sqrt(a_n^2 - x^2)/pi for Q = x^2/2
    info = oz.solve_mrs(hermite, 37)
    for x in (0.0, 1.0, 0.7 * info.a_n):
        exact = math.sqrt(info.a_n**2 - x * x) / math.pi
        assert oz.equilibrium_density_many(hermite, info, [x])[0] == pytest.approx(
            exact, rel=1e-10)


def test_equilibrium_density_symmetry(freud14):
    info = oz.solve_mrs(freud14, 23)  # a_23 ~ 1.98
    for x in (0.3, 1.1, 1.8):
        assert oz.equilibrium_density_many(freud14, info, [x])[0] == pytest.approx(
            oz.equilibrium_density_many(freud14, info, [-x])[0], rel=1e-12)


def test_equilibrium_density_memory_bounded():
    # Q'' = |x|^-1/2 near 0 once drove the points near 0 to 16384 nodes;
    # evaluated whole, the (299, 16384) integrand and its temporaries took
    # about 240 MB, and every pass of the rule still runs in row blocks
    spec = oz.parse_weight("freud:1:1.5")
    info = oz.solve_mrs(spec, 90)
    x = info.a_n * np.linspace(-1.0, 1.0, 301)[1:-1]
    assert np.min(np.abs(x)) == 0.0
    tracemalloc.start()
    try:
        vals = oz.equilibrium_density_many(spec, info, x, tol=1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(vals > 0)
    assert peak < oz.scaling._DD_BYTES


@pytest.mark.parametrize("key,n", [("freud:0.5:2", 200), ("freud:1:4", 500)])
def test_equilibrium_density_independent_of_blocks(key, n, monkeypatch):
    # every row shares one stopping rule, so the row blocks never show
    spec = oz.parse_weight(key)
    info = oz.solve_mrs(spec, n)
    x = info.a_n * np.linspace(-1.0, 1.0, 401)[1:-1]
    whole = oz.equilibrium_density_many(spec, info, x, tol=1e-6 * n)
    for budget in (1, 3 * 64 * 4096):  # one row a block; a few rows
        monkeypatch.setattr(oz.scaling, "_DD_BYTES", budget)
        blocked = oz.equilibrium_density_many(spec, info, x, tol=1e-6 * n)
        assert blocked.tobytes() == whole.tobytes()


def test_equilibrium_density_domain(freud14):
    info = oz.solve_mrs(freud14, 23)
    with pytest.raises(DomainError):
        oz.equilibrium_density_many(freud14, info, [info.a_n])
    with pytest.raises(DomainError):
        oz.normalized_density_many(freud14, info, [1.0])


@pytest.mark.parametrize("key, n", [
    ("freud:1:2", 10), ("freud:1:2", 50), ("freud:1:1.5", 50),
    ("freud:1:1.2", 50)],
    ids=["10", "50", "freud:1:1.5-50", "freud:1:1.2-50"])
def test_sigma_mass_is_n(key, n):
    # below exponent 2 sigma_n has a cusp at 0; the mass must still meet
    # tol, and err_estimate is the last pass difference, not tol plus slack
    spec, tol = oz.parse_weight(key), 1e-10
    info = oz.solve_mrs(spec, n)
    mass, err = oz.sigma_mass(spec, info, tol=tol)
    assert abs(mass - n) <= 1e-8 * n
    assert abs(mass - n) <= tol * n
    assert 0 <= err <= tol
    assert abs(mass - n) <= max(err, 1e-8 * n)
    # sigma_n is non-negative on both halves of phi-rule pass 3, the last
    # pass the mass takes below exponent 2 (pass 1 at exponent 2)
    t, _ = scaling._phi_rule(3)
    x = info.a_n * np.concatenate([-t[::-1], t])
    assert np.all(oz.equilibrium_density_many(spec, info, x, tol=tol) >= 0)


def test_sigma_star_semicircle_exact(hermite):
    # quadratic Q: normalized density is the semicircle for every n
    for n in (5, 40):
        info = oz.solve_mrs(hermite, n)
        for s in (-0.9, -0.3, 0.0, 0.6):
            exact = 2.0 / math.pi * math.sqrt(1.0 - s * s)
            assert oz.normalized_density_many(hermite, info, [s])[0] == \
                pytest.approx(exact, abs=1e-10)
        mass = oz.sigma_mass(hermite, info, tol=1e-10 * n)[0] / n
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_sigma_star_converges_to_limit_freud(freud12, freud14):
    # Freud weights are scale invariant, so the contraction is n-free
    xs = (-0.8, -0.4, 0.1, 0.4, 0.8)
    for spec, alpha in ((freud12, 2.0), (freud14, 4.0)):
        devs = []
        for n in (25, 50, 100, 200):
            info = oz.solve_mrs(spec, n)
            devs.append(max(
                abs(oz.normalized_density_many(spec, info, [x])[0]
                    - oz.ullman_density(alpha, x)) for x in xs))
        assert devs[-1] <= 0.02
        for a, b in zip(devs, devs[1:]):
            assert b <= a + 1e-6


def test_sigma_star_converges_to_limit_mixed(mixed24):
    # genuinely n-dependent weight: Q = x^2 + x^4 flows to the alpha = 4 limit
    xs = (-0.8, -0.4, 0.1, 0.4, 0.8)
    devs = []
    for n in (25, 50, 100, 200):
        info = oz.solve_mrs(mixed24, n)
        devs.append(max(abs(oz.normalized_density_many(mixed24, info, [x])[0]
                            - oz.ullman_density(4.0, x)) for x in xs))
    assert devs[-1] <= 0.02
    for a, b in zip(devs, devs[1:]):
        assert b <= a + 1e-6


def test_sigma_star_edge_bound_stable(freud14):
    # sup sigma_n*(s) sqrt(1-s^2) fitted over n stays put
    cs = []
    ss = np.linspace(-0.999, 0.999, 201)
    for n in (20, 50, 100, 200):
        info = oz.solve_mrs(freud14, n)
        vals = oz.normalized_density_many(freud14, info, ss) * np.sqrt(1 - ss**2)
        cs.append(float(vals.max()))
    assert max(cs) / min(cs) <= 1.01


def test_radius_root_growth_bound(freud12):
    # |a_n^(1/n) - 1| <= 2 log(a_n)/n once n is large
    for n in (100, 200, 500, 1000):
        a = oz.solve_mrs(freud12, n).a_n
        assert abs(a ** (1.0 / n) - 1.0) <= 2.0 * math.log(a) / n


# ---------------------------------------------------------------------------
# limit densities


def test_ullman_semicircle_identity():
    xs = np.linspace(-1.0, 1.0, 101)
    worst = max(abs(oz.ullman_density(2.0, float(x))
                    - 2.0 / math.pi * math.sqrt(max(1.0 - x * x, 0.0)))
                for x in xs)
    assert worst <= 1e-10


def test_ullman_center_values():
    assert oz.ullman_density(math.inf, 0.0) == pytest.approx(1.0 / math.pi)
    # the density moves by O(|x|^(alpha-1)) off the centre: at |x| <= 1e-100,
    # subnormal included, nothing for these alpha
    for alpha in (1.5, 3.0, 4.0, 8.0, 50.0, 1000.0):
        for x in (0.0, 5e-324, -1e-300, 1e-100):
            assert oz.ullman_density(alpha, x) == pytest.approx(
                (alpha / math.pi) / (alpha - 1.0), rel=1e-11)


def _ullman_mp(mpmath, alpha, x):
    """(alpha/pi) sqrt(1-x^2) int_0^1 (x^2 + (1-x^2) u^2)^((alpha-2)/2) du at
    the working precision, the u-integral split at d/100, d, 10d and
    min(1/2, 100d) around its boundary layer, d = x/sqrt(1-x^2)."""
    a, y = mpmath.mpf(alpha), mpmath.mpf(x)
    om = 1 - y * y
    d = y / mpmath.sqrt(om)
    cuts = [0, d / 100, d, 10 * d, min(mpmath.mpf(0.5), 100 * d), 1]
    F = mpmath.quad(lambda u: (y * y + om * u * u) ** ((a - 2) / 2), cuts)
    return a / mpmath.pi * mpmath.sqrt(om) * F


@pytest.mark.parametrize("x", [1e-12, 1e-8, 1e-5, 1e-3])
@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 3.0])
def test_ullman_density_near_centre_meets_tol(alpha, x):
    # below alpha = 2 the u-integrand peaks at x^(alpha-2) in a layer of
    # width ~x; the density must still meet its default tol = 1e-10
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(_ullman_mp(mpmath, alpha, x))
    assert abs(oz.ullman_density(alpha, x) - exact) <= 1e-10


def test_ullman_edges_and_domain():
    assert oz.ullman_density(3.0, 1.0) == 0.0
    assert oz.ullman_density(3.0, -1.0) == 0.0
    with pytest.raises(SingularityError):
        oz.ullman_density(math.inf, 1.0)
    with pytest.raises(DomainError):
        oz.ullman_density(3.0, 1.2)
    with pytest.raises(DomainError):
        oz.ullman_density(0.8, 0.0)
    # the second route, sigma_n* of a Freud weight, takes finite exponents
    # and |s| < 1 only
    with pytest.raises(DomainError):
        oz.make_freud(1.0, math.inf)
    spec = oz.make_freud(1.0, 3.0)
    with pytest.raises(DomainError):
        oz.normalized_density_many(spec, oz.solve_mrs(spec, 90), [1.0])


_POINTS = oz.EmpiricalMeasure(scaled_points=np.array([-0.5, 0.3]), total=2,
                              complex_count=0, imag_tol=0.0)


@pytest.mark.parametrize("alpha", [1.0, 0.5, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda a: oz.make_custom(q=abs, q1=abs, q2=abs, even=True, alpha=a,
                             label="bad"),
    lambda a: oz.ks_to_ullman(_POINTS, a),
    lambda a: oz.ullman_density(a, 0.3),
    lambda a: oz.ullman_cdf_many(a, [0.3]),
], ids=["make_custom", "ks_to_ullman", "ullman_density", "ullman_cdf_many"])
def test_alpha_outside_one_to_inf_is_rejected(call, alpha):
    # only alpha = +inf is the arcsine law; -inf and NaN used to pass the
    # guard (or meet none) and come back as arcsine or nan values
    with pytest.raises(DomainError):
        call(alpha)


def _freud_sigma_star(alpha, s, tol=1e-8):
    # the second route to the Ullman density: sigma_n* of exp(-|x|^alpha),
    # which equals it at every n
    spec = oz.make_freud(1.0, alpha)
    return oz.normalized_density_many(spec, oz.solve_mrs(spec, 90), s, tol=tol)


def test_ullman_alt_agrees_with_primary():
    assert _freud_sigma_star(2.0, [0.5])[0] == pytest.approx(
        2.0 / math.pi * math.sqrt(0.75), abs=1e-9)
    xs = (-0.9, -0.5, 0.1, 0.7)
    for alpha in (1.5, 3.0, 8.0):
        for x, alt in zip(xs, _freud_sigma_star(alpha, xs)):
            assert abs(oz.ullman_density(alpha, x) - alt) <= 1e-8


def test_ullman_alt_quartic_center():
    # (4/pi) * 1/3 through both routes
    target = 4.0 / (3.0 * math.pi)
    assert oz.ullman_density(4.0, 0.0) == pytest.approx(target, rel=1e-11)
    assert _freud_sigma_star(4.0, [1e-12])[0] == pytest.approx(target, rel=1e-7)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 3.0, 8.0])
def test_sigma_star_is_ullman_at_every_exponent(alpha):
    # the cusp of Q' at 0 (alpha < 2) and the kink of Q'' (alpha = 3) sit
    # at phi = 0 of the graded rule, down to s = 1e-9
    ss = (1e-9, 1e-6, 1e-3, 0.3, 0.9, 0.999)
    got = _freud_sigma_star(alpha, ss, tol=1e-10)
    for s, v in zip(ss, got):
        assert abs(v - oz.ullman_density(alpha, s, tol=1e-13)) <= 1e-10


@pytest.mark.parametrize("alpha", [1.2, 1.5])
def test_divided_difference_guard_is_relative_to_x(alpha):
    # Q'' is unbounded at 0 for alpha < 2: s = 2x lies within 1e-6 a_n of a
    # small x, and must keep its divided difference, not Q'' at the midpoint
    spec = oz.make_freud(1.0, alpha)
    for x in (1e-9, 1e-6):
        s = np.array([[2.0 * x, x * (1.0 + 1e-9)]])
        dd = oz.scaling._divided_difference(spec, s, np.array([[x]]))
        exact = (spec.q1(2.0 * x) - spec.q1(x)) / x
        assert dd[0, 0] == pytest.approx(exact, rel=1e-12)
        # within 1e-6 |x| the midpoint Q'' still stands in
        assert dd[0, 1] == spec.q2(0.5 * (s[0, 1] + x))


def test_ullman_cdf_symmetry_and_closed_forms():
    for alpha in (1.5, 2.0, 4.0, math.inf):
        assert ullman_cdf(alpha, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert ullman_cdf(alpha, -1.0) == 0.0
        assert ullman_cdf(alpha, 1.0) == 1.0
    # arcsine: (arcsin x + pi/2)/pi at 1/2 gives 2/3
    assert ullman_cdf(math.inf, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # semicircle closed form
    semi = 0.5 + (math.asin(0.5) + 0.5 * math.sqrt(0.75)) / math.pi
    assert ullman_cdf(2.0, 0.5) == pytest.approx(semi, abs=1e-11)


@pytest.mark.parametrize("alpha, rel", [
    *((a, 1e-14) for a in (1.05, 1.5, 2.0, 3.0, 4.0, 8.0, 30.0)),
    *((a, 1e-12) for a in (100.0, 300.0, 1000.0))])
def test_freud_constants_match_gamma_closed_forms(alpha, rel):
    # 40-digit oracle; above alpha ~341 Gamma(alpha/2 + 1) overflows a double
    mpmath = pytest.importorskip("mpmath")
    g, b = oz.freud_constants(alpha)
    assert math.isfinite(g) and math.isfinite(b)
    with mpmath.workdps(40):
        a, sqrt_pi = mpmath.mpf(alpha), mpmath.sqrt(mpmath.pi)
        g_ref = sqrt_pi * mpmath.gamma(a / 2) / (2 * mpmath.gamma((a + 1) / 2))
        b_ref = mpmath.gamma((a + 1) / 2) / (sqrt_pi * mpmath.gamma(a / 2 + 1))

        def moment(p):  # int_0^1 t^p / sqrt(1 - t^2) dt
            return mpmath.quad(lambda t: t**p / mpmath.sqrt(1 - t * t), [0, 1])

        # the closed forms are the defining integrals of the docstring
        assert abs(moment(a - 1) / g_ref - 1) <= 1e-18
        assert abs(2 / mpmath.pi * moment(a) / b_ref - 1) <= 1e-18
        assert abs(g / g_ref - 1) <= rel
        assert abs(b / b_ref - 1) <= rel


def _run_fresh(code: str) -> None:
    """Run `code` in a new interpreter that imports this package."""
    src = str(Path(oz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs ~0.3 s per process; the limit density runs on the
    # package's own adaptive Gauss-Legendre rule, so nothing loads it
    _run_fresh(
        "import math, sys\n"
        "import orthozero as oz\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "d = oz.ullman_density(2.0, 0.3)\n"
        "assert abs(d - 2 / math.pi * math.sqrt(0.91)) <= 1e-10, d\n"
        "assert 'scipy.integrate' not in sys.modules\n")


def test_runs_leave_scipy_special_unloaded():
    # scipy.special costs ~0.3 s and ~25 MB per process; the Gauss-Legendre
    # rule is the package's own, so neither the import nor a table build,
    # a kac run or a simulation (counting, eigenvalues, KS) loads it
    _run_fresh(
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import orthozero\n"
        "from orthozero.cli import run\n"
        "assert 'scipy.special' not in sys.modules\n"
        "for argv in (['recurrence', '--n-max', '20'],\n"
        "             ['kac', '--n', '50', '--full-line'],\n"
        "             ['simulate', '--n', '30', '--trials', '4']):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0\n"
        "    assert 'scipy.special' not in sys.modules, argv\n")


def test_runs_without_scipy():
    # scipy is a test dependency only: with every `import scipy` failing,
    # the package imports and each subcommand runs, the limit density,
    # Freud constants (verify 7, 8) and monomial basis (verify 6) included
    _run_fresh(
        "import io, math, sys\n"
        "sys.modules['scipy'] = None\n"
        "from contextlib import redirect_stdout\n"
        "import orthozero as oz\n"
        "from orthozero.cli import run\n"
        "for argv in (['mrs', '--n', '8,100'],\n"
        "             ['density', '--weight', 'freud:1:4', '--n', '20',\n"
        "              '--points', '5'],\n"
        "             ['recurrence', '--n-max', '20'],\n"
        "             ['kac', '--n', '50', '--full-line'],\n"
        "             ['kac', '--n', '50', '--basis', 'monomial',\n"
        "              '--full-line'],\n"
        "             ['simulate', '--n', '30', '--trials', '4'],\n"
        "             ['verify', '--only', '6,7,8,9']):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "d = oz.ullman_density(2.0, 0.3)\n"
        "assert abs(d - 2 / math.pi * math.sqrt(0.91)) <= 1e-10, d\n")


def test_ullman_cdf_monotone():
    xs = np.linspace(-1.0, 1.0, 41)
    for alpha in (1.5, 4.0, math.inf):
        vals = [ullman_cdf(alpha, float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_ullman_cdf_many_matches_scalar():
    xs = np.linspace(-0.999, 0.999, 41)
    for alpha in (1.5, 2.0, 4.0, math.inf):
        fast = oz.ullman_cdf_many(alpha, xs)
        slow = np.array([ullman_cdf(alpha, float(x)) for x in xs])
        assert np.max(np.abs(fast - slow)) <= 1e-8


@pytest.mark.parametrize("alpha", [2.0, math.inf], ids=["2", "inf"])
def test_ullman_cdf_many_keeps_the_shape(alpha):
    # a scalar and a 2-D array give the 1-D results bit for bit
    xs = np.linspace(-1.2, 1.2, 24)
    flat = oz.ullman_cdf_many(alpha, xs)
    grid = oz.ullman_cdf_many(alpha, xs.reshape(4, 6))
    assert grid.shape == (4, 6)
    assert grid.ravel().tobytes() == flat.tobytes()
    for x, want in zip(xs, flat):
        got = oz.ullman_cdf_many(alpha, x)
        assert np.shape(got) == ()
        assert float(got).hex() == float(want).hex()


def test_freud_constants_values():
    g2, b2 = oz.freud_constants(2.0)
    assert g2 == pytest.approx(1.0, abs=1e-12)  # Gamma identities collapse
    assert b2 == pytest.approx(0.5, abs=1e-12)
    for alpha in (1.5, 2.0, 3.0, 4.0, 8.0):
        g, b = oz.freud_constants(alpha)
        assert g * b == pytest.approx(1.0 / alpha, abs=1e-12)
    with pytest.raises(DomainError):
        oz.freud_constants(0.0)
