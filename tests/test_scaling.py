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
from orthozero.errors import DomainError, NonEvenWeightError, SingularityError


# ---------------------------------------------------------------------------
# support radius


@pytest.mark.parametrize("c", [1.0, 0.5])
@pytest.mark.parametrize("lam", [2.0, 4.0])
@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_mrs_matches_freud_closed_form(c, lam, n):
    g, _ = oz.freud_constants(lam)
    info = oz.solve_mrs(oz.make_freud(c, lam), n)
    assert info.a_n == pytest.approx((n * g / c) ** (1.0 / lam), rel=1e-10)
    assert abs(info.residual) <= 1e-9 * n


def test_mrs_half_gaussian_exact(hermite):
    # Q = x^2/2 turns the defining integral into a_n^2/2 = n
    for n in (8, 50, 501):
        info = oz.solve_mrs(hermite, n)
        assert info.a_n == pytest.approx(math.sqrt(2.0 * n), rel=1e-12)


def test_mrs_polish_never_worse_than_bisection():
    # Q = x^2/2 with a wrong Q'' = -0.9: the Newton step comes out 20x too
    # long.  A Q'' that makes the derivative negative skips the polish, so
    # that weight returns the bisection midpoint itself.
    def half_gaussian(q2):
        return oz.make_custom(q=lambda x: 0.5 * x**2, q1=lambda x: 1.0 * x,
                              q2=lambda x: q2 + 0.0 * x,
                              even=True, alpha=2.0, label=f"q2={q2}")
    for n in (7, 100, 1000):
        bisected = oz.solve_mrs(half_gaussian(-1e6), n)
        polished = oz.solve_mrs(half_gaussian(-0.9), n)
        assert bisected.residual != 0.0
        assert abs(polished.residual) <= abs(bisected.residual)


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
    info = oz.solve_mrs(hermite, 50)
    for x in (-info.a_n, 0.0, info.a_n, 3.7):
        assert info.expand(info.contract(x)) == pytest.approx(x, abs=1e-12)
    assert info.contract(info.a_n) == pytest.approx(1.0)
    assert info.contract(-info.a_n) == pytest.approx(-1.0)
    assert info.contract(5.0) == pytest.approx(0.5)  # a_50 = 10
    assert info.expand(info.contract(2.2)) == pytest.approx(2.2)


def test_scaling_accessors(hermite):
    info = oz.solve_mrs(hermite, 50)
    lo, hi = info.interval()
    assert (lo, hi) == (-info.a_n, info.a_n)
    jlo, jhi = info.j_interval()
    assert jlo == pytest.approx(-0.95 * info.a_n)
    assert info.rho(0.0) == pytest.approx(info.a_n)
    assert info.rho(info.a_n) == 0.0


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
    # Q'' = |x|^-1/2 near 0 drives the Chebyshev rule of the points near 0
    # to 16384 nodes; evaluated whole, the (299, 16384) integrand and its
    # temporaries took about 240 MB
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


@pytest.mark.parametrize("n", [10, 50])
def test_sigma_mass_is_n(freud12, n):
    info = oz.solve_mrs(freud12, n)
    curve = oz.sigma_curve(freud12, info, tol=1e-10)
    assert abs(curve.mass - n) <= 1e-8 * n
    assert curve.target_mass == n
    assert np.all(curve.values >= 0)
    assert abs(curve.mass - curve.target_mass) <= max(curve.err_estimate, 1e-8 * n)


def test_sigma_star_semicircle_exact(hermite):
    # quadratic Q: normalized density is the semicircle for every n
    for n in (5, 40):
        info = oz.solve_mrs(hermite, n)
        for s in (-0.9, -0.3, 0.0, 0.6):
            exact = 2.0 / math.pi * math.sqrt(1.0 - s * s)
            assert oz.normalized_density_many(hermite, info, [s])[0] == \
                pytest.approx(exact, abs=1e-10)
        curve = oz.sigma_star_curve(hermite, info, tol=1e-10)
        assert curve.mass == pytest.approx(1.0, abs=1e-8)


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
    for alpha in (1.5, 3.0, 4.0, 8.0):
        assert oz.ullman_density(alpha, 0.0) == pytest.approx(
            (alpha / math.pi) / (alpha - 1.0), rel=1e-11)


def test_ullman_edges_and_domain():
    assert oz.ullman_density(3.0, 1.0) == 0.0
    assert oz.ullman_density(3.0, -1.0) == 0.0
    with pytest.raises(SingularityError):
        oz.ullman_density(math.inf, 1.0)
    with pytest.raises(DomainError):
        oz.ullman_density(3.0, 1.2)
    with pytest.raises(DomainError):
        oz.ullman_density(0.8, 0.0)
    with pytest.raises(DomainError):
        oz.ullman_density_alt(math.inf, 0.5)
    with pytest.raises(DomainError):
        oz.ullman_density_alt(3.0, 1.0)


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


def test_ullman_alt_agrees_with_primary():
    assert oz.ullman_density_alt(2.0, 0.5) == pytest.approx(
        2.0 / math.pi * math.sqrt(0.75), abs=1e-9)
    for alpha in (1.5, 3.0, 8.0):
        for x in (-0.9, -0.5, 0.1, 0.7):
            assert abs(oz.ullman_density(alpha, x)
                       - oz.ullman_density_alt(alpha, x)) <= 1e-8


def test_ullman_alt_quartic_center():
    # (4/pi) * 1/3 through both routes
    target = 4.0 / (3.0 * math.pi)
    assert oz.ullman_density(4.0, 0.0) == pytest.approx(target, rel=1e-11)
    assert oz.ullman_density_alt(4.0, 1e-12) == pytest.approx(target, rel=1e-7)


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


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs ~0.3 s per process; only the quad-based limit
    # density needs it, and it imports it on first call
    code = (
        "import math, sys\n"
        "import orthozero as oz\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "d = oz.ullman_density(2.0, 0.3)\n"
        "assert abs(d - 2 / math.pi * math.sqrt(0.91)) <= 1e-10, d\n")
    src = str(Path(oz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


def test_freud_constants_values():
    g2, b2 = oz.freud_constants(2.0)
    assert g2 == pytest.approx(1.0, abs=1e-12)  # Gamma identities collapse
    assert b2 == pytest.approx(0.5, abs=1e-12)
    for alpha in (1.5, 2.0, 3.0, 4.0, 8.0):
        g, b = oz.freud_constants(alpha)
        assert g * b == pytest.approx(1.0 / alpha, abs=1e-12)
    with pytest.raises(DomainError):
        oz.freud_constants(0.0)
