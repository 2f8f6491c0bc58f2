import math

import numpy as np
import pytest
from scipy.integrate import quad

from orthozero import quadrature
from orthozero.errors import BudgetError, DiscretizationError, DomainError
from orthozero.quadrature import adaptive_gl, gl_rule, refine, refine_roots


def _ulps(got, want):
    """|got - want| in units of the float64 spacing at want (0 where both
    are 0)."""
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) / np.spacing(np.abs(want))


def _closed_form_rule(order):
    """Gauss-Legendre nodes and weights of orders 1-4 from their radicals,
    at 40 digits, rounded once."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.sqrt
        inner = s(mpmath.mpf(3) / 7 - mpmath.mpf(2) / 7 * s(mpmath.mpf(6) / 5))
        outer = s(mpmath.mpf(3) / 7 + mpmath.mpf(2) / 7 * s(mpmath.mpf(6) / 5))
        w_in, w_out = (18 + s(30)) / 36, (18 - s(30)) / 36
        x, w = {1: ([0], [2]),
                2: ([-1 / s(3), 1 / s(3)], [1, 1]),
                3: ([-s(mpmath.mpf(3) / 5), 0, s(mpmath.mpf(3) / 5)],
                    [mpmath.mpf(5) / 9, mpmath.mpf(8) / 9, mpmath.mpf(5) / 9]),
                4: ([-outer, -inner, inner, outer], [w_out, w_in, w_in, w_out]),
                }[order]
        return np.array([float(v) for v in x]), np.array([float(v) for v in w])


def _mpmath_rule(order):
    """Positive Gauss-Legendre nodes and their weights from mpmath's own
    Legendre function at 40 digits.  Each root is found in a bracket of
    relative width 2^-39 around a float64 node; a sign change of P_order
    across every bracket puts one root in each, and order // 2 disjoint
    brackets hold all positive roots.  Weights are 2/((1 - x^2) P'(x)^2)."""
    mpmath = pytest.importorskip("mpmath")
    x, _ = gl_rule(order)
    with mpmath.workdps(40):
        def P(t):
            return mpmath.legendre(order, t)

        nodes, weights = [], []
        for xf in x[x > 0]:
            lo = mpmath.mpf(xf) * (1 - mpmath.mpf(2) ** -40)
            hi = mpmath.mpf(xf) * (1 + mpmath.mpf(2) ** -40)
            assert P(lo) * P(hi) < 0
            r = mpmath.findroot(P, (lo, hi), solver="anderson")
            d = order * (mpmath.legendre(order - 1, r) - r * P(r)) / (1 - r * r)
            nodes.append(float(r))
            weights.append(float(2 / ((1 - r * r) * d * d)))
    assert len(nodes) == order // 2
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gl_rule_matches_closed_forms(order):
    x, w = gl_rule(order)
    xc, wc = _closed_form_rule(order)
    assert np.max(_ulps(x, xc)) <= 1
    assert np.max(_ulps(w, wc)) <= 1


@pytest.mark.parametrize("order, weight_ulps",
                         [(15, 2), (24, 2), (31, 2), (100, 1)])
def test_gl_rule_matches_mpmath(order, weight_ulps):
    # the orders of adaptive_gl, the Stieltjes mesh, the Gram audit and
    # ullman_cdf_many
    x, w = gl_rule(order)
    xm, wm = _mpmath_rule(order)
    pos = x > 0
    assert np.max(_ulps(x[pos], xm)) <= 1
    assert np.max(_ulps(w[pos], wm)) <= weight_ulps
    if order % 2:
        assert x[order // 2] == 0.0


@pytest.mark.parametrize("order", [*range(1, 41), 100])
def test_gl_rule_exactly_symmetric(order):
    x, w = gl_rule(order)
    assert x.dtype == w.dtype == np.float64
    assert x.shape == w.shape == (order,)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("order", [1, 2, 3, 4, 15, 24, 31, 100])
def test_gl_rule_integrates_monomials(order):
    # the rule is exact up to degree 2 order - 1.  Rounding the nodes to
    # float64 alone moves the high even moments by several ulps of their
    # small values (7.8 ulps at order 24, degree 46, in exact arithmetic on
    # the correctly rounded rule), so every degree is held to 4 ulps of
    # max(|exact|, 1), and degrees up to `order` to 4 ulps of the value
    x, w = gl_rule(order)
    for k in range(2 * order):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        err = abs(math.fsum(w * x**k) - exact)
        assert err <= 4 * np.spacing(max(exact, 1.0)), k
        if k <= order and k % 2 == 0:
            assert err <= 4 * np.spacing(exact), k


def test_gl_rule_raises_when_newton_does_not_converge(monkeypatch):
    # two steps leave the order-24 nodes far from converged; the uncached
    # function is called so the cache is neither read nor filled
    monkeypatch.setattr(quadrature, "_NEWTON_STEPS", 2)
    with pytest.raises(DiscretizationError,
                       match="order 24 did not converge in 2 Newton steps"):
        quadrature.gl_rule.__wrapped__(24)


def test_adaptive_gl_budget_error_carries_partials(monkeypatch):
    # 1/sqrt|x| never meets the tolerance near its singularity, so a
    # 10-panel budget runs out; the salvaged value is a usable estimate
    def f(x):
        return 1.0 / np.sqrt(np.abs(x))

    monkeypatch.setattr(quadrature, "_MAX_PANELS", 10)
    with pytest.raises(BudgetError) as info:
        adaptive_gl(f, -1.0, 1.0, tol=1e-12, presplit=[0.0])
    err = info.value
    assert err.panels > 10
    assert err.partial == pytest.approx(4.0, rel=0.05)
    assert str(err) == ("adaptive quadrature exceeded 10 panels "
                        f"(partial value {err.partial:.6g})")
    assert BudgetError("no partials").partial is None
    with pytest.raises(BudgetError) as ref:
        _halves_separately(f, -1.0, 1.0, 1e-12, 15, [0.0], max_panels=10)
    assert (err.partial, err.panels) == (ref.value.partial, ref.value.panels)


def _halves_separately(f, lo, hi, tol, order, presplit, max_panels=20000):
    """The panel bisection of `adaptive_gl` with the initial panels and the
    left and right halves of each wave evaluated in separate calls."""
    xg, wg = gl_rule(order)
    xs, ys = [], []

    def panel_values(los, his):
        mid, half = 0.5 * (los + his), 0.5 * (his - los)
        x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        y = np.asarray(f(x), dtype=float)
        xs.append(x)
        ys.append(y)
        return (y.reshape(len(los), order) * wg).sum(1) * half

    edges = sorted({lo, hi, *(p for p in presplit if lo < p < hi)})
    los, his = np.array(edges[:-1]), np.array(edges[1:])
    work = list(zip(los, his, panel_values(los, his)))
    total = err = 0.0
    n_panels = len(work)
    while work:
        los, his, parents = (np.array(col) for col in zip(*work))
        mids = 0.5 * (los + his)
        left, right = panel_values(los, mids), panel_values(mids, his)
        errs = np.abs(left + right - parents)
        work = []
        for i in range(len(errs)):
            if errs[i] <= tol * (his[i] - los[i]) / (hi - lo):
                total += left[i] + right[i]
                err += errs[i]
            else:
                work += [(los[i], mids[i], left[i]), (mids[i], his[i], right[i])]
        n_panels += len(work)
        if n_panels > max_panels:
            raise BudgetError("", partial=total + sum(w[2] for w in work),
                              panels=n_panels)
    x, y = np.concatenate(xs), np.concatenate(ys)
    idx = np.argsort(x, kind="stable")
    return total, err, x[idx], y[idx], len(xs)


def test_adaptive_gl_one_call_per_refinement_wave():
    order = 15
    batches = []

    def g(x):
        return np.exp(-x * x) * np.cos(9.0 * x) ** 2

    def f(x):
        batches.append(x.copy())
        return g(x)

    presplit = [-1.0, 0.0, 0.5]
    val, err, xs, ys = adaptive_gl(f, -4.0, 4.0, tol=1e-11, presplit=presplit)
    ref_val, ref_err, ref_xs, ref_ys, ref_calls = _halves_separately(
        f, -4.0, 4.0, 1e-11, order, presplit)
    waves = (ref_calls - 1) // 2
    assert waves >= 3
    # one call per wave instead of two, the initial panels riding in the
    # first wave's call ahead of their halves
    assert len(batches) - ref_calls == waves
    ours, ref = batches[:waves], batches[waves:]
    assert ours[0].size == order * 4 + 2 * order * 4
    assert np.array_equal(ours[0], np.concatenate(ref[:3]))
    for k in range(2, 1 + waves):
        # the reference's left batch holds `order` nodes per pending panel
        pending = ref[2 * k - 1].size // order
        assert ours[k - 1].size == 2 * order * pending
        assert np.array_equal(ours[k - 1],
                              np.concatenate(ref[2 * k - 1:2 * k + 1]))
    # the same nodes in the same order: identical to the last bit
    assert val == pytest.approx(quad(g, -4.0, 4.0, limit=200)[0], abs=1e-10)
    assert (val, err) == (ref_val, ref_err)
    assert np.array_equal(xs, ref_xs)
    assert np.array_equal(ys, ref_ys)


def _never(x):
    raise AssertionError("integrand evaluated")


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_integrators_reject_tolerance_not_above_zero(tol):
    with pytest.raises(DomainError, match="tolerance"):
        adaptive_gl(_never, 0.0, 1.0, tol=tol)
    with pytest.raises(DomainError, match="tolerance"):
        refine(_never, tol, 2, "rule")


@pytest.mark.parametrize("lo, hi", [(0.0, float("inf")), (-float("inf"), 0.0),
                                    (float("nan"), 1.0), (1.0, 1.0)])
def test_adaptive_gl_rejects_non_finite_or_empty_interval(lo, hi):
    with pytest.raises(DomainError, match="interval"):
        adaptive_gl(_never, lo, hi, tol=1e-8)


def _cos_brackets():
    # the zeros (k + 1/2) pi of cos, k = 0..5, in brackets of unequal sides
    roots = (np.arange(6) + 0.5) * np.pi
    lo, hi = roots - 0.3 - 0.1 * np.arange(6), roots + 0.7
    return roots, lo, hi, np.sign(np.cos(lo))


def test_refine_roots_newton_on_many_brackets():
    roots, lo, hi, sl = _cos_brackets()
    sizes = []

    def fdf(x):
        sizes.append(x.size)
        return np.cos(x), -np.sin(x)

    z = refine_roots(fdf, lo, hi, sl, 1e-12)
    assert np.all(np.abs(z - roots) <= 1e-12)
    # one call per step for all open brackets, and far fewer steps than
    # the 40 halvings from width 1 to 1e-12
    assert sizes[0] == roots.size and len(sizes) <= 8


@pytest.mark.parametrize("slope", [1.0, -1e6])
def test_refine_roots_carries_a_wrong_slope(slope):
    # +sin has the wrong sign, so no Newton step lands inside the bracket
    # and the safeguard bisects (41 calls).  -1e6 sin has the right sign
    # but steps a millionth of the way: the step-halving test must turn
    # the crawl into bisections (93 calls; a probe exempt from it crawled
    # by width/2 per call, 23,140 calls)
    roots, lo, hi, sl = _cos_brackets()
    calls = []

    def fdf(x):
        calls.append(x.size)
        return np.cos(x), slope * np.sin(x)

    z = refine_roots(fdf, lo, hi, sl, 1e-12)
    assert np.all(np.abs(z - roots) <= 1e-12)
    assert len(calls) <= 3 * 40


def test_refine_roots_returns_an_exact_zero():
    # f is exactly 0.0 at the first point, the midpoint: it is the root,
    # though the bracket is still wide
    calls = []

    def fdf(x):
        calls.append(x.copy())
        return x - 1.0, np.full_like(x, 3.0)

    assert refine_roots(fdf, [0.0], [2.0], [-1.0], 1e-12).tolist() == [1.0]
    assert len(calls) == 1
