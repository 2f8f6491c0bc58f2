import numpy as np
import pytest
from scipy.integrate import quad

from orthozero.errors import BudgetError, DomainError
from orthozero.quadrature import adaptive_gl, cheb_t_integral, gl_rule


def test_adaptive_gl_budget_error_carries_partials():
    # 1/sqrt|x| never meets the tolerance near its singularity, so a
    # 10-panel budget runs out; the salvaged value is a usable estimate
    def f(x):
        return 1.0 / np.sqrt(np.abs(x))

    with pytest.raises(BudgetError) as info:
        adaptive_gl(f, -1.0, 1.0, tol=1e-12, presplit=[0.0], max_panels=10)
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
    val, err, xs, ys = adaptive_gl(f, -4.0, 4.0, tol=1e-11, order=order,
                                   presplit=presplit)
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
        cheb_t_integral(_never, tol=tol)


@pytest.mark.parametrize("lo, hi", [(0.0, float("inf")), (-float("inf"), 0.0),
                                    (float("nan"), 1.0), (1.0, 1.0)])
def test_adaptive_gl_rejects_non_finite_or_empty_interval(lo, hi):
    with pytest.raises(DomainError, match="interval"):
        adaptive_gl(_never, lo, hi, tol=1e-8)
