import numpy as np
import pytest

import orthozero as oz
from orthozero.errors import DomainError



def T(w, t):
    """T(t) = t Q'(t) / Q(t)."""
    return float(t * w.q1(np.float64(t)) / w.q(np.float64(t)))


def central_difference(f, g):
    h = np.minimum(np.maximum(1e-6 * g, 1e-9), 0.5 * g)
    return (np.asarray(f(g + h), dtype=float)
            - np.asarray(f(g - h), dtype=float)) / (2.0 * h)


def test_freud_basic_values():
    w = oz.make_freud(1, 2)
    assert w.q(np.float64(1.0)) == 1.0
    assert w.q1(np.float64(1.0)) == 2.0
    assert w.alpha == 2.0
    assert w.even


def test_freud_T_is_exponent():
    w = oz.make_freud(1, 2)
    for t in (0.03, 0.5, 3.0, 40.0):
        assert T(w, t) == pytest.approx(2.0, abs=1e-14)
    w8 = oz.make_freud(1, 8)
    assert T(w8, 0.1) == pytest.approx(8.0, rel=1e-12)


def test_freud_half_scale():
    w = oz.make_freud(0.5, 4)
    assert w.q(np.float64(2.0)) == pytest.approx(8.0)
    assert w.q1(np.float64(2.0)) == pytest.approx(16.0)
    assert T(w, 2.0) == pytest.approx(4.0)


def test_freud_rejects_bad_parameters():
    with pytest.raises(DomainError):
        oz.make_freud(1, 1.0)
    with pytest.raises(DomainError):
        oz.make_freud(1, 0.5)
    with pytest.raises(DomainError):
        oz.make_freud(0, 2)
    for c, lam in ((np.inf, 2), (1, np.inf), (np.nan, 2), (1, np.nan)):
        with pytest.raises(DomainError):
            oz.make_freud(c, lam)


@pytest.mark.parametrize("c,lam", [(0.5, 1.5), (2.0, 3.0), (1.0, 6.0)])
def test_freud_family_derivatives(c, lam):
    w = oz.make_freud(c, lam)
    g = np.geomspace(0.01, 100, 50)
    for f, df in ((w.q, w.q1), (w.q1, w.q2)):
        assert np.allclose(central_difference(f, g), df(g), rtol=1e-6, atol=0)
    assert w.q(np.float64(0.0)) == 0.0
    assert np.array_equal(w.q(-g), w.q(g))
    assert np.array_equal(w.q1(-g), -w.q1(g))
    assert min(T(w, t) for t in g) == pytest.approx(lam, rel=1e-10)


@pytest.mark.parametrize("c,lam", [(0.5, 1.5), (2.0, 3.0), (1.0, 6.0)])
def test_freud_growth_constant(c, lam):
    # Q'' Q / Q'^2 = (lam - 1)/lam exactly for Q = c|x|^lam
    w = oz.make_freud(c, lam)
    g = np.geomspace(0.01, 100, 50)
    assert np.allclose(w.q2(g) * w.q(g) / w.q1(g) ** 2, (lam - 1.0) / lam,
                       rtol=1e-10, atol=0)


def test_mixed24_T_at_one(mixed24):
    # (2 + 4) / (1 + 1) by direct evaluation of the quotient
    assert T(mixed24, 1.0) == pytest.approx(3.0, rel=1e-14)


def test_mixed24_fixture_derivatives(mixed24):
    # the Gram audits trust this fixture's q1 and q2
    g = np.geomspace(0.05, 50, 60)
    for f, df in ((mixed24.q, mixed24.q1), (mixed24.q1, mixed24.q2)):
        assert np.allclose(central_difference(f, g), df(g), rtol=1e-6, atol=0)
    # T rises from 2 toward 4, so it is genuinely increasing
    Ts = [T(mixed24, t) for t in g]
    assert all(b >= a for a, b in zip(Ts, Ts[1:]))
    assert Ts[0] > 1.0


def test_parse_weight_registry():
    w = oz.parse_weight("freud:1:2")
    assert w.label == "freud:1:2"
    assert w.alpha == 2.0
    w = oz.parse_weight("freud:0.5:4")
    assert w.q(np.float64(1.0)) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        oz.parse_weight("hermite")
    with pytest.raises(DomainError):
        oz.parse_weight("freud:a:b")
