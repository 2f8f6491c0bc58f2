import math

import numpy as np
import pytest

import orthozero as oz


def _half_mass(alpha: float, b: float, eps: float) -> float:
    """mu_alpha([0, b]) for finite alpha, 0 <= b <= 1.

    Fubini on the defining double integral gives
        mu_alpha([0,b]) = b^alpha / 2
                          + (alpha/pi) int_b^1 t^(alpha-1) arcsin(b/t) dt,
    and the same t^2 = b^2 + (1-b^2)u^2 substitution makes the remaining
    integrand vanish linearly at u = 0.
    """
    if b <= 0.0:
        return 0.0
    if b >= 1.0:
        return 0.5
    from scipy.integrate import quad
    b2 = b * b
    om = 1.0 - b2

    def h(u):
        t2 = b2 + om * u * u
        t = np.sqrt(t2)
        return om * u * t2 ** ((alpha - 2.0) / 2.0) * np.arcsin(b / t)

    val = quad(h, 0.0, 1.0, epsabs=eps, epsrel=0.0, limit=200)[0]
    return 0.5 * b**alpha + alpha / math.pi * val


def ullman_cdf(alpha: float, x: float, tol: float = 1e-10) -> float:
    """Cumulative mass of the limit density on [-1, x], by adaptive quad:
    the reference that oz.ullman_cdf_many's fixed Gauss rule is held to."""
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if alpha == math.inf:
        return (math.asin(x) + math.pi / 2.0) / math.pi
    hm = _half_mass(alpha, abs(x), eps=tol)
    return 0.5 + math.copysign(hm, x)


@pytest.fixture(scope="session")
def hermite():
    """Q = x^2/2, so the orthogonality weight is exp(-x^2)."""
    return oz.parse_weight("freud:0.5:2")


@pytest.fixture(scope="session")
def freud12():
    return oz.parse_weight("freud:1:2")


@pytest.fixture(scope="session")
def freud14():
    return oz.parse_weight("freud:1:4")


@pytest.fixture(scope="session")
def mixed24():
    """Even non-Freud weight Q = x^2 + x^4 with T -> 4."""
    return oz.make_custom(
        q=lambda x: x**2 + np.abs(x) ** 4,
        q1=lambda x: 2 * x + 4 * x**3,
        q2=lambda x: 2 + 12 * x**2,
        even=True, alpha=4.0, label="mixed:2:4")


@pytest.fixture(scope="session")
def hermite_table_60(hermite):
    return oz.get_table(hermite, 60)


@pytest.fixture(scope="session")
def hermite_table_101(hermite):
    return oz.get_table(hermite, 101)


@pytest.fixture(scope="session")
def hermite_table_1001(hermite):
    return oz.get_table(hermite, 1001)
