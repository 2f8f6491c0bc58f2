import math

import numpy as np
import pytest

import orthozero as oz


_GL_U, _GL_W = np.polynomial.legendre.leggauss(40)


def _half_mass(alpha: float, b: float) -> float:
    """mu_alpha([0, b]) for finite alpha, 0 <= b <= 1.

    Fubini on the defining double integral gives
        mu_alpha([0,b]) = b^alpha / 2
                          + (alpha/pi) int_b^1 t^(alpha-1) arcsin(b/t) dt,
    and the same t^2 = b^2 + (1-b^2)u^2 substitution makes the remaining
    integrand vanish linearly at u = 0.  Its boundary layer, of width ~b
    in u, is resolved by a 40-point Gauss-Legendre rule (numpy's, not the
    package's gl_rule) on each of the panels [0, b], [b, 2b], [2b, 4b], ...
    up to 1.
    """
    if b <= 0.0:
        return 0.0
    if b >= 1.0:
        return 0.5
    edges = [0.0, b]
    while edges[-1] < 1.0:
        edges.append(min(2.0 * edges[-1], 1.0))
    e = np.array(edges)
    mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)
    u = mid[:, None] + half[:, None] * _GL_U
    b2 = b * b
    om = 1.0 - b2
    t2 = b2 + om * u * u
    h = om * u * t2 ** ((alpha - 2.0) / 2.0) * np.arcsin(b / np.sqrt(t2))
    val = float(half @ (h @ _GL_W))
    return 0.5 * b**alpha + alpha / math.pi * val


def ullman_cdf(alpha: float, x: float) -> float:
    """Cumulative mass of the limit density on [-1, x], by composite
    Gauss-Legendre in u: the reference that oz.ullman_cdf_many's rule in r
    is held to."""
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if alpha == math.inf:
        return (math.asin(x) + math.pi / 2.0) / math.pi
    hm = _half_mass(alpha, abs(x))
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
