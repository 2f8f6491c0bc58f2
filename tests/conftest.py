import numpy as np
import pytest

import orthozero as oz


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
