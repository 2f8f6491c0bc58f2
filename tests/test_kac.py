import math

import numpy as np
import pytest

import orthozero as oz
from orthozero.errors import DomainError


def test_density_scale_invariance():
    kt = np.array([[3.1], [0.7], [2.9]])
    base = float(oz.kac_density(*kt)[0])
    assert float(oz.kac_density(*(64 * kt))[0]).hex() == base.hex()
    # non-binary factors perturb only the last bits
    assert oz.kac_density(*(49 * kt))[0] == pytest.approx(base, rel=1e-14)


def test_density_clamps_rounding_noise():
    dens = oz.kac_density(np.array([1.0]), np.array([1.0]),
                          np.array([1.0 - 1e-16]))
    assert dens[0] == 0.0


def test_density_universality_crosscheck(hermite, hermite_table_101):
    # at the center B = 0, so the density is sqrt(C/A)/pi; the kernel limits
    # give sigma_{n+1}/sqrt(3) as an independent estimate
    n = 50
    A, B, C, _ = oz.kernel_triple_many(hermite_table_101, [0.0], n)
    dens = oz.kac_density(A, B, C)[0]
    info = oz.solve_mrs(hermite, n + 1)
    est = oz.equilibrium_density_many(hermite, info, [0.0])[0] / math.sqrt(3.0)
    assert dens == pytest.approx(est, rel=0.10)


def test_expected_zeros_additivity(hermite, hermite_table_101):
    edge = oz.solve_mrs(hermite, 101).a_n
    tol = 1e-8
    p1 = oz.expected_zeros(hermite_table_101, 100, (-5.0, 2.0), tol, edge=edge)
    p2 = oz.expected_zeros(hermite_table_101, 100, (2.0, 9.0), tol, edge=edge)
    p3 = oz.expected_zeros(hermite_table_101, 100, (-5.0, 9.0), tol, edge=edge)
    assert abs(p1.expected_count + p2.expected_count - p3.expected_count) \
        <= 2.0 * tol


def test_expected_zeros_symmetry(hermite, hermite_table_101):
    edge = oz.solve_mrs(hermite, 101).a_n
    tol = 1e-8
    left = oz.expected_zeros(hermite_table_101, 100, (-7.0, 0.0), tol, edge=edge)
    right = oz.expected_zeros(hermite_table_101, 100, (0.0, 7.0), tol, edge=edge)
    assert abs(left.expected_count - right.expected_count) <= 2.0 * tol


def test_expected_zeros_profile_invariants(hermite, hermite_table_101):
    edge = oz.solve_mrs(hermite, 101).a_n
    prof = oz.expected_zeros_full(hermite_table_101, 100, tol=1e-6, edge=edge)
    assert np.all(prof.samples_density >= 0.0)
    assert 0.0 <= prof.expected_count <= 100
    assert 0.55 <= prof.expected_count / 100 <= 0.61
    assert prof.clamped_fraction <= 1e-3
    assert prof.worst_clamp >= -1e-12
    assert prof.tail_estimate > 0.0  # Cauchy-type tails carry real mass


def test_clamped_fraction_counts_each_evaluated_node_once(
        hermite, hermite_table_101, monkeypatch):
    # force a clamp at every evaluated node beyond edge (a panel boundary):
    # the positive core nodes there and every tail node, none at the
    # mirrored negative samples
    from orthozero import kac

    edge = oz.solve_mrs(hermite, 101).a_n
    seen = {"nodes": 0, "clamped": 0}
    triple = kac.kernel_triple_many

    def forced(table, x, n):
        A, B, C, e2 = triple(table, x, n)
        far = np.asarray(x) > edge
        B = np.where(far, 2.0 * np.sqrt(A * C), B)  # A C - B^2 = -3 A C
        seen["nodes"] += far.size
        seen["clamped"] += int(np.sum(far))
        return A, B, C, e2

    monkeypatch.setattr(kac, "kernel_triple_many", forced)
    prof = oz.expected_zeros_full(hermite_table_101, 100, tol=1e-6, edge=edge)
    assert 0 < seen["clamped"] < seen["nodes"]
    assert prof.clamped_fraction == seen["clamped"] / seen["nodes"]
    assert prof.worst_clamp == pytest.approx(-3.0)


def test_expected_zeros_empty_interval(hermite_table_101):
    with pytest.raises(DomainError):
        oz.expected_zeros(hermite_table_101, 10, (2.0, 2.0))


def test_monomial_linear_has_one_zero():
    prof = oz.expected_zeros_monomial(1)
    assert prof.expected_count == pytest.approx(1.0, abs=1e-9)


def test_monomial_log_growth():
    prof = oz.expected_zeros_monomial(1000)
    ratio = prof.expected_count / (2.0 / math.pi * math.log(1000.0))
    assert 1.0 <= ratio <= 1.25


def test_monomial_density_against_direct_sums():
    # independent oracle: raw kernel sums at modest degree
    n = 6
    for x in (0.3, 0.97, 1.0, 2.0):
        j = np.arange(n + 1, dtype=float)
        A = np.sum(x ** (2 * j))
        B = np.sum(j[1:] * x ** (2 * j[1:] - 1))
        C = np.sum(j[1:] ** 2 * x ** (2 * j[1:] - 2))
        direct = math.sqrt(max(A * C - B * B, 0.0)) / (math.pi * A)
        assert oz.monomial_density(x, n)[0] == pytest.approx(direct, rel=1e-11)


def test_monomial_inversion_symmetry():
    # the zero density satisfies rho(x) = rho(1/x)/x^2
    for n in (4, 25):
        for x in (1.5, 3.0, 10.0):
            lhs = oz.monomial_density(x, n)[0]
            rhs = oz.monomial_density(1.0 / x, n)[0] / x**2
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_monomial_interval_consistency():
    full = oz.expected_zeros_monomial(50).expected_count
    inner = oz.expected_zeros_monomial(50, (-1.0, 1.0)).expected_count
    # x -> 1/x symmetry puts exactly half the zeros inside [-1, 1]
    assert inner == pytest.approx(full / 2.0, abs=1e-6)


def test_scaled_expected_zeros_nested(hermite, hermite_table_101):
    tol = 1e-7
    small = oz.scaled_expected_zeros(hermite, hermite_table_101, 100,
                                     -0.3, 0.3, tol=tol)
    large = oz.scaled_expected_zeros(hermite, hermite_table_101, 100,
                                     -0.6, 0.6, tol=tol)
    assert small <= large + 2.0 * tol / 100
    with pytest.raises(DomainError):
        oz.scaled_expected_zeros(hermite, hermite_table_101, 100, -0.5, 1.5)


def test_expected_count_below_degree_cap(hermite, hermite_table_101):
    for n in (10, 60):
        edge = oz.solve_mrs(hermite, n + 1).a_n
        prof = oz.expected_zeros_full(hermite_table_101, n, tol=1e-6, edge=edge)
        assert prof.expected_count <= n
