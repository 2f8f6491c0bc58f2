"""Property tests over parameter ranges: evenness of the zero density,
additivity of the expected count, the fold of symmetric ranges onto x >= 0,
scale invariance of the zero counter and monotonicity of the limit CDF.
Derandomized, so every run draws the same examples."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import orthozero as oz

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


@PROPERTY
@given(x=st.floats(0.0, 30.0), n=st.integers(1, 60))
def test_zero_density_is_even(hermite_table_60, x, n):
    A, B, C, _ = oz.kernel_triple_many(hermite_table_60, [x, -x], n)
    dens = oz.kac_density(A, B, C)
    assert dens[0] == dens[1]


@PROPERTY
@given(a=st.floats(-12.0, 12.0), w1=st.floats(0.05, 8.0),
       w2=st.floats(0.05, 8.0), n=st.integers(2, 60))
def test_expected_zeros_additive(hermite, hermite_table_60, a, w1, w2, n):
    tol = 1e-6
    m, b = a + w1, a + w1 + w2
    edge = oz.solve_mrs(hermite, n + 1).a_n
    whole, left, right = (oz.expected_zeros(hermite_table_60, n, iv, tol=tol,
                                            edge=edge)
                          for iv in ((a, b), (a, m), (m, b)))
    gap = abs(whole.expected_count - left.expected_count
              - right.expected_count)
    assert gap <= (whole.quadrature_error + left.quadrature_error
                   + right.quadrature_error + 3.0 * tol)


@PROPERTY
@given(h=st.floats(0.05, 20.0), n=st.integers(1, 60))
def test_symmetric_range_folds_onto_half_line(hermite, hermite_table_60, h, n):
    tol = 1e-6
    edge = oz.solve_mrs(hermite, n + 1).a_n
    whole = oz.expected_zeros(hermite_table_60, n, (-h, h), tol=tol, edge=edge)
    assert np.array_equal(whole.samples_x, -whole.samples_x[::-1])
    assert np.array_equal(whole.samples_density, whole.samples_density[::-1])
    # the halves take the unfolded path: neither range is symmetric
    left, right = (oz.expected_zeros(hermite_table_60, n, iv, tol=tol,
                                     edge=edge)
                   for iv in ((-h, 0.0), (0.0, h)))
    gap = abs(whole.expected_count - left.expected_count
              - right.expected_count)
    assert gap <= (whole.quadrature_error + left.quadrature_error
                   + right.quadrature_error + 3.0 * tol)
    assert 0.0 <= whole.clamped_fraction <= 1.0


@PROPERTY
@given(trial=st.integers(0, 10**6), k=st.integers(-30, 30),
       sign=st.sampled_from([-1.0, 1.0]))
def test_count_invariant_under_binary_scale(hermite, hermite_table_60, trial,
                                            k, sign):
    # a power of two and a sign pass exactly through every float operation
    c = oz.sample_coeffs(oz.CoeffDist("gaussian"), 3, trial, 30)
    base = oz.count_real_zeros(hermite, hermite_table_60, c)
    scaled = oz.count_real_zeros(hermite, hermite_table_60,
                                 sign * math.ldexp(1.0, k) * c)
    assert scaled.count == base.count
    assert np.array_equal(scaled.zeros, base.zeros)


@PROPERTY
@given(alpha=st.one_of(st.floats(1.05, 12.0), st.just(math.inf)),
       xs=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=40))
def test_ullman_cdf_monotone_in_unit_interval(alpha, xs):
    F = oz.ullman_cdf_many(alpha, np.sort(xs))
    assert np.all((F >= 0.0) & (F <= 1.0))
    # rounding jitter of the limit-law rule is about 1e-16
    assert np.all(np.diff(F) >= -1e-15)
