import math

import numpy as np
import pytest

import orthozero as oz
from orthozero.errors import DegenerateInputError, DomainError

GRID = np.geomspace(0.1, 10.0, 40)


def test_freud_basic_values():
    w = oz.make_freud(1, 2)
    assert w.q(np.float64(1.0)) == 1.0
    assert w.q1(np.float64(1.0)) == 2.0
    assert w.alpha == 2.0
    assert w.even


def test_freud_T_is_exponent():
    w = oz.make_freud(1, 2)
    for t in (0.03, 0.5, 3.0, 40.0):
        assert oz.eval_T(w, t) == pytest.approx(2.0, abs=1e-14)
    w8 = oz.make_freud(1, 8)
    assert oz.eval_T(w8, 0.1) == pytest.approx(8.0, rel=1e-12)


def test_freud_half_scale():
    w = oz.make_freud(0.5, 4)
    assert w.q(np.float64(2.0)) == pytest.approx(8.0)
    assert w.q1(np.float64(2.0)) == pytest.approx(16.0)
    assert oz.eval_T(w, 2.0) == pytest.approx(4.0)


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


def test_eval_T_domain_errors(mixed24):
    with pytest.raises(DomainError):
        oz.eval_T(mixed24, 0.0)
    flat = oz.make_custom(
        q=lambda x: np.maximum(np.abs(x) - 1.0, 0.0) ** 2,
        q1=lambda x: 2.0 * np.sign(x) * np.maximum(np.abs(x) - 1.0, 0.0),
        q2=lambda x: np.where(np.abs(x) > 1.0, 2.0, 0.0),
        even=True, alpha=2.0, label="flat-core")
    with pytest.raises(DegenerateInputError):
        oz.eval_T(flat, 0.5)


def test_eval_T_mixed_weight(mixed24):
    # (2 + 4) / (1 + 1) by direct evaluation of the quotient
    assert oz.eval_T(mixed24, 1.0) == pytest.approx(3.0, rel=1e-14)


def test_validate_class_freud_passes():
    rep = oz.validate_class(oz.make_freud(1, 2), GRID)
    assert rep.passed
    assert rep.violations == ()
    assert rep.lambda_lower == pytest.approx(2.0, rel=1e-12)
    assert rep.quasi_increase_constant == pytest.approx(1.0, rel=1e-12)
    assert len(rep.t_samples) == len(GRID)


@pytest.mark.parametrize("c,lam", [(0.5, 1.5), (2.0, 3.0), (1.0, 6.0)])
def test_validate_class_freud_family(c, lam):
    rep = oz.validate_class(oz.make_freud(c, lam), np.geomspace(0.01, 100, 50))
    assert rep.passed
    assert rep.lambda_lower == pytest.approx(lam, rel=1e-10)


def test_validate_class_growth_constant_freud():
    # condition (e) for Q = c|x|^lam gives Q'' Q / Q'^2 = (lam-1)/lam exactly
    rep = oz.validate_class(oz.make_freud(2, 3), np.geomspace(0.01, 100, 50))
    assert rep.passed
    assert rep.growth_constant == pytest.approx(2.0 / 3.0, rel=0.1)
    assert rep.growth_constant == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_validate_class_rejects_slow_growth():
    w = oz.make_custom(
        q=lambda x: np.abs(x),
        q1=lambda x: np.sign(x),
        q2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        even=True, alpha=1.5, label="abs")
    rep = oz.validate_class(w, GRID)
    assert not rep.passed
    assert any(v[0] == "T-lower-bound" for v in rep.violations)
    assert rep.lambda_lower == pytest.approx(1.0)


def test_validate_class_catches_wrong_derivative():
    w = oz.make_custom(
        q=lambda x: x**2,
        q1=lambda x: 2.5 * x,  # inconsistent with q
        q2=lambda x: 2.0 + 0.0 * x,
        even=True, alpha=2.0, label="bad-q1")
    rep = oz.validate_class(w, GRID)
    assert not rep.passed
    assert any(v[0] == "q1-finite-difference" for v in rep.violations)


def test_validate_class_catches_broken_symmetry():
    w = oz.make_custom(
        q=lambda x: np.where(np.asarray(x) >= 0, x**2, 2.0 * x**2),
        q1=lambda x: np.where(np.asarray(x) >= 0, 2.0 * x, 4.0 * x),
        q2=lambda x: np.where(np.asarray(x) >= 0, 2.0, 4.0),
        even=True, alpha=2.0, label="lopsided")
    rep = oz.validate_class(w, GRID)
    assert not rep.passed
    assert any(v[0] in ("even-symmetry", "odd-derivative")
               for v in rep.violations)


def test_validate_class_mixed_weight(mixed24):
    rep = oz.validate_class(mixed24, np.geomspace(0.05, 50, 60))
    assert rep.passed
    assert rep.lambda_lower > 1.0
    # T rises from 2 toward 4, so it is genuinely increasing
    assert rep.quasi_increase_constant == pytest.approx(1.0, abs=1e-12)


def test_validate_class_empty_and_negative_grid():
    w = oz.make_freud(1, 2)
    with pytest.raises(DomainError):
        oz.validate_class(w, [])
    with pytest.raises(DomainError):
        oz.validate_class(w, [-1.0, 1.0])


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


def test_w2_is_exp_minus_2q():
    w = oz.make_freud(1, 2)
    assert w.w2(1.3) == pytest.approx(math.exp(-2.0 * 1.3**2), rel=1e-14)
