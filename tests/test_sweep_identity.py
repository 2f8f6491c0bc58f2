"""Bit-identity of the recurrence sweep and its reductions against a
reference: the earlier mask-based loop, kept here and only here.

The reference divides the rescaled points by 2^256 through boolean masks;
the package multiplies dense per-point factors of 1 or 2^-256 into stacked
state.  Both round the same exact products, so every mantissa, sum and
exponent must agree bit for bit, on points from 0 to 10^4 a_n where a
rescale fires at almost every step.
"""

import numpy as np
import pytest

import orthozero as oz
from orthozero import orthopoly

_TRIG = 2.0**250
_SCALE = 2.0**256


def _ref_sweep(table, x, n, derivs, force_rescale_at=None):
    off = table.off_diag
    expo = np.zeros(x.size, dtype=np.int64)
    p_prev = np.zeros(x.size)
    p_cur = np.full(x.size, table.gamma0)
    d_prev = np.zeros(x.size) if derivs else None
    d_cur = np.zeros(x.size) if derivs else None
    d_next = None
    yield p_cur, d_cur, None, expo
    for k in range(1, n + 1):
        bk = off[k - 1]
        bkm = off[k - 2] if k >= 2 else 0.0
        p_next = (x * p_cur - bkm * p_prev) / bk
        big = np.abs(p_next) > _TRIG
        if derivs:
            d_next = (x * d_cur + p_cur - bkm * d_prev) / bk
            big |= np.abs(d_next) > _TRIG
        if k == force_rescale_at:
            big[:] = True
        if big.any():
            p_next[big] /= _SCALE
            p_cur[big] /= _SCALE
            if derivs:
                d_next[big] /= _SCALE
                d_cur[big] /= _SCALE
            expo[big] += 256
        else:
            big = None
        yield p_next, d_next, big, expo
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next


def _ref_kernel_triple(table, x, n, force_rescale_at=None):
    A, B, C = (np.zeros(x.size) for _ in range(3))
    for p, d, big, expo in _ref_sweep(table, x, n, True, force_rescale_at):
        if big is not None:
            A[big] /= _SCALE**2
            B[big] /= _SCALE**2
            C[big] /= _SCALE**2
        A += p * p
        B += p * d
        C += d * d
    return A, B, C, 2 * expo


def _ref_poly_matrix(table, x, n, derivs):
    P = np.empty((n + 1, x.size))
    D = np.empty((n + 1, x.size)) if derivs else None
    for k, (p, d, big, expo) in enumerate(_ref_sweep(table, x, n, derivs)):
        if big is not None:
            P[:k, big] /= _SCALE
            if derivs:
                D[:k, big] /= _SCALE
        P[k] = p
        if derivs:
            D[k] = d
    return P, D, expo


def _ref_combo_values(table, Ct, x, n, derivs):
    S = np.zeros(x.size)
    Sd = np.zeros(x.size) if derivs else None
    for k, (p, d, big, expo) in enumerate(_ref_sweep(table, x, n, derivs)):
        if big is not None:
            S[big] /= _SCALE
            if derivs:
                Sd[big] /= _SCALE
        S += Ct[k] * p
        if derivs:
            Sd += Ct[k] * d
    return S, Sd, expo


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_NS = (0, 1, 2, 60, 500)
_WEIGHTS = (("freud:0.5:2", 1001), ("freud:1:4", 501))


@pytest.fixture(scope="module", params=_WEIGHTS, ids=lambda w: w[0])
def case(request):
    key, n_max = request.param
    spec = oz.parse_weight(key)
    return oz.get_table(spec, n_max), spec


def _points(spec, n):
    a = oz.solve_mrs(spec, max(n, 1)).a_n
    far = np.geomspace(1e-3, 1e4, 160) * a
    near = np.linspace(0.0, 1.2, 41) * a
    return np.concatenate([[0.0, -0.0], far, -far[::3], near, -near[1::2]])


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("derivs", [False, True])
@pytest.mark.parametrize("force", [None, 1, "mid", "last"])
def test_sweep_steps_match_reference(case, n, derivs, force, monkeypatch):
    table, spec = case
    x = _points(spec, n)
    at = {"mid": n // 2, "last": n}.get(force, force)
    monkeypatch.setattr(orthopoly, "_FORCE_RESCALE_AT", at)
    new = orthopoly._sweep(table, x, n, derivs)
    for k, (ref, got) in enumerate(zip(_ref_sweep(table, x, n, derivs, at),
                                       new)):
        p, d, big, expo = ref
        pd, factor, e = got
        assert _same_bits(pd[0], p), k
        assert _same_bits(pd[1] if derivs else None, d), k
        assert _same_bits(e, expo), k
        if big is None:
            assert factor is None, k
        else:
            assert _same_bits(factor, np.where(big, 2.0**-256, 1.0)), k


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("force", [None, 1, "mid", "last"])
def test_kernel_triple_matches_reference(case, n, force, monkeypatch):
    table, spec = case
    x = _points(spec, n)
    at = {"mid": n // 2, "last": n}.get(force, force)
    monkeypatch.setattr(orthopoly, "_FORCE_RESCALE_AT", at)
    got = oz.kernel_triple_many(table, x, n)
    ref = _ref_kernel_triple(table, x, n, at)
    assert all(_same_bits(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("derivs", [False, True])
def test_poly_matrix_matches_reference(case, n, derivs):
    table, spec = case
    x = _points(spec, n)
    got = oz.poly_matrix(table, x, n, derivs=derivs)
    ref = _ref_poly_matrix(table, x, n, derivs)
    assert all(_same_bits(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("derivs", [False, True])
def test_combo_values_match_reference(case, n, derivs):
    # one row over every point, one row per point, and three rows of
    # many points each; the reference takes one coefficient per point.
    # combo_values always carries derivatives; at these points the
    # values-only reference rescales at the same degrees, so it has the
    # same values and exponents bit for bit too
    table, spec = case
    x = _points(spec, n)
    rng = np.random.default_rng(n)
    for pts in (x[None, :], x[:, None], np.stack([x, x[::-1], -x])):
        C = rng.standard_normal((pts.shape[0], n + 1))
        got = orthopoly.combo_values(table, C, pts)
        Ct = np.repeat(C, pts.shape[1], axis=0).T
        ref = _ref_combo_values(table, Ct, pts.ravel(), n, derivs)
        assert all(r is None or _same_bits(g.ravel(), r)
                   for g, r in zip(got, ref))
        assert all(g.shape == pts.shape for g in got)


@pytest.mark.parametrize("derivs", [False, True])
@np.errstate(invalid="ignore")
def test_nonfinite_points_match_reference(case, derivs):
    # a NaN among the points must not keep the others from rescaling
    table, spec = case
    x = np.concatenate([_points(spec, 60), [np.nan, np.inf, -np.inf]])
    for ref, got in zip(_ref_sweep(table, x, 60, derivs),
                        orthopoly._sweep(table, x, 60, derivs)):
        assert _same_bits(got[0][0], ref[0])
        assert _same_bits(got[2], ref[3])
    got = oz.poly_matrix(table, x, 60, derivs=derivs)
    assert all(_same_bits(g, r) for g, r in
               zip(got, _ref_poly_matrix(table, x, 60, derivs)))


def test_empty_points(case):
    table, _ = case
    x = np.zeros(0)
    got = oz.kernel_triple_many(table, x, 60)
    assert all(_same_bits(g, r) for g, r in
               zip(got, _ref_kernel_triple(table, x, 60)))
    got = oz.poly_matrix(table, x, 60, derivs=True)
    assert all(_same_bits(g, r) for g, r in
               zip(got, _ref_poly_matrix(table, x, 60, True)))
