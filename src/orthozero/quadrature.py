"""Quadrature building blocks: the Gauss-Legendre rule, the one composite
Gauss-Legendre mesh graded toward 0, refinement of a family of rules until
two passes agree, safeguarded Newton on sign-change brackets, and an
adaptive Gauss-Legendre panel integrator with batched evaluation."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BudgetError, DiscretizationError, DomainError

_NEWTON_STEPS = 10  # gl_rule raises when its nodes need more
_ORDER = 15  # adaptive_gl's Gauss-Legendre nodes per panel
_MAX_PANELS = 20000  # adaptive_gl's panel budget


@lru_cache(maxsize=32)
def gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton on the
    Legendre recurrence in longdouble from Tricomi's guesses
    cos(pi (k - 1/4)/(order + 1/2)) for x >= 0 until every step is below
    2^-50, weights 2/((1 - x^2) P'(x)^2) at the converged nodes.  Each is
    rounded once to float64 and mirrored: the rule is exactly symmetric."""
    ld, half = np.longdouble, order // 2
    x = np.cos(ld(np.pi) * (np.arange(1, half + 1, dtype=ld) - ld(0.25))
               / (order + ld(0.5)))
    x, step = np.append(x, np.zeros(order % 2, dtype=ld)), np.inf
    for _ in range(_NEWTON_STEPS):
        p_prev, p = np.ones_like(x), x
        for j in range(1, order):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        dp = order * (p_prev - x * p) / (1 - x * x)  # P' at x
        if step <= 2.0**-50:
            break
        x, step = x - p / dp, np.max(np.abs(p / dp))
    else:
        raise DiscretizationError(f"Gauss-Legendre order {order} did not "
                                  f"converge in {_NEWTON_STEPS} Newton steps")
    x, w = x.astype(float), (2 / ((1 - x * x) * dp * dp)).astype(float)
    x = np.concatenate([-x[:half], x[half:], x[:half][::-1]])
    w = np.concatenate([w[:half], w[half:], w[:half][::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _mesh(R: float, n_target: int, order: int, grade_ratio: float,
          grade_levels: int):
    """Nodes and weights of composite Gauss-Legendre panels on [0, R],
    geometrically graded toward 0 (where Q'' may blow up): the positive half
    of a mesh on [-R, R] that is symmetric about the origin."""
    ld = np.longdouble
    xg, wg = gl_rule(order)
    xg = xg.astype(ld)
    wg = wg.astype(ld)
    n_uniform = max(8, -(-n_target // (2 * order)))
    edges = np.linspace(ld(0), ld(R), n_uniform + 1)
    first = edges[1]
    graded = [first * ld(grade_ratio) ** j for j in range(1, grade_levels)][::-1]
    edges = np.concatenate([[ld(0)], graded, edges[1:]])
    lo, hi = edges[:-1], edges[1:]
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    return ((mid[:, None] + half[:, None] * xg[None, :]).ravel(),
            (half[:, None] * wg[None, :]).ravel())


def refine(estimate, tol: float, passes: int, name: str, rel: float = 0.0):
    """Run a family of rules until two successive passes agree.

    `estimate(k)` returns pass k's value: a scalar, or an array with one
    entry per integrand, each integrated separately.  Passes k = 0, 1, ...
    stop once two successive values differ by less than
    max(tol, rel |value|)/4 in every entry; the later value is returned
    with the largest entry of that last difference.  With rel = 1 and a
    value f - target, a pass stops as soon as the sign of f - target is
    decided, or f is within tol of target.  DiscretizationError after
    `passes` passes.
    """
    if not tol > 0:
        raise DomainError(f"tolerance must be > 0, got {tol}")
    val = estimate(0)
    for k in range(1, passes):
        new = estimate(k)
        diff = np.abs(new - val)
        val = new
        if (diff < np.maximum(tol, rel * np.abs(val)) / 4.0).all():
            return val, float(diff.max())
    raise DiscretizationError(
        f"{name} did not converge to {tol:g} within {passes} passes")


def refine_roots(fdf, lo, hi, sign_lo, width: float) -> np.ndarray:
    """Safeguarded Newton (rtsafe; Press et al., Numerical Recipes 9.4) on
    arrays of sign-change brackets lo < hi, sign_lo the nonzero sign of f
    at lo; fdf(x) gives f and f' at the points x of the roots still open.

    Each root starts at its bracket's midpoint, and every evaluation keeps
    the sign change bracketed.  The next point is x - f/f' if that lies
    strictly inside the bracket and the step is under half the one before
    last, else the midpoint; once such a step is under width/2 it is the
    probe x -+ width/2 just past the Newton point, which brackets the root
    to width/2 when the step was right.  A root is done when f(x) is 0.0 or
    its bracket is at most `width`, and is returned as the Newton point of
    its smallest-|f| evaluation if that lies in the bracket, else as the
    midpoint: a bracket at most `width` wide from the start (lo = hi too)
    is its midpoint, with f never evaluated there."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x, sign_lo = 0.5 * (lo + hi), np.asarray(sign_lo, dtype=float)
    dx = np.stack([hi - lo, hi - lo])  # the last step and the one before
    fbest, est = np.full(x.shape, np.inf), x.copy()
    live = np.flatnonzero(hi - lo > width)
    while live.size:
        xs = x[live]
        f, df = (np.asarray(v, dtype=float).reshape(xs.shape) for v in fdf(xs))
        below = np.sign(f) == sign_lo[live]
        l = lo[live] = np.where(below, xs, lo[live])
        h = hi[live] = np.where(below, hi[live], xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(f == 0, 0.0, f / df)
        nx, q = xs - s, xs - np.copysign(0.5 * width, s)
        closer = np.abs(f) < fbest[live]
        fbest[live[closer]], est[live[closer]] = np.abs(f[closer]), nx[closer]
        cap = 0.5 * dx[1, live]  # under half the step before last
        newton = (l < nx) & (nx < h) & (np.abs(s) < cap)
        probe = (np.abs(s) < np.minimum(cap, 0.5 * width)) & (l < q) & (q < h)
        x[live] = np.where(probe, q, np.where(newton, nx, 0.5 * (l + h)))
        dx[:, live] = np.where(newton | probe, abs(s), (h - l) / 2), dx[0, live]
        done, e = (f == 0) | (h - l <= width), est[live]
        x[live[done]] = np.where((l <= e) & (e <= h), e, 0.5 * (l + h))[done]
        live = live[~done]
    return x


def check_interval(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) as floats; DomainError unless -inf < lo < hi < inf."""
    lo, hi = float(lo), float(hi)
    if not -np.inf < lo < hi < np.inf:
        raise DomainError(f"interval ({lo}, {hi}) must be finite and non-empty")
    return lo, hi


def _running_sum(start, v):
    """start + v[0] + v[1] + ..., added one term at a time in order (numpy's
    sum pairs terms up, which rounds differently)."""
    return np.add.accumulate(np.concatenate(([start], v)))[-1]


def adaptive_gl(f, lo: float, hi: float, tol: float, presplit=None):
    """Adaptive bisection with the _ORDER-point Gauss rule per panel.

    `f` is evaluated in batches (one call per refinement wave, all pending
    panel nodes concatenated; the first call also holds the initial
    panels, ahead of their halves).  A panel is accepted when the two-half
    estimate agrees with the parent estimate to its share of `tol`;
    accepted values and error estimates are added in panel order.  More
    than _MAX_PANELS panels raise BudgetError with the partial value.

    Returns (value, err_estimate, x_samples, f_samples).
    """
    if not tol > 0:
        raise DomainError(f"tolerance must be > 0, got {tol}")
    check_interval(lo, hi)
    xg, wg = gl_rule(_ORDER)
    edges = [lo, hi] if presplit is None else sorted({lo, hi, *(
        p for p in presplit if lo < p < hi)})
    los, his = np.array(edges[:-1]), np.array(edges[1:])
    parents, total, err, n_panels, span = None, 0.0, 0.0, los.size, hi - lo
    xs, ys = [], []
    while los.size:
        mids = 0.5 * (los + his)
        # both halves of every pending panel in one batch: one f call per wave
        a, b = np.concatenate([los, mids]), np.concatenate([mids, his])
        if parents is None:
            a, b = np.concatenate([los, a]), np.concatenate([his, b])
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append((mid[:, None] + half[:, None] * xg[None, :]).ravel())
        ys.append(np.asarray(f(xs[-1]), dtype=float))
        vals = (ys[-1].reshape(a.size, _ORDER) * wg).sum(1) * half
        if parents is None:
            parents, vals = vals[:los.size], vals[los.size:]
        left, right = np.split(vals, 2)
        errs = np.abs(left + right - parents)
        done = (errs <= tol * (his - los) / span) | (his - los < 1e-14 * span)
        total = _running_sum(total, (left + right)[done])
        err = _running_sum(err, errs[done])
        # the halves of each rejected panel, left then right, in panel order
        los, his, parents = (np.stack(p, axis=1)[~done].ravel() for p in (
            (los, mids), (mids, his), (left, right)))
        n_panels += los.size
        if n_panels > _MAX_PANELS:
            # salvage the current estimates so callers can report partials
            total += _running_sum(0.0, parents)
            raise BudgetError(
                f"adaptive quadrature exceeded {_MAX_PANELS} panels "
                f"(partial value {total:.6g})", partial=total, panels=n_panels)
    x, y = np.concatenate(xs), np.concatenate(ys)
    idx = np.argsort(x, kind="stable")
    return total, err, x[idx], y[idx]
