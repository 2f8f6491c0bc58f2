"""Quadrature building blocks: Chebyshev rules, the one composite
Gauss-Legendre mesh graded toward 0, refinement of a family of rules until
two passes agree, and an adaptive Gauss-Legendre panel integrator with
batched evaluation."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BudgetError, DiscretizationError, DomainError

_NEWTON_STEPS = 10  # gl_rule raises when its nodes need more


@lru_cache(maxsize=64)
def cheb_t_nodes(m: int) -> np.ndarray:
    """First-kind Chebyshev nodes cos((2k-1)pi/2m), k = 1..m."""
    x = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m))
    x.setflags(write=False)
    return x


@lru_cache(maxsize=64)
def cheb_u_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Second-kind Chebyshev rule for integrals against sqrt(1-x^2)."""
    k = np.arange(1, m + 1)
    x = np.cos(k * np.pi / (m + 1))
    w = (np.pi / (m + 1)) * np.sin(k * np.pi / (m + 1)) ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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


def refine(estimate, tol: float, passes: int, name: str):
    """Run a family of rules until two successive passes agree.

    `estimate(k)` returns pass k's value: a scalar, or an array with one
    entry per integrand, each integrated separately.  Passes k = 0, 1, ...
    stop once two successive values differ by less than tol/4 in every
    entry; the later one is returned.  DiscretizationError after `passes`
    passes.
    """
    if not tol > 0:
        raise DomainError(f"tolerance must be > 0, got {tol}")
    val = estimate(0)
    for k in range(1, passes):
        new = estimate(k)
        diff = np.max(np.abs(new - val))
        val = new
        if diff < tol / 4.0:
            return val
    raise DiscretizationError(
        f"{name} did not converge to {tol:g} within {passes} passes")


def cheb_t_integral(node_sum, tol: float):
    """Integrate f(x)/sqrt(1-x^2) over (-1, 1) on first-kind Chebyshev
    nodes, doubling from 64 to 2^21 of them (see refine).

    `node_sum` must accept a 1-D ndarray of nodes and return the sum of f
    over them.
    """
    return refine(lambda k: (np.pi / (64 << k)) * node_sum(
        cheb_t_nodes(64 << k)), tol, 16, "Chebyshev rule")


def check_interval(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) as floats; DomainError unless -inf < lo < hi < inf."""
    lo, hi = float(lo), float(hi)
    if not -np.inf < lo < hi < np.inf:
        raise DomainError(f"interval ({lo}, {hi}) must be finite and non-empty")
    return lo, hi


def adaptive_gl(f, lo: float, hi: float, tol: float, order: int = 15,
                presplit=None, max_panels: int = 20000):
    """Adaptive bisection with a fixed-order Gauss rule per panel.

    `f` is evaluated in batches (one call per refinement wave, all pending
    panel nodes concatenated; the first call also holds the initial
    panels, ahead of their halves).  A panel is accepted when the two-half
    estimate agrees with the parent estimate to its share of `tol`.

    Returns (value, err_estimate, x_samples, f_samples).
    """
    if not tol > 0:
        raise DomainError(f"tolerance must be > 0, got {tol}")
    check_interval(lo, hi)
    xg, wg = gl_rule(order)
    xs_all: list[np.ndarray] = []
    fs_all: list[np.ndarray] = []

    def panel_values(los, his):
        mid = 0.5 * (los + his)
        half = 0.5 * (his - los)
        x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        y = np.asarray(f(x), dtype=float)
        xs_all.append(x)
        fs_all.append(y)
        return (y.reshape(len(los), order) * wg).sum(1) * half

    edges = [lo, hi] if presplit is None else sorted({lo, hi, *(
        p for p in presplit if lo < p < hi)})
    los = np.array(edges[:-1])
    his = np.array(edges[1:])
    parents = None
    total = 0.0
    err = 0.0
    n_panels = los.size
    span = hi - lo
    while True:
        mids = 0.5 * (los + his)
        # both halves of every pending panel in one batch: one f call per wave
        a, b = np.concatenate([los, mids]), np.concatenate([mids, his])
        if parents is None:
            a, b = np.concatenate([los, a]), np.concatenate([his, b])
        vals = panel_values(a, b)
        if parents is None:
            parents, vals = vals[:los.size], vals[los.size:]
        left, right = np.split(vals, 2)
        errs = np.abs(left + right - parents)
        next_work = []
        for i in range(los.size):
            if errs[i] <= tol * (his[i] - los[i]) / span or (his[i] - los[i]) < 1e-14 * span:
                total += left[i] + right[i]
                err += errs[i]
            else:
                next_work.append((los[i], mids[i], left[i]))
                next_work.append((mids[i], his[i], right[i]))
        n_panels += len(next_work)
        if n_panels > max_panels:
            # salvage the current estimates so callers can report partials
            total += sum(w[2] for w in next_work)
            raise BudgetError(
                f"adaptive quadrature exceeded {max_panels} panels "
                f"(partial value {total:.6g})", partial=total, panels=n_panels)
        if not next_work:
            break
        los, his, parents = (np.array(col) for col in zip(*next_work))

    x = np.concatenate(xs_all)
    y = np.concatenate(fs_all)
    order_idx = np.argsort(x, kind="stable")
    return total, err, x[order_idx], y[order_idx]
