"""Quadrature building blocks: Chebyshev rules with node doubling and an
adaptive Gauss-Legendre panel integrator with batched evaluation."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import BudgetError, DiscretizationError, DomainError


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
    x, w = roots_legendre(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def cheb_t_integral(f, tol: float, m0: int = 32, m_cap: int = 1 << 21):
    """Integrate f(x)/sqrt(1-x^2) over (-1, 1) by node doubling.

    `f` must accept a 1-D ndarray of nodes and may return an array whose
    last axis runs over them: each leading entry is integrated separately.
    Doubling stops once two successive rule evaluations differ by less than
    tol/4 in every entry, following the convention that the returned error
    estimate is the last (largest) inter-rule difference.

    Returns (value, err_estimate, m_used).
    """
    m = m0
    val = (np.pi / m) * np.sum(f(cheb_t_nodes(m)), axis=-1)
    while m < m_cap:
        m *= 2
        new = (np.pi / m) * np.sum(f(cheb_t_nodes(m)), axis=-1)
        diff = np.max(np.abs(new - val))
        val = new
        if diff < tol / 4.0:
            return val, diff, m
    raise DiscretizationError(
        f"Chebyshev rule did not converge to {tol:g} within {m_cap} nodes"
    )


def adaptive_gl(f, lo: float, hi: float, tol: float, order: int = 15,
                presplit=None, max_panels: int = 20000):
    """Adaptive bisection with a fixed-order Gauss rule per panel.

    `f` is evaluated in batches (one call per refinement wave, all pending
    panel nodes concatenated).  A panel is accepted when the two-half
    estimate agrees with the parent estimate to its share of `tol`.

    Returns (value, err_estimate, x_samples, f_samples).
    """
    if not hi > lo:
        raise DomainError(f"empty interval ({lo}, {hi})")
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
    work = list(zip(los, his, panel_values(los, his)))
    total = 0.0
    err = 0.0
    n_panels = len(work)
    span = hi - lo
    while work:
        los, his, parents = (np.array(col) for col in zip(*work))
        mids = 0.5 * (los + his)
        # both halves of every pending panel in one batch: one f call per wave
        left, right = np.split(panel_values(np.concatenate([los, mids]),
                                            np.concatenate([mids, his])), 2)
        errs = np.abs(left + right - parents)
        next_work = []
        for i in range(len(work)):
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
        work = next_work

    x = np.concatenate(xs_all)
    y = np.concatenate(fs_all)
    order_idx = np.argsort(x, kind="stable")
    return total, err, x[order_idx], y[order_idx]
