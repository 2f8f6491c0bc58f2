"""Expected number of real zeros of Gaussian random polynomials.

For coefficients i.i.d. N(0, sigma^2) on a C^1 basis g_0..g_n with g_0 a
nonzero constant, the expected number of zeros in (a, b) is

    (1/pi) int_a^b sqrt(A C - B^2) / A dx,

with A = sum g_j^2, B = sum g_j g_j', C = sum (g_j')^2.  This module
evaluates that integral for the orthonormal-polynomial basis (through the
diagonal kernel sums of `orthopoly`) and for the classical monomial basis
in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .orthopoly import RecurrenceTable, kernel_triple_many
from .quadrature import adaptive_gl, check_interval
from .scaling import solve_mrs
from .weights import WeightSpec


@dataclass(frozen=True)
class ZeroDensityProfile:
    """Zero-density samples and the integrated expected count.

    `clamped_fraction` is the share of quadrature nodes where rounding made
    A C - B^2 negative before clamping; `worst_clamp` is the most negative
    value relative to A C at such nodes.  `tail_estimate` is the certified
    remainder outside the sampled core (zero unless the full-line route
    added one, in which case it is already included in expected_count and
    its quadrature error)."""

    samples_x: np.ndarray
    samples_density: np.ndarray
    expected_count: float
    quadrature_error: float
    clamped_fraction: float = 0.0
    worst_clamp: float = 0.0
    tail_estimate: float = 0.0


def kac_density(A, B, C) -> np.ndarray:
    """(1/pi) sqrt(max(AC - B^2, 0)) / A from kernel-sum mantissas.

    The per-point exponent cancels: AC - B^2 carries twice the scale of A
    and the square root restores the balance, so only mantissas enter."""
    return np.sqrt(np.maximum(A * C - B * B, 0.0)) / (np.pi * A)


class _ClampStats:
    __slots__ = ("nodes", "clamped", "worst")

    def __init__(self):
        self.nodes = 0
        self.clamped = 0
        self.worst = 0.0

    def fraction(self) -> float:
        return self.clamped / self.nodes if self.nodes else 0.0


def _density_batch(table: RecurrenceTable, n: int, stats: _ClampStats):
    def f(x):
        A, B, C, _ = kernel_triple_many(table, x, n)
        disc = A * C - B * B
        neg = disc < 0
        stats.nodes += x.size
        if np.any(neg):
            stats.clamped += int(np.sum(neg))
            ratios = disc[neg] / (A[neg] * C[neg])
            stats.worst = min(stats.worst, float(np.min(ratios)))
        return kac_density(A, B, C)
    return f


def expected_zeros(table: RecurrenceTable, n: int, interval: tuple[float, float],
                   tol: float = 1e-6, *, edge: float) -> ZeroDensityProfile:
    """Adaptive quadrature of the zero density over a finite interval.

    `edge` pre-splits the initial panels geometrically around +-edge where
    the density has its sharp shoulder: the support radius (the program
    passes a_{n+1}, or a_n for a scaled interval).  The density is even, so
    a symmetric interval (lo == -hi) is integrated on [0, hi] to tol/2 and
    doubled, and its samples are mirrored.  Each refinement wave is one
    recurrence sweep.
    """
    stats = _ClampStats()
    val, err, xs, fs = _integrate(table, n, interval, tol, edge, stats)
    return ZeroDensityProfile(
        samples_x=xs, samples_density=fs, expected_count=val,
        quadrature_error=err, clamped_fraction=stats.fraction(),
        worst_clamp=stats.worst)


def _integrate(table: RecurrenceTable, n: int, interval, tol: float,
               edge: float, stats: _ClampStats):
    """expected_zeros' (value, error, samples x, samples density), with the
    clamps of every evaluated node recorded in `stats`."""
    lo, hi = check_interval(*interval)
    shoulder = [f * edge for f in (0.85, 0.95, 0.99, 1.0, 1.01, 1.05, 1.15)]
    dens = _density_batch(table, n, stats)
    if lo == -hi:
        val, err, xs, fs = adaptive_gl(dens, 0.0, hi, tol=tol / 2, presplit=[
            *shoulder, *np.linspace(0.0, hi, 5)[1:-1]])
        return (2.0 * val, 2.0 * err, np.concatenate([-xs[::-1], xs]),
                np.concatenate([fs[::-1], fs]))
    return adaptive_gl(dens, lo, hi, tol=tol, presplit=[
        *shoulder, *(-p for p in shoulder), *np.linspace(lo, hi, 9)[1:-1]])


def expected_zeros_full(table: RecurrenceTable, n: int, tol: float = 1e-6,
                        *, edge: float) -> ZeroDensityProfile:
    """Expected count over the whole line.

    The core is integrated on [-1.5 edge, 1.5 edge], folded onto x >= 0 as
    in `expected_zeros`; the two tails are integrated exactly under u = 1/x,
    where the density is smooth and tends to a constant (it decays like
    b_n/(pi x^2), a Cauchy-type tail, so no cutoff radius can make it
    negligible by itself).  The density is even, so the two tails are one
    tail doubled.  Core and tail nodes share one clamp count.
    """
    R = 1.5 * edge
    stats = _ClampStats()
    val, err, xs, fs = _integrate(table, n, (-R, R), tol * 0.5, edge, stats)
    dens = _density_batch(table, n, stats)

    def tail(u):
        u = np.asarray(u, dtype=float)
        return 2.0 * dens(1.0 / u) / (u * u)

    tval, terr, _, _ = adaptive_gl(tail, 0.0, 1.0 / R, tol=tol * 0.5)
    return ZeroDensityProfile(
        samples_x=xs, samples_density=fs, expected_count=val + tval,
        quadrature_error=err + terr, clamped_fraction=stats.fraction(),
        worst_clamp=stats.worst, tail_estimate=tval)


def check_scaled_interval(a: float, b: float) -> None:
    """DomainError unless [a, b] is a subinterval of (-1, 1)."""
    if not -1.0 < a < b < 1.0:
        raise DomainError(f"[{a}, {b}] must be a subinterval of (-1, 1)")


def scaled_expected_zeros(spec: WeightSpec, table: RecurrenceTable, n: int,
                          a: float, b: float, tol: float = 1e-6) -> float:
    """(1/n) E[N over the expanded image of [a, b]] for [a, b] in (-1, 1).

    Counting zeros of the contracted polynomial on [a, b] is identical to
    counting zeros of the original on its expanded image, since the
    contraction is a bijection."""
    check_scaled_interval(a, b)
    info = solve_mrs(spec, n)
    prof = expected_zeros(table, n, (float(info.expand(a)), float(info.expand(b))),
                          tol=tol, edge=info.a_n)
    return prof.expected_count / n


# ---------------------------------------------------------------------------
# classical monomial basis


def _monomial_abc_direct(u: np.ndarray, n: int):
    """Direct sums of the three geometric kernels; stable for |u| near 1."""
    j = np.arange(n + 1, dtype=float)
    pw = u[:, None] ** j[None, :]  # u^j
    A = pw.sum(axis=1)
    S1 = (j[None, 1:] * pw[:, :-1]).sum(axis=1)  # sum j u^(j-1)
    C = (j[None, 1:] ** 2 * pw[:, :-1]).sum(axis=1)
    return A, S1, C


def monomial_density(x, n: int) -> np.ndarray:
    """Zero density of the Kac polynomial of degree n at x.

    Uses closed geometric-sum forms for A, B, C away from |x| = 1, direct
    series inside the degree-scaled window |x^2 - 1| < max(1e-4, 5/n), and
    the exact x -> 1/x fold for |x| > 1.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    outer = np.abs(x) > 1.0
    if np.any(outer):
        xo = x[outer]
        out[outer] = monomial_density(1.0 / xo, n) / (xo * xo)
    inner = ~outer
    if np.any(inner):
        xi = x[inner]
        u = xi * xi
        # the closed forms cancel catastrophically once u^n is not small
        # against 1/(1-u)^3, so the series window widens with the degree
        near = np.abs(u - 1.0) < max(1e-4, 5.0 / n)
        A = np.empty_like(xi)
        S1 = np.empty_like(xi)
        C = np.empty_like(xi)
        if np.any(near):
            A[near], S1[near], C[near] = _monomial_abc_direct(u[near], n)
        far = ~near
        if np.any(far):
            uf = u[far]
            d = uf - 1.0
            un = uf**n
            A[far] = (un * uf - 1.0) / d
            S1[far] = (n * un * uf - (n + 1) * un + 1.0) / (d * d)
            C[far] = (n * n * un * uf * uf
                      - (2.0 * n * n + 2.0 * n - 1.0) * un * uf
                      + (n + 1.0) ** 2 * un - uf - 1.0) / (d * d * d)
        out[inner] = kac_density(A, xi * S1, C)
    return out


def expected_zeros_monomial(n: int, interval: tuple[float, float] | None = None,
                            tol: float = 1e-8) -> ZeroDensityProfile:
    """Expected real zeros of the degree-n Kac polynomial.

    With `interval` None the full-line value is computed as four times the
    integral over [0, 1], using evenness and the exact x -> 1/x symmetry of
    the density.
    """
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    f = lambda x: monomial_density(x, n)
    if interval is None:
        val, err, xs, fs = adaptive_gl(f, 0.0, 1.0, tol=tol / 4.0,
                                       presplit=[1.0 - 2.0 / n if n > 4 else 0.5])
        return ZeroDensityProfile(
            samples_x=xs, samples_density=fs, expected_count=4.0 * val,
            quadrature_error=4.0 * err)
    lo, hi = float(interval[0]), float(interval[1])
    val, err, xs, fs = adaptive_gl(f, lo, hi, tol=tol,
                                   presplit=[-1.0, 0.0, 1.0])
    return ZeroDensityProfile(samples_x=xs, samples_density=fs,
                              expected_count=val, quadrature_error=err)
