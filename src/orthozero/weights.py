"""Exponential weights W = exp(-Q) and empirical validation of the
smooth-Freud class they are required to belong to.

A weight is described by the external field Q, its first two derivatives,
an evenness flag, and the declared limit ``alpha`` of T(t) = t Q'(t)/Q(t)
at infinity.  Membership in the admissible class is checked on a finite
grid; the report keeps every witness so failures are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError

Array = np.ndarray


@dataclass(frozen=True)
class WeightSpec:
    """W = exp(-q) with derivatives q1 = Q' and q2 = Q'' (q2 never used at 0).

    ``alpha`` is the declared limit of T at infinity, in (1, inf]; for a
    Freud weight with exponent lam it equals lam.  All callables must be
    vectorized over ndarrays.
    """

    q: Callable[[Array], Array]
    q1: Callable[[Array], Array]
    q2: Callable[[Array], Array]
    even: bool
    alpha: float
    label: str
    # content identity for the caches (the Freud parameters); None makes
    # them key on the identity of q instead
    fingerprint: tuple | None = None

    @property
    def cache_key(self):
        """Content identity for the table and grid caches (never the label)."""
        return self.q if self.fingerprint is None else self.fingerprint

    def w2(self, x):
        """The orthogonality weight W^2 = exp(-2Q)."""
        return np.exp(-2.0 * self.q(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class ClassReport:
    t_samples: tuple[tuple[float, float], ...]
    quasi_increase_constant: float
    lambda_lower: float
    growth_constant: float
    passed: bool
    violations: tuple[tuple[str, float, str], ...] = field(default_factory=tuple)


def make_freud(c: float, lam: float) -> WeightSpec:
    """Freud weight W(x) = exp(-c |x|^lam), c > 0, lam > 1.

    Q = c|x|^lam, Q' = c lam |x|^(lam-1) sgn(x), Q'' = c lam (lam-1) |x|^(lam-2),
    T identically lam.
    """
    if not 0 < c < math.inf:
        raise DomainError(f"Freud scale must be positive and finite, got {c}")
    if not 1 < lam < math.inf:
        raise DomainError(f"Freud exponent must be finite and exceed 1, got "
                          f"{lam} (the class requires T >= Lambda > 1)")

    def q(x, _c=float(c), _l=float(lam)):
        return _c * np.abs(x) ** _l

    def q1(x, _c=float(c), _l=float(lam)):
        x = np.asarray(x, dtype=float)
        return _c * _l * np.abs(x) ** (_l - 1.0) * np.sign(x)

    def q2(x, _c=float(c), _l=float(lam)):
        return _c * _l * (_l - 1.0) * np.abs(x) ** (_l - 2.0)

    label = f"freud:{format_float(c)}:{format_float(lam)}"
    return WeightSpec(q=q, q1=q1, q2=q2, even=True, alpha=float(lam), label=label,
                      fingerprint=("freud", float(c), float(lam)))


def make_custom(q, q1, q2, even: bool, alpha: float, label: str) -> WeightSpec:
    """Wrap user-supplied Q, Q', Q''.  Derivatives are trusted here and
    cross-checked against finite differences by validate_class."""
    if not alpha > 1:
        raise DomainError(f"alpha must lie in (1, inf], got {alpha}")
    return WeightSpec(q=q, q1=q1, q2=q2, even=even, alpha=float(alpha), label=label)


def format_float(v: float) -> str:
    out = f"{float(v):.12g}"
    return out


def eval_T(spec: WeightSpec, t: float) -> float:
    """T(t) = t Q'(t) / Q(t) for t != 0."""
    if t == 0:
        raise DomainError("T is undefined at t = 0")
    qt = float(spec.q(np.float64(t)))
    if qt == 0.0:
        raise DegenerateInputError(f"Q({t}) = 0, T undefined")
    return float(t * spec.q1(np.float64(t)) / qt)


def validate_class(spec: WeightSpec, grid: Sequence[float]) -> ClassReport:
    """Check the admissibility conditions empirically on a positive grid.

    Checked on the grid: Q(0) = 0, Q' non-decreasing, Q growing, T bounded
    below by some Lambda > 1, the quasi-increase constant C1 of T, and the
    growth constant C2 of Q'' Q / Q'^2.  For even weights the negative side
    is covered by symmetry (and the symmetry itself is checked).  The
    supplied q1 is also compared against a central finite difference of q.

    Violations are recorded as data; nothing raises.
    """
    g = np.asarray(sorted(float(t) for t in grid), dtype=float)
    if g.size == 0:
        raise DomainError("validation grid is empty")
    if np.any(g <= 0):
        raise DomainError("validation grid must be strictly positive")

    violations: list[tuple[str, float, str]] = []

    q0 = float(spec.q(np.float64(0.0)))
    if abs(q0) > 1e-12:
        violations.append(("q-zero-at-origin", 0.0, f"Q(0) = {q0:.3e}"))

    qg = np.asarray(spec.q(g), dtype=float)
    q1g = np.asarray(spec.q1(g), dtype=float)
    q2g = np.asarray(spec.q2(g), dtype=float)

    if np.any(qg < 0):
        t_bad = float(g[np.argmin(qg)])
        violations.append(("q-nonnegative", t_bad, f"Q({t_bad}) < 0"))

    # Q' non-decreasing along the grid (and through 0 for even weights).
    dq1 = np.diff(q1g)
    bad = np.where(dq1 < -1e-12 * np.maximum(np.abs(q1g[1:]), 1.0))[0]
    for i in bad[:4]:
        violations.append(("q1-nondecreasing", float(g[i + 1]),
                           f"Q' drops from {q1g[i]:.6g} to {q1g[i + 1]:.6g}"))

    if spec.even:
        q_neg = np.asarray(spec.q(-g), dtype=float)
        q1_neg = np.asarray(spec.q1(-g), dtype=float)
        if np.max(np.abs(q_neg - qg) / np.maximum(np.abs(qg), 1e-300)) > 1e-12:
            violations.append(("even-symmetry", float(g[0]), "Q(-x) != Q(x)"))
        if np.max(np.abs(q1_neg + q1g) / np.maximum(np.abs(q1g), 1e-300)) > 1e-12:
            violations.append(("odd-derivative", float(g[0]), "Q'(-x) != -Q'(x)"))
        if np.any(q1g * g < 0):
            t_bad = float(g[np.argmin(q1g * g)])
            violations.append(("q1-sign", t_bad, "x Q'(x) < 0"))

    if not qg[-1] > qg[0]:
        violations.append(("q-grows", float(g[-1]),
                           f"Q({g[0]}) = {qg[0]:.6g} >= Q({g[-1]}) = {qg[-1]:.6g}"))

    # finite-difference audit of the supplied derivative
    h = np.maximum(1e-6 * g, 1e-9)
    h = np.minimum(h, 0.5 * g)
    fd = (np.asarray(spec.q(g + h), dtype=float)
          - np.asarray(spec.q(g - h), dtype=float)) / (2.0 * h)
    scale = np.maximum(np.abs(q1g), np.abs(fd))
    mism = np.abs(fd - q1g) > 1e-6 * np.maximum(scale, 1e-12)
    for i in np.where(mism)[0][:4]:
        violations.append(("q1-finite-difference", float(g[i]),
                           f"supplied {q1g[i]:.9g} vs central difference {fd[i]:.9g}"))

    with np.errstate(divide="ignore", invalid="ignore"):
        T = np.where(qg > 0, g * q1g / qg, np.inf)
    finite = np.isfinite(T) & (qg > 0)
    t_samples = tuple((float(t), float(Tv)) for t, Tv in zip(g, T))

    if not np.all(finite):
        t_bad = float(g[np.argmin(finite)])
        violations.append(("T-defined", t_bad, "Q = 0 on the grid, T undefined"))
        lambda_lower = float("nan")
        c1 = float("nan")
    else:
        lambda_lower = float(np.min(T))
        if lambda_lower <= 1.0:
            t_bad = float(g[np.argmin(T)])
            violations.append(("T-lower-bound", t_bad,
                               f"min T = {lambda_lower:.6g} <= 1, no Lambda > 1"))
        # smallest C1 with T(x) <= C1 T(y) for all grid x < y
        c1 = float(np.max(np.maximum.accumulate(T) / T))

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = q2g * qg / q1g**2
    ratio = ratio[np.isfinite(ratio)]
    if ratio.size == 0 or np.any(~np.isfinite(q2g * qg / np.maximum(q1g**2, 1e-300))):
        c2 = float("inf")
        violations.append(("growth-bound", float(g[0]),
                           "Q'' Q / Q'^2 unbounded on the grid"))
    else:
        c2 = float(np.max(ratio))

    return ClassReport(
        t_samples=t_samples,
        quasi_increase_constant=c1,
        lambda_lower=lambda_lower,
        growth_constant=c2,
        passed=not violations,
        violations=tuple(violations),
    )


def parse_weight(key: str) -> WeightSpec:
    """Resolve a registry key, currently the built-in family ``freud:c:lambda``."""
    parts = key.strip().split(":")
    if parts and parts[0] == "freud" and len(parts) == 3:
        try:
            c, lam = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DomainError(f"bad freud parameters in {key!r}") from exc
        return make_freud(c, lam)
    raise DomainError(f"unknown weight key {key!r}; expected freud:c:lambda")
