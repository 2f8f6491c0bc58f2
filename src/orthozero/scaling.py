"""Scaling data for exponential weights: the degree-n support radius, the
contraction map onto [-1, 1], the equilibrium density and its unit-mass
normalization, and the limiting densities (power-law family and arcsine).

For an even external field Q the radius a_n solves

    (2/pi) int_0^1 a_n t Q'(a_n t) / sqrt(1 - t^2) dt = n,

whose left side is strictly increasing in a_n, so the root is unique.  The
equilibrium density on (-a_n, a_n) is

    sigma_n(x) = sqrt(a_n^2 - x^2) / pi^2
                 * int (Q'(s) - Q'(x)) / (s - x) ds / sqrt(a_n^2 - s^2),

with total mass n; its contraction sigma_n*(s) = (a_n/n) sigma_n(a_n s) has
unit mass on [-1, 1].

All of these integrals run on one rule, the phi-rule: with t = sin(phi)
each becomes an integral over phi in [0, pi/2] with s = a_n t, which takes
away the inverse square roots and puts the cusp of Q' at 0 (Freud
exponents below 2) at phi = 0.  Pass k of the rule (_phi_rule) is
composite Gauss-Legendre of order _DD_ORDER on 8 2^k uniform panels and
8 2^k panels halving toward phi = 0.  Every integral takes passes until two
agree (quadrature.refine), at most _DD_PASSES of them; an evaluation of
the radius equation's defect stops as soon as its last pass difference
decides the defect's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BracketError,
    DomainError,
    NonEvenWeightError,
    SingularityError,
)
from .quadrature import _mesh, gl_rule, refine, refine_roots
from .weights import WeightSpec

# separation, relative to |x|, below which the divided difference of Q' is
# replaced by the midpoint second derivative (removable singularity)
_DD_GUARD = 1e-6
# Gauss-Legendre order of the phi-rule, and the pass cap of every integral
# on it
_DD_ORDER = 8
_DD_PASSES = 7
# bytes that one row block of the divided-difference integrand may take
_DD_BYTES = 64_000_000
# relative shrink of the support at each end for the uniform kernel window
_J_EPS = 0.05
# Gauss-Legendre order of the limit-law rule (_ullman_rule), and the points
# it takes at a time: its nodes take about 8 KB a point
_ULLMAN_ORDER = 10
_ULLMAN_ROWS = 2048


@dataclass(frozen=True)
class ScalingInfo:
    """Support radius for one degree; `expand` maps [-1, 1] onto the
    support, undoing the contraction x -> x / a_n.

    Only even Q is supported, so the support is [-a_n, a_n].
    ``residual`` is the defect of the defining equation at the returned
    radius.
    """

    n: int
    a_n: float
    residual: float

    def expand(self, s):
        return self.a_n * np.asarray(s, dtype=float)

    def j_interval(self) -> tuple[float, float]:
        """The support shrunk by _J_EPS a_n at each end, where the kernel
        asymptotics are uniform."""
        lo, hi = -self.a_n, self.a_n
        return (lo + _J_EPS * self.a_n, hi - _J_EPS * self.a_n)


@lru_cache(maxsize=_DD_PASSES)
def _phi_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pass k of the phi-rule on [0, pi/2]: t = sin(phi) and the weights,
    as read-only float arrays.  Pass k halves every uniform panel of pass
    k - 1 and keeps its graded panels, reaching 8 2^(k-1) + 1 halvings
    deeper toward phi = 0."""
    phi, w = _mesh(math.pi / 2, (16 * _DD_ORDER) << k, order=_DD_ORDER,
                   grade_ratio=0.5, grade_levels=8 << k)
    t, w = np.sin(phi).astype(float), w.astype(float)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _mrs_defect(spec: WeightSpec, a: float, n: int, tol: float) -> np.ndarray:
    """(I(a) - n, I'(a)), I(a) the left side of the radius equation as
    (2/pi) int_0^{pi/2} a t Q'(a t) dphi on the phi-rule and I'(a) from
    d/da [a t Q'(a t)] = t Q'(a t) + a t^2 Q''(a t) on the same pass.  The
    passes stop once the defects agree to max(tol, |I - n|)/4: far from
    the root, as soon as the sign of I - n is decided; the slope only
    sizes Newton steps and needs no tolerance of its own."""
    def estimate(k):
        t, w = _phi_rule(k)
        s = a * t
        q1, q2 = (np.asarray(q(s), dtype=float) for q in (spec.q1, spec.q2))
        return 2.0 / math.pi * np.array([float((w * s * q1).sum()), float(
            (w * t * (q1 + s * q2)).sum())]) - (n, 0.0)

    return refine(estimate, tol, _DD_PASSES, "radius equation", rel=1.0)[0]


def solve_mrs(spec: WeightSpec, n: int) -> ScalingInfo:
    """Solve for the radius a_n of an even weight: bracket by doubling (or
    halving) from a = 1, then safeguarded Newton (quadrature.refine_roots)
    on _mrs_defect to relative width 1e-13.  Each evaluation takes phi-rule
    passes until two agree to 1e-10 n (the equation's own scale; float
    evaluation noise alone is ~1e-13 n) or decide the defect's sign; the
    defect left at the returned radius is ScalingInfo.residual."""
    if not spec.even:
        raise NonEvenWeightError(
            f"{spec.label}: the radius equation is implemented for even Q only")
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")

    itol = 1e-10 * max(1.0, n)
    step, a = (2.0 if _mrs_defect(spec, 1.0, n, itol)[0] < 0 else 0.5), 1.0
    for _ in range(200):
        if (_mrs_defect(spec, a * step, n, itol)[0] < 0) != (step > 1):
            break
        a *= step
    else:
        raise BracketError(f"could not bracket n = {n}")
    lo, hi = sorted((a, a * step))
    a = float(refine_roots(lambda x: np.transpose([_mrs_defect(
        spec, v, n, itol) for v in x]), [lo], [hi], [-1.0], 1e-13 * hi)[0])
    return ScalingInfo(n=n, a_n=a, residual=_mrs_defect(spec, a, n, itol)[0])


def _divided_difference(spec: WeightSpec, s, x):
    """(Q'(s) - Q'(x))/(s - x) with the removable singularity patched by the
    midpoint second derivative when |s - x| < _DD_GUARD |x|: a band relative
    to x, since for lam < 2 Q'' is unbounded at 0, where no band of fixed
    width may stand in for the divided difference."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    den = s - x
    near = np.abs(den) < _DD_GUARD * np.abs(x)
    dd = (np.asarray(spec.q1(s), dtype=float)
          - np.asarray(spec.q1(x), dtype=float)) / np.where(near, 1.0, den)
    if np.any(near):
        s, x = np.broadcast_arrays(s, x)
        dd[near] = np.asarray(spec.q2(0.5 * (s[near] + x[near])), dtype=float)
    return dd


def equilibrium_density_many(spec: WeightSpec, info: ScalingInfo, x,
                             tol: float = 1e-8) -> np.ndarray:
    """sigma_n, in the shape of x, at points strictly inside the support.

    With s = a_n cos(theta) the integral of sigma_n is int_0^pi DQ dtheta,
    DQ the divided difference of Q'; theta = pi/2 -+ phi folds it onto
    phi in [0, pi/2], s = +-a_n sin(phi), both halves on the phi-rule.  The
    passes stop when the integral agrees to tol/4 at every point (see
    refine).
    """
    x = np.asarray(x, dtype=float)
    a = info.a_n
    if np.any(np.abs(x) >= a):
        raise DomainError("equilibrium density needs |x| < a_n")

    def estimate(k):
        t, w = _phi_rule(k)
        s, w = np.concatenate([-a * t, a * t])[None, :], np.tile(w, 2)
        # rows in blocks: about eight float64 (rows, nodes) temporaries of
        # the integrand are alive at once
        rows = max(1, _DD_BYTES // (8 * 8 * w.size))
        return np.concatenate([np.sum(_divided_difference(
            spec, s, x.ravel()[r:r + rows, None]) * w, axis=-1)
            for r in range(0, x.size, rows)]).reshape(x.shape)

    I = refine(estimate, tol, _DD_PASSES, "graded equilibrium rule")[0]
    return np.sqrt(np.maximum(a * a - x * x, 0.0)) / np.pi**2 * I


def normalized_density_many(spec: WeightSpec, info: ScalingInfo, s,
                            tol: float = 1e-8) -> np.ndarray:
    """sigma_n*(s) = (a_n/n) sigma_n(a_n s) for |s| < 1, shaped like s."""
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) >= 1.0):
        raise DomainError("normalized density needs |s| < 1")
    inner_tol = tol * info.n / info.a_n
    return (info.a_n / info.n) * equilibrium_density_many(
        spec, info, info.expand(s), tol=inner_tol)


def sigma_mass(spec: WeightSpec, info: ScalingInfo,
               tol: float = 1e-8) -> tuple[float, float]:
    """The mass of sigma_n, n in theory, as 2 a_n int_0^{pi/2}
    sigma_n(a_n t) cos(phi) dphi on the phi-rule (t = sin(phi)), each
    sigma_n value to `tol`, and its error estimate.  Passes are taken
    until two agree to tol/4; the estimate is that last pass difference."""
    a = info.a_n

    def mass(k):
        t, w = _phi_rule(k)
        vals = equilibrium_density_many(spec, info, a * t, tol=tol)
        return 2.0 * a * float((w * vals * np.sqrt((1.0 - t) * (1.0 + t))).sum())

    return refine(mass, tol, _DD_PASSES, "equilibrium mass")


# ---------------------------------------------------------------------------
# limiting densities


def freud_constants(alpha: float) -> tuple[float, float]:
    """(gamma_alpha, B_alpha) for the standard Freud normalization.

    gamma_alpha = int_0^1 t^(alpha-1)/sqrt(1-t^2) dt
                = sqrt(pi) Gamma(alpha/2) / (2 Gamma((alpha+1)/2)),
    B_alpha     = (2/pi) int_0^1 t^alpha/sqrt(1-t^2) dt
                = Gamma((alpha+1)/2) / (sqrt(pi) Gamma(alpha/2 + 1)),

    each from a difference of log-Gamma values, which stays finite where
    Gamma itself overflows (alpha above ~341).
    """
    if not 0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    h = alpha / 2.0
    g = 0.5 * math.sqrt(math.pi) * math.exp(math.lgamma(h) - math.lgamma(h + 0.5))
    b = math.exp(math.lgamma(h + 0.5) - math.lgamma(h + 1.0)) / math.sqrt(math.pi)
    return g, b


def _ullman_rule(alpha: float, y: np.ndarray) -> np.ndarray:
    """(alpha/pi) int_y^1 t^(alpha-1) w dt, stacked for w = 1/sqrt(t^2-y^2)
    (the density) and w = arcsin(y/t) (the mass of [0, y] less y^alpha/2),
    in the shape of y and 0 outside 0 < y < 1, for finite alpha > 1.

    t = y cosh(S - r), y cosh S = 1, makes both integrands smooth in r on
    [0, S]: with c = sqrt(1-y^2) and q = e^(r-S), t = (1+c) e^-r (1+q^2)/2,
    -dt/dr = sqrt(t^2-y^2) = (1+c) e^-r (1-q^2)/2, arcsin(y/t) = 2 arctan q.
    Gauss-Legendre panels lie between min(w0 2^k, S), w0 = min(1, 4/(a-1))
    with a = alpha, after the decay of t^(alpha-1) from r = 0, and
    max(S - 2^k, 0), after its branch points at r = S +- i pi/2.  Padding
    the edges to the largest S adds zero-width panels at 0 and S only, and
    panels are added in ascending r: each y gets the bits it gets alone.
    """
    if y.size > _ULLMAN_ROWS:
        return np.concatenate([_ullman_rule(alpha, b) for b in np.array_split(
            y.ravel(), -(-y.size // _ULLMAN_ROWS))], axis=1).reshape(2, *y.shape)
    inner = (y > 0.0) & (y < 1.0)
    out, y = np.zeros((2, *y.shape)), y[inner]
    c = np.sqrt((1.0 - y) * (1.0 + y))
    S = (np.log1p(c) - np.log(y))[:, None]
    w0, top = min(1.0, 4.0 / (alpha - 1.0)), float(S.max(initial=1.0))
    edges = np.sort(np.concatenate([np.zeros_like(S), S,
        np.minimum(w0 * 2.0 ** np.arange(math.ceil(math.log2(top / w0)) + 1), S),
        np.maximum(S - 2.0 ** np.arange(math.ceil(math.log2(top)) + 1), 0.0)],
        axis=1), axis=1)
    xg, wg = gl_rule(_ULLMAN_ORDER)
    half = 0.5 * np.diff(edges, axis=1)
    r = (edges[:, :-1] + half)[:, :, None] + half[:, :, None] * xg
    q = np.exp(r - S[:, :, None])
    # log((1+c) e^-r / 2), with (1+c)/2 = 1 - y^2/(2(1+c))
    lr = np.log1p(-0.5 * (y * y / (1.0 + c)))[:, None, None] - r
    t_pow = np.exp((alpha - 1.0) * (lr + np.log1p(q * q)))
    mass = t_pow * np.exp(lr) * (1.0 - q) * (1.0 + q) * 2.0 * np.arctan(q)
    out[:, inner] = alpha / math.pi * np.add.accumulate(half * np.stack(
        [(f * wg).sum(axis=-1) for f in (t_pow, mass)]), axis=2)[..., -1]
    return out


def ullman_density(alpha: float, x) -> np.ndarray:
    """Limit density on [-1, 1] in the shape of x, on _ullman_rule:
    alpha/(pi (alpha-1)) at x = 0, arcsine 1/(pi sqrt(1-x^2)) for
    alpha = inf.  Against a 40-digit mpmath density at 84 |x| in
    [1e-12, 0.999999] the relative error is at most 2.3e-15 for
    alpha <= 40, 6.1e-14 at alpha = 1000 and 5.9e-12 at alpha = 1e5."""
    if not alpha > 1:
        raise DomainError(f"alpha must lie in (1, inf], got {alpha}")
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    if not np.all(y <= 1.0):
        raise DomainError(f"|x| must be <= 1, got {x[~(y <= 1.0)][0]}")
    if alpha == math.inf:
        if np.any(y == 1.0):
            raise SingularityError("arcsine density diverges at |x| = 1")
        return 1.0 / (math.pi * np.sqrt(1.0 - x * x))
    return np.where(y == 0.0, alpha / math.pi / (alpha - 1.0),
                    _ullman_rule(alpha, y)[0])


def ullman_cdf_many(alpha: float, xs) -> np.ndarray:
    """Limit CDF in the shape of xs (used by the KS statistic), on
    _ullman_rule.  Against a 30-digit mpmath CDF at 84 |x| in
    [1e-12, 0.999999] the absolute error is at most 6.7e-16 for
    alpha <= 40, 2.2e-14 at alpha = 1000 and 2.1e-12 at alpha = 1e5."""
    if not alpha > 1:
        raise DomainError(f"alpha must lie in (1, inf], got {alpha}")
    xs = np.asarray(xs, dtype=float)
    if alpha == math.inf:
        return (np.arcsin(np.clip(xs, -1.0, 1.0)) + np.pi / 2.0) / np.pi
    y = np.minimum(np.abs(xs), 1.0)
    return 0.5 + np.sign(xs) * (0.5 * y**alpha + _ullman_rule(alpha, y)[1])
