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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    DomainError,
    NonEvenWeightError,
    SingularityError,
)
from .quadrature import (
    adaptive_gl,
    cheb_t_integral,
    cheb_t_nodes,
    cheb_u_rule,
    gl_rule,
)
from .weights import WeightSpec

# relative node separation below which the divided difference of Q' is
# replaced by the midpoint second derivative (removable singularity)
_DD_GUARD = 1e-6
# bytes that one row block of the divided-difference integrand may take
_DD_BYTES = 64_000_000
# relative shrink of the support at each end for the uniform kernel window
_J_EPS = 0.05


@dataclass(frozen=True)
class ScalingInfo:
    """Support radius and contraction map for one degree.

    Only even Q is supported, so the support is [-a_n, a_n].
    ``residual`` is the defect of the defining equation at the returned
    radius.
    """

    n: int
    a_n: float
    residual: float

    def contract(self, x):
        return np.asarray(x, dtype=float) / self.a_n

    def expand(self, s):
        return self.a_n * np.asarray(s, dtype=float)

    def interval(self) -> tuple[float, float]:
        return (-self.a_n, self.a_n)

    def j_interval(self) -> tuple[float, float]:
        """The support shrunk by _J_EPS a_n at each end, where the kernel
        asymptotics are uniform."""
        lo, hi = self.interval()
        return (lo + _J_EPS * self.a_n, hi - _J_EPS * self.a_n)

    def rho(self, x):
        """Square-root edge factor sqrt((x + a_n)(a_n - x)) on the support."""
        lo, hi = self.interval()
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.maximum((x - lo) * (hi - x), 0.0))


def _mrs_integral(spec: WeightSpec, a: float, tol: float) -> float:
    """(2/pi) int_0^1 a t Q'(a t)/sqrt(1-t^2) dt, by first-kind Chebyshev
    nodes on the even extension, doubling until stable."""
    def h(t):
        t = np.abs(t)
        return a * t * np.asarray(spec.q1(a * t), dtype=float)

    val, _, _ = cheb_t_integral(lambda t: np.sum(h(t)), tol * math.pi, m0=64)
    return val / math.pi


def solve_mrs(spec: WeightSpec, n: int) -> ScalingInfo:
    """Solve for the radius a_n of an even weight.

    Brackets by doubling from a = 1, bisects to relative width 1e-13, then
    tries one Newton polish using the differentiated integrand, kept only
    when it leaves the defect no larger than at the midpoint.  Each
    evaluation of the left side converges to 1e-10 n (the equation's own
    scale; float evaluation noise alone is ~1e-13 n); the defect actually
    left at the returned radius is ScalingInfo.residual.
    """
    if not spec.even:
        raise NonEvenWeightError(
            f"{spec.label}: the radius equation is implemented for even Q only")
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")

    itol = 1e-10 * max(1.0, n)

    def obj(a: float) -> float:
        return _mrs_integral(spec, a, itol)

    lo, hi = 1.0, 1.0
    for _ in range(200):
        if obj(hi) >= n:
            break
        hi *= 2.0
    else:
        raise BracketError(f"could not bracket n = {n} from above")
    for _ in range(200):
        if obj(lo) <= n:
            break
        lo /= 2.0
    else:
        raise BracketError(f"could not bracket n = {n} from below")

    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if obj(mid) < n:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    residual = obj(a) - n

    # Newton polish: d/da [a t Q'(a t)] = t Q'(a t) + a t^2 Q''(a t)
    m = 4096
    t = np.abs(cheb_t_nodes(m))
    deriv = float(np.mean(np.asarray(spec.q1(a * t), dtype=float) * t
                          + a * t * t * np.asarray(spec.q2(a * t), dtype=float)))
    if deriv > 0:
        step = residual / deriv
        if abs(step) < 0.1 * a:
            polished = obj(a - step) - n
            if abs(polished) <= abs(residual):
                a, residual = a - step, polished

    return ScalingInfo(n=n, a_n=a, residual=residual)


def _divided_difference(spec: WeightSpec, s, x, scale: float):
    """(Q'(s) - Q'(x))/(s - x) with the removable singularity patched by the
    midpoint second derivative when |s - x| < _DD_GUARD * scale."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    den = s - x
    near = np.abs(den) < _DD_GUARD * scale
    safe = np.where(near, 1.0, den)
    dd = (np.asarray(spec.q1(s), dtype=float)
          - np.asarray(spec.q1(x), dtype=float)) / safe
    if np.any(near):
        mid = 0.5 * (s + x)
        dd = np.where(near, np.asarray(spec.q2(mid), dtype=float), dd)
    return dd


def equilibrium_density_many(spec: WeightSpec, info: ScalingInfo, x,
                             tol: float = 1e-8) -> np.ndarray:
    """sigma_n at an array of points strictly inside the support."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = info.a_n
    if np.any(np.abs(x) >= a):
        raise DomainError("equilibrium density needs |x| < a_n")

    def row_sums(u):
        # rows in blocks: about eight float64 (rows, nodes) temporaries of
        # the integrand are alive at once
        rows = max(1, _DD_BYTES // (8 * 8 * u.size))
        return np.concatenate([np.sum(_divided_difference(
            spec, a * u[None, :], x[r:r + rows, None], a), axis=-1)
            for r in range(0, x.size, rows)])

    I, _, _ = cheb_t_integral(row_sums, tol, m0=256, m_cap=1 << 19)
    return np.sqrt(np.maximum(a * a - x * x, 0.0)) / np.pi**2 * I


def normalized_density_many(spec: WeightSpec, info: ScalingInfo, s,
                            tol: float = 1e-8) -> np.ndarray:
    """sigma_n*(s) = (a_n/n) sigma_n(a_n s) for |s| < 1."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(np.abs(s) >= 1.0):
        raise DomainError("normalized density needs |s| < 1")
    inner_tol = tol * info.n / info.a_n
    return (info.a_n / info.n) * equilibrium_density_many(
        spec, info, info.expand(s), tol=inner_tol)


@dataclass(frozen=True)
class DensityCurve:
    """A sampled density with its quadrature mass and error estimate."""

    x: np.ndarray
    values: np.ndarray
    mass: float
    err_estimate: float
    target_mass: float


_CURVE_NODES = 512  # Chebyshev nodes of a sampled density curve


def sigma_curve(spec: WeightSpec, info: ScalingInfo,
                tol: float = 1e-8) -> DensityCurve:
    """sigma_n sampled on second-kind Chebyshev nodes of the support; the
    rule with weight sqrt(1-v^2) integrates the edge factor exactly."""
    v, w = cheb_u_rule(_CURVE_NODES)
    x = info.expand(v)
    a = info.a_n
    vals = equilibrium_density_many(spec, info, x, tol=tol)
    # sigma_n(x) = sqrt(a^2-x^2) g(x); mass = a^2 sum w g(a v)
    g = vals / np.maximum(info.rho(x), 1e-300)
    mass = float(a * a * np.sum(w * g))
    v2, w2 = cheb_u_rule(2 * _CURVE_NODES + 1)
    x2 = info.expand(v2)
    vals2 = equilibrium_density_many(spec, info, x2, tol=tol)
    mass2 = float(a * a * np.sum(w2 * vals2 / np.maximum(info.rho(x2), 1e-300)))
    err = abs(mass2 - mass) + tol * info.n
    return DensityCurve(x=x, values=vals, mass=mass2, err_estimate=err,
                        target_mass=float(info.n))


def sigma_star_curve(spec: WeightSpec, info: ScalingInfo,
                     tol: float = 1e-8) -> DensityCurve:
    inner = sigma_curve(spec, info, tol=tol * info.n)
    scale = info.a_n / info.n
    return DensityCurve(x=info.contract(inner.x), values=scale * inner.values,
                        mass=inner.mass / info.n,
                        err_estimate=inner.err_estimate / info.n,
                        target_mass=1.0)


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


def ullman_density(alpha: float, x: float, tol: float = 1e-10) -> float:
    """Limit density on [-1, 1]: (alpha/pi) int_|x|^1 t^(alpha-1)/sqrt(t^2-x^2) dt,
    arcsine 1/(pi sqrt(1-x^2)) for alpha = inf.

    The substitution t = |x| cosh(S - r), with |x| cosh S = 1, removes the
    inverse-square-root edge, leaving (alpha/pi) int_0^S t^(alpha-1) dr: an
    integrand that falls from 1 at r = 0 to |x|^(alpha-1) at r = S, with no
    boundary layer at small |x|.  adaptive_gl integrates it to `tol`
    absolute, on panels split towards r = 0, where the mass lies for large
    alpha.  At x = 0 the value is alpha/(pi (alpha-1)) exactly.
    """
    if not alpha > 1:
        raise DomainError(f"alpha must lie in (1, inf], got {alpha}")
    if alpha == math.inf:
        if abs(x) >= 1.0:
            if abs(x) == 1.0:
                raise SingularityError("arcsine density diverges at |x| = 1")
            raise DomainError(f"|x| must be <= 1, got {x}")
        return 1.0 / (math.pi * math.sqrt(1.0 - x * x))
    if abs(x) > 1.0:
        raise DomainError(f"|x| must be <= 1, got {x}")
    if abs(x) == 1.0:
        return 0.0

    pref = alpha / math.pi
    y = abs(x)
    if y == 0.0:
        return pref / (alpha - 1.0)
    c = math.sqrt((1.0 - y) * (1.0 + y))  # |x| sinh S
    l1c, ly = math.log1p(c), math.log(y)
    top = l1c - ly  # = S, a sum of two non-negative terms

    def t_pow(r):
        # |x| cosh(S - r) = ((1+c) e^-r + (1-c) e^r)/2 with 1 - c = x^2/(1+c),
        # in logs: finite for every |x| in (0, 1), subnormal ones included
        return np.exp((alpha - 1.0) * (
            np.logaddexp(l1c - r, r + 2.0 * ly - l1c) - math.log(2.0)))

    # for large alpha the mass lies within ~1/(alpha-1) of r = 0 (t^(alpha-1)
    # <= e^-8 past `width`); pieces that double in length from there, each
    # with an equal share of tol, keep a long tail from starving it of tol
    width = 8.0 / (alpha - 1.0)
    edges = [0.0, *(width * 2.0**k for k in range(
        max(0, math.ceil(math.log2(top / width))))), top]
    eps = min(tol / pref, 1e-8) / (len(edges) - 1)
    return pref * float(sum(adaptive_gl(t_pow, lo, hi, eps)[0]
                            for lo, hi in zip(edges, edges[1:])))


def ullman_density_alt(alpha: float, x: float, tol: float = 1e-8) -> float:
    """Same density through the equilibrium-integral route:

        2 sqrt(1-x^2) / (pi^2 B_alpha) int_0^1 (t^a - |x|^a)/(t^2 - x^2)
                                               dt / sqrt(1 - t^2),

    evaluated with first-kind Chebyshev nodes (even extension) and the
    divided-difference limit (a/2) t^(a-2) near t = |x|.
    """
    if math.isinf(alpha):
        raise DomainError("alternative formula requires finite alpha")
    if not alpha > 1:
        raise DomainError(f"alpha must lie in (1, inf), got {alpha}")
    if abs(x) >= 1.0:
        raise DomainError(f"|x| must be < 1, got {x}")

    y = abs(x)
    ya = y**alpha
    _, b_al = freud_constants(alpha)

    def g(t):
        t = np.abs(t)
        den = t * t - y * y
        near = np.abs(t - y) < 1e-9
        safe = np.where(near, 1.0, den)
        out = (t**alpha - ya) / safe
        if np.any(near):
            mid = np.maximum(0.5 * (t + y), 1e-300)
            out = np.where(near, 0.5 * alpha * mid ** (alpha - 2.0), out)
        return out

    pref = 2.0 * math.sqrt(1.0 - y * y) / (math.pi**2 * b_al)
    val, _, _ = cheb_t_integral(lambda t: np.sum(g(t)), tol / pref, m0=64,
                                m_cap=1 << 22)
    return pref * 0.5 * val


def ullman_cdf_many(alpha: float, xs) -> np.ndarray:
    """Vectorized CDF on a fixed two-panel Gauss rule (used by the KS
    statistic, absolute error well below 1e-8 away from b ~ 0 and bounded by
    the vanishing local mass there)."""
    if not alpha > 1:
        raise DomainError(f"alpha must lie in (1, inf], got {alpha}")
    xs = np.asarray(xs, dtype=float)
    if alpha == math.inf:
        return (np.arcsin(np.clip(xs, -1.0, 1.0)) + np.pi / 2.0) / np.pi
    b = np.clip(np.abs(xs), 0.0, 1.0)[:, None]
    ug, wg = gl_rule(100)
    cut = np.minimum(0.5, np.maximum(5.0 * b, 0.02))
    out = np.zeros_like(b)
    for lo, hi in ((np.zeros_like(cut), cut), (cut, np.ones_like(cut))):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        u = mid + half * ug[None, :]
        b2 = b * b
        om = 1.0 - b2
        t2 = b2 + om * u * u
        with np.errstate(invalid="ignore"):
            integ = om * u * t2 ** ((alpha - 2.0) / 2.0) \
                * np.arcsin(np.minimum(b / np.sqrt(t2), 1.0))
        out += (integ * wg[None, :]).sum(axis=1, keepdims=True) * half
    half_mass = 0.5 * b[:, 0] ** alpha + alpha / np.pi * out[:, 0]
    half_mass[b[:, 0] >= 1.0] = 0.5
    return 0.5 + np.sign(xs) * half_mass
