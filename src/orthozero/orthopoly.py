"""Orthonormal polynomials for W^2 = exp(-2Q): recurrence coefficients by a
discretized Stieltjes procedure, one overflow-safe vectorised recurrence
sweep, and the reductions over it: the diagonal reproducing-kernel sums
that feed the zero-density formula, the basis matrix and the coefficient
combinations used for zero counting, and the Gram audit of a freshly built
table.

The three-term recurrence in orthonormal form is

    b_{k+1} p_{k+1}(x) = (x - a_k) p_k(x) - b_k p_{k-1}(x),

with p_0 = gamma_0 = 1/sqrt(m_0) and leading coefficients
gamma_k = gamma_0 / prod_{j<=k} b_j.  Only even weights are supported
(solve_mrs refuses the others), so p_k has parity (-1)^k, no a_k is stored
(all vanish), and on a mesh symmetric about the origin the Stieltjes
iteration needs only the positive half: the rest is its mirror image.

The iteration runs in extended precision: exp(-2Q) underflows double
precision well inside the support that degrees of a few hundred need, which
would silently truncate the measure and corrupt the high-order
coefficients.  Coefficients are stored in double precision, leading
coefficients also in log form, since gamma_k itself underflows for large k.

The mesh reaches R = 1.5 a_{2 n_max}, but the weighted polynomials of
degree <= n_max decay past the n^(-2/3) edge layer beyond a_{n_max}, so the
Lanczos vectors run only on an active window that ends near
a_{n_max} (1 + 2 (12/n_max)^(2/3)).  The window's last node certifies at
every step that the dropped nodes could not change one bit of b_k: p_k is
positive there (no zero beyond it), |p_k| e^-Q does not increase past it,
and its weighted term is too small to move the sequential longdouble dot
(see _stieltjes).  A pass whose certificate fails is rerun on the whole
mesh, so the table is bit for bit the full-mesh table either way.

The sweep yields, per degree, p_k and p_k' as the rows of one mantissa
array that it advances in place, with per-point power-of-two exponents; a
rescale arrives as a dense per-point factor (1 or 2^-256) that consumers
multiply into what they accumulated, rather than as a mask to gather and
scatter through.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiscretizationError, DomainError
from .quadrature import _mesh, refine_roots
from .scaling import ScalingInfo, equilibrium_density_many, solve_mrs
from .weights import WeightSpec

# mantissas are renormalized once they pass 2^250; the factor 2^-256 is exact
# in binary and keeps products like A*C - B^2 inside double range
_TRIG = 2.0**250
_RESCALE = 2.0**-256
_SCALE_LOG2 = 256
_MAX = np.maximum.reduce  # ndarray.max without its Python wrapper
# a degree at which every sweep rescales every point (None: never); tests set
# it to check that derived ratios are invariant bit for bit
_FORCE_RESCALE_AT = None
# bytes one block of a float64 basis matrix may take: the Gram audit and the
# zero counter's grid level evaluate their points in blocks of this size
_BASIS_BYTES = 4_000_000

TABLE_FORMAT_VERSION = 2

# the Stieltjes mesh doubles from max(1200, 16 n_max) nodes up to this many
_MAX_NODES = 200_000


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence data for one weight.

    off_diag[k-1] holds b_k (k = 1..n_max).  log_leading holds
    ln(gamma_k); the linear `leading` view underflows to zero where
    double precision cannot represent gamma_k.  ortho_residual is the
    largest Gram defect max |<p_i, p_j> - delta_ij| over
    i, j <= min(n_max, 256), measured on a mesh independent of the one that
    built the table.
    """

    label: str
    n_max: int
    off_diag: np.ndarray
    log_leading: np.ndarray
    ortho_residual: float
    mesh_signature: str

    @property
    def gamma0(self) -> float:
        return float(np.exp(self.log_leading[0]))

    @property
    def leading(self) -> np.ndarray:
        with np.errstate(under="ignore"):
            return np.exp(self.log_leading)

    def b(self, k: int) -> float:
        """b_k for 1 <= k <= n_max."""
        if not 1 <= k <= self.n_max:
            raise DomainError(f"b_{k} is outside the table (n_max {self.n_max})")
        return float(self.off_diag[k - 1])


def _support_radius(spec: WeightSpec, n_max: int) -> float:
    """1.5 a_{2 n_max}, clipped where exp(-2Q) leaves extended-precision
    range (the clipped tail carries no representable mass): the root of
    Q = 5500 on [0, 1.5 a_{2 n_max}], refined to width 1e-9 of the bracket."""
    r = 1.5 * solve_mrs(spec, 2 * n_max).a_n
    if float(spec.q(np.float64(r))) <= 5500.0:
        return r
    return float(refine_roots(lambda x: (spec.q(x) - 5500.0, spec.q1(x)),
                              [0.0], [r], [-1.0], 1e-9 * r)[0])


def _window_edge(spec: WeightSpec, n_max: int) -> float:
    """Where the Stieltjes window ends: a_{n_max} (1 + 2 (12/n_max)^(2/3)),
    past the n^(-2/3) edge layer beyond which the weighted polynomials of
    degree <= n_max decay; clipped to R by the mesh itself."""
    return solve_mrs(spec, n_max).a_n * (
        1 + 2 * (12 / n_max) ** (2 / 3))


def _window(spec: WeightSpec, nodes, wts, edge: float):
    """The active window nodes[:keep] of an ascending half mesh, ending at
    x_e, the last node <= edge, with the constants of its certificate (see
    _stieltjes): (keep, slope, spread), where slope is Q'(x_e) less a
    relative margin of 1e-9 and spread = max over dropped nodes of
    wts_i / wts_e.  keep is nodes.size, with nothing to certify, when no
    node lies beyond edge (or none before it) or Q' decreases somewhere
    on the dropped nodes (x_e included)."""
    keep = int(np.searchsorted(nodes, edge, side="right"))
    if not 0 < keep < nodes.size:
        return nodes.size, 0.0, 0.0
    q1 = np.asarray(spec.q1(nodes[keep - 1:].astype(float)), dtype=float)
    if not np.all(np.diff(q1) >= 0):  # a NaN fails too
        return nodes.size, 0.0, 0.0
    return (keep, np.longdouble(q1[0]) * (1 - 1e-9),
            np.max(wts[keep:]) / wts[keep - 1])


def _stieltjes(nodes, w2w, n_max: int, keep: int, slope=0.0, spread=0.0):
    """Lanczos form of the Stieltjes procedure for the even measure with
    mass w2w at each of +nodes and -nodes; returns (b_1..b_n_max, gamma_0)
    in the dtype of the inputs, or None when the window's certificate
    fails.  The k-th Lanczos vector has parity (-1)^k: its diagonal term is
    exactly zero and its full-mesh dots are twice the half-mesh ones, so
    with g_0 normalised on the half mesh the iteration
    v = x g_k - b_k g_{k-1}, b_{k+1} = |v|, g_{k+1} = v / b_{k+1} runs on
    the positive nodes alone.

    The vectors run on the leading nodes[:keep] only (the mass half_mass
    is summed over all of them).  That changes no bit of any b_k as long
    as each dot product's dropped terms, which numpy's sequential
    longdouble dot adds after the window's, stay below a quarter ulp of
    the running sum.  With keep < nodes.size the last kept node x_e
    certifies this at every step k, from v_e (proportional to p_k(x_e))
    and a scalar recurrence for p_k'(x_e) on the same scale:

    (i)   p_k(x_e) > 0, as for every lower degree: the Sturm sequence
          p_0..p_k has no sign change at x_e, so p_k has no zero beyond it
          and p_k'/p_k decreases there;
    (ii)  p_k'(x_e) <= slope p_k(x_e), slope just under Q'(x_e): with Q'
          non-decreasing on the dropped nodes (checked by _window),
          |p_k| e^-Q does not increase beyond x_e, so a dropped node's
          v_i^2 is at most v_e^2 wts_i / wts_e;
    (iii) v_e^2 spread < (eps/64) (v . v over the window): each dropped
          term, rounding included, is then below a quarter ulp.
    """
    half_mass = np.sum(w2w)
    x = nodes[:keep]
    g = np.sqrt(w2w[:keep] / half_mass)
    g_prev, v, tmp = (np.zeros_like(g) for _ in range(3))
    b = np.zeros(n_max + 1, dtype=nodes.dtype)
    certify = keep < nodes.size
    tiny = np.finfo(nodes.dtype).eps / 64
    # p_k'(x_e) and p_{k-1}'(x_e), in the scale where g_k(x_e) is p_k(x_e)
    d = d_prev = np.zeros((), dtype=nodes.dtype)
    for k in range(1, n_max + 1):
        np.multiply(x, g, out=v)
        v -= np.multiply(g_prev, b[k - 1], out=tmp)
        vv = np.dot(v, v)  # same bits as v @ v, ~2.5x faster
        bk = np.sqrt(vv)
        if certify:  # ahead of the breakdown test: a window may miss mass
            ve = v[-1]
            dv = g[-1] + x[-1] * d - b[k - 1] * d_prev  # b_k p_k'(x_e)
            if not (ve > 0 and dv <= slope * ve
                    and ve * ve * spread < tiny * vv):
                return None
            d_prev, d = d, dv / bk
        if not bk > 0:
            raise DiscretizationError(f"Stieltjes breakdown at step {k}")
        b[k] = bk
        v /= bk
        g_prev, g, v = g, v, g_prev
    return b[1:], 1.0 / np.sqrt(2 * half_mass)


def _gram_residual(spec: WeightSpec, table: RecurrenceTable, R: float,
                   n_target: int) -> float:
    """Largest Gram defect over i, j <= min(n_max, 256) on an independent
    mesh (other order, grading, panel count); p_j has parity (-1)^j, so each
    parity block runs on the mesh's positive half with doubled weights, in
    blocks of points under _BASIS_BYTES."""
    n_check = min(table.n_max, 256)
    nodes, wts = _mesh(R, int(1.37 * n_target) | 1, order=31,
                       grade_ratio=0.4, grade_levels=24)
    x = nodes.astype(float)
    w = np.sqrt(2.0 * np.maximum(wts.astype(float), 0.0))
    step = max(1, _BASIS_BYTES // (8 * (n_check + 1)))
    buf = np.empty((n_check + 1) * min(step, x.size))  # one block, reused
    gram = [0.0, 0.0]  # even and odd degrees
    for i in range(0, x.size, step):
        xb = x[i:i + step]
        T, _, expo = _basis_into(table, xb, n_check, buf[
            :(n_check + 1) * xb.size].reshape(1, n_check + 1, xb.size))
        qx = np.asarray(spec.q(xb), dtype=float)
        T *= np.exp(expo * math.log(2.0) - qx) * w[i:i + step]  # p_j W
        gram = [g + Tp @ Tp.T for g, Tp in zip(gram, (T[0::2], T[1::2]))]
    return max(float(np.max(np.abs(g - np.eye(g.shape[0])))) for g in gram)


def build_recurrence(spec: WeightSpec, n_max: int) -> RecurrenceTable:
    """Build the recurrence table by the discretized Stieltjes procedure.

    The measure exp(-2Q) dx is truncated to [-R, R] with
    R = 1.5 a_{2 n_max} (weighted polynomials of the degrees involved
    carry only exponentially small mass outside) and discretized on
    composite Gauss-Legendre panels.  The node count doubles until the
    coefficient table stabilizes; the result must pass the independent-mesh
    Gram audit at 1e-8.  Each pass runs on the certified active window
    ending at _window_edge, or on the whole mesh where its certificate
    fails; the audit always uses its whole mesh.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        raise DiscretizationError(
            "numpy longdouble is no wider than float64 on this platform: the "
            "Stieltjes weights exp(-2Q) would underflow once Q > ~354 and "
            "silently truncate the measure")
    R = _support_radius(spec, n_max)
    edge = _window_edge(spec, n_max)
    n_target = max(1200, 16 * n_max)
    prev = None
    while n_target <= _MAX_NODES:
        nodes, wts = _mesh(R, n_target, order=24, grade_ratio=0.5,
                           grade_levels=30)
        w2w = np.exp(np.longdouble(-2) * spec.q(nodes)) * wts
        out = _stieltjes(nodes, w2w, n_max, *_window(spec, nodes, wts, edge))
        if out is None:  # uncertified: the dropped nodes may count
            out = _stieltjes(nodes, w2w, n_max, nodes.size)
        off_ld, gamma0_ld = out
        if prev is not None and np.max(
                np.abs(off_ld / prev - 1)).astype(float) < 1e-13:
            break
        prev = off_ld
        n_target *= 2
    else:
        raise DiscretizationError(
            f"recurrence coefficients did not stabilize within {_MAX_NODES} nodes")

    off = off_ld.astype(float)
    log_leading = (np.log(gamma0_ld) - np.concatenate(
        [[0], np.cumsum(np.log(off_ld))])).astype(float)

    table = RecurrenceTable(
        label=spec.label, n_max=n_max, off_diag=off, log_leading=log_leading,
        ortho_residual=math.nan,
        mesh_signature=f"gl24x{n_target};r0.5x30;R={R:.12g}")
    residual = _gram_residual(spec, table, R, n_target)
    if residual > 1e-8:
        raise DiscretizationError(
            f"orthogonality residual {residual:.3e} exceeds 1e-8; "
            "discretization too coarse")
    return dataclasses.replace(table, ortho_residual=residual)


_TABLE_CACHE: dict[tuple, RecurrenceTable] = {}


def get_table(spec: WeightSpec, n_max: int) -> RecurrenceTable:
    """build_recurrence(spec, n_max), cached on the weight content
    (spec.cache_key) and exactly n_max, so a request's bits never depend on
    what was cached before it.  The cached arrays are read-only: callers
    share them."""
    key = (spec.cache_key, n_max)
    if key not in _TABLE_CACHE:
        tab = build_recurrence(spec, n_max)
        tab.off_diag.setflags(write=False)
        tab.log_leading.setflags(write=False)
        _TABLE_CACHE[key] = tab
    return _TABLE_CACHE[key]


def save_table(table: RecurrenceTable, path) -> None:
    np.savez_compressed(
        path, format_version=TABLE_FORMAT_VERSION, label=table.label,
        n_max=table.n_max, off_diag=table.off_diag,
        log_leading=table.log_leading, ortho_residual=table.ortho_residual,
        mesh_signature=table.mesh_signature)


def load_table(path) -> RecurrenceTable:
    with np.load(path, allow_pickle=False) as z:
        version = int(z["format_version"])
        if version != TABLE_FORMAT_VERSION:
            raise DomainError(
                f"table file format {version} unsupported (this version "
                f"reads format {TABLE_FORMAT_VERSION}); rebuild the file with "
                "`orthozero recurrence --cache PATH`")
        n_max, off, log_lead = int(z["n_max"]), z["off_diag"], z["log_leading"]
        if off.size != n_max or log_lead.size != n_max + 1:
            raise DomainError(
                f"table file holds {off.size} b_k, {log_lead.size} ln gamma_k "
                f"for n_max {n_max}: truncated or corrupt")
        return RecurrenceTable(
            label=str(z["label"]), n_max=n_max, off_diag=off,
            log_leading=log_lead, ortho_residual=float(z["ortho_residual"]),
            mesh_signature=str(z["mesh_signature"]))


# ---------------------------------------------------------------------------
# the recurrence sweep and its reductions


def _sweep(table: RecurrenceTable, x: np.ndarray, n: int, derivs: bool):
    """Run the recurrence at every point of the 1-D float array x; iterate
    k = 0..n over (pd, factor, expo).

    pd stacks the mantissas of p_k and, with `derivs`, of p_k' as the rows
    of one (2, m) array, (1, m) without: the true p_k(x[i]) is
    pd[0, i] * 2^expo[i].  When a mantissa passes 2^250 at degree k, the
    point's running values are multiplied by 2^-256, and `factor` holds per
    point 2^-256 where that happened and 1 elsewhere (None when no point is
    rescaled); the consumer multiplies what it accumulated below degree k by
    the factor, or by its square for products.  An exact power of two
    multiplies to the same correctly rounded result as dividing by its
    inverse, so dense factors cost no bits.  Low degrees may underflow after
    a rescale, negligibly against the dominant degree.  `expo` is updated
    in place, and the yielded arrays are working buffers: copy what must
    outlive the step.

    Without `derivs` only values trigger a rescale.  _FORCE_RESCALE_AT is
    read once per sweep.  The degree is checked before iteration starts, so
    callers may size their output by n.
    """
    if not 0 <= n <= table.n_max:
        raise DomainError(
            f"degree {n} outside 0..{table.n_max}, the table's n_max")
    off, force = table.off_diag, _FORCE_RESCALE_AT

    def steps():
        expo = np.zeros(x.size, dtype=np.int64)
        prev, cur, nxt, tmp = (np.zeros((2 if derivs else 1, x.size))
                               for _ in range(4))
        cur[0] = table.gamma0
        yield cur, None, expo
        for k in range(1, n + 1):
            # (x pd + (0, p_k) - b_{k-1} pd_prev) / b_k, one ufunc per term
            np.multiply(cur, x, out=nxt)
            if derivs:
                nxt[1] += cur[0]
            nxt -= np.multiply(prev, off[k - 2] if k >= 2 else 0.0, out=tmp)
            nxt /= off[k - 1]
            factor = None
            # a NaN maximum (non-finite x) falls through to the per-point test
            if (not _MAX(np.abs(nxt, out=tmp), axis=None, initial=0.0) <= _TRIG
                    or k == force):
                big = (tmp > _TRIG).any(axis=0)
                if k == force:
                    big[:] = True
                if big.any():
                    factor = np.where(big, _RESCALE, 1.0)
                    nxt *= factor
                    cur *= factor
                    np.add(expo, _SCALE_LOG2, out=expo, where=big)
            yield nxt, factor, expo
            prev, cur, nxt = cur, nxt, prev

    return steps()


def kernel_triple_many(table: RecurrenceTable, x, n: int):
    """Diagonal kernel sums K_{n+1}, K^{(0,1)}_{n+1}, K^{(1,1)}_{n+1}:
    A = sum p_j^2, B = sum p_j p_j', C = sum p_j'^2 over j = 0..n at an
    array of points.  Returns the mantissas A, B, C and per-point exponents
    e2; the true sums are A * 2^e2 (likewise B and C).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    acc = np.zeros((3, x.size))  # rows A, C, B
    sq = np.empty((2, x.size))
    AC, B = acc[:2], acc[2]
    for pd, factor, expo in _sweep(table, x, n, derivs=True):
        if factor is not None:
            acc *= factor * factor
        AC += np.multiply(pd, pd, out=sq)
        B += np.multiply(pd[0], pd[1], out=sq[0])
    return acc[0], B, acc[1], 2 * expo


def poly_matrix(table: RecurrenceTable, x, n: int, derivs: bool = False):
    """Mantissas of p_0..p_n (and, with `derivs`, p_0'..p_n') at every
    point of x, as (P, D, expo), D None without derivatives: the true
    p_j(x[i]) is P[j, i] * 2^expo[i].  Signs of any combination C @ P are
    the true polynomial's; the exponents compare magnitudes across points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _basis_into(table, x, n, np.empty((2 if derivs else 1, n + 1, x.size)))


def _basis_into(table: RecurrenceTable, x: np.ndarray, n: int, PD: np.ndarray):
    """poly_matrix into the caller's buffer PD, shaped (2, n + 1, x.size)
    for derivatives too and (1, n + 1, x.size) for values only."""
    for k, (pd, factor, expo) in enumerate(_sweep(table, x, n, len(PD) == 2)):
        if factor is not None:
            # k stored rows, scaled in place one run of adjacent columns hit
            # at a time (a fancy index would copy k x hits)
            hit = np.concatenate(([False], factor != 1.0, [False]))
            ends = np.flatnonzero(hit[1:] != hit[:-1]).tolist()
            for lo, hi in zip(ends[0::2], ends[1::2]):
                PD[:, :k, lo:hi] *= _RESCALE
        PD[:, k] = pd
    return PD[0], (PD[1] if len(PD) == 2 else None), expo


def combo_values(table: RecurrenceTable, C: np.ndarray, x: np.ndarray, n: int):
    """Mantissas of sum_j C[r, j] p_j and of its derivative at the points
    x[r] of each coefficient row r, without storing the basis matrix: C is
    (rows, n + 1), x is (rows, m), and (S, Sd, expo) are shaped like x; the
    true value is S * 2^expo."""
    x = np.asarray(x, dtype=float)
    Ct = np.ascontiguousarray(np.transpose(C))[:, :, None]  # (n + 1, rows, 1)
    S = np.zeros((2, *x.shape))  # values, derivatives
    term = np.empty_like(S)
    for k, (pd, factor, expo) in enumerate(_sweep(table, x.ravel(), n, True)):
        if factor is not None:
            S *= factor.reshape(x.shape)
        S += np.multiply(pd.reshape(S.shape), Ct[k], out=term)
    return S[0], S[1], expo.reshape(x.shape)


def universality_ratios(spec: WeightSpec, table: RecurrenceTable,
                        info: ScalingInfo, x: float) -> tuple[float, float, float]:
    """Convergence diagnostics of the weighted kernel against the
    equilibrium density, at x inside the 0.05-shrunk support window
    info.j_interval() for degree n + 1 = info.n:

        r00 = W^2 K / sigma            -> 1
        r01 = W^2 K^(0,1)/sigma^2 - Q'/sigma   -> 0
        r11 = W^2 K^(1,1)/sigma^3 - (Q'/sigma)^2 -> pi^2/3
    """
    n = info.n - 1
    lo, hi = info.j_interval()
    if not lo <= x <= hi:
        raise DomainError(
            f"x = {x} outside the window [{lo:.6g}, {hi:.6g}]")
    A, Bv, Cv, e2 = kernel_triple_many(table, [x], n)
    sigma = equilibrium_density_many(spec, info, [x])[0]
    log_w2 = -2.0 * float(spec.q(np.float64(x)))
    scale = math.exp(log_w2 + float(e2[0]) * math.log(2.0))
    qp = float(spec.q1(np.float64(x)))
    r00 = float(A[0]) * scale / sigma
    r01 = float(Bv[0]) * scale / sigma**2 - qp / sigma
    r11 = float(Cv[0]) * scale / sigma**3 - (qp / sigma) ** 2
    return r00, r01, r11
