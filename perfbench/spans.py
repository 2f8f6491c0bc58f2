"""Span tracer that times the calls into orthozero's public functions from
outside the package.

`Tracer.installed()` rebinds every name under which a traced function is
looked up: the defining module's attribute, each module that imported the
name (`kac.kernel_triple_many`, `montecarlo.ullman_cdf_many`, ...), and the
package namespace.  Specs returned by `weights.parse_weight` get traced
`q`, `q1` and `q2`, so Q evaluations are counted wherever they happen.
Leaving the context restores every binding.

A span records its name, start, end, parent and an optional info value
taken from the call's arguments or result.  Self time is a span's duration
minus its children's durations (calls are single-threaded and nested).
"""

from __future__ import annotations

import dataclasses
import re
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


_SIG = re.compile(r"gl(\d+)x(\d+);r[0-9.]+x(\d+)")


def _stieltjes_work(table) -> tuple[int, int]:
    """(nodes summed over passes, passes) of a table build, derived from its
    mesh signature `gl{order}x{final target};r{ratio}x{levels};...`.

    The node target starts at max(1200, 16 n_max) and doubles once per pass;
    each pass discretizes on 2 * order * (levels - 1 + uniform panels) nodes.
    Returns (0, 0) when the signature has another format."""
    m = _SIG.match(table.mesh_signature)
    if not m:
        return 0, 0
    order, final, levels = (int(g) for g in m.groups())
    target = max(1200, 16 * table.n_max)
    nodes = passes = 0
    while target <= final:
        uniform = max(8, -(-target // (2 * order)))
        nodes += 2 * order * (levels - 1 + uniform)
        passes += 1
        target *= 2
    return nodes, passes


def _poly_matrix_bytes(args, kwargs, out):
    n = _arg(args, kwargs, 2, "n")
    derivs = _arg(args, kwargs, 3, "derivs", False)
    return (n + 1) * np.size(_arg(args, kwargs, 1, "x")) * 8 * (2 if derivs else 1)


def _mc_counts(args, kwargs, out):
    c = np.asarray(out.counts)
    return int(c.sum()), int(np.sum(c % 2 == 1)), int(c.size)


# (module, function, span name, info(args, kwargs, result) or None)
TARGETS = (
    ("scaling", "solve_mrs", "scaling.solve_mrs", None),
    ("scaling", "equilibrium_density_many", "scaling.equilibrium_density", None),
    ("scaling", "ullman_cdf_many", "scaling.ullman_cdf", None),
    ("orthopoly", "build_recurrence", "orthopoly.build_recurrence",
     lambda a, k, t: (*_stieltjes_work(t), t.ortho_residual)),
    ("orthopoly", "kernel_triple_many", "orthopoly.kernel_sweep",
     lambda a, k, r: np.size(_arg(a, k, 1, "x")) * _arg(a, k, 2, "n")),
    ("quadrature", "adaptive_gl", "quadrature.adaptive_gl",
     lambda a, k, r: float(r[1])),
    ("kac", "expected_zeros_full", "kac.integral",
     lambda a, k, p: p.clamped_fraction),
    ("kac", "expected_zeros", "kac.integral", lambda a, k, p: p.clamped_fraction),
    ("kac", "scaled_expected_zeros", "kac.integral", None),
    ("montecarlo", "make_count_grid", "montecarlo.count_grid",
     lambda a, k, g: int(np.size(g))),
    ("montecarlo", "sample_coeffs", "montecarlo.sample", None),
    ("montecarlo", "poly_matrix", "montecarlo.poly_matrix", _poly_matrix_bytes),
    ("montecarlo", "mc_expected_zeros", "montecarlo.mc_expected_zeros",
     _mc_counts),
    ("montecarlo", "comrade_matrix", "montecarlo.comrade", None),
    ("montecarlo", "all_zeros", "montecarlo.all_zeros",
     lambda a, k, z: int(np.size(z))),
    ("montecarlo", "empirical_measure", "montecarlo.measure_ks",
     lambda a, k, m: m.complex_count / m.total),
    ("montecarlo", "ks_to_ullman", "montecarlo.measure_ks", None),
    ("cli", "run", "cli.run", None),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    nested: bool  # inside another span of the same name
    info: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def wrap(self, name, fn, info=None):
        spans, stack, open_ = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else -1,
                        open_.get(name, 0) > 0)
            stack.append(len(spans))
            spans.append(span)
            open_[name] = open_.get(name, 0) + 1
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                open_[name] -= 1
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _traced_parse(self, parse):
        def q_wrap(fn):
            return self.wrap("weights.q", fn, lambda a, k, r: int(np.size(a[0])))

        def traced_parse(*args, **kwargs):
            spec = parse(*args, **kwargs)
            return dataclasses.replace(spec, q=q_wrap(spec.q), q1=q_wrap(spec.q1),
                                       q2=q_wrap(spec.q2))
        return traced_parse

    @contextmanager
    def installed(self):
        """Rebind every lookup site of the traced functions for the
        duration of the block."""
        import orthozero
        from orthozero import weights

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "orthozero" or k.startswith("orthozero."))]
        parse = weights.parse_weight
        # keyed by identity: rebinding must hit exactly these function objects
        replace = {id(parse): (parse, self._traced_parse(parse))}
        for mod, fn, name, info in TARGETS:
            f = getattr(getattr(orthozero, mod), fn)
            replace[id(f)] = (f, self.wrap(name, f, info))
        saved = []
        for m in modules:
            for key, val in list(vars(m).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    saved.append((m, key, val))
                    setattr(m, key, hit[1])
        try:
            yield self
        finally:
            for m, key, val in saved:
                setattr(m, key, val)

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)


def layer_totals(spans: list[Span]) -> dict:
    """Additive totals ('sum') and maxima ('max') of the per-layer
    quantities over a list of spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    tot: dict[str, float] = {}
    mx: dict[str, float] = {}

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    def peak(key, v):
        mx[key] = max(mx.get(key, 0.0), v)

    for i, s in enumerate(spans):
        dur = s.end - s.start
        if not s.nested:
            add(s.name + "_s", dur)
            add(s.name + "_calls", 1)
        self_s = dur - child[i]
        add(s.name + "_self_s", self_s)
        if s.name == "weights.q":
            add("weights.q_points", s.info)
        elif s.name == "orthopoly.build_recurrence":
            add("orthopoly.stieltjes_nodes", s.info[0])
            add("orthopoly.stieltjes_passes", s.info[1])
            peak("orthopoly.ortho_residual", s.info[2])
        elif s.name == "orthopoly.kernel_sweep":
            add("orthopoly.kernel_point_degrees", s.info)
        elif s.name == "quadrature.adaptive_gl":
            peak("quadrature.error_max", s.info)
        elif s.name == "kac.integral" and s.info is not None:
            peak("kac.clamped_fraction_max", s.info)
        elif s.name == "montecarlo.count_grid":
            add("montecarlo.grid_points", s.info)
        elif s.name == "montecarlo.poly_matrix":
            add("montecarlo.poly_matrix_bytes", s.info)
        elif s.name == "montecarlo.mc_expected_zeros":
            add("montecarlo.zeros_counted", s.info[0])
            add("montecarlo.odd_count_trials", s.info[1])
            add("montecarlo.trials_counted", s.info[2])
        elif s.name == "montecarlo.all_zeros":
            add("montecarlo.eigensolve_flops", 10.0 * s.info ** 3)
        elif s.name == "montecarlo.measure_ks" and s.info is not None:
            add("montecarlo.complex_fraction_sum", s.info)
            add("montecarlo.measures", 1)
    return {"sum": tot, "max": mx}


def layer_metrics(setup: dict, passes: list[dict], extra: dict) -> dict:
    """Per-layer metrics of one traced setup plus one traced pass (the mean
    over the traced passes, which repeat identical inputs), as
    {name: (value, unit)}.  `extra` holds the quantities the workload
    measures outside the spans.  A layer the workload does not exercise
    reads 0."""
    def total(key):
        s = setup["sum"].get(key, 0.0)
        p = [d["sum"].get(key, 0.0) for d in passes]
        return s + (statistics.fmean(p) if p else 0.0)

    def peak(key):
        return max([setup["max"].get(key, 0.0)]
                   + [d["max"].get(key, 0.0) for d in passes])

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    sweep_s = total("orthopoly.kernel_sweep_s")
    points = total("orthopoly.kernel_point_degrees")
    eig_s = total("montecarlo.all_zeros_self_s")
    return {
        "weights.q_points": (total("weights.q_points"), "count"),
        "weights.q_s": (total("weights.q_s"), "s"),
        "scaling.solve_mrs_s": (total("scaling.solve_mrs_s"), "s"),
        "scaling.solve_mrs_calls": (total("scaling.solve_mrs_calls"), "count"),
        "scaling.equilibrium_density_s": (total("scaling.equilibrium_density_s"), "s"),
        "scaling.ullman_cdf_s": (total("scaling.ullman_cdf_s"), "s"),
        "orthopoly.build_recurrence_s": (total("orthopoly.build_recurrence_s"), "s"),
        "orthopoly.tables_built": (total("orthopoly.build_recurrence_calls"), "count"),
        "orthopoly.stieltjes_nodes": (total("orthopoly.stieltjes_nodes"), "count"),
        "orthopoly.stieltjes_passes": (total("orthopoly.stieltjes_passes"), "count"),
        "orthopoly.ortho_residual": (peak("orthopoly.ortho_residual"), "1"),
        "orthopoly.kernel_sweep_s": (sweep_s, "s"),
        "orthopoly.kernel_point_degrees": (points, "count"),
        "orthopoly.kernel_ns_per_point_degree": (ratio(sweep_s, points, 1e9), "ns"),
        "quadrature.adaptive_gl_s": (total("quadrature.adaptive_gl_s"), "s"),
        "quadrature.self_s": (total("quadrature.adaptive_gl_self_s"), "s"),
        "quadrature.calls": (total("quadrature.adaptive_gl_calls"), "count"),
        "quadrature.error_max": (peak("quadrature.error_max"), "1"),
        "kac.integral_s": (total("kac.integral_s"), "s"),
        "kac.clamped_fraction_max": (peak("kac.clamped_fraction_max"), "1"),
        "montecarlo.count_grid_s": (total("montecarlo.count_grid_s"), "s"),
        "montecarlo.grid_points": (total("montecarlo.grid_points"), "count"),
        "montecarlo.sample_s": (total("montecarlo.sample_s"), "s"),
        "montecarlo.poly_matrix_s": (total("montecarlo.poly_matrix_s"), "s"),
        "montecarlo.poly_matrix_bytes": (total("montecarlo.poly_matrix_bytes"), "B"),
        "montecarlo.count_core_self_s": (total("montecarlo.mc_expected_zeros_self_s"), "s"),
        "montecarlo.zeros_counted": (total("montecarlo.zeros_counted"), "count"),
        "montecarlo.trials_counted": (total("montecarlo.trials_counted"), "count"),
        "montecarlo.odd_count_trials": (total("montecarlo.odd_count_trials"), "count"),
        "montecarlo.route_mismatch_trials": (extra.get("route_mismatch", 0), "count"),
        "montecarlo.route_checked_trials": (extra.get("route_checked", 0), "count"),
        "montecarlo.comrade_s": (total("montecarlo.comrade_s"), "s"),
        "montecarlo.eigensolve_s": (eig_s, "s"),
        "montecarlo.eigensolve_gflops": (
            ratio(total("montecarlo.eigensolve_flops"), eig_s, 1e-9), "GFLOP/s"),
        "montecarlo.measure_ks_s": (total("montecarlo.measure_ks_s"), "s"),
        "montecarlo.complex_fraction": (
            ratio(total("montecarlo.complex_fraction_sum"),
                  total("montecarlo.measures")), "1"),
        "cli.self_s": (total("cli.run_self_s"), "s"),
        "cli.bytes_written": (extra.get("bytes_written", 0), "B"),
        "cli.artifact_changes": (extra.get("artifact_changes", 0), "count"),
        "cli.artifacts_compared": (extra.get("artifacts_compared", 0), "count"),
    }
