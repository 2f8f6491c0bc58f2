"""Benchmark runner for orthozero.

    python3 perfbench/run.py --workload {kac,mc_count,eigen_ks} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  One process, one load generator, BLAS
pinned to one thread.

--trace 0 sets up several times (the median counts), then repeats the
workload's fixed pass of items until --seconds have elapsed and reports the
end-to-end metrics.  --trace 1 sets up once under the tracer, runs untraced
passes for half the time and traced passes for the other half, and reports
the per-layer metrics.  Correctness checks run after the timed phase; a
failed check marks the items it covers as failed.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("kac", "mc_count", "eigen_ks"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import orthozero from ROOT/src only; None when it is not there."""
    src = ROOT / "src"
    if not (src / "orthozero" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import orthozero

    if Path(orthozero.__file__).resolve().parent != (src / "orthozero").resolve():
        return None
    return orthozero


@dataclass
class Pass:
    seconds: float
    rows: list  # (item, latency_s, result or the exception it raised)
    tracer: object = None


def measure(workload, state, items, seconds, traced=False):
    """Repeat the pass while the next one, at the median pass time so far,
    still ends within `seconds` (at least one pass)."""
    import spans

    passes = []
    start = time.perf_counter()
    reported = set()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p.seconds for p in passes) <= seconds):
        tracer = spans.Tracer() if traced else None
        with tracer.installed() if traced else contextlib.nullcontext():
            rows = []
            t_pass = time.perf_counter()
            for item in items:
                t = time.perf_counter()
                try:
                    res = workload.run(state, item)
                except Exception as exc:  # counted as a failed operation
                    res = exc
                rows.append((item, time.perf_counter() - t, res))
            elapsed = time.perf_counter() - t_pass
        for _, _, res in rows:
            if isinstance(res, Exception) and type(res) not in reported:
                reported.add(type(res))
                traceback.print_exception(res, file=sys.stderr)
        passes.append(Pass(elapsed, rows, tracer))
    return passes


def machine_record(np, scipy, seed, items):
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "seed": seed,
        "library_inputs": [list(map(str, it.key)) for it in items],
    }


def run_checks(workload, state, passes, extra=()):
    """(attempted, failed, check lines) over every result of every pass;
    `extra` adds checks whose blame indexes the same flattened results."""
    flat = [(item, res) for p in passes for item, _, res in p.rows]
    checks = workload.checks(state, flat) + list(extra)
    failed_idx = set()
    for c in checks:
        if not c.ok:
            failed_idx.update(c.blame)
    attempted = sum(item.size for item, _ in flat)
    failed = sum(flat[i][0].size for i in failed_idx)
    lines = [f"{'ok  ' if c.ok else 'FAIL'} {c.text}" for c in checks]
    return attempted, failed, lines


def end_to_end(import_s, setup_times, passes, failed, attempted):
    """(gated, shown, timed items): the gated {name: (value, unit)} of
    BENCHMARK.json, and fail_frac plus item_p90_ms, which are only printed."""
    per_item = [lat / item.size for p in passes for item, lat, _ in p.rows]
    by_item = {}
    for p in passes:
        for item, lat, _ in p.rows:
            by_item.setdefault(item.key, []).append(lat / item.size)
    total_items = sum(item.size for p in passes for item, _, _ in p.rows)
    gated = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "run_s": (statistics.median(p.seconds for p in passes), "s"),
        "items_per_s": (total_items / sum(p.seconds for p in passes), "1/s"),
        # each item's median over the passes, then the median over the mix:
        # robust where the mix puts the median between two item sizes
        "item_p50_ms": (1e3 * statistics.median(
            statistics.median(v) for v in by_item.values()), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
    }
    shown = {"fail_frac": (failed / attempted, "1")}
    if len(per_item) >= P90_MIN_SAMPLES:
        shown["item_p90_ms"] = (1e3 * statistics.quantiles(per_item, n=10)[-1], "ms")
    return gated, shown, len(per_item)


def traced_run(workload, state, items, setup_tracer, setup_s, seconds):
    """Per-layer metrics: untraced passes, then traced passes, each for
    half the time."""
    import spans

    plain = measure(workload, state, items, seconds / 2)
    traced = measure(workload, state, items, seconds / 2, traced=True)
    extra = workload.trace_extra(state, [(it, r) for it, _, r in traced[0].rows])
    layers = spans.layer_metrics(spans.layer_totals(setup_tracer.spans),
                                 [spans.layer_totals(p.tracer.spans) for p in traced],
                                 extra)
    plain_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.fmean(p.seconds for p in traced)
    layers.update({
        "trace.setup_s": (setup_s, "s"),
        "trace.run_s": (traced_s, "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "1"),
        "trace.span_coverage": (statistics.fmean(
            p.tracer.root_time() / p.seconds for p in traced), "1"),
    })
    return plain, traced, layers


def artifact_check(workload, passes):
    """Every result's artifact equals the first one of the same item; run
    over untraced then traced passes, it shows that tracing changed no
    output byte."""
    import workloads

    if workload.artifact is None:
        return workloads.Check("artifacts not compared for this workload", True, [])
    ref, bad = {}, []
    flat = [(item, res) for p in passes for item, _, res in p.rows]
    for i, (item, res) in enumerate(flat):
        if isinstance(res, Exception):
            continue
        art = workload.artifact(res)
        if ref.setdefault(item.key, art) != art:
            bad.append(i)
    return workloads.Check(f"traced and untraced artifacts byte-identical "
                           f"({len(bad)} differ)", not bad, bad)


def main(argv=None) -> int:
    args = parse_args(argv)
    for v in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[v] = "1"
    if import_package() is None:
        print(f"error: no orthozero package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS[args.workload]
    items = workload.inputs(args.seed)

    if args.trace == 0:
        setup_times = []
        for rep in range(SETUP_REPS):
            t = time.perf_counter()
            state = workload.setup(final=rep == SETUP_REPS - 1)
            setup_times.append(time.perf_counter() - t)
        passes = measure(workload, state, items, args.seconds)
        attempted, failed, check_lines = run_checks(workload, state, passes)
        metrics, shown, samples = end_to_end(import_s, setup_times, passes,
                                             failed, attempted)
        shown_all = {**metrics, **shown}
        header = (f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
                  f"{samples} timed items, {SETUP_REPS} set-ups")
        if "item_p90_ms" not in shown:
            header += (f"; item_p90_ms not reported below {P90_MIN_SAMPLES} "
                       "timed items")
    else:
        tracer = spans.Tracer()
        t = time.perf_counter()
        with tracer.installed():
            state = workload.setup(final=True)
        setup_s = time.perf_counter() - t
        plain, traced, metrics = traced_run(workload, state, items, tracer,
                                            setup_s, args.seconds)
        attempted, failed, check_lines = run_checks(
            workload, state, plain + traced,
            [artifact_check(workload, plain + traced)])
        shown_all = metrics
        header = (f"workload {args.workload} seed {args.seed} traced: "
                  f"{len(plain)} untraced + {len(traced)} traced passes")

    print(header)
    for line in check_lines:
        print("check", line)
    for name, (value, unit) in shown_all.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("machine", json.dumps(machine_record(np, scipy, args.seed, items),
                                sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
