"""One workload process: set up, run the timed loop or the traced run, report.

Started by run.py with BLAS pinned to one thread. Prints one JSON object
as its last line of standard output. With --setup-only it stops after
set-up and reports the set-up time alone.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; the harness's own setting

import argparse
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import elastinc  # noqa: E402

import checks  # noqa: E402
from tracing import NullTracer, SpanIndex, Tracer, layer_table  # noqa: E402
from workloads import WORKLOADS, coverage  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def run_op(wl, tr, inp):
    """Time the program calls of one op, then check them untimed."""
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            out = wl.call(tr, inp)
        error = None
    except Exception as exc:  # any failure of the program is a failed op
        out, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    rel = None
    if error is None:
        try:
            rel = wl.check(inp, out)
        except (checks.CheckFailure, OSError, ValueError, KeyError) as exc:
            # a missing or malformed output file fails the op, not the run
            error = f"check: {type(exc).__name__}: {exc}"
    wl.cleanup(inp)
    return {"case": inp.case, "latency": latency, "error": error, "rel": rel}


def timed_loop(wl, tr, seconds=None, ops=None, keep_inputs=False):
    """Cycle through the pool in its fixed order, op by op.

    With ``seconds``, the first pass over the pool always runs; after it an
    op starts only while its case's last latency still fits before the
    deadline, so the loop fills the time without overrunning it. With
    ``ops``, exactly that many ops run (the same inputs as ops 0..ops-1 of
    any other loop of this run).
    """
    outcomes, inputs, last = [], [], {}
    start = time.perf_counter()
    n = len(wl.pool)
    i = 0
    while i < ops if ops is not None else (
        i < n or time.perf_counter() - start + last[wl.pool[i % n]] <= seconds
    ):
        inp = wl.inputs(i)
        tr.op = i
        outcome = run_op(wl, tr, inp)
        outcomes.append(outcome)
        last[inp.case] = outcome["latency"]
        if keep_inputs:
            inputs.append(inp)
        i += 1
    return outcomes, inputs


def census(wl, tr, outcomes):
    """Attempt once, with fixed inputs, every case the loop did not reach.

    Returns {case label: passed} over all cases: a pool case passes when
    every timed attempt passed, any other case when its census op passed.
    """
    tried: dict[int, bool] = {}
    for o in outcomes:
        tried[o["case"]] = tried.get(o["case"], True) and o["error"] is None
    result = {}
    for ci in range(len(wl.cases)):
        if ci not in tried:
            tr.op = f"census{ci}"
            tried[ci] = run_op(wl, tr, wl.census_inputs(ci))["error"] is None
        result[wl.label(ci)] = tried[ci]
    return result


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_run" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def case_weights(outcomes) -> list[float]:
    """1 / (ops of the op's case): every pool case counts once, however
    many times the loop reached it before the deadline."""
    hits: dict[int, int] = {}
    for o in outcomes:
        hits[o["case"]] = hits.get(o["case"], 0) + 1
    return [1.0 / hits[o["case"]] for o in outcomes]


def weighted_quantile(values, weights, p: float) -> float:
    """The smallest value whose cumulative weight reaches p of the total
    (the inverted-CDF quantile), so splitting a weight among equal values
    changes nothing."""
    pairs = sorted(zip(values, weights))
    target = p * sum(weights) * (1 - 1e-12)
    below = 0.0
    for v, w in pairs:
        below += w
        if below >= target:
            return v
    return pairs[-1][0]


def end_to_end(outcomes, solved, setup_s, rss):
    """Each pool case weighs the same, so a run that stops part-way through
    a pass over the pool reports the same case mix as one that does not."""
    weights = case_weights(outcomes)
    ok = [(o, w) for o, w in zip(outcomes, weights) if o["error"] is None]
    lat_ms = [1e3 * o["latency"] for o in outcomes]
    return {
        "ops_per_s": (sum(w for _, w in ok)
                      / sum(w * o["latency"] for o, w in zip(outcomes, weights)), "1/s"),
        "op_p50_ms": (weighted_quantile(lat_ms, weights, 0.5), "ms"),
        "op_p90_ms": (weighted_quantile(lat_ms, weights, 0.9), "ms"),
        "solved_share": (sum(solved.values()) / len(solved), "ratio"),
        "accuracy_digits": (
            weighted_quantile([checks.digits(o["rel"]) for o, _ in ok], [w for _, w in ok], 0.5)
            if ok else 0.0, "digits"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def sample_build_us(idx: SpanIndex) -> float:
    """grid_field time minus its four probed parts, per grid point."""
    parts = ("field.grid.classify", "field.grid.invert", "field.grid.exterior",
             "field.grid.interior")
    probe = {}
    for name in parts:
        for s in idx.get("field.sample_build_us_per_point", name):
            key = (s["phase"] == "coverage", s["op"])
            probe.setdefault(key, []).append(s)
    grid = {(s["phase"] == "coverage", s["op"]): s
            for s in idx.own.get("field.grid_field", []) + idx.cover.get("field.grid_field", [])}
    total_s, points = 0.0, 0
    for key, spans in probe.items():
        g = grid.get(key)
        if g is None or g["error"] or len(spans) != 4 or any(s["error"] for s in spans):
            continue
        total_s += (g["end"] - g["start"]) - sum(s["end"] - s["start"] for s in spans)
        points += g["count"]
    return 1e6 * total_s / points


def per_layer(spans, overhead_pct):
    idx = SpanIndex(spans)
    solves = idx.ok("system.rank_ratio", "system.solve")
    m = {
        "geometry.map_validate_ms": (idx.median_ms("geometry.map_validate_ms",
                                                   "geometry.ConformalMap"), "ms"),
        "geometry.map_validate_peak_mb": (
            max(s["attrs"]["bytes"] for s in idx.get("geometry.map_validate_peak_mb",
                                                     "geometry.map_peak")) / 1e6, "MB"),
        "geometry.build_ms": (idx.median_ms("geometry.build_ms", "geometry.build_geometry"), "ms"),
        "geometry.errors": (idx.errors("geometry.errors", "geometry.ConformalMap",
                                       "geometry.build_geometry"), "count"),
        "system.assemble_ms": (idx.median_ms("system.assemble_ms", "system.assemble_system"), "ms"),
        "system.solve_ms": (idx.median_ms("system.solve_ms", "system.solve"), "ms"),
        "system.unknowns": (idx.median_attr("system.unknowns", "system.solve", "unknowns"),
                            "count"),
        "system.rank_ratio": (sum(s["attrs"]["rank"] for s in solves)
                              / sum(s["attrs"]["unknowns"] for s in solves), "ratio"),
        "system.nonconverged": (sum(not s["attrs"]["converged"] for s in
                                    idx.ok("system.nonconverged", "system.solve")), "count"),
        "field.evaluator_ms": (idx.median_ms("field.evaluator_ms", "field.FieldEvaluator"), "ms"),
        "field.probe_us_per_point": (idx.per_point_us("field.probe_us_per_point",
                                                      "field.exterior_arrays"), "us"),
        "field.residual_ms": (idx.median_ms("field.residual_ms", "field.residual"), "ms"),
        "field.errors": (idx.errors("field.errors", "field.FieldEvaluator",
                                    "field.exterior_arrays", "field.residual",
                                    "field.grid_field"), "count"),
        "field.grid_us_per_point": (idx.per_point_us("field.grid_us_per_point",
                                                     "field.grid_field"), "us"),
        "field.classify_us_per_point": (idx.per_point_us("field.classify_us_per_point",
                                                         "field.grid.classify"), "us"),
        "field.invert_us_per_point": (idx.per_point_us("field.invert_us_per_point",
                                                       "field.grid.invert"), "us"),
        "field.exterior_us_per_point": (idx.per_point_us("field.exterior_us_per_point",
                                                         "field.grid.exterior"), "us"),
        "field.interior_us_per_point": (idx.per_point_us("field.interior_us_per_point",
                                                         "field.grid.interior"), "us"),
        "field.sample_build_us_per_point": (sample_build_us(idx), "us"),
        "oracle.weights_cold_ms": (1e3 * sum(s["end"] - s["start"] for s in
                                             idx.ok("oracle.weights_cold_ms",
                                                    "oracle.weights_cold")), "ms"),
        "oracle.mesh_ms": (idx.median_ms("oracle.mesh_ms", "oracle.build_mesh"), "ms"),
        "oracle.assemble_ms": (idx.median_ms("oracle.assemble_ms", "oracle.assemble_nystrom"),
                               "ms"),
        "oracle.solve_ms": (idx.median_ms("oracle.solve_ms", "oracle.solve_nystrom"), "ms"),
        "oracle.compare_ms": (idx.median_ms("oracle.compare_ms", "oracle.compare"), "ms"),
        "oracle.matrix_mb": (idx.median_attr("oracle.matrix_mb", "oracle.assemble_nystrom",
                                             "bytes") / 1e6, "MB"),
        "cli.interpreter_s": (idx.median_ms("cli.interpreter_s", "cli.interpreter") / 1e3, "s"),
        "cli.import_s": (idx.median_ms("cli.import_s", "cli.import") / 1e3, "s"),
        "cli.load_config_ms": (idx.median_ms("cli.load_config_ms", "cli.load_config"), "ms"),
        "cli.orchestrate_ms": (idx.median_ms("cli.orchestrate_ms", "cli.orchestrate"), "ms"),
        "cli.emit_reports_ms": (idx.median_ms("cli.emit_reports_ms", "cli.emit_reports"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return m, idx.sources


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def measure(args, work) -> dict:
    wl = WORKLOADS[args.workload](ROOT, args.seed, work)
    tr = Tracer() if args.trace else NullTracer()
    tr.phase = "setup"
    wl.setup(tr)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "environment": environment(args.seed)}
    if args.setup_only:
        return result

    if not args.trace:
        t0 = time.perf_counter()
        outcomes, _ = timed_loop(wl, tr, seconds=args.seconds)
        wall = time.perf_counter() - t0
        solved = census(wl, tr, outcomes)
        metrics = end_to_end(outcomes, solved, setup_s, peak_rss_mb(args.workload))
        result.update(loop_wall_s=wall, pool_passes=len(outcomes) / len(wl.pool), solved=solved)
    else:
        untraced, _ = timed_loop(wl, NullTracer(), seconds=args.seconds / 2)
        tr.phase = "op"
        traced, inputs = timed_loop(wl, tr, ops=len(untraced), keep_inputs=True)
        overhead = 100.0 * (sum(o["latency"] for o in traced)
                            / sum(o["latency"] for o in untraced) - 1.0)
        tr.phase = "census"
        solved = census(wl, tr, traced)
        tr.phase, tr.op = "probe", None
        wl.probe(tr, inputs)
        tr.phase, tr.op = "coverage", None
        coverage(tr, ROOT, work)
        metrics, sources = per_layer(tr.spans, overhead)
        spans_file = OUT / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        tr.write(spans_file)
        result.update(layers=layer_table(tr.spans), sources=sources, solved=solved,
                      spans_file=str(spans_file.relative_to(ROOT)))
        outcomes = traced
    result.update(
        attempted=len(outcomes),
        failed=sum(o["error"] is not None for o in outcomes),
        failures=sorted({f"{wl.label(o['case'])}: {o['error']}" for o in outcomes if o["error"]}),
        ops=[[wl.label(o["case"]), round(1e3 * o["latency"], 3)] for o in outcomes],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(elastinc.__file__).resolve().parents:
        print(f"elastinc imported from {elastinc.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
