"""The four workloads: inputs, the timed calls, checks and trace probes.

Each workload is a closed loop with one client. ``inputs(i)`` builds op
i's inputs from the run seed (untimed), ``call`` makes the program calls
that form the op (timed, with a span around each call into a module) and
``check`` verifies the outputs with the benchmark's own code (untimed).
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import cases as C
import checks
from tracing import NullTracer

import elastinc as E
from elastinc import cli, oracle

CHILD_TIMEOUT_S = 120
PROBED_GRID_OPS = 12
PROBED_CLI_OPS = 8
FRESH_PROCESS_REPEATS = 3
COVERAGE_LOADING = ([0.0, 0.3 + 0.1j, 0.2], [0.0, 1.0, 0.5j])
COVERAGE_MATERIAL = {"lam": 2.0, "mu": 1.0, "lam_t": 4.0, "mu_t": 3.0}


def material_pair(m: dict) -> E.MaterialPair:
    if "mu_t" not in m:
        return E.MaterialPair(m["lam"], m["mu"], cavity=True)
    return E.MaterialPair(m["lam"], m["mu"], m["lam_t"], m["mu_t"])


def interface_diagnostic(solution, loading, cmap, material):
    """The program's own interface residual, called the way its CLI calls it."""
    kwargs = {}
    if getattr(cli, "RESIDUAL_STEP", None) is not None:
        kwargs["step"] = cli.RESIDUAL_STEP
    if material.cavity:
        return E.boundary_traction_spread(solution, loading, cmap, material,
                                          cli.RESIDUAL_ANGLES, **kwargs)
    return E.transmission_residual(solution, loading, cmap, material,
                                   cli.RESIDUAL_ANGLES, **kwargs)


def solve_chain(tr, gamma: float, a, n: int, material: dict, loading: tuple):
    """Map -> geometry -> system -> solve, one span per module call."""
    with tr.span("geometry.ConformalMap"):
        cmap = E.ConformalMap(gamma, a)
    with tr.span("geometry.build_geometry"):
        bundle = E.build_geometry(cmap, n)
    mat = material_pair(material)
    load = E.LoadingSpec(A=loading[0], B=loading[1])
    with tr.span("system.assemble_system"):
        system = E.assemble_system(mat, bundle, load)
    with tr.span("system.solve") as span:
        sol = E.solve(system)
        unknowns = 2 * sum(x.size for x in (sol.xe_plus, sol.xe_minus, sol.xi_plus, sol.xi_minus)
                           if x is not None)
        span.note(unknowns=unknowns, rank=sol.rank, converged=bool(sol.converged))
    return cmap, mat, load, sol


def field_size(evaluator, gamma: float) -> float:
    """max|u| on |w| = 1.5 gamma, the circle the reference comparison uses."""
    ring = 1.5 * gamma * np.exp(2j * np.pi * np.arange(64) / 64)
    return float(np.max(np.abs(evaluator.exterior_arrays(ring)["u"])))


def map_peak_bytes(tr, shapes) -> None:
    """Peak traced allocation inside ConformalMap construction (validation)."""
    for gamma, a in shapes:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            E.ConformalMap(gamma, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tr.record("geometry.map_peak", 0.0, bytes=peak)


def grid_breakdown(tr, sol, load, cmap, mat, grid) -> None:
    """Repeat grid_field's public sub-calls on the same inputs, one span each.

    Counts are the grid's total points so the four parts and the
    remainder (per-point sample building) add up to grid_field's time.
    """
    total = grid.nx * grid.ny
    pts = grid.points()
    ev = E.FieldEvaluator(sol, load, cmap, mat)
    with tr.span("field.grid.classify", count=total):
        regions, _ = E.classify_points(cmap, pts, band=grid.band)
    ext = regions == "exterior"
    with tr.span("field.grid.invert", count=total):
        w = E.invert_map(cmap, pts[ext])
    w = np.where(np.abs(w) <= cmap.gamma, cmap.gamma * (1.0 + 1e-9) * w / np.abs(w), w)
    with tr.span("field.grid.exterior", count=total):
        ev.exterior_arrays(w)
    with tr.span("field.grid.interior", count=total):
        if mat.has_interior:
            ev.interior_arrays_z(pts[~ext])


def weights_cold(tr, qs) -> None:
    """First-call cost of the quadrature weights, bypassing any cache."""
    for q in sorted(set(qs)):
        log_w = getattr(oracle.log_weights, "__wrapped__", oracle.log_weights)
        hil_w = getattr(oracle.hilbert_weights, "__wrapped__", oracle.hilbert_weights)
        with tr.span("oracle.weights_cold", count=q):
            log_w(q)
            hil_w(q)


def oracle_chain(tr, cmap, mat, load, sol, q: int):
    with tr.span("oracle.build_mesh"):
        mesh = E.build_mesh(cmap, q)
    with tr.span("oracle.assemble_nystrom") as span:
        system = oracle.assemble_nystrom(mesh, mat, load)
        span.note(bytes=int(system.matrix.nbytes + system.constraints.nbytes))
    with tr.span("oracle.solve_nystrom"):
        osol = oracle.solve_nystrom(system)
    with tr.span("oracle.compare"):
        return E.compare(osol, sol, cmap, mat, load)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def fresh_process_timings(tr, root: Path) -> None:
    """Interpreter start and ``import elastinc`` in fresh processes."""
    env = child_env(root)
    for _ in range(FRESH_PROCESS_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        tr.record("cli.interpreter", time.perf_counter() - t0)
        code = ("import time; t = time.perf_counter(); import elastinc; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        tr.record("cli.import", float(out.stdout.split()[-1]))


def _pairs(values) -> list[list[float]]:
    return [[complex(v).real, complex(v).imag] for v in values]


def _complex_pairs(items) -> np.ndarray:
    return np.array([complex(re, im) for re, im in items])


def cli_config(a, material: dict, loading: tuple, n: int, window=None) -> dict:
    """An elastinc config file: complex values as [re, im], oracle q = 256."""
    mat = {"lambda": material["lam"], "mu": material["mu"]}
    if "mu_t" in material:
        mat.update(lambda_t=material["lam_t"], mu_t=material["mu_t"])
    else:
        mat["cavity"] = True
    config = {
        "schema_version": 1,
        "map": {"gamma": 1.0, "a": _pairs(a)},
        "material": mat,
        "loading": {"A": _pairs(loading[0]), "B": _pairs(loading[1])},
        "truncation": n,
        "oracle": {"enabled": False, "q": 256},
    }
    if window is not None:
        config["grid"] = {"x0": window[0], "x1": window[1], "y0": window[2], "y1": window[3],
                          "nx": C.CLI_GRID_POINTS, "ny": C.CLI_GRID_POINTS}
    return config


def cli_inprocess(tr, config_path: Path, command: str, out_dir: Path) -> None:
    """The CLI's three stages in this process, on a config a child ran."""
    with tr.span("cli.load_config"):
        config = cli.load_config(config_path, out_dir=str(out_dir))
    with tr.span("cli.orchestrate"):
        results = cli.orchestrate(config, command)
    with tr.span("cli.emit_reports"):
        cli.emit_reports(results, out_dir)


class Workload:
    """Shared bookkeeping; subclasses define the cases and the op."""

    name = ""

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        self.root = root
        self.seed = seed
        self.work = work
        self.cases = self.all_cases()
        self.pool = C.mixed_order([i for i, c in enumerate(self.cases) if self.in_pool(c)])

    def label(self, case_index: int) -> str:
        return self.cases[case_index].label

    def inputs(self, i: int):
        return self.make_inputs(self.pool[i % len(self.pool)], C.op_rng(self.seed, i), i)

    def census_inputs(self, case_index: int):
        return self.make_inputs(case_index, C.census_rng(case_index), f"census{case_index}")

    def probe(self, tr, traced_inputs: list) -> None:
        """Trace-only measurements that repeat parts of the timed ops."""

    def cleanup(self, inp) -> None:
        pass


class SolveSweep(Workload):
    """One inclusion problem from scratch per op, across the solve mix."""

    name = "solve_sweep"

    def all_cases(self):
        return C.solve_cases()

    def in_pool(self, case):
        return C.solve_case_is_pool(case)

    def setup(self, tr) -> None:
        # Warm-up: one small problem through every call the op makes.
        inp = self.make_inputs(self.pool[0], C.warmup_rng(self.seed), "warmup")
        self.check(inp, self.call(tr, inp))

    def make_inputs(self, ci, rng, tag):
        case = self.cases[ci]
        w = case.gamma * (1.05 + 3.0 * rng.random(C.PROBE_POINTS)) * np.exp(
            2j * np.pi * rng.random(C.PROBE_POINTS))
        return SimpleNamespace(case=ci, a=C.map_coefficients(case.family, case.gamma),
                               material=C.random_material(rng, case.mode),
                               loading=C.random_loading(rng), probe=w)

    def call(self, tr, inp):
        case = self.cases[inp.case]
        cmap, mat, load, sol = solve_chain(tr, case.gamma, inp.a, case.n, inp.material, inp.loading)
        with tr.span("field.FieldEvaluator"):
            ev = E.FieldEvaluator(sol, load, cmap, mat)
        with tr.span("field.exterior_arrays", count=inp.probe.size):
            u = ev.exterior_arrays(inp.probe)["u"]
        with tr.span("field.residual"):
            interface_diagnostic(sol, load, cmap, mat)
        return sol, ev, u

    def check(self, inp, out) -> float:
        sol, ev, u = out
        return checks.check_solve(sol, ev, u, self.cases[inp.case].gamma, inp.material)

    def probe(self, tr, traced_inputs) -> None:
        families = {self.cases[inp.case].family for inp in traced_inputs}
        map_peak_bytes(tr, [(1.0, C.map_coefficients(f, 1.0)) for f in sorted(families)])


class FieldGrid(Workload):
    """grid_field on a 101x101 window straddling the boundary, solves in setup."""

    name = "field_grid"
    gamma = 1.0
    n = 16

    def all_cases(self):
        return C.config_cases()

    def in_pool(self, case):
        return C.grid_case_is_pool(case)

    def solved(self, tr, ci, rng):
        case = self.cases[ci]
        a = C.map_coefficients(case.family, self.gamma)
        material = C.random_material(rng, case.mode)
        cmap, mat, load, sol = solve_chain(tr, self.gamma, a, self.n, material, C.random_loading(rng))
        return SimpleNamespace(a=a, cmap=cmap, mat=mat, load=load, sol=sol)

    def setup(self, tr) -> None:
        self.configs = {ci: self.solved(tr, ci, C.setup_rng(self.seed, ci))
                        for ci in sorted(set(self.pool))}
        inp = self.make_inputs(self.pool[0], C.warmup_rng(self.seed), "warmup")
        inp.nx = inp.ny = 21
        self.check(inp, self.call(tr, inp))

    def make_inputs(self, ci, rng, tag):
        if ci in self.configs:
            config = self.configs[ci]
        else:  # census of a known-defect config: solve it with fixed inputs
            config = self.solved(_NULL, ci, rng)
        return SimpleNamespace(case=ci, config=config, nx=C.GRID_POINTS, ny=C.GRID_POINTS,
                               window=C.straddling_window(config.a, self.gamma, rng))

    def grid(self, inp) -> E.GridSpec:
        return E.GridSpec(*inp.window, inp.nx, inp.ny)

    def call(self, tr, inp):
        c = inp.config
        with tr.span("field.grid_field", count=inp.nx * inp.ny):
            return E.grid_field(c.sol, c.load, c.cmap, c.mat, self.grid(inp))

    def check(self, inp, samples) -> float:
        c = inp.config
        return checks.check_grid(
            c.a, self.gamma, inp.window, inp.nx, inp.ny,
            w=np.array([s.w for s in samples]),
            z=np.array([s.z for s in samples]),
            interior=np.array([s.region == "interior" for s in samples]),
            u=np.array([s.u for s in samples]),
            cavity=c.mat.cavity,
        )

    def probe(self, tr, traced_inputs) -> None:
        for i, inp in enumerate(traced_inputs[:PROBED_GRID_OPS]):
            tr.op = i
            c = inp.config
            try:
                grid_breakdown(tr, c.sol, c.load, c.cmap, c.mat, self.grid(inp))
            except (E.geometry.GeometryError, E.field.FieldError):
                pass  # recorded as an error on the span that raised
        map_peak_bytes(tr, [(self.gamma, c.a) for c in self.configs.values()])


class OracleCheck(Workload):
    """Reference Nystrom solve and comparison; coefficient solves in setup."""

    name = "oracle_check"
    gamma = 1.0
    n = 32

    def all_cases(self):
        return C.oracle_cases()

    def in_pool(self, case):
        return C.oracle_case_is_pool(case)

    def setup(self, tr) -> None:
        self.configs = {}
        for ci, config in enumerate(C.config_cases()):
            rng = C.setup_rng(self.seed, ci)
            a = C.map_coefficients(config.family, self.gamma)
            cmap, mat, load, sol = solve_chain(tr, self.gamma, a, self.n,
                                               C.random_material(rng, config.mode),
                                               C.random_loading(rng))
            with tr.span("field.FieldEvaluator"):
                ev = E.FieldEvaluator(sol, load, cmap, mat)
            self.configs[config] = SimpleNamespace(cmap=cmap, mat=mat, load=load, sol=sol,
                                                   size=field_size(ev, self.gamma))
        for q in C.ORACLE_NODES:  # fill the program's weight caches
            oracle.log_weights(q)
            oracle.hilbert_weights(q)
        inp = SimpleNamespace(case=self.pool[0], q=C.ORACLE_NODES[0])
        self.check(inp, self.call(tr, inp))

    def make_inputs(self, ci, rng, tag):
        return SimpleNamespace(case=ci, q=self.cases[ci].q)

    def call(self, tr, inp):
        c = self.configs[self.cases[inp.case].config]
        return oracle_chain(tr, c.cmap, c.mat, c.load, c.sol, inp.q)

    def check(self, inp, report) -> float:
        return checks.check_oracle(report, self.configs[self.cases[inp.case].config].size)

    def probe(self, tr, traced_inputs) -> None:
        weights_cold(tr, C.ORACLE_NODES)


class CliRun(Workload):
    """One fresh ``python -m elastinc.cli`` process per op."""

    name = "cli_run"

    def all_cases(self):
        return C.cli_cases()

    def in_pool(self, case):
        return C.cli_case_is_pool(case)

    def setup(self, tr) -> None:
        self.env = child_env(self.root)
        self.work.mkdir(parents=True, exist_ok=True)
        inp = self.make_inputs(self.pool[0], C.warmup_rng(self.seed), "warmup")
        self.check(inp, self.call(tr, inp))
        self.cleanup(inp)

    def make_inputs(self, ci, rng, tag):
        case = self.cases[ci]
        a = C.map_coefficients(case.family, 1.0)
        material = C.random_material(rng, case.mode)
        loading = C.random_loading(rng)
        window = C.straddling_window(a, 1.0, rng)
        op_dir = self.work / f"op-{tag}"
        if op_dir.exists():
            shutil.rmtree(op_dir)
        op_dir.mkdir(parents=True)
        path = op_dir / "config.json"
        text = json.dumps(cli_config(a, material, loading, case.n, window))
        path.write_text(text)
        return SimpleNamespace(case=ci, mode=case.mode, a=a, material=material, loading=loading,
                               window=window, dir=op_dir, config=path, config_text=text,
                               out=op_dir / "out")

    def call(self, tr, inp):
        command = self.cases[inp.case].command
        argv = [sys.executable, "-m", "elastinc.cli", command,
                "--config", str(inp.config), "--out-dir", str(inp.out)]
        with tr.span("cli.child"):
            return subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)

    def check(self, inp, proc) -> float:
        case = self.cases[inp.case]
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise checks.CheckFailure(f"exit {proc.returncode}: {tail[0]}")
        for name in ("summary.txt", "manifest.json"):
            if not (inp.out / name).is_file():
                raise checks.CheckFailure(f"{name} missing")
        payload = json.loads((inp.out / "solution.json").read_text())
        for key in ("mode", "truncation", "coefficients", "residual", "rank", "converged"):
            if key not in payload:
                raise checks.CheckFailure(f"solution.json lacks {key!r}")
        if payload["mode"] != inp.mode or payload["truncation"] != case.n:
            raise checks.CheckFailure("solution.json echoes the wrong mode or truncation")
        if payload["converged"] is not True:
            raise checks.CheckFailure("solution.json reports converged=false")

        _, mat, load, ref = solve_chain(_NULL, 1.0, inp.a, case.n, inp.material, inp.loading)
        got = np.concatenate([_complex_pairs(payload["coefficients"][k])
                              for k in ("xe_plus", "xe_minus")])
        coeff_err = checks.relative_difference(got, np.concatenate([ref.xe_plus, ref.xe_minus]))
        if not coeff_err <= checks.COEFFICIENT_TOL:
            raise checks.CheckFailure(f"coefficients differ from the library by {coeff_err:.3e}")
        if case.command == "solve":
            return coeff_err
        if case.command == "field":
            return self.check_csv(inp, inp.out / "field.csv", mat.cavity)
        report = json.loads((inp.out / "oracle_report.json").read_text())
        for key in ("boundary_max", "exterior_max", "q", "within_tolerance"):
            if key not in report:
                raise checks.CheckFailure(f"oracle_report.json lacks {key!r}")
        if report["within_tolerance"] is not True or report["q"] != 256:
            raise checks.CheckFailure("oracle report out of tolerance or wrong q")
        size = field_size(E.FieldEvaluator(ref, load, E.ConformalMap(1.0, inp.a), mat), 1.0)
        return checks.check_oracle(SimpleNamespace(exterior_max=report["exterior_max"]), size)

    def check_csv(self, inp, path: Path, cavity: bool) -> float:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != list(cli.CSV_HEADER):
            raise checks.CheckFailure("field.csv header changed")
        body = rows[1:]
        num = np.array([[float(r[k]) for k in (0, 1, 2, 3, 5, 6)] for r in body])
        n = C.CLI_GRID_POINTS
        return checks.check_grid(
            inp.a, 1.0, inp.window, n, n,
            w=num[:, 0] + 1j * num[:, 1],
            z=num[:, 2] + 1j * num[:, 3],
            interior=np.array([r[4] == "interior" for r in body]),
            u=num[:, 4] + 1j * num[:, 5],
            cavity=cavity,
        )

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp.dir, ignore_errors=True)

    def probe(self, tr, traced_inputs) -> None:
        fresh_process_timings(tr, self.root)
        for i, inp in enumerate(traced_inputs[:PROBED_CLI_OPS]):
            tr.op = i
            inp.dir.mkdir(parents=True)
            inp.config.write_text(inp.config_text)
            cli_inprocess(tr, inp.config, self.cases[inp.case].command, inp.out)
            self.cleanup(inp)
        weights_cold(tr, [256])


_NULL = NullTracer()

WORKLOADS = {w.name: w for w in (SolveSweep, FieldGrid, OracleCheck, CliRun)}


def coverage(tr, root: Path, work: Path) -> None:
    """Every layer once on a fixed ellipse problem, for metrics a workload lacks."""
    gamma, a = 1.0, C.map_coefficients("ellipse", 1.0)
    cmap, mat, load, sol = solve_chain(tr, gamma, a, 16, COVERAGE_MATERIAL, COVERAGE_LOADING)
    with tr.span("field.FieldEvaluator"):
        ev = E.FieldEvaluator(sol, load, cmap, mat)
    w = 1.5 * np.exp(2j * np.pi * np.arange(C.PROBE_POINTS) / C.PROBE_POINTS)
    with tr.span("field.exterior_arrays", count=w.size):
        ev.exterior_arrays(w)
    with tr.span("field.residual"):
        interface_diagnostic(sol, load, cmap, mat)
    grid = E.GridSpec(0.2, 2.2, -1.0, 1.0, C.CLI_GRID_POINTS, C.CLI_GRID_POINTS)
    with tr.span("field.grid_field", count=grid.nx * grid.ny):
        E.grid_field(sol, load, cmap, mat, grid)
    grid_breakdown(tr, sol, load, cmap, mat, grid)
    oracle_chain(tr, cmap, mat, load, sol, C.ORACLE_NODES[0])
    weights_cold(tr, [C.ORACLE_NODES[0]])
    map_peak_bytes(tr, [(gamma, a)])

    fresh_process_timings(tr, root)
    cfg_dir = work / "coverage"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    config = cli_config(a, COVERAGE_MATERIAL, COVERAGE_LOADING, 16)
    (cfg_dir / "config.json").write_text(json.dumps(config))
    cli_inprocess(tr, cfg_dir / "config.json", "solve", cfg_dir / "out")
    shutil.rmtree(cfg_dir, ignore_errors=True)
