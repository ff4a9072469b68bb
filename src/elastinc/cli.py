"""Command-line runner: parse a config, orchestrate a run, write reports.

Subcommands:
  solve         assemble and solve, write solution and manifest files
  field         solve, then sample the displacement on a grid (CSV)
  oracle-check  also solve with the reference method and compare
  self-test     run built-in consistency checks on disk/ellipse fixtures

The config file is JSON with a ``schema_version`` field; every complex
number is a two-element ``[re, im]`` list. The file is the source of
truth, command-line flags override single fields: each flag is written
into its field of the file's document, which is then validated as a whole
and echoed as the manifest's ``config``. Exit codes: 0 success, 1 reports
could not be written, 2 config error, 3 assembly error, 4 solve failure,
5 reference-solution disagreement beyond tolerance.
"""

import argparse
import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .field import (
    DEFAULT_BOUNDARY_BAND,
    FieldError,
    FieldEvaluator,
    FieldGrid,
    GridSpec,
    boundary_traction_spread,
    grid_field,
    transmission_residual,
)
from .geometry import (
    ConformalMap,
    GeometryError,
    build_geometry,
    eval_map,
    grunsky_table_entries,
)
from .loading import LoadingError, LoadingSpec, boundary_series, eval_loading, unit_rhs_vectors
from .materials import MaterialError, MaterialPair
from .oracle import (
    OracleError,
    assemble_nystrom,
    build_mesh,
    check_node_count,
    compare,
    solve_nystrom,
    solve_oracle,
)
from .system import AssemblyError, DensitySolution, assemble_system, one_norm_condition, solve

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_WRITE = 1
EXIT_CONFIG = 2
EXIT_ASSEMBLY = 3
EXIT_SOLVE = 4
EXIT_MISMATCH = 5
DEFAULT_TRUNCATION = 16
MAX_TRUNCATION = 512
MAX_GRUNSKY_ENTRIES = 2**25  # complex entries of the geometry's Grunsky table (512 MiB)
DEFAULT_ORACLE_NODES = 256
DEFAULT_ORACLE_TOLERANCE = 1e-3
RESIDUAL_ANGLES = 64

SOLUTION_FILE = "solution.json"
FIELD_FILE = "field.csv"
ORACLE_FILE = "oracle_report.json"
MANIFEST_FILE = "manifest.json"
SUMMARY_FILE = "summary.txt"
TIMINGS_FILE = "timings.json"

CSV_HEADER = ("re(w)", "im(w)", "re(z)", "im(z)", "region", "re(u)", "im(u)")


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


# -- config parsing -----------------------------------------------------------

_KINDS = {  # JSON kind: the Python types that hold it, and its name in messages
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "an object"),
}
_REQUIRED = object()
GRID_KEYS = ("x0", "x1", "y0", "y1", "nx", "ny")
SCHEMA_KEYS = {  # every key each section may hold; any other is a config error
    "config": ("schema_version", "map", "material", "loading", "truncation", "grid", "oracle",
               "tolerances", "output"),
    "map": ("gamma", "a"),
    "material": ("lambda", "mu", "lambda_t", "mu_t", "cavity"),
    "loading": ("A", "B"),
    "grid": GRID_KEYS,
    "oracle": ("enabled", "q"),
    "tolerances": ("oracle",),
    "output": ("dir",),
}


def _field(block: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """block[key], checked to be of a JSON kind; a missing key gets its default, written in."""
    if key not in block and default is _REQUIRED:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = block.setdefault(key, default)
    if value is default:  # a filled-in default, or a null where null is the default
        return value
    types, name = _KINDS[kind]
    # a JSON boolean is a Python int, but never a number here
    if not isinstance(value, types) or isinstance(value, bool) is not (kind is bool):
        raise ConfigError(f"{where}.{key}: expected {name}, got {value!r}")
    return float(value) if kind is float else value


def _known_keys(block: dict, where: str) -> None:
    """Refuse a key outside the section's schema: a misspelt key would otherwise
    leave its field at the default without a word."""
    for key in block:
        if key not in SCHEMA_KEYS[where]:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _as_complex(item, where: str) -> complex:
    """Read one [re, im] pair; plain numbers are rejected on purpose."""
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in item)
    ):
        raise ConfigError(f"{where}: complex values must be [re, im] number pairs, got {item!r}")
    return complex(float(item[0]), float(item[1]))


def _complex_list(block: dict, key: str, where: str) -> list[complex]:
    items = _field(block, key, list, where)
    return [_as_complex(v, f"{where}.{key}[{i}]") for i, v in enumerate(items)]


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs; construction performs all cross-module checks.

    document is the config in file form as the run used it: the file's
    JSON with every flag override written into its field and every default
    filled in. The manifest echoes it, and it loads again unchanged.
    """

    cmap: ConformalMap
    material: MaterialPair
    loading: LoadingSpec
    truncation: int
    grid: GridSpec | None
    oracle_enabled: bool
    oracle_nodes: int
    oracle_tolerance: float
    out_dir: Path
    document: dict


def _grid_fields(text: str) -> dict:
    """The --grid text "x0,x1,y0,y1,nx,ny" as a config grid block."""
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError(f"--grid needs 6 comma-separated values, got {len(parts)}")
    try:
        return dict(zip(GRID_KEYS, [float(p) for p in parts[:4]] + [int(p) for p in parts[4:]]))
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from exc


def _grid(block: dict, where: str) -> GridSpec:
    _known_keys(block, "grid")
    x0, x1, y0, y1 = (_field(block, key, float, where) for key in GRID_KEYS[:4])
    nx, ny = (_field(block, key, int, where) for key in GRID_KEYS[4:])
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise ConfigError(f"{where}: grid bounds must be finite")
    if nx < 0 or ny < 0:
        raise ConfigError(f"{where}: grid counts must be nonnegative")
    if x1 < x0 or y1 < y0:
        raise ConfigError(f"{where}: grid bounds must be ordered")
    return GridSpec(x0, x1, y0, y1, nx, ny, band=DEFAULT_BOUNDARY_BAND)


def parse_grid_text(text: str) -> GridSpec:
    """Parse and validate the --grid override "x0,x1,y0,y1,nx,ny"."""
    return _grid(_grid_fields(text), "--grid")


def load_config(
    path,
    truncation: int | None = None,
    grid_text: str | None = None,
    force_oracle: bool = False,
    out_dir: str | None = None,
    tolerance: float | None = None,
) -> RunConfig:
    """Read a config file, write the flag overrides into it, and validate it.

    A flag value replaces its field (truncation, grid, oracle.enabled,
    output.dir, tolerances.oracle) before anything is checked, so it must
    have the type of that field, and the section it lands in must be an
    object. A key outside SCHEMA_KEYS is refused, so a misspelt key, or one
    an older version wrote, is an error and not a silent default. Every
    domain object is constructed here, so a config that would
    fail any module-level invariant (non-injective map, non-elliptic
    material, constant loading term, loading above the truncation, a
    truncation above MAX_TRUNCATION, a map so deep that its Grunsky table
    at the truncation exceeds MAX_GRUNSKY_ENTRIES, a non-finite value, an
    oracle node count the reference solver refuses) is rejected before a
    run produces any output, or allocates any of its matrices.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    version = _field(doc, "schema_version", int, "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version {version!r} is not supported (expected {SCHEMA_VERSION})")

    _known_keys(doc, "config")
    map_block, material_block, loading_block = (
        _field(doc, key, dict, "config") for key in ("map", "material", "loading"))
    oracle_block, tol_block, output_block = (
        _field(doc, key, dict, "config", {}) for key in ("oracle", "tolerances", "output"))
    for block, where in ((map_block, "map"), (material_block, "material"),
                         (loading_block, "loading"), (oracle_block, "oracle"),
                         (tol_block, "tolerances"), (output_block, "output")):
        _known_keys(block, where)
    for block, key, value in (
        (doc, "truncation", truncation),
        (doc, "grid", None if grid_text is None else _grid_fields(grid_text)),
        (oracle_block, "enabled", force_oracle or None),
        (output_block, "dir", out_dir),
        (tol_block, "oracle", tolerance),
    ):
        if value is not None:
            block[key] = value

    try:
        cmap = ConformalMap(_field(map_block, "gamma", float, "map"),
                            _complex_list(map_block, "a", "map"))
        lam = _field(material_block, "lambda", float, "material")
        mu = _field(material_block, "mu", float, "material")
        if _field(material_block, "cavity", bool, "material", False):
            material = MaterialPair(lam, mu, cavity=True)
        else:
            material = MaterialPair(lam, mu, _field(material_block, "lambda_t", float, "material"),
                                    _field(material_block, "mu_t", float, "material"))
        loading = LoadingSpec(A=_complex_list(loading_block, "A", "loading") or [0.0],
                              B=_complex_list(loading_block, "B", "loading") or [0.0])
    except (GeometryError, MaterialError, LoadingError) as exc:
        raise ConfigError(str(exc)) from exc

    n = _field(doc, "truncation", int, "config", DEFAULT_TRUNCATION)
    if not 1 <= n <= MAX_TRUNCATION:
        raise ConfigError(f"truncation must be in 1..{MAX_TRUNCATION}, got {n}")
    entries = grunsky_table_entries(cmap, n)
    if entries > MAX_GRUNSKY_ENTRIES:
        raise ConfigError(
            f"a map of depth {cmap.depth} at truncation {n} needs a Grunsky table of "
            f"{entries} complex entries, above the limit of {MAX_GRUNSKY_ENTRIES}"
        )
    if loading.order > n:
        raise ConfigError(f"loading mode {loading.order} exceeds truncation order {n}")

    grid_block = _field(doc, "grid", dict, "config", None)
    grid = None if grid_block is None else _grid(grid_block, "grid")
    enabled = _field(oracle_block, "enabled", bool, "oracle", False)
    q = _field(oracle_block, "q", int, "oracle", DEFAULT_ORACLE_NODES)
    try:
        check_node_count(q)
    except OracleError as exc:
        raise ConfigError(f"oracle.q: {exc}") from exc
    tol = _field(tol_block, "oracle", float, "tolerances", DEFAULT_ORACLE_TOLERANCE)
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"oracle tolerance must be positive and finite, got {tol}")
    out = Path(_field(output_block, "dir", str, "output", "."))
    return RunConfig(cmap, material, loading, n, grid, enabled, q, tol, out, doc)


# -- orchestration ------------------------------------------------------------


@dataclass
class RunResults:
    """Everything a run produced, ready for serialization."""

    config: RunConfig
    command: str
    solution: DensitySolution
    condition_estimate: float  # one_norm_condition of the solved system's matrix
    samples: FieldGrid | None
    oracle_report: object | None
    oracle_condition_estimate: float | None  # the same for the Nystrom matrix
    interface_residuals: tuple[float, float] | None
    timings: dict[str, float]  # seconds per stage that ran, by time.perf_counter


class SolveFailure(RuntimeError):
    """The truncated solve did not meet its convergence contract."""


@contextmanager
def _timed(timings: dict, stage: str):
    start = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - start


def orchestrate(config: RunConfig, command: str) -> RunResults:
    """Assemble, solve, and evaluate whatever the subcommand asks for.

    Each stage that runs (geometry, assembly, solve, field, oracle,
    condition, residual) records its wall time in seconds. The condition
    stage holds the 1-norm condition estimates of the solved system and,
    when the oracle runs, of the Nystrom matrix: each costs two or three
    more LU factorizations, paid only here, where they are reported.
    """
    if command == "field" and config.grid is None:
        raise ConfigError("a field run needs a grid (config key or --grid)")
    timings: dict[str, float] = {}
    with _timed(timings, "geometry"):
        bundle = build_geometry(config.cmap, config.truncation)
    with _timed(timings, "assembly"):
        system = assemble_system(config.material, bundle, config.loading)
    with _timed(timings, "solve"):
        solution = solve(system)
    if not solution.converged:
        raise SolveFailure(
            f"solve did not converge: residual {solution.residual:.3e} at n={config.truncation}"
        )

    samples = None
    if command == "field":
        with _timed(timings, "field"):
            samples = grid_field(solution, config.loading, config.cmap, config.material,
                                 config.grid)

    report = oracle_system = oracle_condition = None
    if command == "oracle-check" or config.oracle_enabled:
        with _timed(timings, "oracle"):
            oracle_system = assemble_nystrom(build_mesh(config.cmap, config.oracle_nodes),
                                             config.material, config.loading)
            report = compare(solve_nystrom(oracle_system), solution, config.cmap,
                             config.material, config.loading)

    with _timed(timings, "condition"):
        condition = one_norm_condition(system.matrix)
        if oracle_system is not None:
            oracle_condition = one_norm_condition(oracle_system.matrix)

    with _timed(timings, "residual"):
        if config.material.cavity:
            spread = boundary_traction_spread(
                solution, config.loading, config.cmap, config.material, RESIDUAL_ANGLES
            )
            residuals = (float("nan"), spread)
        else:
            residuals = transmission_residual(
                solution, config.loading, config.cmap, config.material, RESIDUAL_ANGLES
            )

    return RunResults(
        config=config,
        command=command,
        solution=solution,
        condition_estimate=condition,
        samples=samples,
        oracle_report=report,
        oracle_condition_estimate=oracle_condition,
        interface_residuals=residuals,
        timings=timings,
    )


# -- serialization ------------------------------------------------------------


def _pair(c: complex) -> list[float]:
    # + 0.0 turns -0.0 into 0.0: the sign of an exact zero follows operation order
    return [float(np.real(c)) + 0.0, float(np.imag(c)) + 0.0]


def _pair_list(arr) -> list[list[float]] | None:
    if arr is None:
        return None
    return [_pair(v) for v in np.asarray(arr)]


def solution_payload(solution: DensitySolution, condition_estimate: float) -> dict:
    return {
        "mode": solution.mode,
        "truncation": solution.n,
        "coefficients": {
            "xe_plus": _pair_list(solution.xe_plus),
            "xe_minus": _pair_list(solution.xe_minus),
            "xi_plus": _pair_list(solution.xi_plus),
            "xi_minus": _pair_list(solution.xi_minus),
        },
        "residual": solution.residual,
        "rank": solution.rank,
        "condition_estimate": condition_estimate,
        "rotation_projection": solution.rotation_projection + 0.0,
        "converged": solution.converged,
    }


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_field_csv(path: Path, grid: FieldGrid) -> None:
    def text(values: np.ndarray):
        return map(repr, values.tolist())

    rows = zip(text(grid.w.real), text(grid.w.imag), text(grid.z.real), text(grid.z.imag),
               grid.regions(), text(grid.u.real), text(grid.u.imag))
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _summary_text(results: RunResults) -> str:
    sol = results.solution
    lines = [
        f"command: {results.command}",
        f"mode: {sol.mode}",
        f"truncation: {sol.n}",
        f"solve residual: {sol.residual:.6e}",
        f"rank: {sol.rank} (condition estimate {results.condition_estimate:.6e}, "
        f"converged {sol.converged})",
        f"rotation projection: {sol.rotation_projection:.6e}",
    ]
    r_disp, r_trac = results.interface_residuals
    if sol.mode == "cavity":
        lines.append(f"boundary traction spread: {r_trac:.6e}")
    else:
        lines.append(f"interface displacement gap: {r_disp:.6e}")
        lines.append(f"interface traction spread: {r_trac:.6e}")
    if results.samples is not None:
        lines.append(f"field samples: {len(results.samples)}")
    if results.oracle_report is not None:
        for name, value in results.oracle_report.rows():
            lines.append(f"oracle {name}: {value:.6e}")
        lines.append(f"oracle condition_estimate: {results.oracle_condition_estimate:.6e}")
        lines.append(f"oracle tolerance: {results.config.oracle_tolerance:.6e}")
    return "\n".join(lines) + "\n"


def emit_reports(results: RunResults, out_dir) -> list[Path]:
    """Write every report for a finished run; returns the paths written.

    The manifest's config is the run's config document (RunConfig.document),
    so a run can be repeated from its own output directory; apart from the
    manifest timestamp and timings.json (seconds per stage) the outputs are
    deterministic functions of the config.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    written: list[Path] = []
    sol_path = out / SOLUTION_FILE
    _write_json(sol_path, solution_payload(results.solution, results.condition_estimate))
    written.append(sol_path)

    if results.samples is not None:
        csv_path = out / FIELD_FILE
        _write_field_csv(csv_path, results.samples)
        written.append(csv_path)

    if results.oracle_report is not None:
        rep = results.oracle_report
        rep_path = out / ORACLE_FILE
        _write_json(
            rep_path,
            {
                "boundary_max": rep.boundary_max,
                "boundary_rms": rep.boundary_rms,
                "exterior_max": rep.exterior_max,
                "exterior_rms": rep.exterior_rms,
                "q": rep.q,
                "n_points": rep.n_points,
                "condition_estimate": results.oracle_condition_estimate,
                "tolerance": results.config.oracle_tolerance,
                "within_tolerance": oracle_within_tolerance(results),
            },
        )
        written.append(rep_path)

    summary_path = out / SUMMARY_FILE
    _write_text(summary_path, _summary_text(results))
    written.append(summary_path)

    timings_path = out / TIMINGS_FILE
    _write_json(timings_path, results.timings)
    written.append(timings_path)

    manifest_path = out / MANIFEST_FILE
    _write_json(
        manifest_path,
        {
            "schema_version": SCHEMA_VERSION,
            "command": results.command,
            "config": results.config.document,
            "versions": {"elastinc": __version__, "numpy": np.__version__},
            "files": [p.name for p in written],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    )
    written.append(manifest_path)
    return written


def oracle_within_tolerance(results: RunResults) -> bool:
    rep = results.oracle_report
    tol = results.config.oracle_tolerance
    return bool(rep.boundary_max <= tol and rep.exterior_max <= tol)


# -- entry point --------------------------------------------------------------


def run(config_path, command: str = "solve", stream=None, **overrides) -> int:
    """Full run for one subcommand; returns the process exit code.

    overrides are load_config's flag keywords (truncation, grid_text,
    force_oracle, out_dir, tolerance).
    """
    stream = stream if stream is not None else sys.stderr
    try:
        config = load_config(config_path, **overrides)
        results = orchestrate(config, command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stream)
        return EXIT_CONFIG
    except (GeometryError, MaterialError, LoadingError, AssemblyError) as exc:
        print(f"assembly error: {exc}", file=stream)
        return EXIT_ASSEMBLY
    except (SolveFailure, FieldError, OracleError, np.linalg.LinAlgError) as exc:
        print(f"solve error: {exc}", file=stream)
        return EXIT_SOLVE

    try:
        written = emit_reports(results, config.out_dir)
    except OSError as exc:
        print(str(exc), file=stream)
        return EXIT_WRITE

    for path in written:
        print(f"wrote {path}", file=stream)
    if results.oracle_report is not None and not oracle_within_tolerance(results):
        rep = results.oracle_report
        print(
            "oracle disagreement beyond tolerance: "
            f"boundary {rep.boundary_max:.3e}, exterior {rep.exterior_max:.3e} "
            f"(tolerance {results.config.oracle_tolerance:.3e})",
            file=stream,
        )
        return EXIT_MISMATCH
    return EXIT_OK


# -- built-in self test -------------------------------------------------------


def _check_disk_closed_form() -> float:
    cmap = ConformalMap(1.0, [0.5])
    material = MaterialPair(2.0, 1.0, cavity=True)
    bundle = build_geometry(cmap, 12)
    worst = 0.0
    for m in (1, 2, 3):
        B = np.zeros(m + 1, complex)
        B[m] = 0.8 - 0.3j
        sol = solve(assemble_system(material, bundle, LoadingSpec(A=np.zeros(2), B=B)))
        want = -2.0 * np.conj(B[m]) * m / material.beta
        worst = max(worst, abs(sol.xe_plus[m]))
        worst = max(worst, abs(sol.xe_minus[m] - want) / abs(want))
    return worst


def _check_loading_series() -> float:
    cmap = ConformalMap(1.0, [0.5, 0.3])
    material = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
    bundle = build_geometry(cmap, 16)
    loading = LoadingSpec(A=[0.0, 0.3 - 0.1j], B=[0.0, 1.0, 0.25j])
    disp, _ = unit_rhs_vectors(material, bundle, loading)
    theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    w = cmap.gamma * np.exp(1j * theta)
    series = boundary_series(disp[16:], disp[16::-1], w / cmap.gamma)
    direct = eval_loading(loading, cmap, material, eval_map(cmap, w))
    return float(np.max(np.abs(series - direct)))


def _check_transmission_residual() -> float:
    cmap = ConformalMap(1.0, [0.5, 0.3])
    material = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
    bundle = build_geometry(cmap, 16)
    loading = LoadingSpec(A=np.zeros(2), B=[0.0, 1.0])
    sol = solve(assemble_system(material, bundle, loading))
    return max(transmission_residual(sol, loading, cmap, material, RESIDUAL_ANGLES))


def _check_oracle_agreement() -> float:
    cmap = ConformalMap(1.0, [0.5])
    material = MaterialPair(2.0, 1.0, cavity=True)
    loading = LoadingSpec(A=np.zeros(2), B=[0.0, 1.0])
    sol = solve(assemble_system(material, build_geometry(cmap, 12), loading))
    oracle_sol = solve_oracle(cmap, material, loading, 64)
    report = compare(oracle_sol, sol, cmap, material, loading, n_points=16)
    return max(report.boundary_max, report.exterior_max)


def _check_radius_scale_invariance() -> float:
    # the four-term map at gamma = 2 against its unit-radius problem: the same
    # coefficients, and the same displacement at w = gamma omega
    a1, gamma = np.array([0.1, 0.25, 0.08 + 0.05j, 0.03]), 2.0
    material = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
    omega = 1.5 * np.exp(2j * np.pi * np.arange(8) / 8)
    loading = LoadingSpec([0.0, 0.3], [0.0, 1.0, 0.5j])
    unit_loading = LoadingSpec([0.0, 0.3 * gamma], [0.0, gamma, 0.5j * gamma**2])
    runs = []
    for cmap, spec in ((ConformalMap(gamma, a1 * gamma ** (np.arange(4) + 1)), loading),
                       (ConformalMap(1.0, a1), unit_loading)):
        sol = solve(assemble_system(material, build_geometry(cmap, 16), spec))
        u = FieldEvaluator(sol, spec, cmap, material).exterior_arrays(cmap.gamma * omega)["u"]
        runs.append(np.concatenate([sol.xe_plus, sol.xe_minus, sol.xi_plus, sol.xi_minus, u]))
    return float(np.max(np.abs(runs[0] - runs[1])) / np.max(np.abs(runs[1])))


SELF_TESTS = (
    ("disk cavity closed form", _check_disk_closed_form, 1e-12),
    ("loading boundary series", _check_loading_series, 1e-12),
    ("ellipse transmission residuals", _check_transmission_residual, 1e-12),
    ("reference-method agreement", _check_oracle_agreement, 1e-9),
    ("radius-scale invariance", _check_radius_scale_invariance, 1e-12),
)


def self_test(stream=None) -> int:
    """Run the built-in fixture checks; returns 0 when all pass."""
    stream = stream if stream is not None else sys.stdout
    failures = 0
    for name, fn, tol in SELF_TESTS:
        value = fn()
        ok = value <= tol
        failures += 0 if ok else 1
        verdict = "pass" if ok else "FAIL"
        print(f"{verdict}  {name}: {value:.3e} (tolerance {tol:.1e})", file=stream)
    print(f"self-test: {len(SELF_TESTS) - failures}/{len(SELF_TESTS)} passed", file=stream)
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastinc",
        description="Solve the plane elastic inclusion problem from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "assemble and solve, write solution and manifest"),
        ("field", "solve and sample the displacement field on a grid"),
        ("oracle-check", "solve and cross-check against the reference method"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--truncation", type=int, default=None, help="override truncation order")
        p.add_argument("--grid", default=None, dest="grid_text", metavar="X0,X1,Y0,Y1,NX,NY",
                       help="override the evaluation grid")
        p.add_argument("--oracle", action="store_true", dest="force_oracle",
                       help="force the reference comparison on")
        p.add_argument("--out-dir", default=None, help="override the output directory")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the reference-comparison tolerance")
    sub.add_parser("self-test", help="run built-in consistency checks")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    if command == "self-test":
        return self_test()
    return run(args.pop("config"), command, **args)


if __name__ == "__main__":
    sys.exit(main())
