"""Package-level properties."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elastinc

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE = Path(__file__).resolve().parent / "layer_reference.py"

# names deleted from the package: the monomial Faber substrate, the
# sixteen-block system, the reference solver's test-only matrices and
# solves and its dense (2q, 2q) block builders now live in
# tests/layer_reference.py as references; the
# single-point field wrappers, the square Grunsky alias, the per-sign
# right-hand-side vectors, the Kelvin kernel at one point pair and the
# cavity constructor are gone, and so are the second forms of arguments and
# results: the bundle-or-map geometry argument, the array form of the
# residual angles, the material-side strings and the (q, 2) real copies of
# the reference densities. The quadrature columns' mode-angle table and the
# reference solve's two checks that repeat its residual (rigid moments, now
# a test reference, and the trace gap) are gone too.
REMOVED = ("faber_matrix", "faber_inverse", "monomial_derivative_matrix", "poly_eval",
           "loading_pair", "_polyder", "eval_exterior", "eval_interior",
           "eval_traction_potential", "_sample", "grunsky_matrix",
           "_sided_blocks", "exterior_blocks", "interior_blocks", "m_blocks",
           "RhsVector", "rhs_vectors", "kill0", "kelvin_kernel", "single_layer_matrix",
           "conormal_matrix", "_lame_constants", "eval_oracle_interior", "self_convergence",
           "cavity_limit", "_single_layer_blocks", "_conormal_blocks", "_as_map", "_as_angles",
           "_kelvin_constants", "psi_complex", "phi_complex", "_mode_angles", "rigid_moments",
           "trace_gap", "eval_map_derivative", "eval_map_second_derivative", "boundary_point",
           "_extension_points", "_map_and_derivative", "_unit_scale", "DEFAULT_EXTENSION_MARGIN")

PUBLIC = ["BlockSystem", "BoundaryMesh", "ComparisonReport", "ConformalMap", "DensitySolution",
          "FieldEvaluator", "FieldGrid", "FieldSample", "GeometryBundle", "GridSpec",
          "LoadingSpec", "MaterialPair", "OracleSolution", "assemble_system",
          "boundary_traction_spread", "build_geometry", "build_mesh", "classify_points",
          "compare", "derive_constants", "eval_loading", "eval_oracle_exterior", "grid_field",
          "invert_map", "solve", "solve_oracle", "transmission_residual"]

MODULES = ("cli", "field", "geometry", "loading", "materials", "oracle", "system")


def defined_names(path: Path) -> set[str]:
    """Every function, class and assigned name a module defines, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    assert run_python("import sys, elastinc; print('scipy' in sys.modules)") == "False"


def test_reference_solve_does_not_load_scipy():
    # the README config, solved by the Nystrom reference at q = 64
    code = (
        "import sys\n"
        "from elastinc import ConformalMap, LoadingSpec, MaterialPair, build_mesh\n"
        "from elastinc.oracle import assemble_nystrom, solve_nystrom\n"
        "from elastinc.system import one_norm_condition\n"
        "system = assemble_nystrom(build_mesh(ConformalMap(1.0, [0.5, 0.3]), 64),\n"
        "                          MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0),\n"
        "                          LoadingSpec(A=[0.0], B=[0.0, 1.0]))\n"
        "sol = solve_nystrom(system)\n"
        "print(one_norm_condition(system.matrix) > 1.0, 'scipy' in sys.modules)"
    )
    assert run_python(code) == "True False"


def test_every_public_name_resolves():
    missing = [name for name in elastinc.__all__ if not hasattr(elastinc, name)]
    assert missing == []
    assert len(set(elastinc.__all__)) == len(elastinc.__all__)


def test_public_surface_is_pinned():
    assert sorted(elastinc.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(elastinc, name) is not None
    for owner in (elastinc, *(importlib.import_module(f"elastinc.{m}") for m in MODULES)):
        present = [name for name in REMOVED if hasattr(owner, name)]
        assert present == [], f"{owner.__name__} still has {present}"


def test_removed_forms_are_gone():
    # unit_radius and alpha_t stay legitimate names elsewhere
    # (LoadingSpec.unit_radius, local variables), so they are checked here
    # rather than through REMOVED
    from elastinc.oracle import NystromSystem

    assert not hasattr(importlib.import_module("elastinc.geometry"), "unit_radius")
    assert hasattr(elastinc.LoadingSpec, "unit_radius")
    # fields that copied a fact held elsewhere: the phase is material.cavity (a
    # solution keeps its mode for solution.json), the interior constants are
    # material.interior_constants(), the reference densities are complex, the
    # truncation is bundle.n; FieldSample's parts were always empty (parts is
    # checked here because the CLI keeps a local of that name)
    removed_fields = {
        elastinc.BlockSystem: {"mode", "n"},
        NystromSystem: {"mode"},
        elastinc.OracleSolution: {"mode", "psi_nodes", "phi_nodes"},
        elastinc.MaterialPair: {"alpha_t", "beta_t", "kappa_t"},
        elastinc.FieldSample: {"parts"},
    }
    for owner, removed in removed_fields.items():
        present = removed & {f.name for f in dataclasses.fields(owner)}
        assert not present, f"{owner.__name__} still has {sorted(present)}"
    assert "mode" in {f.name for f in dataclasses.fields(elastinc.DensitySolution)}
    # the quadrature weights are built per call, with no cache, and the
    # exterior field returns u and the total pair alone, not u's terms
    from elastinc.oracle import hilbert_weights, log_weights

    assert not hasattr(log_weights, "cache_info") and not hasattr(hilbert_weights, "cache_info")
    cmap = elastinc.ConformalMap(1.0, [0.5, 0.3])
    spec = elastinc.LoadingSpec([0.0], [0.0, 1.0])
    mat = elastinc.MaterialPair(2.0, 1.0, cavity=True)
    sol = elastinc.solve(elastinc.assemble_system(mat, elastinc.build_geometry(cmap, 4), spec))
    arrays = elastinc.FieldEvaluator(sol, spec, cmap, mat).exterior_arrays(np.array([1.5 + 0j]))
    assert sorted(arrays) == ["f", "fprime", "g", "u", "z"]


def test_package_defines_no_reference_substrate():
    # one Faber substrate in the package: every Faber sum runs the recurrence
    # on point values, and the monomial references stay in the tests
    reference = {node.name for node in ast.parse(REFERENCE.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    assert {"faber_matrix", "poly_eval", "loading_pair"} <= reference
    modules = sorted(Path(elastinc.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    for module in modules:
        clash = defined_names(module) & (reference | set(REMOVED))
        assert not clash, f"{module.name} defines {sorted(clash)}"


def test_array_dataclasses_compare_by_identity():
    # frozen dataclasses holding arrays compare and hash by identity: equal
    # values in distinct objects stay distinct, as do the maps' kept tables
    from elastinc.geometry import grunsky_rows

    a, b = elastinc.ConformalMap(1.0, [0.5, 0.3]), elastinc.ConformalMap(1.0, [0.5, 0.3])
    assert a == a and a != b and hash(a) != hash(b) and len({a, b}) == 2
    assert grunsky_rows(a, 4, 8) is not grunsky_rows(b, 4, 8)
    assert a.__dict__["_grunsky"] is not b.__dict__["_grunsky"]
    spec = elastinc.LoadingSpec([0.0], [0.0, 1.0])
    assert spec != elastinc.LoadingSpec([0.0], [0.0, 1.0]) and hash(spec) == hash(spec)
    mat = elastinc.MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
    bundle = elastinc.build_geometry(a, 4)
    system = elastinc.assemble_system(mat, bundle, spec)
    mesh = elastinc.build_mesh(a, 16)
    held = (bundle, system, elastinc.solve(system), mesh, elastinc.solve_oracle(a, mat, spec, 16))
    for x in held:
        assert x == x and not x != x and isinstance(hash(x), int)
    assert bundle != elastinc.build_geometry(a, 4) and mesh != elastinc.build_mesh(a, 16)


ELLIPSE_A = [0.0, 0.3]
FIELD_KEYS = {"u", "z", "f", "fprime", "g"}


def benchmark_config(cavity: bool) -> dict:
    """A config in the benchmark's form: complex values as [re, im] pairs."""
    material = {"lambda": 2.0, "mu": 1.0}
    material.update({"cavity": True} if cavity else {"lambda_t": 4.0, "mu_t": 3.0})
    return {
        "schema_version": 1,
        "map": {"gamma": 1.0, "a": [[0.0, 0.0], [0.3, 0.0]]},
        "material": material,
        "loading": {"A": [[0.0, 0.0], [0.3, -0.1]], "B": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.4]]},
        "truncation": 8,
        "oracle": {"enabled": False, "q": 64},
        "grid": {"x0": -2.0, "x1": 2.0, "y0": -1.0, "y1": 1.0, "nx": 9, "ny": 5},
    }


@pytest.mark.parametrize("cavity", [False, True], ids=["transmission", "cavity"])
def test_benchmark_read_surface(tmp_path, cavity):
    # every name, attribute, key and call form the benchmark harness reads,
    # called the way it calls them. The harness is not imported, so a change
    # to the benchmark alone cannot break this test, and a change to the
    # package that would break the benchmark breaks it here first.
    from elastinc import cli, oracle
    from elastinc.geometry import GeometryError, eval_map
    from elastinc.field import FieldError

    assert issubclass(GeometryError, Exception) and issubclass(FieldError, Exception)
    mat = (elastinc.MaterialPair(2.0, 1.0, cavity=True) if cavity
           else elastinc.MaterialPair(2.0, 1.0, 4.0, 3.0))
    assert mat.cavity is cavity and mat.has_interior is not cavity
    cmap = elastinc.ConformalMap(1.0, ELLIPSE_A)
    load = elastinc.LoadingSpec(A=[0.0, 0.3 - 0.1j], B=[0.0, 1.0, 0.4j])
    sol = elastinc.solve(elastinc.assemble_system(mat, elastinc.build_geometry(cmap, 8), load))
    for name in ("xe_plus", "xe_minus", "xi_plus", "xi_minus"):
        value = getattr(sol, name)
        assert value is None if cavity and name.startswith("xi") else value.shape == (9,)
    assert sol.mode == ("cavity" if cavity else "transmission")
    assert sol.rank > 0 and bool(sol.converged)
    diagnostic = elastinc.boundary_traction_spread if cavity else elastinc.transmission_residual
    assert np.all(np.isfinite(diagnostic(sol, load, cmap, mat, cli.RESIDUAL_ANGLES)))

    ev = elastinc.FieldEvaluator(sol, load, cmap, mat)
    ring = np.exp(2j * np.pi * np.arange(16) / 16)
    assert FIELD_KEYS <= set(ev.exterior_arrays(1.5 * ring))
    assert np.max(np.abs(eval_map(cmap, ring))) > 0.0
    if not cavity:
        assert FIELD_KEYS <= set(ev.interior_arrays(ring))
        assert FIELD_KEYS <= set(ev.interior_arrays_z(0.5 * ring))

    grid = elastinc.GridSpec(-2.0, 2.0, -1.0, 1.0, 9, 5)
    pts = grid.points()
    regions, near = elastinc.classify_points(cmap, pts, band=grid.band)
    assert set(regions.tolist()) == {"exterior", "interior"} and near.dtype == bool
    assert np.all(np.abs(elastinc.invert_map(cmap, pts[regions == "exterior"])) >= 1.0)
    field = elastinc.grid_field(sol, load, cmap, mat, grid)
    assert len(field) == pts.size
    rows = [(s.w, s.z, s.region, s.u) for s in field]
    assert [region for _, _, region, _ in rows] == regions.tolist()

    for q in (8, 64):
        assert oracle.log_weights(q).shape == oracle.hilbert_weights(q).shape == (q, q)
    system = oracle.assemble_nystrom(elastinc.build_mesh(cmap, 64), mat, load)
    size = system.matrix.shape[0]
    assert system.constraints.shape == (3, size - 3) and system.matrix.nbytes > 0
    report = elastinc.compare(oracle.solve_nystrom(system), sol, cmap, mat, load)
    assert report.exterior_max >= 0.0

    path = tmp_path / "config.json"
    path.write_text(json.dumps(benchmark_config(cavity)))
    for command, extra in (("solve", None), ("field", "field.csv"),
                           ("oracle-check", "oracle_report.json")):
        out = tmp_path / command
        config = cli.load_config(path, out_dir=str(out))
        cli.emit_reports(cli.orchestrate(config, command), out)
        assert (out / "summary.txt").is_file() and (out / "manifest.json").is_file()
        payload = json.loads((out / "solution.json").read_text())
        assert {"mode", "truncation", "coefficients", "residual", "rank", "converged"} <= set(payload)
        assert payload["mode"] == sol.mode and payload["truncation"] == 8
        assert {"xe_plus", "xe_minus"} <= set(payload["coefficients"])
        if extra == "field.csv":
            header = (out / extra).read_text().splitlines()[0]
            assert header.split(",") == list(cli.CSV_HEADER)
        elif extra:
            keys = set(json.loads((out / extra).read_text()))
            assert {"boundary_max", "exterior_max", "q", "within_tolerance"} <= keys
