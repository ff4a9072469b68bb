"""Config parsing, run orchestration, and report serialization."""

import csv
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

from elastinc import cli
from elastinc.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SOLVE,
    ConfigError,
    load_config,
    main,
    orchestrate,
    parse_grid_text,
    run,
    self_test,
    solution_payload,
)
from elastinc.geometry import ConformalMap, grunsky_table_entries
from elastinc.system import DensitySolution, one_norm_condition

CONFIG_TOL = 1e-12
NAN, INF = float("nan"), float("inf")
GRID = {"x0": -3.0, "x1": 3.0, "y0": -3.0, "y1": 3.0, "nx": 3, "ny": 3}


def base_config(**overrides) -> dict:
    cfg = {
        "schema_version": 1,
        "map": {"gamma": 1.0, "a": [[0.5, 0.0], [0.3, 0.0]]},
        "material": {"lambda": 2.0, "mu": 1.0, "lambda_t": 4.0, "mu_t": 3.0},
        "loading": {"A": [[0.0, 0.0]], "B": [[0.0, 0.0], [1.0, 0.0]]},
        "truncation": 12,
        "oracle": {"enabled": False, "q": 64},
        "tolerances": {"oracle": 1e-3},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_roundtrip(tmp_path):
    path = write_config(tmp_path, base_config())
    cfg = load_config(path)
    assert cfg.cmap.gamma == 1.0
    assert abs(cfg.cmap.coeff(1) - 0.3) <= CONFIG_TOL
    assert cfg.material.mu_int == 3.0
    assert abs(cfg.loading.B[1] - 1.0) <= CONFIG_TOL
    assert cfg.truncation == 12
    assert cfg.grid is None
    assert not cfg.oracle_enabled
    assert cfg.oracle_nodes == 64


def test_flag_overrides_beat_config(tmp_path):
    path = write_config(tmp_path, base_config())
    cfg = load_config(
        path,
        truncation=20,
        grid_text="-1,1,-2,2,3,4",
        force_oracle=True,
        out_dir="elsewhere",
        tolerance=1e-5,
    )
    assert cfg.truncation == 20
    assert cfg.grid.nx == 3 and cfg.grid.ny == 4
    assert cfg.grid.ymin == -2.0 and cfg.grid.ymax == 2.0
    assert cfg.oracle_enabled
    assert cfg.oracle_tolerance == 1e-5
    assert str(cfg.out_dir) == "elsewhere"
    assert cfg.echo()["truncation"] == 20


def test_grid_text_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_grid_text("0,1,0,1,5")
    with pytest.raises(ConfigError):
        parse_grid_text("0,1,0,1,five,5")
    with pytest.raises(ConfigError):
        parse_grid_text("1,0,0,1,5,5")


def test_config_rejects_bare_numbers_for_complex(tmp_path):
    cfg = base_config()
    cfg["loading"] = {"A": [[0.0, 0.0]], "B": [[0.0, 0.0], 1.0]}
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, cfg))


def test_config_rejects_unknown_schema_version(tmp_path):
    cfg = base_config(schema_version=99)
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, cfg))


def test_config_rejects_missing_sections(tmp_path):
    cfg = base_config()
    del cfg["material"]
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, cfg))
    cfg = base_config()
    del cfg["map"]["gamma"]
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, cfg))


def test_config_rejects_module_invariant_violations(tmp_path):
    # constant loading term
    cfg = base_config()
    cfg["loading"]["B"] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, cfg))
    # non-elliptic exterior material
    cfg = base_config()
    cfg["material"] = {"lambda": 2.0, "mu": -1.0, "cavity": True}
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, cfg))
    # loading above the truncation order
    cfg = base_config(truncation=2)
    cfg["loading"]["B"] = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, cfg))


def test_malformed_config_writes_nothing(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    out = tmp_path / "out"
    code = run(str(path), command="solve", out_dir=str(out), stream=io.StringIO())
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_solve_writes_solution_and_manifest(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = run(path, command="solve", out_dir=str(out), stream=io.StringIO())
    assert code == EXIT_OK
    payload = json.loads((out / "solution.json").read_text())
    assert payload["mode"] == "transmission"
    assert payload["converged"] is True
    assert payload["residual"] <= 1e-10
    assert len(payload["coefficients"]["xe_plus"]) == 13
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["truncation"] == 12
    assert manifest["command"] == "solve"
    assert "solution.json" in manifest["files"]
    assert (out / "summary.txt").read_text().startswith("command: solve")


def test_solution_json_writes_no_negative_zero():
    # the sign of an exactly-zero coefficient follows operation order in
    # the assembly; solution.json prints every zero as 0.0
    v = np.array([-0.0 - 0.0j, complex(-0.0, 1.5), complex(2.0, -0.0), -1.0 + 0.0j])
    sol = DensitySolution(xe_plus=v, xe_minus=v.copy(), xi_plus=None, xi_minus=None,
                          residual=0.0, rank=4, rotation_projection=0.0, converged=True,
                          n=3, mode="cavity")
    payload = solution_payload(sol, 1.0)
    assert payload["coefficients"]["xe_plus"] == [[0.0, 0.0], [0.0, 1.5], [2.0, 0.0], [-1.0, 0.0]]
    text = json.dumps(payload["coefficients"])
    assert "-0.0" not in text and "-1.0" in text


@pytest.mark.parametrize("command, stages", [
    ("solve", {"geometry", "assembly", "solve", "condition", "residual"}),
    ("field", {"geometry", "assembly", "solve", "field", "oracle", "condition", "residual"}),
])
def test_timings_report_every_stage(tmp_path, command, stages):
    cfg = base_config(grid=GRID, oracle={"enabled": command == "field", "q": 64})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(path, command=command, out_dir=str(out), stream=io.StringIO()) == EXIT_OK
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == stages
    assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timings.json" in manifest["files"]


def test_field_grid_row_count(tmp_path):
    cfg = base_config(grid={"x0": -3.0, "x1": 3.0, "y0": -3.0, "y1": 3.0, "nx": 3, "ny": 3})
    out = tmp_path / "out"
    code = run(write_config(tmp_path, cfg), command="field", out_dir=str(out), stream=io.StringIO())
    assert code == EXIT_OK
    with open(out / "field.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re(w)", "im(w)", "re(z)", "im(z)", "region", "re(u)", "im(u)"]
    assert len(rows) == 10
    regions = {row[4] for row in rows[1:]}
    assert regions <= {"exterior", "interior"}
    # the grid corner is far outside and must carry a finite displacement
    corner = rows[1]
    assert np.isfinite(float(corner[5])) and np.isfinite(float(corner[6]))


@pytest.mark.parametrize("cavity", [False, True], ids=["transmission", "cavity"])
def test_field_run_builds_no_field_sample(tmp_path, monkeypatch, cavity):
    def no_sample(*args, **kwargs):
        raise AssertionError("the field run built a FieldSample")

    monkeypatch.setattr("elastinc.field.FieldSample", no_sample)
    cfg = base_config(grid=dict(GRID, nx=9, ny=9))
    if cavity:
        cfg["material"] = {"lambda": 2.0, "mu": 1.0, "cavity": True}
    out = tmp_path / "out"
    code = run(write_config(tmp_path, cfg), command="field", out_dir=str(out), stream=io.StringIO())
    assert code == EXIT_OK
    with open(out / "field.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 81
    assert {row[4] for row in rows} == {"exterior", "interior"}
    assert "field samples: 81\n" in (out / "summary.txt").read_text()


def _set(block, **values):
    return lambda cfg: cfg[block].update(values)


@pytest.mark.parametrize("edit,command,flags", [
    (_set("map", a=[[0.0, 0.0], [NAN, 0.0]]), "solve", []),
    (_set("map", a=[[INF, 0.0], [0.3, 0.0]]), "solve", []),
    (_set("loading", B=[[0.0, 0.0], [1.0, NAN]]), "solve", []),
    (_set("loading", A=[[0.0, 0.0], [INF, 0.0]]), "solve", []),
    (_set("material", mu_t=INF), "solve", []),
    (lambda cfg: cfg.update(grid=dict(GRID, x0=NAN)), "field", []),
    (lambda cfg: cfg.update(grid=dict(GRID, y1=INF)), "field", []),
    (None, "field", ["--grid", "0,1,nan,1,3,3"]),
    (None, "oracle-check", ["--tolerance", "nan"]),
    (_set("tolerances", oracle=NAN), "oracle-check", []),
    (_set("tolerances", oracle=INF), "oracle-check", []),
    (_set("oracle", q=0), "oracle-check", []),
    (_set("oracle", q=3), "oracle-check", []),
    (_set("oracle", q=7), "oracle-check", []),
    (_set("oracle", q=-4), "oracle-check", []),
], ids=["map-nan", "map-inf", "loading-B-nan", "loading-A-inf", "mu_t-inf", "grid-x0-nan",
        "grid-y1-inf", "grid-flag-nan", "tolerance-flag-nan", "tolerance-nan", "tolerance-inf",
        "q-0", "q-3", "q-7", "q-minus-4"])
def test_invalid_input_exits_config_before_output(tmp_path, edit, command, flags):
    cfg = base_config()
    if edit is not None:
        edit(cfg)
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, cfg), "--out-dir", str(out), *flags]
    assert main(argv) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("truncation", [cli.MAX_TRUNCATION + 1, 100000])
def test_oversized_truncation_is_a_config_error(tmp_path, monkeypatch, truncation):
    # n = 100000 once tried to allocate hundreds of GiB for the Grunsky table
    def no_geometry(*args, **kwargs):
        raise AssertionError("an oversized truncation reached the geometry")

    monkeypatch.setattr(cli, "build_geometry", no_geometry)
    out = tmp_path / "out"
    argv = ["solve", "--config", write_config(tmp_path, base_config()), "--out-dir", str(out),
            "--truncation", str(truncation)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert peak < 2**20


def test_oversized_grunsky_table_is_a_config_error(tmp_path, monkeypatch):
    # 2000 tiny map coefficients at n = 16: the Grunsky recurrence would ask
    # for about 2017 x 4.04e6 complex entries (130 GB)
    def no_geometry(*args, **kwargs):
        raise AssertionError("an oversized Grunsky table reached the geometry")

    monkeypatch.setattr(cli, "build_geometry", no_geometry)
    cfg = base_config(truncation=16)
    cfg["map"] = {"gamma": 1.0, "a": [[0.5, 0.0], [0.3, 0.0]] + [[1e-9, 0.0]] * 1998}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    stream = io.StringIO()
    tracemalloc.start()
    try:
        code = run(path, command="solve", out_dir=str(out), stream=stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert "Grunsky table" in stream.getvalue()
    assert not out.exists()
    assert peak < 2**20


def test_grunsky_table_bound_admits_the_largest_truncation():
    # the four-term map at n = MAX_TRUNCATION needs about 1.3M entries
    cmap = ConformalMap(1.0, [0.1, 0.25, 0.08 + 0.05j, 0.03])
    entries = grunsky_table_entries(cmap, cli.MAX_TRUNCATION)
    assert entries == 516 * 2576
    assert entries <= cli.MAX_GRUNSKY_ENTRIES


def test_non_finite_residual_is_a_solve_failure(tmp_path, monkeypatch):
    assemble = cli.assemble_system

    def nan_rhs(material, bundle, loading):
        system = assemble(material, bundle, loading)
        return dataclasses.replace(system, rhs=np.full_like(system.rhs, NAN))

    monkeypatch.setattr(cli, "assemble_system", nan_rhs)
    out = tmp_path / "out"
    code = run(write_config(tmp_path, base_config()), command="solve", out_dir=str(out),
               stream=io.StringIO())
    assert code == EXIT_SOLVE
    assert not out.exists()


def test_field_on_elongated_ellipse_exits_ok(tmp_path):
    # the a1 = 0.9 ellipse is a valid map; map inversion once failed on it (exit 3)
    cfg = base_config(grid={"x0": -2.2, "x1": 2.2, "y0": -0.4, "y1": 0.4, "nx": 23, "ny": 9})
    cfg["map"] = {"gamma": 1.0, "a": [[0.0, 0.0], [0.9, 0.0]]}
    out = tmp_path / "out"
    code = main(["field", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)])
    assert code == EXIT_OK
    with open(out / "field.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 23 * 9
    assert {row[4] for row in rows} == {"exterior", "interior"}
    assert all(np.isfinite(float(row[5])) and np.isfinite(float(row[6])) for row in rows)


def test_field_empty_grid_header_only(tmp_path):
    cfg = base_config(grid={"x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 1.0, "nx": 0, "ny": 0})
    out = tmp_path / "out"
    code = run(write_config(tmp_path, cfg), command="field", out_dir=str(out), stream=io.StringIO())
    assert code == EXIT_OK
    lines = (out / "field.csv").read_text().splitlines()
    assert len(lines) == 1


def test_field_without_grid_is_config_error(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = run(path, command="field", out_dir=str(out), stream=io.StringIO())
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_orchestrate_checks_grid_before_solving(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path, base_config()))

    def no_solve(system):
        raise AssertionError("solved before the missing grid was noticed")

    monkeypatch.setattr(cli, "solve", no_solve)
    with pytest.raises(ConfigError):
        orchestrate(config, "field")


def test_oracle_check_passes_and_reports(tmp_path):
    cfg = base_config()
    cfg["map"] = {"gamma": 1.0, "a": [[0.5, 0.0]]}
    cfg["material"] = {"lambda": 2.0, "mu": 1.0, "cavity": True}
    out = tmp_path / "out"
    code = run(write_config(tmp_path, cfg), command="oracle-check", out_dir=str(out),
               stream=io.StringIO())
    assert code == EXIT_OK
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["within_tolerance"] is True
    assert report["boundary_max"] <= 1e-3
    assert report["q"] == 64


def test_condition_estimates_are_reported_once_per_matrix(tmp_path, monkeypatch):
    # the estimate runs once on the coefficient matrix and once on the Nystrom
    # matrix, and the reports carry exactly those two numbers
    calls = []

    def recorded(matrix):
        calls.append((matrix.shape[0], one_norm_condition(matrix)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "one_norm_condition", recorded)
    out = tmp_path / "out"
    code = run(write_config(tmp_path, base_config()), command="oracle-check", out_dir=str(out),
               stream=io.StringIO())
    assert code == EXIT_OK
    assert [size for size, _ in calls] == [8 * 13 - 6, 4 * 64 + 3]
    (_, series), (_, reference) = calls
    assert json.loads((out / "solution.json").read_text())["condition_estimate"] == series
    assert json.loads((out / "oracle_report.json").read_text())["condition_estimate"] == reference
    lines = (out / "summary.txt").read_text().splitlines()
    assert f"rank: {8 * 13 - 6} (condition estimate {series:.6e}, converged True)" in lines
    at = lines.index(f"oracle condition_estimate: {reference:.6e}")
    assert lines[at - 1].startswith("oracle exterior_rms: ")
    assert lines[at + 1].startswith("oracle tolerance: ")


def test_oracle_mismatch_exit_code(tmp_path):
    cfg = base_config()
    cfg["map"] = {"gamma": 1.0, "a": [[0.5, 0.0]]}
    cfg["material"] = {"lambda": 2.0, "mu": 1.0, "cavity": True}
    out = tmp_path / "out"
    # an unreachable tolerance flags the (tiny) true discrepancy as a mismatch
    code = run(write_config(tmp_path, cfg), command="oracle-check", out_dir=str(out),
               tolerance=1e-15, stream=io.StringIO())
    assert code == EXIT_MISMATCH
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["within_tolerance"] is False


def test_oracle_check_passes_at_loading_order_32(tmp_path):
    # ellipse [0.5, 0.3], A_32 = 1, B_32 = 0.5i, n = 48, q = 256, under the
    # default tolerance: the reference solver sums the loading on the Faber
    # recurrence, as the series side does, so the check passes
    cfg = base_config(truncation=48, oracle={"enabled": False, "q": 256})
    cfg["loading"] = {"A": [[0.0, 0.0]] * 32 + [[1.0, 0.0]],
                      "B": [[0.0, 0.0]] * 32 + [[0.0, 0.5]]}
    del cfg["tolerances"]
    out = tmp_path / "out"
    code = run(write_config(tmp_path, cfg), command="oracle-check", out_dir=str(out),
               stream=io.StringIO())
    assert code == EXIT_OK
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["within_tolerance"] is True
    assert report["tolerance"] == 1e-3
    assert report["exterior_max"] <= 1e-6


def test_oracle_check_at_a_tiny_radius(tmp_path):
    # the four-term map scaled to gamma = 1e-11 at q = 512: its mesh nodes lie
    # about 1e-13 apart, which an absolute node test refused (exit 4), and its
    # displacement rows, which scale as gamma, are divided by gamma, so the
    # Nystrom condition estimate stays that of gamma = 1 (it read 1.4e16)
    estimates = {}
    for gamma in (1.0, 1e-11):
        a = np.array([0.1, 0.25, 0.08 + 0.05j, 0.03]) * gamma ** np.arange(1.0, 5.0)
        cfg = base_config(truncation=16, oracle={"enabled": False, "q": 512})
        cfg["map"] = {"gamma": gamma, "a": [[x.real, x.imag] for x in a]}
        out = tmp_path / f"out{gamma:g}"
        code = run(write_config(tmp_path, cfg), command="oracle-check", out_dir=str(out),
                   stream=io.StringIO())
        assert code == EXIT_OK
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["within_tolerance"] is True
        estimates[gamma] = report["condition_estimate"]
    assert 0.5 <= estimates[1e-11] / estimates[1.0] <= 2.0


def test_reruns_are_deterministic(tmp_path):
    path = write_config(tmp_path, base_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(path, command="solve", out_dir=str(out_a), stream=io.StringIO()) == EXIT_OK
    assert run(path, command="solve", out_dir=str(out_b), stream=io.StringIO()) == EXIT_OK
    assert (out_a / "solution.json").read_bytes() == (out_b / "solution.json").read_bytes()
    assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    # only the timestamp and the requested output location may differ
    ma.pop("timestamp"), mb.pop("timestamp")
    ma["config"].pop("out_dir"), mb["config"].pop("out_dir")
    assert ma == mb


def test_main_dispatches_with_grid_override(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = main(
        ["field", "--config", path, "--grid", "0,1,0,1,2,2", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    with open(out / "field.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5


def test_solve_beyond_64_modes(tmp_path):
    # the far-field tail once had a fixed length of 64 and crashed above it
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = main(["solve", "--config", path, "--truncation", "65", "--out-dir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "solution.json").read_text())
    assert len(payload["coefficients"]["xe_plus"]) == 66


def test_self_test_fixtures_pass():
    buf = io.StringIO()
    assert self_test(stream=buf) == 0
    text = buf.getvalue()
    assert "5/5 passed" in text
    assert "FAIL" not in text
