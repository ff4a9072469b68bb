"""Tests of the benchmark's own correctness checks.

    python3 -m pytest -q perfbench/test_checks.py

The checks must reject a wrong answer the program reports as converged
and accept accurate ones; a check that passes everything would let a
fast but wrong change through the benchmark.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases as C  # noqa: E402
import checks  # noqa: E402
from elastinc import (  # noqa: E402
    ConformalMap,
    FieldEvaluator,
    GridSpec,
    LoadingSpec,
    MaterialPair,
    assemble_system,
    build_geometry,
    grid_field,
    solve,
)
from elastinc.geometry import eval_map  # noqa: E402

TRANS = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
TRANS_DICT = {"lam": 2.0, "mu": 1.0, "lam_t": 4.0, "mu_t": 3.0}
B1 = LoadingSpec(A=np.zeros(1), B=[0.0, 1.0])


def solved(a, n, material=TRANS, loading=B1):
    cmap = ConformalMap(1.0, a)
    sol = solve(assemble_system(material, build_geometry(cmap, n), loading))
    return cmap, sol, FieldEvaluator(sol, loading, cmap, material)


def test_ellipse_fixture_passes():
    _, sol, ev = solved([0.0, 0.3], 16)
    err = checks.check_solve(sol, ev, np.zeros(1), 1.0, TRANS_DICT)
    assert err < 1e-10


def test_elongated_n64_silent_wrong_answer_is_flagged():
    # At the commit that defined the benchmark this solve reports
    # converged=True while its interface mismatch is about 0.4.
    _, sol, ev = solved([0.0, 0.9], 64)
    assert sol.converged
    with pytest.raises(checks.CheckFailure, match="interface mismatch"):
        checks.check_solve(sol, ev, np.zeros(1), 1.0, TRANS_DICT)


def test_perturbed_solution_is_flagged():
    cmap, sol, _ = solved([0.0, 0.3], 16)
    sol.xe_plus[2] += 1e-4
    ev = FieldEvaluator(sol, B1, cmap, TRANS)
    with pytest.raises(checks.CheckFailure, match="interface mismatch"):
        checks.check_solve(sol, ev, np.zeros(1), 1.0, TRANS_DICT)


def test_cavity_spread_check_passes_and_flags():
    cav = MaterialPair(2.0, 1.0, cavity=True)
    cmap, sol, ev = solved([0.0, 0.3], 16, material=cav)
    assert checks.check_solve(sol, ev, np.zeros(1), 1.0, {"mu": 1.0}) < 1e-10
    sol.xe_minus[1] *= 1.001
    ev = FieldEvaluator(sol, B1, cmap, cav)
    with pytest.raises(checks.CheckFailure):
        checks.check_solve(sol, ev, np.zeros(1), 1.0, {"mu": 1.0})


def test_own_map_matches_program_map():
    a = C.map_coefficients("fourterm", 2.0)
    w = 2.5 * np.exp(1j * np.linspace(0, 6, 50))
    assert np.max(np.abs(C.psi(a, w) - eval_map(ConformalMap(2.0, a), w))) < 1e-13


def test_row_even_odd_test_matches_disk_membership():
    curve = checks.boundary_polyline(np.array([0.2]), 1.0)
    xs, ys = np.linspace(-1.5, 1.7, 33), np.linspace(-1.3, 1.3, 29)
    z = xs[None, :] + 1j * ys[:, None]
    exact = np.abs(z - 0.2) < 1.0
    own = checks.inside_by_rows(curve, xs, ys)
    near = np.abs(np.abs(z - 0.2) - 1.0) < 1e-3
    assert np.array_equal(own[~near], exact[~near])


def grid_arrays(samples):
    return dict(
        w=np.array([s.w for s in samples]),
        z=np.array([s.z for s in samples]),
        interior=np.array([s.region == "interior" for s in samples]),
        u=np.array([s.u for s in samples]),
    )


def test_grid_check_passes_and_flags():
    a = np.array([0.0, 0.3])
    cmap, sol, _ = solved(a, 16)
    window, n = (0.3, 2.3, -0.8, 1.2), 21
    arrays = grid_arrays(grid_field(sol, B1, cmap, TRANS, GridSpec(*window, n, n)))
    assert checks.check_grid(a, 1.0, window, n, n, cavity=False, **arrays) < 1e-12

    bad_w = dict(arrays, w=np.where(arrays["interior"], arrays["w"], arrays["w"] * (1 + 1e-6)))
    with pytest.raises(checks.CheckFailure, match="map-inversion residual"):
        checks.check_grid(a, 1.0, window, n, n, cavity=False, **bad_w)

    far_outside = np.flatnonzero(~arrays["interior"] & (np.abs(arrays["z"]) > 1.8))
    bad_region = dict(arrays, interior=arrays["interior"].copy())
    bad_region["interior"][far_outside[0]] = True
    with pytest.raises(checks.CheckFailure, match="wrong region"):
        checks.check_grid(a, 1.0, window, n, n, cavity=False, **bad_region)


def test_oracle_check_tolerance():
    class Report:
        exterior_max = 5e-4

    assert checks.check_oracle(Report, 1.0) == 5e-4
    with pytest.raises(checks.CheckFailure):
        checks.check_oracle(Report, 0.1)


def test_partial_pass_reports_the_same_case_mix():
    import workload

    one_pass = [{"case": c, "latency": t, "error": None, "rel": 1e-12}
                for c, t in enumerate((0.1, 0.2, 0.3, 1.0))]
    whole = workload.end_to_end(one_pass * 2, {"c": True}, 1.0, 1.0)
    partial = workload.end_to_end(one_pass * 2 + one_pass[:2], {"c": True}, 1.0, 1.0)
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        assert partial[name][0] == pytest.approx(whole[name][0])
    assert workload.weighted_quantile([3.0, 1.0, 2.0], [1, 1, 1], 0.5) == 2.0
    assert workload.weighted_quantile([1.0, 2.0], [3, 1], 0.5) == 1.0
    assert workload.weighted_quantile([1.0, 2.0], [3, 1], 0.9) == 2.0
