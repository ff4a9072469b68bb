"""The benchmark's own correctness checks.

Each check recomputes what it needs from the program's public outputs
with code of its own (map evaluation, point-in-curve test, traction
potential), so a program change cannot redefine what "correct" means by
redefining one of its own diagnostics. Every check returns a relative
error and raises CheckFailure when the error is above its tolerance.
"""

from __future__ import annotations

import numpy as np

from cases import psi

INTERFACE_TOL = 1e-6          # acceptance criterion 7's interface tolerance
INTERFACE_ANGLES = 64
EXTERIOR_OFFSET = 1e-12       # exterior side evaluated at |w| = gamma (1 + 1e-12)
INVERSION_TOL = 1e-8          # |Psi(w) - z| relative to the window's size
REGION_BAND = 1e-4            # relative distance to the curve within which tags may differ
CURVE_SAMPLES = 8192
ORACLE_TOL = 1e-3             # the CLI's default reference-comparison tolerance
COEFFICIENT_TOL = 1e-12       # CLI coefficients against an in-process solve
DIGITS_FLOOR = 1e-17


class CheckFailure(Exception):
    """The program produced an output the benchmark rejects."""


def digits(rel_error: float) -> float:
    """Correct decimal digits, -log10 of the relative error, capped at 17."""
    return float(-np.log10(max(rel_error, DIGITS_FLOOR)))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def _traction_potential(arrays: dict, mu: float) -> np.ndarray:
    return mu * (arrays["f"] + arrays["z"] * np.conj(arrays["fprime"]) + np.conj(arrays["g"]))


def _diameter(values: np.ndarray) -> float:
    return float(np.max(np.abs(values[:, None] - values[None, :])))


def interface_error(evaluator, gamma: float, mode: str, mu_ext: float, mu_int: float) -> float:
    """Interface mismatch of a solved field, relative to max|u| on the boundary.

    Transmission: the larger of the displacement gap and the spread of the
    traction-potential difference between the exterior form just outside
    |w| = gamma and the interior form on it. Cavity: the spread of the
    exterior traction potential alone (the boundary is traction free, so
    the potential is constant along it).
    """
    ring = np.exp(2j * np.pi * np.arange(INTERFACE_ANGLES) / INTERFACE_ANGLES)
    ext = evaluator.exterior_arrays(gamma * (1.0 + EXTERIOR_OFFSET) * ring)
    t_ext = _traction_potential(ext, mu_ext)
    if mode == "cavity":
        gap, jump = 0.0, t_ext
    else:
        inner = evaluator.interior_arrays(gamma * ring)
        gap = float(np.max(np.abs(ext["u"] - inner["u"])))
        jump = t_ext - _traction_potential(inner, mu_int)
    scale = float(np.max(np.abs(ext["u"])))
    _require(np.isfinite(scale) and scale > 0.0, "boundary displacement is zero or not finite")
    err = max(gap, _diameter(jump)) / scale
    _require(np.isfinite(err), "interface mismatch is not finite")
    _require(err <= INTERFACE_TOL, f"interface mismatch {err:.3e} > {INTERFACE_TOL:g}")
    return err


def check_solve(solution, evaluator, probe_u, gamma: float, material: dict) -> float:
    """solve_sweep: converged flag, finite probe field, interface mismatch."""
    _require(bool(solution.converged), "solve reported converged=False")
    _require(bool(np.all(np.isfinite(probe_u))), "probe displacement is not finite")
    return interface_error(
        evaluator, gamma, solution.mode, material["mu"], material.get("mu_t", 0.0)
    )


def boundary_polyline(a: np.ndarray, gamma: float, samples: int = CURVE_SAMPLES) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return psi(a, gamma * np.exp(1j * theta))


def inside_by_rows(curve: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Even-odd test of a row-major grid against a closed polyline.

    For each grid row the crossings of the horizontal line with the
    polyline are found once; a point is inside when an odd number of them
    lie to its right. Returns a boolean array of shape (len(ys), len(xs)).
    """
    p0 = curve
    p1 = np.roll(curve, -1)
    inside = np.zeros((ys.size, xs.size), dtype=bool)
    for r, y in enumerate(ys):
        hit = (p0.imag > y) != (p1.imag > y)
        a, b = p0[hit], p1[hit]
        xc = np.sort(a.real + (y - a.imag) * (b.real - a.real) / (b.imag - a.imag))
        right = xc.size - np.searchsorted(xc, xs, side="right")
        inside[r] = right % 2 == 1
    return inside


def distance_to_polyline(curve: np.ndarray, z: np.ndarray) -> np.ndarray:
    p0 = curve[None, :]
    d = np.roll(curve, -1)[None, :] - p0
    rel = np.asarray(z, dtype=complex)[:, None] - p0
    t = np.clip((rel * np.conj(d)).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
    return np.min(np.abs(rel - t * d), axis=1)


def check_grid(a, gamma: float, window: tuple, nx: int, ny: int, w, z, interior, u,
               cavity: bool) -> float:
    """Grid output against the benchmark's own geometry.

    w, z, u are per-point arrays in row-major grid order and interior a
    boolean array of the program's region tags. Checks the interior point
    layout; the map-inversion residual |Psi(w) - z| of exterior points
    against the grid point z they stand for; the region tags against an
    even-odd test; and that displacements are finite where a field exists.
    Points within REGION_BAND of the curve may be tagged either way, and
    when tagged exterior may be placed on the curve, as grid_field places
    them. Returns the largest inversion residual of the other exterior
    points, relative to the window size.
    """
    x0, x1, y0, y1 = window
    xs, ys = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
    expect = (xs[None, :] + 1j * ys[:, None]).ravel()
    _require(z.size == expect.size, f"grid has {z.size} points, expected {expect.size}")
    size = max(1.0, float(np.max(np.abs(expect))))
    exterior = ~interior
    _require(float(np.max(np.abs(z - expect)[interior], initial=0.0)) <= 1e-12 * size,
             "interior grid points out of place")
    curve = boundary_polyline(a, gamma)
    err = 0.0
    if np.any(exterior):
        we, ze = w[exterior], expect[exterior]
        _require(bool(np.all(np.abs(we) > gamma)), "exterior preimage inside |w| = gamma")
        res = np.abs(psi(a, we) - ze) / size
        _require(bool(np.all(np.isfinite(res))), "exterior preimage is not finite")
        loose = res > INVERSION_TOL
        if np.any(loose):  # only band points, placed on the curve, may miss
            dist = distance_to_polyline(curve, ze[loose]) / size
            worst = float(np.max(res[loose]))
            _require(bool(np.all(dist <= REGION_BAND)) and worst <= REGION_BAND,
                     f"map-inversion residual {worst:.3e} > {INVERSION_TOL:g}")
        err = float(np.max(res[~loose], initial=0.0))

    own = inside_by_rows(curve, xs, ys).ravel()
    differ = np.flatnonzero(own != interior)
    if differ.size:
        dist = distance_to_polyline(curve, expect[differ])
        far = int(np.sum(dist > REGION_BAND * size))
        _require(far == 0, f"{far} points tagged in the wrong region")

    has_field = exterior if cavity else np.ones_like(exterior)
    _require(bool(np.all(np.isfinite(u[has_field]))), "displacement is not finite")
    return err


def check_oracle(report, field_size: float) -> float:
    """oracle_check: exterior disagreement between the two solvers, relative."""
    err = float(report.exterior_max) / field_size
    _require(np.isfinite(err) and err <= ORACLE_TOL,
             f"reference disagreement {err:.3e} > {ORACLE_TOL:g}")
    return err


def relative_difference(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / max(scale, 1e-300)
