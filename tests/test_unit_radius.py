"""The core solve is posed at unit radius: properties across radii and contrasts.

Every check here is computed from public outputs (FieldEvaluator arrays and
solved coefficients), not from the solver's own converged flag: the
interface check below recomputes the traction potential itself, as the
benchmark's checks do.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elastinc.field import FieldEvaluator, invert_map
from elastinc.geometry import ConformalMap, build_geometry, eval_map, faber_derivative_matrices
from elastinc.loading import LoadingSpec, eval_loading
from elastinc.materials import MaterialPair
from elastinc.system import assemble_system, solve
from test_geometry import random_map

INTERFACE_TOL = 1e-6
SCALE_TOL = 1e-12
AFFINE_TOL = 1e-12
ROUND_TRIP_TOL = 1e-14

# the benchmark's map shapes at gamma = 1: disk, ellipse, four-term, elongated
SHAPES = {
    "disk": [0.0],
    "ellipse": [0.0, 0.3],
    "fourterm": [0.1, 0.25, 0.08 + 0.05j, 0.03],
    "elongated": [0.0, 0.9],
}


def scaled_map(shape, gamma):
    a = np.asarray(shape, dtype=complex)
    return ConformalMap(gamma, a * gamma ** (np.arange(a.size) + 1.0))


def material_for(mode, rng):
    lam, mu = 0.5 + 2.0 * rng.random(), 0.5 + 1.5 * rng.random()
    if mode == "cavity":
        return MaterialPair(lam, mu, cavity=True)
    return MaterialPair(lam, mu, 0.5 + 3.0 * rng.random(), 0.5 + 2.5 * rng.random())


def loading_for(rng):
    A = np.zeros(3, dtype=complex)
    B = np.zeros(3, dtype=complex)
    A[1:] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    B[1:] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return LoadingSpec(A, B)


def solved(cmap, material, loading, n):
    sol = solve(assemble_system(material, build_geometry(cmap, n), loading))
    return sol, FieldEvaluator(sol, loading, cmap, material)


def traction_potential(arrays, mu):
    return mu * (arrays["f"] + arrays["z"] * np.conj(arrays["fprime"]) + np.conj(arrays["g"]))


def interface_error(ev, material, angles=64):
    """Interface mismatch relative to max|u| on the boundary.

    Transmission: the displacement gap and the spread of the traction-
    potential difference between the exterior form just outside |w| = gamma
    and the interior form on it. Cavity: the spread of the exterior
    traction potential, constant on a traction-free boundary.
    """
    gamma = ev.gamma
    ring = gamma * np.exp(2j * np.pi * np.arange(angles) / angles)
    ext = ev.exterior_arrays(ring * (1.0 + 1e-12))
    jump = traction_potential(ext, material.mu_ext)
    gap = 0.0
    if not material.cavity:
        inner = ev.interior_arrays(ring)
        gap = float(np.max(np.abs(ext["u"] - inner["u"])))
        jump = jump - traction_potential(inner, material.mu_int)
    spread = float(np.max(np.abs(jump[:, None] - jump[None, :])))
    return max(gap, spread) / float(np.max(np.abs(ext["u"])))


# ---------------------------------------------------------------------------
# census across radii: every case solves to the interface tolerance


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("mode", ["transmission", "cavity"])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("family", sorted(SHAPES))
def test_census_across_radii(family, gamma, mode, n):
    rng = np.random.default_rng([n, int(100 * gamma), len(family), len(mode)])
    material = material_for(mode, rng)
    _, ev = solved(scaled_map(SHAPES[family], gamma), material, loading_for(rng), n)
    assert interface_error(ev, material) <= INTERFACE_TOL


# ---------------------------------------------------------------------------
# scale identity: a radius-gamma problem is its unit-radius problem


@pytest.mark.parametrize("mode", ["transmission", "cavity"])
@pytest.mark.parametrize("gamma", [0.3, 1.7, 3.0])
@pytest.mark.parametrize("family", ["ellipse", "fourterm"])
def test_radius_solve_matches_rescaled_unit_solve(family, gamma, mode):
    rng = np.random.default_rng(5)
    material = material_for(mode, rng)
    loading = loading_for(rng)
    n = 32
    sol, ev = solved(scaled_map(SHAPES[family], gamma), material, loading, n)
    modes = np.arange(3)
    unit_loading = LoadingSpec(loading.A * gamma**modes, loading.B * gamma**modes)
    ref, ev_ref = solved(ConformalMap(1.0, SHAPES[family]), material, unit_loading, n)
    names = ["xe_plus", "xe_minus"] + (["xi_plus", "xi_minus"] if mode == "transmission" else [])
    for name in names:
        got, want = getattr(sol, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= SCALE_TOL * np.max(np.abs(want))
    # fields: u at w = gamma omega equals the unit field at omega, f' scales by 1/gamma
    omega = np.array([1.05, 1.5, 3.0]) * np.exp(1j * np.array([0.3, 2.0, 4.1]))
    ext, ext_ref = ev.exterior_arrays(gamma * omega), ev_ref.exterior_arrays(omega)
    for key, factor in (("u", 1.0), ("f", 1.0), ("g", 1.0), ("fprime", gamma)):
        scale = np.max(np.abs(ext_ref[key]))
        assert np.max(np.abs(factor * ext[key] - ext_ref[key])) <= SCALE_TOL * scale
    # the loading part, formed from the evaluator's own loading series, is the
    # far-field loading of the radius-gamma problem itself
    fH, gH, dfH = ev.load_series.potentials(ext["z"])
    load = material.kappa * fH - ext["z"] * np.conj(dfH) - np.conj(gH)
    direct = eval_loading(loading, ev.cmap, material, ext["z"])
    assert np.max(np.abs(load - direct)) <= SCALE_TOL * np.max(np.abs(direct))
    if mode == "transmission":
        inner = ev.interior_arrays(0.95 * gamma * omega / np.abs(omega))["u"]
        inner_ref = ev_ref.interior_arrays(0.95 * omega / np.abs(omega))["u"]
        assert np.max(np.abs(inner - inner_ref)) <= SCALE_TOL * np.max(np.abs(inner_ref))


# ---------------------------------------------------------------------------
# the Scale property: any valid map at any radius is its unit-radius problem


@given(seed=st.integers(0, 2**32 - 1), log_gamma=st.floats(-12.0, 12.0),
       mode=st.sampled_from(["transmission", "cavity"]))
@example(seed=0, log_gamma=-12.0, mode="transmission")
@example(seed=1, log_gamma=12.0, mode="cavity")
def test_scale_property(seed, log_gamma, mode):
    # A random univalent map drawn at unit radius and rescaled to gamma =
    # 10^log_gamma is accepted; its solved coefficients are those of the
    # unit problem, and the map inverts to full precision at its own scale.
    rng = np.random.default_rng(seed)
    gamma = 10.0**log_gamma
    shape = random_map(rng, gamma=1.0).a
    material = material_for(mode, rng)
    unit_loading = loading_for(rng)
    modes = np.arange(3)
    loading = LoadingSpec(unit_loading.A * gamma**-modes, unit_loading.B * gamma**-modes)
    cmap = scaled_map(shape, gamma)
    n = 16
    sol, _ = solved(cmap, material, loading, n)
    ref, _ = solved(ConformalMap(1.0, shape), material, unit_loading, n)
    names = ["xe_plus", "xe_minus"] + (["xi_plus", "xi_minus"] if mode == "transmission" else [])
    got = np.concatenate([getattr(sol, name) for name in names])
    want = np.concatenate([getattr(ref, name) for name in names])
    assert np.max(np.abs(got - want)) <= SCALE_TOL * np.max(np.abs(want))
    w = gamma * (1.0 + 2.0 * rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    back = invert_map(cmap, eval_map(cmap, w))
    assert np.max(np.abs(back - w) / np.abs(w)) <= ROUND_TRIP_TOL


# ---------------------------------------------------------------------------
# Eshelby: an ellipse under a uniform load has an affine interior field


@pytest.mark.parametrize("gamma", [0.5, 2.0])
@pytest.mark.parametrize("shape", [[0.0, 0.3], [0.2 - 0.1j, 0.4 * np.exp(0.7j)]])
def test_eshelby_uniform_interior(shape, gamma):
    cmap = scaled_map(shape, gamma)
    material = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
    loading = LoadingSpec([0.0, 0.6 - 0.2j], [0.0, 1.0 + 0.3j])
    _, ev = solved(cmap, material, loading, 32)
    # interior points on shrunken copies of the boundary
    theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    a0 = cmap.a[0]
    curve = ev.exterior_arrays(gamma * (1.0 + 1e-9) * np.exp(1j * theta))["z"] - a0
    z = a0 + np.concatenate([s * curve for s in (0.1, 0.4, 0.7, 0.95)])
    u = ev.interior_arrays_z(z)["u"]
    basis = np.column_stack([np.ones_like(z), z, np.conj(z)])
    fit, *_ = np.linalg.lstsq(basis, u, rcond=None)
    misfit = np.max(np.abs(basis @ fit - u)) / np.max(np.abs(u))
    assert misfit <= AFFINE_TOL


# ---------------------------------------------------------------------------
# the radius at which the old radius-gamma system was singular


@pytest.mark.parametrize("offset", [0.0, 1e-6])
def test_degenerate_radius_solves(offset):
    # disk with lambda = mu = 1, lambda_t = 2, mu_t = 1: interior kappa 5/3.
    # The radius-gamma system carried 2 alpha_t log(gamma) - beta_t on the
    # mode-0 interior density, which vanishes at gamma = exp(1 / (2 kappa_t)).
    material = MaterialPair(1.0, 1.0, lam_int=2.0, mu_int=1.0)
    _, _, kappa_t = material.interior_constants()
    gamma = np.exp(1.0 / (2.0 * kappa_t)) * (1.0 + offset)
    loading = LoadingSpec([0.0, 0.3 + 0.1j, 0.2], [0.0, 1.0, 0.5j])
    sol, ev = solved(ConformalMap(gamma, [0.0]), material, loading, 16)
    assert sol.rank == 8 * 17 - 6
    assert interface_error(ev, material) <= INTERFACE_TOL
    modes = np.arange(3)
    unit_loading = LoadingSpec(loading.A * gamma**modes, loading.B * gamma**modes)
    ref, _ = solved(ConformalMap(1.0, [0.0]), material, unit_loading, 16)
    assert np.max(np.abs(sol.xi_minus - ref.xi_minus)) <= SCALE_TOL * np.max(np.abs(ref.xi_minus))


# ---------------------------------------------------------------------------
# high contrast: the field approaches the rigid-inclusion limit


def test_high_contrast_approaches_rigid_limit():
    # each 100x of mu_t / mu should change the exterior field about 100x less
    cmap = ConformalMap(1.0, SHAPES["fourterm"])
    loading = LoadingSpec([0.0, 0.3 + 0.1j, 0.2], [0.0, 1.0, 0.5j])
    ring = 1.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    fields, errors = [], []
    for contrast in (1e2, 1e4, 1e6, 1e8):
        material = MaterialPair(2.0, 1.0, lam_int=2.0 * contrast, mu_int=contrast)
        _, ev = solved(cmap, material, loading, 32)
        fields.append(ev.exterior_arrays(ring)["u"])
        errors.append(interface_error(ev, material))
    changes = [np.max(np.abs(b - a)) for a, b in zip(fields, fields[1:])]
    assert all(prev / nxt >= 50.0 for prev, nxt in zip(changes, changes[1:]))
    assert max(errors) <= INTERFACE_TOL


# ---------------------------------------------------------------------------
# the Translation property: moving the inclusion moves the field


TRANSLATION_TOL = 1e-12


@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["transmission", "cavity"]),
       n=st.integers(8, 32))
@example(seed=3, mode="transmission", n=32)
@example(seed=4, mode="cavity", n=8)
def test_translation_property(seed, mode, n):
    # a0 -> a0 + c moves the inclusion by c, and a loading moved with it has
    # the potentials f(z - c) and g(z - c) - conj(c) f'(z - c); in the Faber
    # basis, whose polynomials move with a0, that is B -> B + conj(c) (A Dt).
    # Its mode-0 part, a constant in g, is left out of a loading: it is the
    # rigid translation -c conj((A Dt)_0). So u moves to u(z - c) less that
    # translation, outside the inclusion and inside.
    rng = np.random.default_rng(seed)
    cmap = random_map(rng, depth=int(rng.integers(1, 6)))
    c = complex(*(3.0 * cmap.gamma * rng.standard_normal(2)))
    material = material_for(mode, rng)
    loading = loading_for(rng)
    a = cmap.a.copy()
    a[0] += c
    moved = ConformalMap(cmap.gamma, a)
    derivative_row = loading.A @ faber_derivative_matrices(moved, loading.A.size - 1)
    B = loading.B + np.conj(c) * derivative_row
    B[0] = 0.0
    translation = -c * np.conj(derivative_row[0])
    _, ev = solved(cmap, material, loading, n)
    _, ev_moved = solved(moved, material, LoadingSpec(loading.A, B), n)

    gamma = cmap.gamma
    w = gamma * (1.0 + 2.0 * rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
    ext, ext_moved = ev.exterior_arrays(w), ev_moved.exterior_arrays(w)
    assert np.max(np.abs(ext_moved["z"] - c - ext["z"])) <= 1e-14 * (abs(c) + gamma)
    scale = np.max(np.abs(ext["u"]))
    assert np.max(np.abs(ext_moved["u"] - translation - ext["u"])) <= TRANSLATION_TOL * scale
    if mode == "transmission":
        w_in = 0.95 * gamma * np.exp(2j * np.pi * rng.random(8))
        inner = ev.interior_arrays(w_in)["u"]
        inner_moved = ev_moved.interior_arrays(w_in)["u"]
        assert np.max(np.abs(inner_moved - translation - inner)) <= TRANSLATION_TOL * scale
