"""Reference-solver tests: quadrature identities and dual-route agreement.

The boundary-integral solver is validated in layers: the quadrature
weights against known Fourier integrals, the single-layer and conormal
matrices against the per-mode complex-series transforms (a completely
different computational route), and the full solve against the
coefficient-space solver on disk and ellipse configurations.
"""

import json
import tracemalloc

import numpy as np
import pytest

from elastinc.field import (
    FieldEvaluator,
    invert_map,
)
from elastinc.geometry import (
    ConformalMap,
    build_geometry,
    eval_map,
    map_jet,
)
from elastinc.loading import LoadingSpec, eval_loading
from elastinc.materials import MaterialError, MaterialPair
from elastinc.oracle import (
    BoundaryMesh,
    _half_angle_columns,
    NystromSystem,
    OracleError,
    assemble_nystrom,
    build_mesh,
    compare,
    discrepancy,
    hilbert_weights,
    loading_conormal,
    log_weights,
    rigid_fields,
    single_layer_potential,
    solve_nystrom,
    solve_oracle,
)
from elastinc.system import assemble_system, one_norm_condition, solve
from layer_reference import (
    _shifted_coefficients,
    conormal_matrix,
    dense_chord_frames,
    dense_conormal_blocks,
    dense_single_layer_blocks,
    deriv_layer_exterior,
    deriv_layer_interior,
    eval_oracle_interior,
    kelvin_constants,
    loading_by_grunsky,
    loading_pair,
    log_layer_exterior,
    log_layer_interior,
    poly_eval,
    polyder,
    rigid_moments,
    self_convergence,
    single_layer_matrix,
    trace_gap,
)

EXACT_TOL = 1e-12
SERIES_TOL = 1e-10
TRACTION_TOL = 1e-8

CAV = MaterialPair(2.0, 1.0, cavity=True)
TRANS = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
DISK = ConformalMap(1.0, [0.5])
ELLIPSE = ConformalMap(1.0, [0.5, 0.3])
FOURTERM = ConformalMap(1.0, [0.1, 0.25, 0.08 + 0.05j, 0.03])
ELONGATED = ConformalMap(1.0, [0.0, 0.9])

B1 = LoadingSpec(A=np.zeros(2), B=[0.0, 1.0])


def mode_arrays(coeffs: dict) -> tuple[np.ndarray, np.ndarray]:
    """Split a mode-to-coefficient dict into (plus, minus) index arrays."""
    kmax = max([abs(k) for k in coeffs] + [1])
    plus = np.zeros(kmax + 1, complex)
    minus = np.zeros(kmax + 1, complex)
    for k, v in coeffs.items():
        if k >= 1:
            plus[k] += v
        else:
            minus[-k] += v
    return plus, minus


def series_triple(cmap, material, side, coeffs, wz, region):
    """Holomorphic pair (f, f', g) of the single layer from per-mode sums."""
    if side == "exterior":
        alpha, beta, kappa = material.alpha, material.beta, material.kappa
    else:
        alpha, beta, kappa = material.interior_constants()
    conj_coeffs = {-k: np.conj(v) for k, v in coeffs.items()}
    shifted = _shifted_coefficients(cmap, coeffs)
    p, m = mode_arrays(coeffs)
    pc, mc = mode_arrays(conj_coeffs)
    ps, ms = mode_arrays(shifted)
    if region == "exterior":
        z = eval_map(cmap, wz)
        L = log_layer_exterior(cmap, p, m, wz)
        C = deriv_layer_exterior(cmap, p, m, wz)
        Lb = log_layer_exterior(cmap, pc, mc, wz)
        Cy = deriv_layer_exterior(cmap, ps, ms, wz)
    else:
        z = np.asarray(wz, complex)
        L = log_layer_interior(cmap, p, m, z)
        C = deriv_layer_interior(cmap, p, m, z)
        Lb = log_layer_interior(cmap, pc, mc, z)
        Cy = deriv_layer_interior(cmap, ps, ms, z)
    f = beta * L
    fp = beta * C
    g = -alpha * Lb - beta * Cy
    return z, f, fp, g, kappa, beta


def series_single_layer(cmap, material, side, coeffs, wz, region):
    """Single-layer displacement from the per-mode route."""
    z, f, fp, g, kappa, beta = series_triple(cmap, material, side, coeffs, wz, region)
    c0 = coeffs.get(0, 0.0)
    return 0.5 * (kappa * f - z * np.conj(fp) - np.conj(g)) - beta * c0 / 2.0


def nodal_density(mesh: BoundaryMesh, coeffs: dict) -> np.ndarray:
    """Complex nodal values of sum_k coeffs[k] e^{i k theta} / h."""
    vals = np.zeros(mesh.q, complex)
    for k, v in coeffs.items():
        vals += v * np.exp(1j * k * mesh.theta)
    return vals / mesh.h


def components(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values.real, values.imag])


def complexify(vec: np.ndarray) -> np.ndarray:
    q = vec.size // 2
    return vec[:q] + 1j * vec[q:]


def fft_derivative(vals: np.ndarray) -> np.ndarray:
    """Spectral derivative of periodic samples (zeroed Nyquist mode)."""
    n = vals.size
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0
    return np.fft.ifft(1j * k * np.fft.fft(vals))


# -- kernel basics ------------------------------------------------------------


def test_single_layer_potential_rejects_degenerate_input():
    # a point on a node; a cavity has no interior kernel constants to pass
    mesh = build_mesh(ELLIPSE, 16)
    dens = np.ones(16, dtype=complex)
    with pytest.raises(OracleError):
        single_layer_potential(mesh, dens, TRANS.alpha, TRANS.beta, mesh.z[3:4])
    with pytest.raises(MaterialError):
        CAV.interior_constants()


# -- mesh ---------------------------------------------------------------------


def test_mesh_geometry_invariants():
    mesh = build_mesh(ELLIPSE, 64)
    assert np.max(np.abs(np.abs(mesh.normal) - 1.0)) <= EXACT_TOL
    tangent = mesh.zprime / np.abs(mesh.zprime)
    dot = mesh.normal.real * tangent.real + mesh.normal.imag * tangent.imag
    assert np.max(np.abs(dot)) <= EXACT_TOL
    w_out = invert_map(ELLIPSE, mesh.z + 0.05 * mesh.normal)
    assert np.all(np.abs(w_out) > ELLIPSE.gamma)
    assert np.all(mesh.weights > 0.0)
    x, y = mesh.z.real, mesh.z.imag
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area > 0.0


def test_mesh_second_derivative_matches_finite_difference():
    w = ELLIPSE.gamma * np.exp(1j * np.array([0.3, 1.1, 2.9, 4.2]))
    step = 1e-6
    fd = (map_jet(ELLIPSE, w + step, 1)[1] - map_jet(ELLIPSE, w - step, 1)[1]) / (
        2.0 * step
    )
    assert np.max(np.abs(fd - map_jet(ELLIPSE, w, 2)[2])) <= 1e-8


def test_mesh_node_count_guards():
    for bad in (63, 4, 514, 1024):
        with pytest.raises(OracleError):
            build_mesh(ELLIPSE, bad)


# -- quadrature weights -------------------------------------------------------


def test_log_weights_reproduce_fourier_integrals():
    q = 32
    t = 2.0 * np.pi * np.arange(q) / q
    R = log_weights(q)
    # integral of log(4 sin^2((t-s)/2)) against 1, cos s, sin 3s
    assert np.max(np.abs(R @ np.ones(q))) <= EXACT_TOL
    assert np.max(np.abs(R @ np.cos(t) + 2.0 * np.pi * np.cos(t))) <= EXACT_TOL
    assert np.max(np.abs(R @ np.sin(3 * t) + (2.0 * np.pi / 3.0) * np.sin(3 * t))) <= EXACT_TOL


def test_hilbert_weights_reproduce_conjugate_integrals():
    q = 32
    t = 2.0 * np.pi * np.arange(q) / q
    W = hilbert_weights(q)
    assert np.max(np.abs(W @ np.ones(q))) <= EXACT_TOL
    # principal value of cot((s-t)/2) e^{i s} is 2 pi i e^{i t}
    assert np.max(np.abs(W @ np.exp(1j * t) - 2.0j * np.pi * np.exp(1j * t))) <= EXACT_TOL
    assert np.max(np.abs(W @ np.sin(2 * t) - 2.0 * np.pi * np.cos(2 * t))) <= EXACT_TOL
    assert np.max(np.abs(np.diag(W))) == 0.0


def double_sum_weights(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The log and Hilbert weights summed mode by mode over all t_i - t_j."""
    t = 2.0 * np.pi * np.arange(q) / q
    delta = t[:, None] - t[None, :]
    R = np.zeros((q, q))
    W = np.zeros((q, q))
    for m in range(1, q // 2):
        R -= (4.0 * np.pi / q) * np.cos(m * delta) / m
        W -= (4.0 * np.pi / q) * np.sin(m * delta)
    R -= (4.0 * np.pi / q**2) * np.cos(0.5 * q * delta)
    return R, W


@pytest.mark.parametrize("q", [8, 16, 64, 128])
def test_circulant_weights_match_double_sum(q):
    R, W = double_sum_weights(q)
    assert np.max(np.abs(log_weights(q) - R)) <= 1e-13
    assert np.max(np.abs(hilbert_weights(q) - W)) <= 1e-13


@pytest.mark.parametrize("weights", [log_weights, hilbert_weights], ids=["log", "hilbert"])
def test_cached_weights_are_read_only(weights):
    # the circulant view shares one generating column across its rows: an
    # in-place write must fail rather than change many entries at once
    w = weights(16)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w += 0.0
    with pytest.raises(ValueError):
        w[0, 1] = w[0, 1]


EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                              reason="needs an extended-precision long double")


@EXTENDED
@pytest.mark.parametrize("q", [8, 64, 128, 256, 512])
def test_weight_columns_match_extended_precision(q):
    # the mode sums in long double, at the angles m t_k reduced mod 2 pi
    # exactly. One inverse FFT per column errs by at most 2.2e-16 of
    # max|column| at these q; double-precision mode sums erred by up to
    # 7.2e-16 (q = 512)
    pi = np.arccos(np.longdouble(-1.0))
    m = np.arange(1, q // 2)
    angles = (2.0 * pi / q) * (np.outer(m, np.arange(q)) % q).astype(np.longdouble)
    log_ref = -(4.0 * pi / q) * np.sum(np.cos(angles) / m[:, None], axis=0)
    log_ref -= (4.0 * pi / q**2) * (-1.0) ** np.arange(q)
    hilbert_ref = -(4.0 * pi / q) * np.sum(np.sin(angles), axis=0)
    for got, ref in ((log_weights(q)[:, 0], log_ref), (hilbert_weights(q)[:, 0], hilbert_ref)):
        assert float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))) <= 4.4e-16


@EXTENDED
@pytest.mark.parametrize("q", [8, 64, 128, 256, 512])
def test_half_angle_columns_match_extended_precision(q):
    # the angle at the signed difference reduced to [-q/2, q/2) is exact to
    # rounding next to the diagonal; the unreduced pi k / q is not (2.3e-15
    # relative at q = 64, 5.3e-14 at q = 512)
    abs_sin, half_cot = _half_angle_columns(q)
    assert abs_sin[0] == 0.0 and half_cot[0] == 0.0
    s = ((np.arange(q) + q // 2) % q - q // 2)[1:]
    half = np.arccos(np.longdouble(-1.0)) * s.astype(np.longdouble) / q
    sin_ref = np.abs(np.sin(half))
    cot_ref = np.cos(half) / np.sin(half)
    sin_err = np.abs(abs_sin[1:] - sin_ref) / sin_ref
    cot_err = np.abs(2.0 * half_cot[1:] - cot_ref) / np.maximum(np.abs(cot_ref), 1.0)
    assert float(np.max(sin_err)) <= 4.4e-16
    assert float(np.max(cot_err)) <= 4.4e-16


# -- layer matrices against the per-mode series route -------------------------


COEFFS = {0: 0.7 + 0.2j, 1: 0.3 - 0.2j, -2: 0.1 + 0.05j, 3: -0.15j}
COEFFS_ZERO_MEAN = {1: 0.3 - 0.2j, -2: 0.1 + 0.05j, 3: -0.15j}


def test_single_layer_matches_series_on_boundary():
    mesh = build_mesh(ELLIPSE, 128)
    dens = nodal_density(mesh, COEFFS)
    comps = components(dens)
    w_b = ELLIPSE.gamma * np.exp(1j * mesh.theta)
    for side in ("exterior", "interior"):
        quad = complexify(single_layer_matrix(mesh, TRANS, side) @ comps)
        ser_out = series_single_layer(ELLIPSE, TRANS, side, COEFFS, w_b, "exterior")
        ser_in = series_single_layer(ELLIPSE, TRANS, side, COEFFS, mesh.z, "interior")
        assert np.max(np.abs(quad - ser_out)) <= SERIES_TOL
        assert np.max(np.abs(quad - ser_in)) <= SERIES_TOL


def test_single_layer_matches_series_off_boundary():
    mesh = build_mesh(ELLIPSE, 128)
    dens = nodal_density(mesh, COEFFS)
    phi = 2.0 * np.pi * np.arange(16) / 16
    w_out = 1.3 * np.exp(1j * phi)
    z_out = eval_map(ELLIPSE, w_out)
    pot = single_layer_potential(mesh, dens, TRANS.alpha, TRANS.beta, z_out)
    ser = series_single_layer(ELLIPSE, TRANS, "exterior", COEFFS, w_out, "exterior")
    assert np.max(np.abs(pot - ser)) <= SERIES_TOL
    z_in = 0.5 + 0.2 * np.exp(1j * phi)
    pot_in = single_layer_potential(mesh, dens, TRANS.alpha, TRANS.beta, z_in)
    ser_in = series_single_layer(ELLIPSE, TRANS, "exterior", COEFFS, z_in, "interior")
    assert np.max(np.abs(pot_in - ser_in)) <= SERIES_TOL


def test_conormal_matches_series_traction():
    # zero-mean density: a net-charge layer has a multivalued traction
    # potential whose secular part a spectral derivative cannot represent
    mesh = build_mesh(ELLIPSE, 128)
    dens = nodal_density(mesh, COEFFS_ZERO_MEAN)
    comps = components(dens)
    mu = TRANS.mu_ext
    w_b = ELLIPSE.gamma * np.exp(1j * mesh.theta)

    z, f, fp, g, _, _ = series_triple(ELLIPSE, TRANS, "exterior", COEFFS_ZERO_MEAN, w_b, "exterior")
    I_out = 0.5 * mu * (f + z * np.conj(fp) + np.conj(g))
    expected_out = -(2.0j / mesh.h) * fft_derivative(I_out)
    got_out = complexify(conormal_matrix(mesh, TRANS, "exterior", "exterior") @ comps)
    assert np.max(np.abs(got_out - expected_out)) <= TRACTION_TOL

    z, f, fp, g, _, _ = series_triple(ELLIPSE, TRANS, "exterior", COEFFS_ZERO_MEAN, mesh.z, "interior")
    I_in = 0.5 * mu * (f + z * np.conj(fp) + np.conj(g))
    expected_in = -(2.0j / mesh.h) * fft_derivative(I_in)
    got_in = complexify(conormal_matrix(mesh, TRANS, "exterior", "interior") @ comps)
    assert np.max(np.abs(got_in - expected_in)) <= TRACTION_TOL

    assert np.max(np.abs((got_out - got_in) - dens)) <= EXACT_TOL


def test_conormal_operator_annihilates_rigid_fields():
    # net force and torque of the interior-trace traction vanish for any
    # density; dually, the exterior trace pairs with rigid fields as the
    # density itself does
    mesh = build_mesh(ELLIPSE, 64)
    inner = conormal_matrix(mesh, TRANS, "exterior", "interior")
    outer = conormal_matrix(mesh, TRANS, "exterior", "exterior")
    wq = mesh.weights
    for r in rigid_fields(mesh.z):
        rv = np.concatenate([wq * r.real, wq * r.imag])
        assert np.max(np.abs(rv @ inner)) <= 1e-10
        assert np.max(np.abs(rv @ outer - rv)) <= 1e-10


def test_loading_conormal_matches_componentwise_definition():
    mesh = build_mesh(ELLIPSE, 32)
    loading = LoadingSpec(A=[0.0, 0.4 + 0.1j, -0.2j], B=[0.0, 1.0, 0.0, 0.3])
    f, g = loading_pair(loading, ELLIPSE)
    lam, mu, kappa = TRANS.lam_ext, TRANS.mu_ext, TRANS.kappa
    z, n = mesh.z, mesh.normal
    du_dz = kappa * poly_eval(polyder(f), z) - np.conj(poly_eval(polyder(f), z))
    du_dzb = -z * np.conj(poly_eval(polyder(polyder(f)), z)) - np.conj(poly_eval(polyder(g), z))
    du_dx = du_dz + du_dzb
    du_dy = 1j * (du_dz - du_dzb)
    expected = np.zeros_like(z)
    for i in range(mesh.q):
        grad = np.array(
            [[du_dx[i].real, du_dy[i].real], [du_dx[i].imag, du_dy[i].imag]]
        )
        nv = np.array([n[i].real, n[i].imag])
        tv = lam * np.trace(grad) * nv + mu * (grad + grad.T) @ nv
        expected[i] = tv[0] + 1j * tv[1]
    got = loading_conormal(loading, mesh, TRANS)
    assert np.max(np.abs(got - expected)) <= EXACT_TOL


def high_order_loading(M: int) -> LoadingSpec:
    """A_M = 1, B_M = 0.5i: one mode of order M."""
    A = np.zeros(M + 1, dtype=complex)
    B = np.zeros(M + 1, dtype=complex)
    A[M], B[M] = 1.0, 0.5j
    return LoadingSpec(A, B)


@pytest.mark.parametrize("M", [16, 32])
@pytest.mark.parametrize("cmap", [ELLIPSE, ELONGATED, FOURTERM],
                         ids=["ellipse", "elongated", "fourterm"])
def test_high_order_loading_matches_grunsky_series(cmap, M):
    # the loading and its conormal on the boundary against the finite Grunsky
    # series F_m(Psi(w)) = w^m + sum_k c_mk w^-k, differentiated by the chain
    # rule in w: a route with no Faber recurrence in z and no monomials
    mesh = build_mesh(cmap, 64)
    w = cmap.gamma * np.exp(1j * mesh.theta)
    rng = np.random.default_rng(M)
    random = LoadingSpec(np.append(0.0, rng.standard_normal(M) + 1j * rng.standard_normal(M)),
                         np.append(0.0, rng.standard_normal(M) + 1j * rng.standard_normal(M)))
    for loading in (high_order_loading(M), random):
        f, g, fp, gp, fpp = loading_by_grunsky(loading, cmap, w)
        want = TRANS.kappa * f - mesh.z * np.conj(fp) - np.conj(g)
        got = eval_loading(loading, cmap, TRANS, mesh.z)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        tangential = 2.0 * mesh.zprime * np.real(fp) + np.conj(mesh.zprime) * (
            mesh.z * np.conj(fpp) + np.conj(gp)
        )
        want = -(2.0j * TRANS.mu_ext / mesh.h) * tangential
        got = loading_conormal(loading, mesh, TRANS)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- full solves against the coefficient-space route --------------------------


def test_zero_loading_gives_zero_solution():
    zero = LoadingSpec(A=np.zeros(2), B=np.zeros(2))
    sol = solve_oracle(ELLIPSE, TRANS, zero, 32)
    assert np.max(np.abs(sol.psi)) <= EXACT_TOL
    assert np.max(np.abs(sol.phi)) <= EXACT_TOL
    assert np.max(np.abs(sol.u_boundary)) <= EXACT_TOL


def test_disk_cavity_oracle_agrees_with_series():
    bundle = build_geometry(DISK, 12)
    series_sol = solve(assemble_system(CAV, bundle, B1))
    oracle_sol = solve_oracle(DISK, CAV, B1, 128)
    report = compare(oracle_sol, series_sol, DISK, CAV, B1)
    assert report.boundary_max <= 1e-4
    assert report.exterior_max <= 1e-4
    assert np.max(np.abs(rigid_moments(oracle_sol.mesh, oracle_sol.psi))) <= 1e-10
    assert oracle_sol.phi is None


def test_ellipse_transmission_oracle_agrees_with_series():
    bundle = build_geometry(ELLIPSE, 16)
    series_sol = solve(assemble_system(TRANS, bundle, B1))
    system = assemble_nystrom(build_mesh(ELLIPSE, 256), TRANS, B1)
    oracle_sol = solve_nystrom(system)
    report = compare(oracle_sol, series_sol, ELLIPSE, TRANS, B1)
    assert report.boundary_max <= 1e-3
    assert report.exterior_max <= 1e-3
    assert report.boundary_rms <= report.boundary_max
    assert trace_gap(system, oracle_sol) <= 1e-10
    condition = one_norm_condition(system.matrix)
    assert np.isfinite(condition)
    assert condition >= 1.0


@pytest.mark.parametrize("cmap", [DISK, ELLIPSE], ids=["disk", "ellipse"])
@pytest.mark.parametrize("material", [TRANS, CAV], ids=["transmission", "cavity"])
def test_boundary_comparison_is_on_the_boundary(cmap, material):
    # the series side is evaluated on |w| = gamma, where the oracle's
    # nodes lie, so the boundary gap is the two solves' agreement alone
    series_sol = solve(assemble_system(material, build_geometry(cmap, 16), B1))
    report = compare(solve_oracle(cmap, material, B1, 256), series_sol, cmap, material, B1)
    assert report.boundary_max <= 1e-12


@pytest.mark.parametrize("material", [TRANS, CAV], ids=["transmission", "cavity"])
def test_order_32_loading_oracle_agrees_with_series(material):
    # the oracle reads the loading through the same Faber recurrence as the
    # series side, so at loading order 32 the two solves agree on the boundary
    # to near roundoff of the field, as they do at low order
    loading = high_order_loading(32)
    series_sol = solve(assemble_system(material, build_geometry(ELLIPSE, 48), loading))
    oracle_sol = solve_oracle(ELLIPSE, material, loading, 256)
    report = compare(oracle_sol, series_sol, ELLIPSE, material, loading)
    assert report.boundary_max <= 1e-11 * np.max(np.abs(oracle_sol.u_boundary))


@pytest.mark.parametrize("gamma", [1.0, 1e-90, 1e120])
def test_rigid_motion_rows_at_extreme_radii(gamma):
    # the rotation row scales as gamma^2: its norm once overflowed from about
    # gamma = 1e77 and underflowed below about 1e-80, and the bordered matrix
    # was singular (oracle-check exit 4)
    cmap = ConformalMap(gamma, [0.1 * gamma, 0.3 * gamma**2])
    system = assemble_nystrom(build_mesh(cmap, 64), TRANS, B1)
    assert np.allclose(np.linalg.norm(system.constraints, axis=1), 1.0, rtol=1e-14)
    oracle_sol = solve_nystrom(system)
    series_sol = solve(assemble_system(TRANS, build_geometry(cmap, 16), B1))
    report = compare(oracle_sol, series_sol, cmap, TRANS, B1)
    # 1.32e-11 at every radius, as at gamma = 1
    assert report.boundary_max <= 2e-11 * np.max(np.abs(oracle_sol.u_boundary))


def test_oracle_interior_field_matches_series():
    bundle = build_geometry(ELLIPSE, 16)
    series_sol = solve(assemble_system(TRANS, bundle, B1))
    oracle_sol = solve_oracle(ELLIPSE, TRANS, B1, 128)
    z_in = 0.5 + 0.2 * np.exp(1j * 2.0 * np.pi * np.arange(8) / 8)
    u_oracle = eval_oracle_interior(oracle_sol, TRANS, z_in)
    ev = FieldEvaluator(series_sol, B1, ELLIPSE, TRANS)
    u_series = ev.interior_arrays_z(z_in)["u"]
    assert np.max(np.abs(u_oracle - u_series)) <= TRACTION_TOL


def test_cavity_solution_has_no_interior_field():
    sol = solve_oracle(DISK, CAV, B1, 32)
    with pytest.raises(OracleError):
        eval_oracle_interior(sol, CAV, np.array([0.5 + 0.0j]))


def test_self_convergence_is_superalgebraic():
    diffs = self_convergence(ELLIPSE, TRANS, B1, (32, 64))
    assert diffs[0] / diffs[1] >= 10.0
    assert diffs[1] <= 1e-8


def test_far_field_decay_of_solved_density():
    sol = solve_oracle(ELLIPSE, CAV, B1, 128)
    phi = 2.0 * np.pi * np.arange(8) / 8
    peaks = {}
    for radius in (10.0, 20.0, 40.0):
        z = eval_map(ELLIPSE, radius * np.exp(1j * phi))
        vals = single_layer_potential(sol.mesh, sol.psi, CAV.alpha, CAV.beta, z)
        peaks[radius] = np.max(np.abs(vals))
    scaled = [r * peaks[r] for r in (10.0, 20.0, 40.0)]
    assert max(scaled) / min(scaled) <= 1.05
    assert 0.2 <= peaks[40.0] / peaks[10.0] <= 0.3


# -- the bordered system against the stacked least-squares solve ----------------


RICH = LoadingSpec(A=[0.0, 0.4 + 0.1j, -0.2j], B=[0.0, 1.0, 0.0, 0.3])

# Meshes that resolve RICH: the bordering multipliers are at most 3e-14,
# 2.4e-8 for the elongated map at q=256. The four-term map at q=64
# (multipliers 9e-8) and the elongated map at q=128 (1.5e-2) are
# under-resolved, and there the bordered and least-squares answers
# differ by design (8.6e-10, 2.8e-5 relative).
MAPS = {"disk": DISK, "ellipse": ELLIPSE, "fourterm": FOURTERM, "elongated": ELONGATED}
RESOLVED = [("disk", 64), ("disk", 128), ("ellipse", 64), ("ellipse", 128),
            ("fourterm", 128), ("fourterm", 256), ("elongated", 256)]
MATERIALS = pytest.mark.parametrize("material", [TRANS, CAV], ids=["transmission", "cavity"])


def stacked_lstsq_densities(system: NystromSystem) -> np.ndarray:
    """The densities from least squares on [M; C] sol = [rhs; 0]."""
    n = system.constraints.shape[1]
    stacked = np.vstack([system.matrix[:n, :n], system.constraints])
    rhs = np.concatenate([system.rhs, np.zeros(3)])
    return np.linalg.lstsq(stacked, rhs, rcond=None)[0]


@MATERIALS
@pytest.mark.parametrize("name,q", RESOLVED)
def test_bordered_solve_matches_stacked_least_squares(name, q, material):
    system = assemble_nystrom(build_mesh(MAPS[name], q), material, RICH)
    n = system.constraints.shape[1]
    assert system.matrix.shape == (n + 3, n + 3)
    assert np.shares_memory(system.constraints, system.matrix)
    sol = solve_nystrom(system)
    got = components(sol.psi)
    if sol.phi is not None:
        got = np.concatenate([components(sol.phi), got])
    want = stacked_lstsq_densities(system)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.max(np.abs(rigid_moments(sol.mesh, sol.psi))) <= 1e-10
    if sol.phi is not None:
        assert trace_gap(system, sol) <= 1e-10


@MATERIALS
@pytest.mark.parametrize("name,q", RESOLVED)
def test_condition_estimate_brackets_exact_one_norm(name, q, material):
    system = assemble_nystrom(build_mesh(MAPS[name], q), material, RICH)
    K = system.matrix
    exact = np.max(np.sum(np.abs(K), axis=0)) * np.max(np.sum(np.abs(np.linalg.inv(K)), axis=0))
    estimate = one_norm_condition(K)
    # the estimate is ||K||_1 ||K^-1 x||_1 for a unit x: a lower bound up to roundoff
    assert estimate <= exact * (1.0 + 1e-10)
    assert estimate >= 0.1 * exact


@MATERIALS
def test_solve_nystrom_factors_the_matrix_once(monkeypatch, material):
    system = assemble_nystrom(build_mesh(ELLIPSE, 64), material, RICH)
    calls, numpy_solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a) or numpy_solve(a, b))
    sol = solve_nystrom(system)
    assert len(calls) == 1 and calls[0] is system.matrix
    assert sol.residual_norm <= 1e-10


def test_singular_bordered_system_raises():
    mesh = build_mesh(DISK, 16)
    matrix = np.zeros((2 * mesh.q + 3, 2 * mesh.q + 3))
    system = NystromSystem(matrix, np.ones(2 * mesh.q), matrix[2 * mesh.q :, : 2 * mesh.q],
                           mesh, CAV, np.zeros(mesh.q, dtype=complex))
    with pytest.raises(OracleError, match="singular reference system"):
        solve_nystrom(system)


def test_discrepancy_of_identical_samples_is_zero():
    x = np.array([1.0 + 2.0j, -0.5j, 3.0])
    assert discrepancy(x, x) == (0.0, 0.0)


@pytest.mark.parametrize("k", [900, -900])
def test_discrepancy_scales_by_powers_of_two(k):
    # the rms once squared the raw differences: at 2^900 it read inf, which
    # oracle_report.json wrote as Infinity, and at 2^-900 the squares underflowed
    rng = np.random.default_rng(7)
    a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    b = a + 1e-3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    scale = 2.0**k
    got = discrepancy(scale * a, scale * b)
    assert got == tuple(scale * x for x in discrepancy(a, b))
    json.dumps({"max": got[0], "rms": got[1]}, allow_nan=False)


# -- the in-place assembly against the dense block reference -------------------


def dense_reference_matrix(mesh: BoundaryMesh, material: MaterialPair) -> np.ndarray:
    """The unbordered Nystrom matrix M stacked from the dense reference blocks."""
    frames = dense_chord_frames(mesh)
    outer = dense_conormal_blocks(mesh, frames, material.lam_ext, material.mu_ext, 1.0)
    if not material.has_interior:
        return outer
    alpha, beta = kelvin_constants(material, "exterior")
    alpha_t, beta_t = kelvin_constants(material, "interior")
    inner = dense_conormal_blocks(mesh, frames, material.lam_int, material.mu_int, -1.0)
    return np.block([
        [dense_single_layer_blocks(mesh, frames, alpha_t, beta_t),
         -dense_single_layer_blocks(mesh, frames, alpha, beta)],
        [inner, -outer],
    ])


@MATERIALS
@pytest.mark.parametrize("q", [8, 64, 512])
@pytest.mark.parametrize("name", sorted(MAPS))
def test_assembly_matches_dense_reference(name, q, material):
    # the shared factors written block by block give the dense blocks to
    # roundoff (the reference's unreduced angles err by 5e-14 near corners)
    mesh = build_mesh(MAPS[name], q)
    system = assemble_nystrom(mesh, material, RICH)
    reference = dense_reference_matrix(mesh, material)
    n = reference.shape[0]
    assert np.max(np.abs(system.matrix[:n, :n] - reference)) <= 1e-14 * np.max(np.abs(reference))
    h_nodes = eval_loading(RICH, mesh.cmap, material, mesh.z)
    dh_nodes = components(loading_conormal(RICH, mesh, material))
    rhs = np.concatenate([components(h_nodes), dh_nodes]) if material.has_interior else -dh_nodes
    assert np.array_equal(system.rhs, rhs)
    if not material.has_interior:
        # the cavity's boundary displacement: loading plus the exterior single layer
        sol = solve_nystrom(system)
        single = dense_single_layer_blocks(mesh, dense_chord_frames(mesh), material.alpha,
                                           material.beta)
        want = h_nodes + complexify(single @ components(sol.psi))
        assert np.max(np.abs(sol.u_boundary - want)) <= 1e-14 * np.max(np.abs(want))


def traced_peak(call) -> tuple[object, int]:
    """call() under tracemalloc: its result and the peak of traced bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transmission_assembly_allocates_eight_q_squared_beyond_the_matrix():
    # the blocks go straight into the bordered matrix: besides it, only the
    # six shared factors and the construction's temporaries are live
    q = 512
    mesh = build_mesh(FOURTERM, q)
    log_weights(q), hilbert_weights(q)
    system, peak = traced_peak(lambda: assemble_nystrom(mesh, TRANS, RICH))
    assert peak <= system.matrix.nbytes + 8 * q * q * 8


def test_cavity_solve_builds_no_single_layer_matrix():
    # the boundary displacement comes from q x q products with the kept
    # factors, not from a (2q, 2q) single-layer block
    q = 512
    system = assemble_nystrom(build_mesh(FOURTERM, q), CAV, RICH)
    _, peak = traced_peak(lambda: solve_nystrom(system))
    assert peak < (2 * q) ** 2 * 2
