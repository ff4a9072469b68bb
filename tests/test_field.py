"""Tests for displacement-field evaluation.

The combined-series evaluator is cross-checked against straightforward
per-mode sums of the layer transforms, against a hand closed form for the
circular cavity, and against the solved system's own interface conditions.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elastinc.field as elastinc_field
from elastinc.field import (
    FieldError,
    FieldEvaluator,
    FieldSample,
    GridSpec,
    boundary_traction_spread,
    classify_points,
    grid_field,
    invert_map,
    transmission_residual,
    REGION_SAMPLES,
    _grid_regions,
    _traction_arrays,
)
from elastinc.geometry import (
    ConformalMap,
    GeometryError,
    build_geometry,
    eval_map,
    faber_derivative_matrices,
    faber_series,
    grunsky_rows,
    map_jet,
)
from elastinc.loading import LoadingSpec, boundary_series, unit_rhs_vectors
from elastinc.materials import MaterialPair
from elastinc.oracle import compare, solve_oracle
from elastinc.system import DensitySolution, assemble_system, one_norm_condition, solve
from elastinc.cli import CSV_HEADER, _write_field_csv
from layer_reference import (
    _shifted_coefficients,
    deriv_layer_exterior,
    deriv_layer_interior,
    exterior_tail,
    faber_recurrence_sums,
    grid_rows,
    log_layer_exterior,
    log_layer_interior,
    split_window,
    two_sweep_regions,
    write_field_rows,
)
from test_geometry import random_map

EXACT_TOL = 1e-12
SERIES_TOL = 1e-8

CAV = MaterialPair(2.0, 1.0, cavity=True)
TRANS = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
DISK = ConformalMap(1.0, [0.5])
ELLIPSE = ConformalMap(1.0, [0.5, 0.3])
FOURTERM = ConformalMap(1.0, [0.1, 0.25, 0.08 + 0.05j, 0.03])
ELONGATED = ConformalMap(1.0, [0.0, 0.9])
BOUNDARY_TOL = 1e-13


def single_mode(m, value, n):
    B = np.zeros(n + 1, dtype=complex)
    B[m] = value
    return LoadingSpec(np.zeros(n + 1), B)


def zero_solution(n, mode="cavity"):
    z = np.zeros(n + 1, dtype=complex)
    interior = None if mode == "cavity" else z.copy()
    return DensitySolution(
        xe_plus=z.copy(),
        xe_minus=z.copy(),
        xi_plus=interior,
        xi_minus=None if interior is None else interior.copy(),
        residual=0.0,
        rank=0,
        rotation_projection=0.0,
        converged=True,
        n=n,
        mode=mode,
    )


def random_solution(rng, n, mode="transmission"):
    def draw():
        v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        v[0] = 0.0
        return v

    xm = draw()
    xi_p = None if mode == "cavity" else draw()
    xi_m = None
    if mode == "transmission":
        xi_m = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return DensitySolution(
        xe_plus=draw(),
        xe_minus=xm,
        xi_plus=xi_p,
        xi_minus=xi_m,
        residual=0.0,
        rank=0,
        rotation_projection=0.0,
        converged=True,
        n=n,
        mode=mode,
    )


def solved_disk_cavity(n=12, B1=0.8 - 0.3j):
    loading = single_mode(1, B1, n)
    sol = solve(assemble_system(CAV, build_geometry(DISK, n), loading))
    return sol, loading


def solved_ellipse_transmission(n=16, B1=1.0 + 0.0j):
    loading = single_mode(1, B1, n)
    sol = solve(assemble_system(TRANS, build_geometry(ELLIPSE, n), loading))
    return sol, loading


# ---------------------------------------------------------------------------
# evaluator against per-mode layer sums


def test_evaluator_matches_per_mode_sums():
    rng = np.random.default_rng(7)
    cmap = ConformalMap(1.2, [0.3 + 0.2j, -0.1, 0.05j])
    n = 6
    depth = cmap.a.size - 1
    mat = TRANS
    sol = random_solution(rng, n)
    loading = LoadingSpec(np.zeros(2), np.zeros(2))
    ev = FieldEvaluator(sol, loading, cmap, mat)
    # the coefficients belong to the unit-radius map: compare per-mode sums
    # there, at unit-radius preimages; with no loading, the evaluator's f,
    # f' and g are half the layer terms, f' in physical units
    unit = cmap.unit
    w = np.array([1.3, 1.8]) * np.exp(1j * np.array([0.4, 2.9]))
    outer = ev.exterior_arrays(cmap.gamma * w)
    f, fp, g = 2 * outer["f"], 2 * cmap.gamma * outer["fprime"], 2 * outer["g"]
    beta, alpha = mat.beta, mat.alpha
    want_f = beta * log_layer_exterior(unit, sol.xe_plus, sol.xe_minus, w)
    assert np.allclose(f, want_f, atol=EXACT_TOL)
    want_fp = beta * deriv_layer_exterior(unit, sol.xe_plus, sol.xe_minus, w)
    assert np.allclose(fp, want_fp, atol=EXACT_TOL)

    bar_plus = np.conj(sol.xe_minus).copy()
    bar_minus = np.conj(sol.xe_plus).copy()
    bar_minus[0] = np.conj(sol.xe_minus[0])
    bar_plus[0] = 0.0
    full = {m: sol.xe_plus[m] for m in range(1, n + 1)}
    full.update({-k: sol.xe_minus[k] for k in range(1, n + 1)})
    full[0] = sol.xe_minus[0]
    y = _shifted_coefficients(unit, full)
    top = n + depth
    y_plus = np.zeros(top + 1, dtype=complex)
    y_minus = np.zeros(n + 2, dtype=complex)
    for j, yj in y.items():
        if j >= 1:
            y_plus[j] = yj
        else:
            y_minus[-j] = yj
    want_g = -alpha * log_layer_exterior(unit, bar_plus, bar_minus, w) - beta * (
        deriv_layer_exterior(unit, y_plus, y_minus, w)
    )
    assert np.allclose(g, want_g, atol=EXACT_TOL)

    # interior side
    zi = eval_map(unit, 0.97 * np.exp(1j * np.array([0.9, 4.0])))
    arrays = ev.interior_arrays_z(cmap.gamma * zi)
    at, bt, kt = mat.interior_constants()
    fi = bt * log_layer_interior(unit, sol.xi_plus, sol.xi_minus, zi)
    assert np.allclose(2 * arrays["f"], fi, atol=EXACT_TOL)
    fpi = bt * deriv_layer_interior(unit, sol.xi_plus, sol.xi_minus, zi)
    assert np.allclose(2 * cmap.gamma * arrays["fprime"], fpi, atol=EXACT_TOL)
    bar_plus_i = np.conj(sol.xi_minus).copy()
    bar_plus_i[0] = 0.0
    bar_minus_i = np.conj(sol.xi_plus).copy()
    bar_minus_i[0] = np.conj(sol.xi_minus[0])
    full_i = {m: sol.xi_plus[m] for m in range(1, n + 1)}
    full_i.update({-k: sol.xi_minus[k] for k in range(1, n + 1)})
    full_i[0] = sol.xi_minus[0]
    yi = _shifted_coefficients(unit, full_i)
    yi_plus = np.zeros(top + 1, dtype=complex)
    for j, yj in yi.items():
        if j >= 1:
            yi_plus[j] = yj
    gi = -at * log_layer_interior(unit, bar_plus_i, bar_minus_i, zi) - bt * (
        deriv_layer_interior(unit, yi_plus, np.zeros(1), zi)
    )
    assert np.allclose(2 * arrays["g"], gi, atol=EXACT_TOL)


def scattered_part(rows, x0, material, cmap, w):
    """The layer part of u at exterior points w from series rows (f, fbar, C, q).

    Every column is summed term by term, with no Horner pass, at the
    unit-radius points w / gamma.
    """
    omega = w / cmap.gamma
    zeta = eval_map(cmap, w) / cmap.gamma
    ks = np.arange(rows.shape[1])[:, None]
    L, Lbar, C, q = rows @ omega ** -ks
    logw = np.log(omega)
    wdpsi = omega * map_jet(cmap.unit, omega, 1)[1]
    alpha, beta = material.alpha, material.beta
    f = beta * (L + x0 * logw)
    fp = beta * C / wdpsi
    g = -alpha * (Lbar + np.conj(x0) * logw) - beta * q / wdpsi
    return 0.5 * (material.kappa * f - zeta * np.conj(fp) - np.conj(g))


def layer_part(ev, arrays):
    """The layer's term of exterior u, kappa f - z conj(f') - conj(g) of the layer pair.

    The layer pair is the returned total pair f, f', g less the loading's
    potentials from the evaluator's LoadingSeries.
    """
    z = arrays["z"]
    fH, gH, dfH = ev.load_series.potentials(z)
    f, fp, g = arrays["f"] - fH, arrays["fprime"] - dfH, arrays["g"] - gH
    return ev.material.kappa * f - z * np.conj(fp) - np.conj(g)


def seeded_depth5_map():
    rng = np.random.default_rng(5)
    a = 0.06 * (rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6))
    return ConformalMap(1.3, a * 1.3 ** (np.arange(6) + 1.0))


@pytest.mark.parametrize("n", [6, 32])
@pytest.mark.parametrize("cmap", [ELONGATED, FOURTERM, seeded_depth5_map()],
                         ids=["elongated", "fourterm", "depth5"])
def test_exterior_series_is_exact(cmap, n):
    # c_mk = 0 for k > mK, so the series stops: a reference with 40 more
    # columns has exact zeros there, and on |w| = gamma, where nothing
    # decays (c_mm = 0.9^m on the elongated ellipse), the rows agree
    sol = random_solution(np.random.default_rng(n), n, mode="cavity")
    ev = FieldEvaluator(sol, LoadingSpec(np.zeros(2), np.zeros(2)), cmap, CAV)
    kfar = ev.tail.shape[1] - 1
    ref = exterior_tail(cmap.unit, sol, kfar + 40)
    assert np.all(ref[:, kfar + 1 :] == 0.0)
    w = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))  # |w| = gamma
    got = boundary_series(np.zeros(1), ev.tail, w)
    want = boundary_series(np.zeros(1), ref, w)
    err = np.max(np.abs(got - want), axis=1)
    assert np.all(err <= 1e-14 * np.max(np.abs(want), axis=1))


def test_exterior_series_has_no_seam_beyond_64_modes():
    # n = 80 on the elongated ellipse, a density of unit size in every mode:
    # on both sides of |w| = 2 gamma, where an evaluation route could switch,
    # the field matches a 600-column Grunsky sum. Faber sums in z plus
    # explicit powers of w would cancel terms of size 2^80 there.
    n = 80
    sol = random_solution(np.random.default_rng(80), n)
    ev = FieldEvaluator(sol, LoadingSpec(np.zeros(2), np.zeros(2)), ELONGATED, TRANS)
    ref = exterior_tail(ELONGATED.unit, sol, 600)
    w = 2.0 * ELONGATED.gamma * np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    sides = []
    for side in (w * (1.0 - 1e-12), w * (1.0 + 1e-12)):
        arrays = ev.exterior_arrays(side)
        got = layer_part(ev, arrays)
        want = scattered_part(ref, sol.xe_minus[0], TRANS, ELONGATED, side)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        sides.append(arrays["u"])
    inside, outside = sides
    assert np.allclose(inside, outside, rtol=0.0, atol=1e-8 * np.max(np.abs(outside)))


def exact_interior_rows(ev):
    """The interior rows (Li, Libar, Ci Dt, Cyi Dt) before the cut."""
    order = ev.faber_derivs_i.shape[1] - 1
    slopes = ev.faber_derivs_i @ faber_derivative_matrices(ev.unit, order)
    return np.vstack([ev.faber_values_i, slopes])


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("material", [TRANS, CAV], ids=["transmission", "cavity"])
@pytest.mark.parametrize("cmap", [DISK, ELLIPSE, FOURTERM, ELONGATED],
                         ids=["disk", "ellipse", "fourterm", "elongated"])
def test_series_cut_drops_only_rounding(cmap, material, n):
    # evaluation reads the exact tables cut after their last column of
    # significant mass: each row drops at most 1e-15 of its largest entry,
    # and at |w| >= gamma, where no power of 1/w exceeds 1, the dropped
    # columns move the tail's sums by at most the sum of their moduli
    sol = solve(assemble_system(material, build_geometry(cmap, n), RING_LOADING))
    ev = FieldEvaluator(sol, RING_LOADING, cmap, material)
    tables = [(ev.tail, ev.tail_cut)]
    if not material.cavity:
        tables.append((exact_interior_rows(ev), ev.interior_rows))
    for exact, cut in tables:
        width = cut.shape[1]
        assert np.array_equal(cut, exact[:, :width])
        mass = np.sum(np.abs(exact[:, width:]), axis=1)
        assert np.all(mass <= 1e-15 * np.max(np.abs(exact), axis=1))
    dropped = ev.tail.copy()
    dropped[:, : ev.tail_cut.shape[1]] = 0.0
    mass = np.sum(np.abs(dropped), axis=1)
    theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    omega = np.concatenate([r * np.exp(1j * theta) for r in (1.0, 1.2, 3.0)])
    change = np.abs(boundary_series(np.zeros(1), dropped, omega))
    assert np.all(change <= mass[:, None] * (1.0 + 1e-12))
    # the decaying four-term series drops columns; the ellipses' tails end
    # at their last nonzero column, which the cut keeps
    if cmap is FOURTERM and n == 64:
        assert ev.tail_cut.shape[1] < ev.tail.shape[1] // 2


def test_series_that_does_not_decay_keeps_every_column():
    # an order-32 loading at n = 40 on the elongated ellipse: every density
    # mode up to 32 is of order one and c_mm = 0.9^m, so no nonzero column is
    # below rounding and the cut stops at the last nonzero one
    A, B = np.zeros(33, dtype=complex), np.zeros(33, dtype=complex)
    A[32], B[32] = 1.0, 0.5j
    loading = LoadingSpec(A, B)
    sol = solve(assemble_system(TRANS, build_geometry(ELONGATED, 40), loading))
    ev = FieldEvaluator(sol, loading, ELONGATED, TRANS)
    for exact, cut in ((ev.tail, ev.tail_cut), (exact_interior_rows(ev), ev.interior_rows)):
        last = np.flatnonzero(np.any(exact != 0.0, axis=0))[-1]
        assert last >= 32
        assert cut.shape[1] == last + 1
        assert np.array_equal(cut, exact[:, : last + 1])


@pytest.mark.parametrize("seed, gamma, depth, n", [
    (1, 1.0, 0, 5),    # a = []
    (2, 1.0, 1, 4),    # a = [a0]
    (3, 1.0, 3, 1),
    (4, 1.7, 4, 6),
    (5, 0.6, 3, 80),   # n = 80: the series holds every y_-k
])
def test_shift_convolution_matches_dict_reference(seed, gamma, depth, n):
    rng = np.random.default_rng(seed)
    k = np.arange(depth)
    a = 0.08 * (rng.uniform(-1, 1, depth) + 1j * rng.uniform(-1, 1, depth)) * gamma ** (k + 1.0)
    cmap = ConformalMap(gamma, a)
    unit = cmap.unit
    sol = random_solution(rng, n)
    ev = FieldEvaluator(sol, LoadingSpec(np.zeros(2), np.zeros(2)), cmap, TRANS)
    w = 1.1 * np.exp(1j * np.array([0.2, 1.9, 4.4]))
    sides = ((sol.xe_plus, sol.xe_minus, ev.faber_rows[2]),
             (sol.xi_plus, sol.xi_minus, ev.faber_derivs_i[1]))
    shifted = []
    for plus, minus, faber_row in sides:
        full = {m: plus[m] for m in range(1, n + 1)}
        full.update({-k: minus[k] for k in range(1, n + 1)})
        full[0] = minus[0]
        y = _shifted_coefficients(unit, full)
        shifted.append(y)
        want_row = np.zeros(faber_row.size, dtype=complex)
        for j, yj in y.items():
            if j >= 1:
                want_row[j] = -yj / j
        assert np.allclose(faber_row, want_row, rtol=0.0, atol=EXACT_TOL)

    # exterior side: the series row q is w Psi'(w) times the Faber sum of Cy
    # plus the 1/Psi' numerator sum_j y_j w^(j-1); check that numerator, then
    # the coefficients of the series
    y = shifted[0]
    terms = [yj * w ** (j - 1) for j, yj in y.items()]
    scale = np.sum(np.abs(terms), axis=0)
    order = ev.faber_rows.shape[1] - 1
    Dt = faber_derivative_matrices(unit, order)
    (sCy,) = faber_series(unit, eval_map(unit, w), ev.faber_rows[2:] @ Dt)  # F_m' = Dt[m] F
    got = boundary_series(np.zeros(1), ev.tail[3], w) / w - map_jet(unit, w, 1)[1] * sCy
    assert np.all(np.abs(got - np.sum(terms, axis=0)) <= EXACT_TOL * scale)

    kfar = max(n + 2, order * unit.depth)
    top = max([j for j in y if j >= 1] + [1])
    Cg = grunsky_rows(unit, top, kfar)
    want_q = np.zeros(kfar + 1, dtype=complex)
    want_q[0] = y.get(0, 0.0)
    ks = np.arange(1, kfar + 1)
    for j, yj in y.items():
        if j >= 1:
            want_q[1:] += yj * (ks / j) * Cg[j, 1:]
        elif -kfar <= j <= -1:
            want_q[-j] += yj
    tail_q = ev.tail[3]
    assert tail_q.shape == want_q.shape
    assert np.allclose(tail_q, want_q, rtol=0.0, atol=EXACT_TOL * np.max(np.abs(want_q)))


@pytest.mark.parametrize("shape", [[0.5, 0.3], [0.0, 0.9]])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_high_order_loading_matches_grunsky_series(shape, gamma):
    # mode 40: the monomial coefficients of F_40 grow geometrically, so
    # summing them by Horner loses digits that the Faber recurrence keeps
    M = 40
    cmap = ConformalMap(gamma, np.asarray(shape) * gamma ** (np.arange(len(shape)) + 1.0))
    A = np.zeros(M + 1, dtype=complex)
    B = np.zeros(M + 1, dtype=complex)
    A[M], B[M] = 1.0, 0.5j
    ev = FieldEvaluator(zero_solution(M), LoadingSpec(A, B), cmap, TRANS)
    w = 1.5 * gamma * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
    got = ev.exterior_arrays(w)["u"]  # the density is zero: u is the loading alone

    # F_M(Psi(w)) = w^M + sum_k c_Mk w^-k, differentiated in w and divided by Psi'
    c = grunsky_rows(cmap, M, 600)[M]
    ks = np.arange(c.size)[:, None]
    F = w**M + np.sum(c[:, None] * w ** -ks, axis=0)
    dF = (M * w ** (M - 1) - np.sum(ks * c[:, None] * w ** (-ks - 1), axis=0)) / (
        map_jet(cmap, w, 1)[1]
    )
    z = eval_map(cmap, w)
    want = TRANS.kappa * A[M] * F - z * np.conj(A[M] * dF) + np.conj(B[M] * F)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# exterior field values


def exterior_at(sol, loading, cmap, material, w) -> dict:
    """The exterior arrays at one preimage point, each read as a scalar."""
    arrays = FieldEvaluator(sol, loading, cmap, material).exterior_arrays(np.array([w]))
    return {key: complex(col[0]) for key, col in arrays.items()}


def test_zero_density_gives_pure_loading():
    n = 8
    loading = single_mode(2, 0.5 + 0.2j, n)
    sol = zero_solution(n)
    from elastinc.loading import eval_loading

    ev = FieldEvaluator(sol, loading, DISK, CAV)
    for w in (1.4 * np.exp(0.7j), 3.3 * np.exp(2.1j)):
        arrays = ev.exterior_arrays(np.array([w]))
        z = eval_map(DISK, np.array([w]))[0]
        assert complex(arrays["z"][0]) == pytest.approx(z)
        assert complex(arrays["u"][0]) == pytest.approx(complex(eval_loading(loading, DISK, CAV, z)))
        # f and g are the loading's potentials exactly: the layer adds zero
        fH, gH, _ = ev.load_series.potentials(arrays["z"])
        assert arrays["f"][0] - fH[0] == 0.0
        assert arrays["g"][0] - gH[0] == 0.0


def test_disk_cavity_closed_form_field():
    B1 = 0.8 - 0.3j
    sol, loading = solved_disk_cavity(B1=B1)
    kap = CAV.kappa
    for w in (1.7 * np.exp(0.3j), 2.6 * np.exp(2.0j), 11.0 * np.exp(1.2j)):
        s = exterior_at(sol, loading, DISK, CAV, w)
        want = (
            np.conj(B1) * np.conj(w)
            + kap * np.conj(B1) / w
            + B1 * w / np.conj(w) ** 2
            - B1 / np.conj(w) ** 3
        )
        assert abs(s["u"] - want) <= 1e-12 * abs(want)
        # the total pair gives u by the displacement formula, to rounding
        terms = [kap * s["f"], -s["z"] * np.conj(s["fprime"]), -np.conj(s["g"])]
        assert abs(sum(terms) - s["u"]) <= 4.0 * np.finfo(float).eps * sum(map(abs, terms))


def test_disk_cavity_traction_free_boundary():
    sol, loading = solved_disk_cavity()
    spread = boundary_traction_spread(sol, loading, DISK, CAV, 32)
    assert spread <= SERIES_TOL


def test_exterior_rejects_points_inside():
    sol, loading = solved_disk_cavity()
    with pytest.raises(FieldError):
        exterior_at(sol, loading, DISK, CAV, 0.9 * np.exp(0.4j))


def test_far_field_decay_exponent():
    sol, loading = solved_disk_cavity()
    ev = FieldEvaluator(sol, loading, DISK, CAV)
    radii = np.array([10.0, 20.0, 40.0])
    maxima = []
    theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    for r in radii:
        scattered = layer_part(ev, ev.exterior_arrays(r * np.exp(1j * theta)))
        maxima.append(np.max(np.abs(scattered)))
    slope = np.polyfit(np.log(radii), np.log(maxima), 1)[0]
    assert -1.1 <= slope <= -0.9


# ---------------------------------------------------------------------------
# interface conditions of solved transmission problems


def test_transmission_interface_residuals():
    sol, loading = solved_ellipse_transmission()
    r_disp, r_trac = transmission_residual(sol, loading, ELLIPSE, TRANS, 64)
    assert r_disp <= 1e-6
    assert r_trac <= 1e-6


def test_disk_transmission_interface_residuals():
    n = 12
    loading = single_mode(1, 0.4 + 1.1j, n)
    sol = solve(assemble_system(TRANS, build_geometry(DISK, n), loading))
    r_disp, r_trac = transmission_residual(sol, loading, DISK, TRANS, 48)
    assert r_disp <= 1e-8
    assert r_trac <= 1e-8


def test_elongated_ellipse_transmission_is_full_rank():
    # a1 = 0.9: monomial Faber coefficients reach 6e11 at n = 64
    cmap = ConformalMap(1.0, [0.0, 0.9])
    n = 64
    loading = single_mode(1, 1.0, 1)
    system = assemble_system(TRANS, build_geometry(cmap, n), loading)
    sol = solve(system)
    # the six structurally zero real unknowns (index 0 of xe+, xe-, xi+) are
    # left out of the square system, which is well conditioned
    assert sol.rank == 8 * (n + 1) - 6
    assert 1.0 < one_norm_condition(system.matrix) < 1e6
    assert sol.residual <= 1e-12
    r_disp, r_trac = transmission_residual(sol, loading, cmap, TRANS, 64)
    assert r_disp <= 1e-6
    assert r_trac <= 1e-6


@pytest.mark.parametrize("cmap", [DISK, ELLIPSE, FOURTERM], ids=["disk", "ellipse", "fourterm"])
def test_boundary_diagnostics_are_exact_on_the_boundary(cmap):
    # evaluated on |w| = gamma itself, a resolved solve leaves only roundoff
    n = 32
    loading = LoadingSpec([0.0, 0.3 - 0.1j], [0.0, 1.0, 0.25j])
    bundle = build_geometry(cmap, n)
    sol = solve(assemble_system(TRANS, bundle, loading))
    r_disp, r_trac = transmission_residual(sol, loading, cmap, TRANS, 64)
    assert r_disp <= BOUNDARY_TOL
    assert r_trac <= BOUNDARY_TOL
    sol = solve(assemble_system(CAV, bundle, loading))
    assert boundary_traction_spread(sol, loading, cmap, CAV, 64) <= BOUNDARY_TOL


def test_interface_residual_tracks_truncation():
    # the residual measures the solve: it falls with the truncation error,
    # not to a floor set by how the boundary is approached
    loading = single_mode(1, 1.0, 1)
    residual = {}
    for n in (16, 32):
        sol = solve(assemble_system(TRANS, build_geometry(FOURTERM, n), loading))
        residual[n] = max(transmission_residual(sol, loading, FOURTERM, TRANS, 64))
    assert residual[32] <= 1e-3 * residual[16]


RING_SHAPES = {"disk": [0.0], "ellipse": [0.0, 0.3],
               "fourterm": [0.1, 0.25, 0.08 + 0.05j, 0.03], "elongated": [0.0, 0.9]}
RING_LOADING = LoadingSpec([0.0, 0.3 - 0.1j, 0.2], [0.0, 1.0, 0.25j])


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("shape", sorted(RING_SHAPES))
def test_ring_arrays_match_pointwise_evaluation(shape, gamma):
    # one inverse FFT of the folded Laurent rows gives the exterior and
    # interior arrays on |w| = gamma; count = 16 at n = 64 folds rows whose
    # powers run far past the count
    a = np.asarray(RING_SHAPES[shape], dtype=complex)
    cmap = ConformalMap(gamma, a * gamma ** np.arange(1.0, a.size + 1.0))
    for material in (TRANS, CAV):
        for n, counts in ((8, [64]), (16, [64]), (64, [16, 64])):
            sol = solve(assemble_system(material, build_geometry(cmap, n), RING_LOADING))
            ev = FieldEvaluator(sol, RING_LOADING, cmap, material)
            for count in counts:
                outer, inner = ev._ring_arrays(count)
                w = gamma * np.exp(2j * np.pi * np.arange(count) / count)
                want = ev.exterior_arrays(w)
                pairs = [(outer, want)]
                if material.cavity:
                    assert inner is None
                else:
                    pairs.append((inner, ev.interior_arrays_z(want["z"])))
                for got, ref in pairs:
                    assert set(got) == set(ref)
                    scale = np.max(np.abs(ref["u"]))
                    for key in ("u", "f", "g"):
                        assert np.max(np.abs(got[key] - ref[key])) <= 1e-12 * scale
                    fp_scale = np.max(np.abs(ref["fprime"]))
                    assert np.max(np.abs(got["fprime"] - ref["fprime"])) <= 1e-12 * fp_scale
                    assert np.max(np.abs(got["z"] - ref["z"])) <= 1e-15 * np.max(np.abs(ref["z"]))


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("material", [TRANS, CAV], ids=["transmission", "cavity"])
def test_ring_cut_moves_the_ring_arrays_by_rounding(monkeypatch, material, n):
    # the ring cuts its Faber rows with each column weighed by the largest
    # value of its term on |w| = gamma, 1 + sum_k |c_mk| for F_m and
    # m + sum_k k |c_mk| for omega Psi' F_m'; against the rows cut only where
    # they are exactly zero, every array moves by a few eps of its largest
    # value (an unweighted cut moved them by up to 9 eps)
    for gamma in (0.5, 2.0):
        cmap = ConformalMap(gamma, FOURTERM.a * gamma ** np.arange(1.0, 5.0))
        sol = solve(assemble_system(material, build_geometry(cmap, n), RING_LOADING))
        cut = FieldEvaluator(sol, RING_LOADING, cmap, material)._ring_arrays(64)
        monkeypatch.setattr("elastinc.field.SERIES_CUT", 0.0)
        full = FieldEvaluator(sol, RING_LOADING, cmap, material)._ring_arrays(64)
        monkeypatch.undo()
        for got, want in zip(cut, full):
            if want is None:
                continue
            for key in ("u", "f", "fprime", "g"):
                scale = np.max(np.abs(want[key]))
                assert np.max(np.abs(got[key] - want[key])) <= 4 * np.finfo(float).eps * scale


def test_residuals_sum_no_series_at_points(monkeypatch):
    # the residuals read the ring arrays: neither the Faber recurrence on
    # point values nor the blocked power sums run
    sol_t = solve(assemble_system(TRANS, build_geometry(FOURTERM, 32), RING_LOADING))
    sol_c = solve(assemble_system(CAV, build_geometry(FOURTERM, 32), RING_LOADING))
    want_t = transmission_residual(sol_t, RING_LOADING, FOURTERM, TRANS, 64)
    want_c = boundary_traction_spread(sol_c, RING_LOADING, FOURTERM, CAV, 64)

    def refuse(*args, **kwargs):
        raise AssertionError("series summed at points")

    for target in ("elastinc.geometry.faber_series", "elastinc.loading.faber_series",
                   "elastinc.field.faber_series", "elastinc.loading.boundary_series",
                   "elastinc.field.boundary_series", "elastinc.field.eval_map",
                   "elastinc.field.map_jet"):
        monkeypatch.setattr(target, refuse)
    assert transmission_residual(sol_t, RING_LOADING, FOURTERM, TRANS, 64) == want_t
    assert boundary_traction_spread(sol_c, RING_LOADING, FOURTERM, CAV, 64) == want_c
    assert max(want_t) <= BOUNDARY_TOL and want_c <= BOUNDARY_TOL


def test_one_evaluator_serves_a_solved_problem(monkeypatch):
    # the constructor keeps the evaluator on the solution, and grid_field,
    # compare and the residuals go through it: a second round of calls builds
    # no table, and every output equals a fresh evaluator's bit for bit
    grid = GridSpec(-2.0, 2.0, -1.5, 1.5, 41, 31)
    for material, residual in ((TRANS, transmission_residual), (CAV, boundary_traction_spread)):
        sol = solve(assemble_system(material, build_geometry(FOURTERM, 16), RING_LOADING))
        ref = solve_oracle(FOURTERM, material, RING_LOADING, 64)

        def outputs(s):
            fields = grid_field(s, RING_LOADING, FOURTERM, material, grid)
            report = compare(ref, s, FOURTERM, material, RING_LOADING)
            return ([getattr(fields, k) for k in ("w", "z", "u", "f", "fprime", "g")],
                    report.rows(), residual(s, RING_LOADING, FOURTERM, material, 64))

        ev = FieldEvaluator(sol, RING_LOADING, FOURTERM, material)
        outputs(sol)
        built = []
        for name in ("faber_derivative_matrices", "LoadingSeries"):
            real = getattr(elastinc_field, name)
            monkeypatch.setattr(elastinc_field, name,
                                lambda *args, name=name, real=real: built.append(name) or real(*args))
        columns, rows, res = outputs(sol)
        assert FieldEvaluator(sol, RING_LOADING, FOURTERM, material) is ev
        assert built == []
        monkeypatch.undo()

        fresh = dataclasses.replace(sol)  # equal coefficients, no kept evaluator
        assert FieldEvaluator(fresh, RING_LOADING, FOURTERM, material) is not ev
        want_columns, want_rows, want_res = outputs(fresh)
        for got, want in zip(columns, want_columns):
            assert np.array_equal(got, want, equal_nan=True)
        assert rows == want_rows and res == want_res


def test_kept_evaluator_is_rebuilt_for_other_objects_or_coefficients():
    sol = solve(assemble_system(TRANS, build_geometry(FOURTERM, 12), RING_LOADING))
    ev = FieldEvaluator(sol, RING_LOADING, FOURTERM, TRANS)
    assert FieldEvaluator(sol, RING_LOADING, FOURTERM, MaterialPair(2.0, 1.0, 4.0, 3.0)) is ev
    other = LoadingSpec(RING_LOADING.A, RING_LOADING.B)  # keyed by identity
    assert FieldEvaluator(sol, other, FOURTERM, TRANS) is not ev
    ev = FieldEvaluator(sol, RING_LOADING, FOURTERM, TRANS)
    before = transmission_residual(sol, RING_LOADING, FOURTERM, TRANS, 64)
    sol.xe_plus[2] += 1e-4  # changed in place: the kept evaluator no longer holds
    assert FieldEvaluator(sol, RING_LOADING, FOURTERM, TRANS) is not ev
    assert transmission_residual(sol, RING_LOADING, FOURTERM, TRANS, 64)[0] > 1e-6 > before[0]


def test_kept_evaluator_does_not_keep_its_solution_alive():
    # the evaluator holds the solution's n and mode, not the solution: no
    # reference cycle, so the solution dies on del without the cyclic collector
    sol = solve(assemble_system(TRANS, build_geometry(FOURTERM, 16), RING_LOADING))
    ev = FieldEvaluator(sol, RING_LOADING, FOURTERM, TRANS)
    grid_field(sol, RING_LOADING, FOURTERM, TRANS, GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21))
    transmission_residual(sol, RING_LOADING, FOURTERM, TRANS, 64)
    alive = weakref.ref(sol)
    gc.disable()
    try:
        del sol
        assert alive() is None
    finally:
        gc.enable()
    assert np.isfinite(ev.exterior_arrays(np.array([2.0 + 1.0j]))["u"][0])


def test_ring_refuses_a_vanishing_map_derivative():
    # the slit a1 = 1 is refused as a map; unvalidated, its derivative
    # vanishes at theta = 0 and pi, two of the 16 ring points
    slit = ConformalMap(1.0, [0.0, 1.0], validate=False)
    ev = FieldEvaluator(zero_solution(4), single_mode(1, 1.0, 4), slit, CAV)
    with pytest.raises(GeometryError, match="vanishes"):
        ev._ring_arrays(16)


def test_interior_evaluation_builds_no_tail(monkeypatch):
    sol, loading = solved_ellipse_transmission()

    def no_tail(*args):
        raise RuntimeError("exterior series built")

    monkeypatch.setattr("elastinc.field.grunsky_rows", no_tail)
    ev = FieldEvaluator(sol, loading, ELLIPSE, TRANS)
    z = eval_map(ELLIPSE, 0.97 * ELLIPSE.gamma * np.exp(1j * np.array([0.3, 2.0])))
    assert np.all(np.isfinite(ev.interior_arrays_z(z)["u"]))
    assert np.isfinite(ev.interior_arrays(np.array([0.95 * np.exp(0.4j)]))["u"][0])
    with pytest.raises(RuntimeError, match="exterior series"):
        ev.exterior_arrays(np.array([1.5, 3.0]))


@pytest.mark.parametrize("material", [TRANS, CAV])
def test_one_grunsky_recurrence_per_map(monkeypatch, material):
    # the bundle, the caller's evaluator and the residual's own evaluator
    # read one table kept on the map; only a larger request runs it again
    from elastinc import geometry

    calls = []
    recurrence = geometry._grunsky_recurrence

    def counted(cmap, rows, kmax):
        calls.append((rows, kmax))
        return recurrence(cmap, rows, kmax)

    monkeypatch.setattr("elastinc.geometry._grunsky_recurrence", counted)
    a = [0.1, 0.25, 0.08 + 0.05j, 0.03]
    cmap = ConformalMap(1.3, np.asarray(a) * 1.3 ** np.arange(1, 5))
    loading = single_mode(1, 1.0 + 0.5j, 2)
    n = 16
    sol = solve(assemble_system(material, build_geometry(cmap, n), loading))
    FieldEvaluator(sol, loading, cmap, material).exterior_arrays(np.array([1.5, 3.0j]))
    if material.cavity:
        boundary_traction_spread(sol, loading, cmap, material, 16)
    else:
        transmission_residual(sol, loading, cmap, material, 16)
    assert len(calls) == 1
    build_geometry(ConformalMap(cmap.gamma, cmap.a), n)  # equal coefficients, another object
    assert len(calls) == 2
    build_geometry(cmap, 2 * n)
    assert len(calls) == 3
    build_geometry(cmap, n)
    assert len(calls) == 3


def test_transmission_residual_requires_transmission():
    sol, loading = solved_disk_cavity()
    with pytest.raises(FieldError):
        transmission_residual(sol, loading, DISK, CAV, 16)


def test_interior_requires_transmission():
    sol, loading = solved_disk_cavity()
    with pytest.raises(FieldError):
        FieldEvaluator(sol, loading, DISK, CAV).interior_arrays(np.array([0.9]))


def test_interior_mode_zero_density_is_constant():
    n = 4
    sol = zero_solution(n, mode="transmission")
    sol.xi_minus[0] = 2.0 + 1.0j
    cmap = ConformalMap(1.5, [0.2])
    vals = log_layer_interior(cmap, sol.xi_plus, sol.xi_minus, np.array([0.1, 0.5j]))
    assert np.allclose(vals, (2.0 + 1.0j) * np.log(1.5), atol=EXACT_TOL)


# ---------------------------------------------------------------------------
# traction potential


def test_traction_potential_direct_substitution():
    arrays = {"z": np.array([1.0]), "f": np.array([1.0]), "fprime": np.array([1.0]),
              "g": np.array([0.0])}
    mat = MaterialPair(0.0, 1.0, cavity=True)
    assert _traction_arrays(arrays, mat.mu_ext)[0] == pytest.approx(2.0)


def test_traction_of_loading_matches_rhs_series():
    n = 10
    loading = LoadingSpec(
        np.array([0, 0.3 + 0.1j, 0, -0.2]), np.array([0, 1.0, 0.4j])
    )
    sol = zero_solution(n)
    bundle = build_geometry(ELLIPSE, n)
    _, trac = unit_rhs_vectors(CAV, bundle, loading)
    theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    w = ELLIPSE.gamma * (1.0 + 1e-9) * np.exp(1j * theta)
    ev = FieldEvaluator(sol, loading, ELLIPSE, CAV)
    arrays = ev.exterior_arrays(w)
    direct = CAV.mu_ext * (
        arrays["f"] + arrays["z"] * np.conj(arrays["fprime"]) + np.conj(arrays["g"])
    )
    series = boundary_series(*split_window(trac, ELLIPSE.gamma), w)
    direct -= direct.mean()
    series -= series.mean()
    assert np.max(np.abs(direct - series)) <= 1e-6


# ---------------------------------------------------------------------------
# cross-boundary continuity of the layer transforms


def test_log_layer_combination_continuous_across_boundary():
    rng = np.random.default_rng(3)
    cmap = ConformalMap(1.2, [0.25, 0.1 - 0.2j])
    n = 6
    plus = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    minus = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    plus[0] = minus[0] = 0.0  # zero mean
    bar_plus = np.conj(minus).copy()
    bar_minus = np.conj(plus).copy()
    theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    eps = 1e-6
    ring = np.exp(1j * theta)

    def combo_out(r):
        w = cmap.gamma * r * ring
        return log_layer_exterior(cmap, plus, minus, w) + np.conj(
            log_layer_exterior(cmap, bar_plus, bar_minus, w)
        )

    def combo_in(r):
        z = eval_map(cmap, cmap.gamma * r * ring)
        return log_layer_interior(cmap, plus, minus, z) + np.conj(
            log_layer_interior(cmap, bar_plus, bar_minus, z)
        )

    outer = 2 * combo_out(1.0 + eps) - combo_out(1.0 + 2 * eps)
    inner = 2 * combo_in(1.0 - eps) - combo_in(1.0 - 2 * eps)
    assert np.max(np.abs(outer - inner)) <= SERIES_TOL


def test_continuous_transform_part_matches_inside_and_outside():
    cmap = ELLIPSE
    n = 5
    theta = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    eps = 1e-6
    ring = np.exp(1j * theta)
    gamma = cmap.gamma
    for k in (1, 3):
        plus = np.zeros(n + 1, dtype=complex)
        plus[k] = 1.0
        minus = np.zeros(n + 1, dtype=complex)

        def cont_out(r):
            w_out = gamma * r * ring
            jump = gamma ** (-k) * w_out ** (k - 1) / map_jet(cmap, w_out, 1)[1]
            return deriv_layer_exterior(cmap, plus, minus, w_out) - jump

        def cont_in(r):
            z_in = eval_map(cmap, gamma * r * ring)
            return deriv_layer_interior(cmap, plus, minus, z_in)

        outer = 2 * cont_out(1.0 + eps) - cont_out(1.0 + 2 * eps)
        inner = 2 * cont_in(1.0 - eps) - cont_in(1.0 - 2 * eps)
        assert np.max(np.abs(outer - inner)) <= SERIES_TOL


def test_holomorphic_pair_satisfies_cauchy_riemann():
    sol, loading = solved_ellipse_transmission(n=10)
    ev = FieldEvaluator(sol, loading, ELLIPSE, TRANS)
    h = 1e-5
    for z0 in (2.0 + 1.0j, -1.5 + 2.2j):
        stencil = np.array([z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h])
        w = invert_map(ELLIPSE, stencil)
        arrays = ev.exterior_arrays(w)
        for key in ("f", "g"):
            v = arrays[key]
            dzbar = 0.5 * ((v[0] - v[1]) / (2 * h) + 1j * (v[2] - v[3]) / (2 * h))
            scale = max(np.max(np.abs(v)), 1e-12)
            assert abs(dzbar) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# physical-plane plumbing


def test_invert_map_round_trip():
    cmap = ConformalMap(1.3, [0.2 + 0.1j, -0.15, 0.08j])
    w = cmap.gamma * np.array([1.01, 1.5, 4.0]) * np.exp(1j * np.array([0.2, 2.0, 4.4]))
    z = eval_map(cmap, w)
    back = invert_map(cmap, z)
    assert np.allclose(back, w, atol=1e-10)


def test_classify_points_disk():
    z = np.array([0.5 + 0.0j, 3.0 + 0.0j, 1.49 + 0.0j])
    regions, near = classify_points(DISK, z, band=0.05)
    assert list(regions) == ["interior", "exterior", "interior"]
    assert near.tolist() == [False, False, True]


def winding_regions(cmap, z):
    """Per-point winding number over the sampled curve (reference for the sweep)."""
    theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
    curve = eval_map(cmap, cmap.gamma * np.exp(1j * theta))
    closed = np.concatenate([curve, curve[:1]])
    regions = []
    for zi in z:
        rel = closed - zi
        turns = np.angle(rel[1:] / rel[:-1]).sum() / (2.0 * np.pi)
        regions.append("interior" if abs(turns) > 0.5 else "exterior")
    return regions


def polyline_distance(cmap, z):
    """Distance from each point to the sampled curve, all segments at once."""
    theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
    p0 = eval_map(cmap, cmap.gamma * np.exp(1j * theta))[None, :]
    d = np.roll(p0, -1, axis=1) - p0
    rel = np.asarray(z)[:, None] - p0
    t = np.clip((rel * np.conj(d)).real / np.abs(d) ** 2, 0.0, 1.0)
    return np.min(np.abs(rel - t * d), axis=1)


# the map shapes of the benchmark's cases: disk, ellipse, four-term, elongated
BENCH_SHAPES = [[0.0], [0.0, 0.3], [0.1, 0.25, 0.08 + 0.05j, 0.03], [0.0, 0.9]]


@pytest.mark.parametrize("gamma", [1e-9, 1e-3, 1.0, 2.0])
@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_classify_points_matches_winding_reference(shape, gamma):
    # the band is a fraction of gamma: 1e-3 flags points within 1e-3 gamma
    cmap = ConformalMap(gamma, np.asarray(shape) * gamma ** (np.arange(len(shape)) + 1))
    rng = np.random.default_rng(7)
    band = 1e-3 * gamma
    curve = eval_map(cmap, gamma * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 300)))
    z = np.concatenate([
        gamma * (rng.uniform(-2.5, 2.5, 400) + 1j * rng.uniform(-1.5, 1.5, 400)),
        curve + band * rng.uniform(-3.0, 3.0, 300) * np.exp(1j * rng.uniform(0, 2 * np.pi, 300)),
    ])
    regions, near = classify_points(cmap, z, band=1e-3)
    dist = polyline_distance(cmap, z)
    assert near.tolist() == (dist <= band).tolist()
    outside = dist > band
    assert outside.sum() > 500
    assert list(regions[outside]) == winding_regions(cmap, z[outside])


def test_classify_points_near_band_measures_segments():
    # the band 1e-3 of gamma = 1.5 reaches 1.5e-3 from the curve. A point
    # 5e-4 from the circle, between two samples: the nearest sample is
    # farther than the band, the nearest segment is not. On a sample, 1.4e-3
    # is inside the band and 1.6e-3 outside it.
    cmap = ConformalMap(1.5, [0.0])
    z = np.array([1.5005 * np.exp(1j * np.pi / REGION_SAMPLES), 1.5005, 1.5014, 1.5016])
    _, near = classify_points(cmap, z, band=1e-3)
    assert near.tolist() == [True, True, True, False]


def window_grids(shape, gamma, count, rng, points=81):
    """Grids over windows centred near boundary points of the shape at radius gamma."""
    cmap = ConformalMap(gamma, np.asarray(shape) * gamma ** (np.arange(len(shape)) + 1.0))
    grids = []
    for _ in range(count):
        centre = complex(eval_map(cmap, gamma * np.exp(2j * np.pi * rng.random())))
        centre += 0.1 * gamma * complex(rng.standard_normal(), rng.standard_normal())
        hx, hy = gamma * (0.6 + 0.6 * rng.random(2))
        grids.append(GridSpec(centre.real - hx, centre.real + hx, centre.imag - hy,
                              centre.imag + hy, points, points))
    return cmap, grids


def assert_masks_match(cmap, grid):
    """grid_field's masks equal classify_points' labels and the two-sweep reference."""
    out = grid_field(zero_solution(4, "transmission"), single_mode(1, 1.0, 4), cmap, TRANS, grid)
    regions, near = classify_points(cmap, grid.points(), band=grid.band)
    interior, ref_near = two_sweep_regions(cmap, grid.points(), grid.band)
    assert out.interior.dtype == bool and out.near.dtype == bool
    assert out.interior.tolist() == (regions == "interior").tolist() == interior.tolist()
    assert out.near.tolist() == near.tolist() == ref_near.tolist()
    return out


@pytest.mark.parametrize("gamma", [1e-9, 1.0, 2.0])
@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_grid_masks_match_the_labels(shape, gamma):
    cmap, grids = window_grids(shape, gamma, 3, np.random.default_rng(25))
    for grid in grids:
        out = assert_masks_match(cmap, grid)
        assert 0 < out.interior.sum() < out.interior.size


@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_grid_rows_at_vertex_heights_keep_the_half_open_rule(shape):
    # grid rows exactly at heights of the sampled polygon's vertices: a
    # crossing counts for ylo <= y < yhi, so a row through a vertex counts
    # the vertex once, and a row tangent to the curve at a vertex zero or
    # two times
    cmap = ConformalMap(1.0, shape)
    theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
    p0 = eval_map(cmap, np.exp(1j * theta))
    x0, x1 = p0.real.min() - 0.3, p0.real.max() + 0.3
    for k0, k1 in [(0, REGION_SAMPLES // 4), (REGION_SAMPLES // 2, 3 * REGION_SAMPLES // 4),
                   (5, 700), (1300, 1900)]:
        y0, y1 = sorted([p0.imag[k0], p0.imag[k1]])
        assert_masks_match(cmap, GridSpec(x0, x1, y0, y1, 257, 2))
    if shape == [0.0]:  # rows at sin(-pi/2), sin(0), sin(pi/2): vertex heights too
        out = assert_masks_match(cmap, GridSpec(-1.5, 1.5, -1.0, 1.0, 301, 3))
        assert out.interior.reshape(3, 301)[1].sum() > 0
    z = (np.linspace(x0, x1, 61)[None, :] + 1j * p0.imag[::7, None]).ravel()
    regions, near = classify_points(cmap, z)
    interior, ref_near = two_sweep_regions(cmap, z, 1e-3)
    assert (regions == "interior").tolist() == interior.tolist()
    assert near.tolist() == ref_near.tolist()


@pytest.mark.parametrize("gamma", [1e-9, 1.0, 1e6])
@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_band_edge_points_beyond_segment_ends(shape, gamma):
    # points level with a segment's end, at its x-range widened by the band
    # and one to three ulps beyond: the x pre-filter must keep every pair
    # the distance test accepts
    cmap = ConformalMap(gamma, np.asarray(shape) * gamma ** (np.arange(len(shape)) + 1.0))
    theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
    p0 = eval_map(cmap, gamma * np.exp(1j * theta))
    p1 = np.roll(p0, -1)
    band = 1e-3 * gamma
    z = []
    for right in (True, False):
        x = np.maximum(p0.real, p1.real) + band if right else np.minimum(p0.real, p1.real) - band
        end = np.where((p0.real >= p1.real) == right, p0, p1)
        for _ in range(4):
            z.append(x + 1j * end.imag)
            x = np.nextafter(x, np.inf if right else -np.inf)
    z = np.concatenate(z)
    regions, near = classify_points(cmap, z, band=1e-3)
    interior, ref_near = two_sweep_regions(cmap, z, 1e-3)
    assert near.tolist() == ref_near.tolist()
    assert (regions == "interior").tolist() == interior.tolist()
    assert near.sum() > REGION_SAMPLES


def test_band_edge_where_the_band_cancels_the_coordinate():
    # the rightmost vertex sits at x = -0.1378 and the band is 0.1586: their
    # sum 0.0208 carries a rounding error of several of its own ulps, and
    # points one to three ulps past it are within the band by the distance
    # test. An x pre-filter widened by the band alone dropped them
    gamma = 158.63961404823027
    cmap = ConformalMap(gamma, [-164.85731178616493 - 75.41664493425196j,
                                -945.9778838131608 - 3233.390817734757j,
                                93706.23049680513 - 206489.4302588511j,
                                29261794.009752344 + 20476850.135989945j])
    theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
    p0 = eval_map(cmap, gamma * np.exp(1j * theta))
    k = np.argmax(p0.real)
    x = [p0.real[k] + 1e-3 * gamma]
    for _ in range(3):
        x.append(np.nextafter(x[-1], np.inf))
    z = np.array(x) + 1j * p0.imag[k]
    _, near = classify_points(cmap, z, band=1e-3)
    _, ref_near = two_sweep_regions(cmap, z, 1e-3)
    assert near.tolist() == ref_near.tolist() == [True] * 4


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5), log_gamma=st.floats(-3.0, 3.0),
       nx=st.integers(0, 41), ny=st.integers(0, 41), flip_x=st.booleans(), flip_y=st.booleans())
def test_grid_masks_match_the_labels_on_drawn_maps(seed, depth, log_gamma, nx, ny, flip_x, flip_y):
    # windows about a drawn boundary point, either axis possibly descending
    rng = np.random.default_rng(seed)
    gamma = 10.0**log_gamma
    cmap = random_map(rng, depth=depth, gamma=gamma)
    centre = complex(eval_map(cmap, gamma * np.exp(2j * np.pi * rng.random())))
    centre += 0.1 * gamma * complex(rng.standard_normal(), rng.standard_normal())
    hx, hy = gamma * (0.2 + 1.3 * rng.random(2))
    xs = (centre.real + hx, centre.real - hx) if flip_x else (centre.real - hx, centre.real + hx)
    ys = (centre.imag + hy, centre.imag - hy) if flip_y else (centre.imag - hy, centre.imag + hy)
    assert_masks_match(cmap, GridSpec(*xs, *ys, nx, ny))


@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_grid_masks_on_degenerate_and_descending_axes(shape):
    # the library takes descending axes, single rows and columns, empty
    # grids, and equal bounds, whose columns (or rows) repeat one value
    cmap = ConformalMap(1.0, shape)
    for bounds, nx, ny in [((2.0, -2.0, 1.5, -1.5), 41, 31), ((2.0, -2.0, -1.5, 1.5), 17, 23),
                           ((-2.0, 2.0, 1.5, -1.5), 23, 17),
                           ((-2.0, 2.0, -1.5, 1.5), 0, 9), ((-2.0, 2.0, -1.5, 1.5), 9, 0),
                           ((-2.0, 2.0, -1.5, 1.5), 1, 21), ((-2.0, 2.0, -1.5, 1.5), 21, 1),
                           ((0.3, 0.3, -1.5, 1.5), 1, 1), ((0.3, 0.3, -1.5, 1.5), 5, 31),
                           ((-2.0, 2.0, 0.1, 0.1), 31, 4)]:
        out = assert_masks_match(cmap, GridSpec(*bounds, nx, ny))
        assert out.interior.size == nx * ny
    out = assert_masks_match(cmap, GridSpec(0.3, 0.3, -1.5, 1.5, 5, 31))
    assert 0 < out.interior.sum() < out.interior.size  # the column crosses the boundary


@pytest.mark.parametrize("gamma", [1e-9, 1.0, 1e6])
@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_grid_band_edge_columns_beyond_segment_ends(shape, gamma):
    # the grid form of test_band_edge_points_beyond_segment_ends: for a
    # sample of segments, a grid row level with the segment's end, its
    # columns at the segment's x-range widened by the band and one to three
    # ulps beyond; the column search must keep every pair the distance test
    # accepts
    cmap = ConformalMap(gamma, np.asarray(shape) * gamma ** (np.arange(len(shape)) + 1.0))
    theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
    p0 = eval_map(cmap, gamma * np.exp(1j * theta))
    p1 = np.roll(p0, -1)
    band = 1e-3 * gamma
    flagged = 0
    for e in range(0, REGION_SAMPLES, 32):
        for right in (True, False):
            x = max(p0[e].real, p1[e].real) + band if right else min(p0[e].real, p1[e].real) - band
            end = p0[e] if (p0[e].real >= p1[e].real) == right else p1[e]
            far = x
            for _ in range(3):
                far = np.nextafter(far, np.inf if right else -np.inf)
            grid = GridSpec(x, far, end.imag, end.imag, 4, 1, band=1e-3)
            interior, near = _grid_regions(cmap, grid)
            regions, ref_near = classify_points(cmap, grid.points(), band=1e-3)
            ref_interior, two_sweep_near = two_sweep_regions(cmap, grid.points(), 1e-3)
            assert near.tolist() == ref_near.tolist() == two_sweep_near.tolist()
            assert interior.tolist() == (regions == "interior").tolist() == ref_interior.tolist()
            flagged += near.sum()
    assert flagged > REGION_SAMPLES // 32


def test_grid_band_edge_where_the_band_cancels_the_coordinate():
    # the grid form of test_band_edge_where_the_band_cancels_the_coordinate:
    # one row through the rightmost vertex, its columns one to three ulps
    # past the vertex's x plus the band, all within the band by the
    # distance test; a column search widened by the band alone drops them
    gamma = 158.63961404823027
    cmap = ConformalMap(gamma, [-164.85731178616493 - 75.41664493425196j,
                                -945.9778838131608 - 3233.390817734757j,
                                93706.23049680513 - 206489.4302588511j,
                                29261794.009752344 + 20476850.135989945j])
    theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
    p0 = eval_map(cmap, gamma * np.exp(1j * theta))
    k = np.argmax(p0.real)
    x = p0.real[k] + 1e-3 * gamma
    far = x
    for _ in range(3):
        far = np.nextafter(far, np.inf)
    grid = GridSpec(x, far, p0.imag[k], p0.imag[k], 4, 1, band=1e-3)
    assert grid.points().real.tolist() == [x, np.nextafter(x, np.inf),
                                           np.nextafter(np.nextafter(x, np.inf), np.inf), far]
    _, near = _grid_regions(cmap, grid)
    _, ref_near = two_sweep_regions(cmap, grid.points(), 1e-3)
    assert near.tolist() == ref_near.tolist() == [True] * 4


def test_grid_at_a_huge_radius_is_the_unit_grid_scaled():
    # the map [0.1 gamma] at gamma = 2^600 on [-3 gamma, 3 gamma]^2: both
    # region sweeps and the band clamp work on coordinates divided by a
    # power of two, so nothing overflows (warnings are errors here), the
    # masks are those of gamma = 1, and the fields scale bit for bit
    loading = LoadingSpec([0.0], [0.0, 1.0])
    grids = []
    for gamma in (1.0, 2.0**600):
        cmap = ConformalMap(gamma, [0.1 * gamma])
        sol = solve(assemble_system(TRANS, build_geometry(cmap, 8), loading))
        grid = GridSpec(-3.0 * gamma, 3.0 * gamma, -3.0 * gamma, 3.0 * gamma, 41, 41)
        grids.append(grid_field(sol, loading, cmap, TRANS, grid))
    unit, huge = grids
    assert unit.interior.sum() == 140
    assert np.array_equal(huge.interior, unit.interior)
    assert np.array_equal(huge.near, unit.near)
    for name in ("w", "z", "u", "f", "g"):
        assert np.array_equal(getattr(huge, name) / 2.0**600, getattr(unit, name), equal_nan=True)
    assert np.array_equal(huge.fprime, unit.fprime, equal_nan=True)


@pytest.mark.parametrize("k", [400, 505, 510, 511])
def test_grid_of_a_two_term_map_at_a_huge_radius_is_the_unit_grid_scaled(k):
    # [0.1 gamma, 0.3 gamma^2], where Psi' is not 1: the inversion's Horner
    # pass formed u^2 = w^-2 on its own, whose complex parts go subnormal
    # from about gamma = 2^510, and w / gamma at 2^511 differed from the
    # gamma = 1 column by 2.5e-16; u is now applied one factor at a time
    loading = LoadingSpec([0.0], [0.0, 1.0])
    grids = []
    for gamma in (1.0, 2.0**k):
        cmap = ConformalMap(gamma, [0.1 * gamma, 0.3 * gamma**2])
        sol = solve(assemble_system(TRANS, build_geometry(cmap, 12), loading))
        grid = GridSpec(-3.0 * gamma, 3.0 * gamma, -3.0 * gamma, 3.0 * gamma, 41, 41)
        grids.append(grid_field(sol, loading, cmap, TRANS, grid))
    unit, huge = grids
    assert 0 < unit.interior.sum() < unit.interior.size
    assert np.array_equal(huge.interior, unit.interior)
    assert np.array_equal(huge.near, unit.near)
    for name in ("w", "z", "u", "f", "g"):
        assert np.array_equal(getattr(huge, name) / 2.0**k, getattr(unit, name), equal_nan=True)
    assert np.array_equal(huge.fprime, unit.fprime, equal_nan=True)


def test_grid_field_builds_no_labels(monkeypatch):
    cmap = ConformalMap(1.0, [0.1, 0.25, 0.08 + 0.05j, 0.03])
    grid = GridSpec(-2.0, 2.0, -1.5, 1.5, 41, 31)
    want = grid_field(zero_solution(4, "transmission"), single_mode(1, 1.0, 4), cmap, TRANS, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("grid_field built region labels")

    monkeypatch.setattr("elastinc.field.classify_points", refuse)
    got = grid_field(zero_solution(4, "transmission"), single_mode(1, 1.0, 4), cmap, TRANS, grid)
    assert got.interior.tolist() == want.interior.tolist()
    assert np.array_equal(got.u, want.u, equal_nan=True)


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("cmap", [ELONGATED, FOURTERM], ids=["elongated", "fourterm"])
def test_interior_values_match_derivative_recurrence(cmap, n):
    # interior_arrays_z sums (Ci, Cyi) as values of the rows (Ci Dt, Cyi Dt);
    # the reference runs the recurrence's z-derivative on (Ci, Cyi)
    sol = random_solution(np.random.default_rng(n), n)
    ev = FieldEvaluator(sol, LoadingSpec(np.zeros(2), np.zeros(2)), cmap, TRANS)
    circle = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False))
    ring, a0 = eval_map(cmap, circle), cmap.coeff(0)
    # scaled towards a0, and images of |w| = 0.93 inside the boundary
    z = np.concatenate([a0 + s * (ring - a0) for s in (0.0, 0.3, 0.7, 0.95)]
                       + [eval_map(cmap, 0.93 * circle)])
    (sL, sLbar), (sC, sCy) = faber_recurrence_sums(cmap.unit, z / cmap.gamma,
                                                   ev.faber_values_i, ev.faber_derivs_i)
    want = ev._interior(z, sL, sLbar, sC, sCy)
    got = ev.interior_arrays_z(z)
    for key in ("u", "f", "fprime", "g"):
        assert np.max(np.abs(got[key] - want[key])) <= 1e-13 * np.max(np.abs(want[key])), key


@pytest.mark.parametrize("gamma", [2.0**-600, 2.0**-510, 1.0, 2.0**510, 2.0**600])
def test_seed_is_exact_for_a_map_of_depth_one(gamma, monkeypatch):
    # the seed inverts w + a0 + a1 / w exactly, so every point of a disk or
    # an ellipse stops after one Horner pass. a1 = c1 gamma^2 where that is a
    # float: at 2^-600 it is 0 (the disk's seed, no square root), and at 2^600
    # a1 = c1 gamma 2^400, where zeta^2 would overflow but (a1 / zeta) / zeta
    # does not
    passes = []
    monkeypatch.setattr(elastinc_field, "map_jet",
                        lambda c, w, order: passes.append(w.size) or map_jet(c, w, order))
    rng = np.random.default_rng(11)
    shapes = [complex(*rng.standard_normal(2)) * 0.6 for _ in range(4)] + [0.9, 0.9j, 0.0]
    for c1 in shapes:
        c0 = complex(*rng.standard_normal(2))
        a1 = c1 * gamma * (gamma if gamma < 2.0**600 else 2.0**400)
        cmap = ConformalMap(gamma, [c0 * gamma, a1])
        w = gamma * (1.0 + 1e-6 + 3.0 * rng.random(500)) * np.exp(2j * np.pi * rng.random(500))
        z = map_jet(cmap, w, 0)[0]
        passes.clear()
        back = invert_map(cmap, z)
        assert passes == [z.size], c1
        assert np.max(np.abs(back - w)) <= 1e-14 * gamma, c1


def test_invert_map_elongated_ellipse():
    # undamped Newton stepped below |w| = 0.5 gamma from the first three points
    # and the map evaluation refused
    cmap = ConformalMap(1.0, [0.0, 0.9])
    w = np.array([1.001, 1.01, 1.05, 1.2, 3.0]) * np.exp(1j * np.array([0.7, 1.1, 1.1, 2.9, 4.0]))
    z = eval_map(cmap, w)
    assert np.allclose(invert_map(cmap, z), w, atol=1e-12)


def test_invert_map_seed_at_the_map_centre():
    # the seed zeta - a1 / zeta is guarded at zeta = z - a0 = 0 (and at a
    # zeta that would overflow 1 / zeta): no warning, which pytest turns
    # into an error. Psi(w) = a0 has roots inside the circle that Newton
    # reaches above the 0.6 gamma floor; for the disk it has none
    for a in ([0.2 + 0.1j, 0.9j], [0.2 + 0.1j, 0.5 - 0.3j], [0.3, 0.0, 0.4j]):
        cmap = ConformalMap(1.0, a)
        w = invert_map(cmap, np.array([cmap.coeff(0)]))
        assert abs(map_jet(cmap, w, 0)[0][0] - cmap.coeff(0)) <= 1e-15
    cmap = ConformalMap(1.0, [0.0, 0.9j])
    w = invert_map(cmap, np.array([1e-310, 0.0]))
    assert np.all(np.abs(map_jet(cmap, w, 0)[0]) <= 1e-15)
    with pytest.raises(FieldError, match="did not converge"):
        invert_map(DISK, np.array([DISK.coeff(0)]))


def test_invert_map_without_a1():
    # a1 = 0: the seed is zeta itself, and the a2 term is left to Newton
    for gamma in (0.5, 1.0, 3.0):
        a = np.array([0.1 - 0.2j, 0.0, 0.3 + 0.2j]) * gamma ** np.arange(1, 4)
        cmap = ConformalMap(gamma, a)
        r = np.array([1.001, 1.05, 1.3, 2.0, 6.0])
        w = gamma * r * np.exp(1j * np.array([0.3, 1.9, 3.0, 4.1, 5.5]))
        assert np.allclose(invert_map(cmap, eval_map(cmap, w)), w, rtol=0.0, atol=1e-12 * gamma)


@pytest.mark.parametrize("a", [[0.0, 0.3], [0.1, 0.25, 0.08 + 0.05j, 0.03], [0.0, 0.9]])
def test_invert_map_reaches_full_precision(a):
    # the step after the residual first drops below NEWTON_TOL takes the
    # iterate from about 3e-13 to about 2e-15 (relative residual, measured);
    # the tolerance scales with max(gamma, max|z|), so small maps reach it too
    a = np.asarray(a, dtype=complex)
    for gamma in (1e-11, 1.0, 1e6):
        cmap = ConformalMap(gamma, a * gamma ** (np.arange(a.size) + 1.0))
        rng = np.random.default_rng(3)
        w = gamma * (1.0 + 2.0 * rng.random(2000)) * np.exp(2j * np.pi * rng.random(2000))
        z = eval_map(cmap, w)
        back = invert_map(cmap, z)
        assert np.max(np.abs(eval_map(cmap, back) - z) / np.abs(z)) <= 1e-14, gamma


def test_grid_field_elongated_ellipse_straddling_boundary():
    cmap = ConformalMap(1.0, [0.0, 0.9])
    loading = single_mode(1, 1.0, 16)
    sol = solve(assemble_system(TRANS, build_geometry(cmap, 16), loading))
    grid = GridSpec(-2.2, 2.2, -0.4, 0.4, 41, 21)
    samples = grid_field(sol, loading, cmap, TRANS, grid)
    regions = [s.region for s in samples]
    assert 0 < regions.count("interior") < len(samples)
    for s in samples:
        assert np.isfinite(s.u.real) and np.isfinite(s.u.imag)
        if s.region == "exterior":
            assert abs(s.w) > cmap.gamma
            if not s.near_boundary:
                assert abs(eval_map(cmap, s.w) - s.z) <= 1e-12


def test_grid_field_disk_counts_and_cavity_hole():
    sol, loading = solved_disk_cavity()
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 3, 3)
    samples = grid_field(sol, loading, DISK, CAV, grid)
    assert len(samples) == 9
    regions = [s.region for s in samples]
    assert regions.count("interior") == 1
    hole = samples[regions.index("interior")]
    assert np.isnan(hole.u.real) and np.isnan(hole.u.imag)
    for s in samples:
        if s.region == "exterior":
            assert np.isfinite(s.u.real)
            assert abs(s.w) > DISK.gamma


def test_grid_field_interior_values_transmission():
    sol, loading = solved_ellipse_transmission(n=10)
    grid = GridSpec(0.3, 0.7, -0.1, 0.1, 2, 2)
    samples = grid_field(sol, loading, ELLIPSE, TRANS, grid)
    assert all(s.region == "interior" for s in samples)
    for s in samples:
        assert np.isfinite(s.u.real)
        assert np.isnan(s.w.real)


def test_grid_field_flags_boundary_band():
    sol, loading = solved_disk_cavity()
    grid = GridSpec(1.5005, 2.5, 0.0, 0.0, 2, 1, band=1e-3)
    samples = grid_field(sol, loading, DISK, CAV, grid)
    assert samples[0].near_boundary
    assert not samples[1].near_boundary
    assert np.isfinite(samples[0].u.real)


def test_all_exterior_grid_has_no_interior_samples():
    sol, loading = solved_disk_cavity()
    grid = GridSpec(3.0, 4.0, 3.0, 4.0, 3, 3)
    samples = grid_field(sol, loading, DISK, CAV, grid)
    assert all(s.region == "exterior" for s in samples)


GRID_MAPS = {"disk": DISK, "ellipse": ELLIPSE, "fourterm": FOURTERM,
             "elongated": ConformalMap(1.0, [0.0, 0.9])}
STRADDLING = GridSpec(-2.2, 2.2, -1.3, 1.3, 23, 15)


def solved_grid_case(name, material, n=16):
    cmap = GRID_MAPS[name]
    loading = LoadingSpec([0.0, 0.3 - 0.1j], [0.0, 1.0, 0.4j])
    return solve(assemble_system(material, build_geometry(cmap, n), loading)), loading, cmap


def row_key(s):
    """Every FieldSample field, exactly (repr keeps NaN and -0.0)."""
    return (repr(s.w), repr(s.z), repr(s.u), s.region, repr(s.f), repr(s.fprime), repr(s.g),
            s.near_boundary)


@pytest.mark.parametrize("material", [CAV, TRANS], ids=["cavity", "transmission"])
@pytest.mark.parametrize("name", sorted(GRID_MAPS))
def test_grid_columns_rows_and_csv_match_row_reference(tmp_path, name, material):
    sol, loading, cmap = solved_grid_case(name, material)
    grid = grid_field(sol, loading, cmap, material, STRADDLING)
    ref = grid_rows(sol, loading, cmap, material, STRADDLING)
    assert len(grid) == len(ref) == STRADDLING.nx * STRADDLING.ny
    assert {s.region for s in ref} == {"exterior", "interior"}
    assert [row_key(s) for s in grid] == [row_key(s) for s in ref]
    assert [row_key(grid[i]) for i in (0, 100, -1)] == [row_key(ref[i]) for i in (0, 100, -1)]
    _write_field_csv(tmp_path / "columns.csv", grid)
    write_field_rows(tmp_path / "rows.csv", CSV_HEADER, ref)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_empty_grid_csv_matches_row_reference(tmp_path):
    sol, loading, cmap = solved_grid_case("disk", CAV)
    empty = GridSpec(0.0, 1.0, 0.0, 1.0, 0, 0)
    grid = grid_field(sol, loading, cmap, CAV, empty)
    assert len(grid) == 0 and list(grid) == []
    _write_field_csv(tmp_path / "columns.csv", grid)
    write_field_rows(tmp_path / "rows.csv", CSV_HEADER, grid_rows(sol, loading, cmap, CAV, empty))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("material", [CAV, TRANS], ids=["cavity", "transmission"])
def test_grid_field_builds_no_field_sample(monkeypatch, material):
    sol, loading, cmap = solved_grid_case("ellipse", material)

    def no_sample(*args, **kwargs):
        raise AssertionError("grid_field built a FieldSample")

    ref = grid_rows(sol, loading, cmap, material, STRADDLING)
    monkeypatch.setattr("elastinc.field.FieldSample", no_sample)
    grid = grid_field(sol, loading, cmap, material, STRADDLING)
    monkeypatch.undo()
    for name in ("w", "z", "u", "f", "fprime", "g"):
        column = getattr(grid, name)
        assert column.dtype == complex
        assert column.tobytes() == np.array([getattr(s, name) for s in ref]).tobytes()
    assert grid.interior.tolist() == [s.region == "interior" for s in ref]
    assert grid.near.tolist() == [s.near_boundary for s in ref]
    assert 0 < grid.interior.sum() < len(grid)


def test_field_sample_rejects_unknown_region():
    with pytest.raises(FieldError):
        FieldSample(w=2.0, z=2.5, u=0.0, region="nowhere", f=0.0, fprime=0.0, g=0.0)
