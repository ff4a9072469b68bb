"""Tests for the conformal-map module: Faber, Grunsky and structure matrices."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elastinc.geometry import (
    SIMPLE_CURVE_SAMPLES,
    SINGULAR_DERIVATIVE_TOL,
    ConformalMap,
    GeometryError,
    boundary_point,
    build_geometry,
    eval_map,
    eval_map_derivative,
    eval_map_second_derivative,
    faber_derivative_matrices,
    faber_series,
    grunsky_rows,
    sweep_pairs,
    _certified_univalent,
    _grunsky_recurrence,
    _polyline_self_intersects,
    _validate_boundary,
)
from layer_reference import (
    faber_inverse,
    faber_matrix,
    map_coefficient_matrices,
    monomial_derivative_matrix,
    poly_eval,
)

EXACT_TOL = 1e-12
SERIES_TOL = 1e-8

ELLIPSE = ConformalMap(1.0, [0.5, 0.3])
DISK = ConformalMap(1.0, [0.5])

# every threshold of map validation and evaluation is relative to gamma
SCALES = (1e-13, 1.0, 1e13)


def scaled_coefficients(a, gamma):
    """The coefficients a_k gamma^(k+1) of the same shape at radius gamma."""
    a = np.asarray(a, dtype=complex)
    return a * gamma ** (np.arange(a.size) + 1.0)


def random_map(rng, depth=4, gamma=None):
    """A random well-separated map: small coefficients keep the curve simple."""
    g = gamma if gamma is not None else 0.5 + 1.5 * rng.random()
    a = (rng.standard_normal(depth + 1) + 1j * rng.standard_normal(depth + 1)) * 0.1 * g
    ks = np.arange(1, depth + 1)
    scale = ks * np.abs(a[1:]) / g ** (ks + 1)
    total = scale.sum()
    if total > 0.5:
        a[1:] *= 0.5 / total  # keep sum k|a_k|/gamma^{k+1} < 1/2: univalent for sure
    return ConformalMap(g, a)


def test_identity_map_faber_is_monomial_basis():
    cmap = ConformalMap(1.0, [])
    P = faber_matrix(cmap, 6)
    assert np.allclose(P, np.eye(7), atol=EXACT_TOL)
    C = grunsky_rows(cmap, 6, 6)
    assert np.allclose(C, 0.0, atol=EXACT_TOL)


def test_faber_rows_match_hand_expansion():
    P = faber_matrix(ELLIPSE, 3)
    assert np.allclose(P[0], [1, 0, 0, 0], atol=EXACT_TOL)
    assert np.allclose(P[1], [-0.5, 1, 0, 0], atol=EXACT_TOL)
    assert np.allclose(P[2], [0.25 - 0.6, -1.0, 1, 0], atol=EXACT_TOL)
    assert np.allclose(P[3], [0.325, -0.15, -1.5, 1], atol=EXACT_TOL)


def test_faber_inverse_is_exact():
    rng = np.random.default_rng(7)
    cmap = random_map(rng)
    P = faber_matrix(cmap, 12)
    Pinv = faber_inverse(P)
    assert np.allclose(P @ Pinv, np.eye(13), atol=1e-11)


def test_faber_generating_relation():
    rng = np.random.default_rng(3)
    cmap = random_map(rng, depth=3, gamma=1.2)
    n = 40
    P = faber_matrix(cmap, n)
    w = 3.0 * cmap.gamma * np.exp(1j * np.linspace(0.2, 6.0, 7))
    z = eval_map(cmap, cmap.gamma * np.exp(1j * np.array([0.4, 1.7, 2.9])))
    for zj in z:
        series = sum(poly_eval(P[m], zj) * w ** (-m) for m in range(n + 1))
        target = w * eval_map_derivative(cmap, w) / (eval_map(cmap, w) - zj)
        assert np.allclose(series, target, atol=SERIES_TOL * np.max(np.abs(target)))


def test_faber_series_matches_monomial_rows():
    rng = np.random.default_rng(17)
    cmap = random_map(rng, depth=4)
    n = 12
    P = faber_matrix(cmap, n)
    dP = P @ monomial_derivative_matrix(n)
    c = rng.standard_normal((2, n + 1)) + 1j * rng.standard_normal((2, n + 1))
    d = rng.standard_normal((3, n + 1)) + 1j * rng.standard_normal((3, n + 1))
    z = eval_map(cmap, 1.3 * cmap.gamma * np.exp(1j * np.linspace(0.0, 6.0, 11)))
    sums, dsums = faber_series(cmap, z, c, d)
    want = np.array([sum(row[m] * poly_eval(P[m], z) for m in range(n + 1)) for row in c])
    dwant = np.array([sum(row[m] * poly_eval(dP[m], z) for m in range(n + 1)) for row in d])
    assert np.allclose(sums, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    assert np.allclose(dsums, dwant, rtol=1e-12, atol=1e-12 * np.max(np.abs(dwant)))


def test_derivative_matrix_identities():
    rng = np.random.default_rng(11)
    cmap = random_map(rng, depth=5)
    n = 24
    P = faber_matrix(cmap, n)
    Dt = faber_derivative_matrices(cmap, n)
    T = monomial_derivative_matrix(n)
    assert np.allclose(Dt @ P, P @ T, atol=1e-10 * np.max(np.abs(P)))
    # strictly lower triangular with subdiagonal m
    assert np.allclose(np.triu(Dt), 0.0, atol=1e-10)
    sub = np.array([Dt[m, m - 1] for m in range(1, n + 1)])
    assert np.allclose(sub, np.arange(1, n + 1), atol=1e-9)


def test_grunsky_of_ellipse_is_diagonal():
    # F_m(Psi(w)) = w^m + (a1/w)^m for Psi = w + a0 + a1/w
    for a1, n in ((0.3, 8), (0.9, 64)):
        C = grunsky_rows(ConformalMap(1.0, [0.5, a1]), n, n)
        expect = np.diag(a1 ** np.arange(n + 1.0)).astype(complex)
        expect[0, 0] = 0.0
        assert np.allclose(C, expect, atol=EXACT_TOL)


def test_grunsky_symmetry_and_bound():
    rng = np.random.default_rng(23)
    for _ in range(5):
        cmap = random_map(rng, depth=4)
        n = 10
        C = grunsky_rows(cmap, n, n)
        k = np.arange(n + 1)
        # symmetry: k c_{mk} = m c_{km}
        assert np.allclose(C * k[None, :], C.T * k[:, None], atol=1e-10)
        m_idx, k_idx = np.meshgrid(k, k, indexing="ij")
        bound = 2.0 * np.maximum(m_idx, 1) * cmap.gamma ** (m_idx + k_idx)
        assert np.all(np.abs(C) <= bound + 1e-10)


def test_grunsky_reproduces_composition_on_circle():
    cases = [
        (random_map(np.random.default_rng(5), depth=3), 10, 30, 1.7),
        # the a1 = 0.9 ellipse, whose Faber coefficients reach 1e11 at n = 64;
        # direct evaluation of F_m loses digits below |w| = 2.5
        (ConformalMap(1.0, [0.0, 0.9]), 64, 128, 2.5),
    ]
    for cmap, n, kmax, radius in cases:
        P = faber_matrix(cmap, n)
        C = grunsky_rows(cmap, n, kmax)
        w = radius * cmap.gamma * np.exp(1j * np.linspace(0.0, 2 * np.pi, 9, endpoint=False))
        z = eval_map(cmap, w)
        for m in range(n + 1):
            direct = poly_eval(P[m], z)
            series = w**m + sum(C[m, k] * w ** (-k) for k in range(1, kmax + 1))
            if m == 0:
                series = np.ones_like(w)
            assert np.allclose(direct, series, atol=1e-10 * max(1.0, np.max(np.abs(direct))))


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_grunsky_scales_with_radius(gamma):
    # Psi_gamma(w) = gamma Psi_1(w / gamma) gives c_mk(gamma) = gamma^(m+k) c_mk(1)
    a1 = np.array([0.1 + 0.05j, 0.3, -0.1j, 0.05])
    unit = ConformalMap(1.0, a1)
    scaled = ConformalMap(gamma, a1 * gamma ** (np.arange(a1.size) + 1))
    n, kmax = 20, 25
    C1 = grunsky_rows(unit, n, kmax)
    Cg = grunsky_rows(scaled, n, kmax)
    powers = gamma ** np.add.outer(np.arange(n + 1), np.arange(kmax + 1))
    assert np.allclose(Cg, powers * C1, rtol=1e-12, atol=0.0)


# unit-radius shapes: disk, ellipse, four-term, a1 = 0.9 and a seeded depth-5 map
TABLE_MAPS = [[0.5], [0.5, 0.3], [0.1, 0.25, 0.08 + 0.05j, 0.03], [0.0, 0.9],
              np.array([1.0, 1.0j]) @ np.random.default_rng(5).standard_normal((2, 6)) * 0.02]


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.3, 2.5])
@pytest.mark.parametrize("a", TABLE_MAPS)
def test_bundle_grunsky_is_the_standalone_recurrence(a, gamma):
    # build_geometry keeps a block of the larger table the exterior series
    # read; that block must be the (n, n) recurrence bit for bit, so the
    # system matrix does not depend on the table's shape
    a = np.asarray(a, dtype=complex)
    for n in (1, 2, 4, 16, 48, 64):
        cmap = ConformalMap(gamma, a * gamma ** (np.arange(a.size) + 1.0))
        bundle = build_geometry(cmap, n)
        np.testing.assert_array_equal(bundle.grunsky, _grunsky_recurrence(cmap.unit, n, n))


def test_grunsky_table_is_kept_per_map_object():
    calls = []

    def counted(cmap, rows, kmax):
        calls.append((rows, kmax))
        return _grunsky_recurrence(cmap, rows, kmax)

    a = [0.1, 0.25, 0.08 + 0.05j, 0.03]
    cmap = ConformalMap(1.0, a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("elastinc.geometry._grunsky_recurrence", counted)
        first = grunsky_rows(cmap, 10, 30)
        assert grunsky_rows(cmap, 4, 12) is not first
        np.testing.assert_array_equal(grunsky_rows(cmap, 4, 12), first[:5, :13])
        assert calls == [(10, 30)]
        grunsky_rows(ConformalMap(1.0, a), 10, 30)  # equal map, its own table
        assert len(calls) == 2
        grown = grunsky_rows(cmap, 12, 20)  # more rows, fewer columns: one run at the union
        assert calls[-1] == (12, 30) and grown.shape == (13, 21)
        np.testing.assert_array_equal(grown[:11], first[:, :21])
        grunsky_rows(cmap, 12, 30)
        assert len(calls) == 3
    with pytest.raises(ValueError):
        first[1, 1] = 0.0
    assert cmap.unit is cmap.unit  # one unit map, and with it one kept table, per map object


def test_map_coefficient_matrices_layout():
    hankel, toeplitz, corner = map_coefficient_matrices(ELLIPSE, 3)
    a = [0.5, 0.3, 0.0, 0.0]
    for m in range(4):
        for k in range(4):
            want_h = a[m + k] if m + k <= 3 else 0.0
            assert hankel[m, k] == pytest.approx(want_h)
            d = m - k
            want_t = 1.0 if d == -1 else (a[d] if 0 <= d <= 3 else 0.0)
            assert toeplitz[m, k] == pytest.approx(want_t)
    assert corner[0, 0] == pytest.approx(0.5)
    assert corner[0, 1] == pytest.approx(1.0)
    assert corner[1, 0] == pytest.approx(1.0)
    assert np.count_nonzero(corner) == 3


def test_eval_map_domain_and_values():
    z = eval_map(ELLIPSE, 2.0)
    assert z == pytest.approx(2.0 + 0.5 + 0.15)
    with pytest.raises(GeometryError):
        eval_map(ELLIPSE, 0.5)
    # analytic extension slightly inside is allowed
    eval_map(ELLIPSE, 0.95)


@pytest.mark.parametrize("gamma", SCALES)
@pytest.mark.parametrize("evaluate", [eval_map, eval_map_derivative, eval_map_second_derivative])
def test_extension_margin_is_relative_to_gamma(evaluate, gamma):
    # an absolute slack of 1e-15 let |w| = 0.895 gamma through at gamma = 1e-13
    cmap = ConformalMap(gamma, scaled_coefficients([0.5, 0.3], gamma))
    evaluate(cmap, 0.9 * gamma)
    evaluate(cmap, 0.55 * gamma, margin=0.5)
    for w, margin in ((0.895 * gamma, None), (0.49 * gamma, 0.5)):
        with pytest.raises(GeometryError, match="analytic-extension radius"):
            evaluate(cmap, w, margin=margin)


def test_boundary_point_scale_matches_numeric_derivative():
    theta = np.linspace(0.0, 2 * np.pi, 17, endpoint=False)
    z, h = boundary_point(ELLIPSE, theta)
    eps = 1e-6
    zp, _ = boundary_point(ELLIPSE, theta + eps)
    zm, _ = boundary_point(ELLIPSE, theta - eps)
    dz = (zp - zm) / (2 * eps)
    assert np.allclose(h, np.abs(dz), atol=1e-7)


def test_rejects_folded_boundary():
    for gamma in SCALES:
        with pytest.raises(GeometryError):
            ConformalMap(gamma, scaled_coefficients([0.0, 1.2], gamma))
        with pytest.raises(GeometryError):
            ConformalMap(gamma, scaled_coefficients([0.0, 0.0, 0.0, 0.5], gamma))


@pytest.mark.parametrize("gamma", SCALES)
def test_rejects_degenerate_parametrization(gamma):
    # a1 = gamma^2: the slit, whose scale factor vanishes at theta = 0 and pi
    with pytest.raises(GeometryError, match="vanishes"):
        ConformalMap(gamma, scaled_coefficients([0.0, 1.0], gamma))


@pytest.mark.parametrize("gamma", [1e-13, 1e-12, 1.0, 1e12, 1e13])
def test_accepts_valid_maps_at_every_scale(gamma):
    # the scale factor was compared with an absolute 1e-12, which refused
    # the ellipse ConformalMap(1e-12, [0, 0.3e-24]) as degenerate
    for shape in ([0.0, 0.3], [0.1, 0.25, 0.08 + 0.05j, 0.03], [0.0, 0.9]):
        ConformalMap(gamma, scaled_coefficients(shape, gamma))


def test_rejects_bad_radius():
    with pytest.raises(GeometryError):
        ConformalMap(0.0, [0.1])


@pytest.mark.parametrize("gamma,a", [(1.0, [0.0, np.nan]), (1.0, [np.inf, 0.3]),
                                     (1.0, [0.0, complex(0.2, np.nan)]), (np.inf, [0.1]),
                                     (np.nan, [0.1])])
def test_rejects_non_finite_map(gamma, a):
    with pytest.raises(GeometryError, match="finite"):
        ConformalMap(gamma, a)
    with pytest.raises(GeometryError, match="finite"):
        ConformalMap(gamma, a, validate=False)


def test_bundle_shapes_and_consistency():
    bundle = build_geometry(ELLIPSE, 6)
    for matrix in (bundle.faber_deriv, bundle.grunsky):
        assert matrix.shape == (7, 7)
    assert bundle.psi.shape == (13, 13)
    assert bundle.gamma == pytest.approx(1.0)


@pytest.mark.parametrize("gamma", [1.0, 1.3])
@pytest.mark.parametrize("a", [[0.5], [0.5, 0.3], [0.1, 0.25, 0.08 + 0.05j, 0.03], [0.0, 0.9]])
def test_psi_matrix_multiplies_by_psi(a, gamma):
    # s @ psi is Psi(w) s(w) whenever the product stays inside the window of
    # powers -n..n, i.e. s lives on |power| <= n - K - 1; the coefficients of
    # the product on |w| = 1 come from sampling it and one FFT
    rng = np.random.default_rng(41)
    cmap = ConformalMap(gamma, np.asarray(a) * gamma ** (np.arange(len(a)) + 1.0))
    depth = cmap.depth
    for n in (depth + 1, 8, 24):
        psi = build_geometry(cmap, n).psi
        s = np.zeros(2 * n + 1, dtype=complex)
        live = slice(depth + 1, 2 * n - depth)  # powers -(n - K - 1)..n - K - 1
        s[live] = rng.standard_normal((2, 2 * (n - depth) - 1)).T @ [1.0, 1.0j]
        samples = 4 * n + 4
        w = np.exp(2j * np.pi * np.arange(samples) / samples)
        values = eval_map(cmap.unit, w) * (np.polyval(s[::-1], w) / w**n)
        want = (np.fft.fft(values) / samples)[np.arange(-n, n + 1) % samples]
        assert np.max(np.abs(s @ psi - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# boundary validation: the sweep against the all-pairs scan it replaced


def brute_self_intersects(pts: np.ndarray) -> bool:
    """All-pairs proper-intersection test of a closed polyline (reference)."""
    m = pts.shape[0]
    p1 = pts
    p2 = np.roll(pts, -1, axis=0)

    def cross(o, d, q):
        return d[..., 0] * (q[..., 1] - o[..., 1]) - d[..., 1] * (q[..., 0] - o[..., 0])

    d = p2 - p1
    d1 = cross(p1[:, None, :], d[:, None, :], p1[None, :, :])
    d2 = cross(p1[:, None, :], d[:, None, :], p2[None, :, :])
    d3 = cross(p1[None, :, :], d[None, :, :], p1[:, None, :])
    d4 = cross(p1[None, :, :], d[None, :, :], p2[:, None, :])
    proper = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    idx = np.arange(m)
    adjacent = (np.abs(idx[:, None] - idx[None, :]) % (m - 1)) <= 1
    return bool(np.any(proper & ~adjacent))


def sampled_boundary(cmap, samples=SIMPLE_CURVE_SAMPLES):
    """The polyline ConformalMap validation tests, as an (S, 2) array."""
    z, _ = boundary_point(cmap, np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False))
    return np.column_stack([z.real, z.imag])


def random_loop(rng):
    """A random map whose coefficient size sum k|a_k|/gamma^(k+1) is in [0.2, 1.8].

    Above about 1 the curve often crosses itself, so the set mixes simple
    and self-intersecting boundaries.
    """
    depth = int(rng.integers(1, 7))
    g = 0.5 + 1.5 * rng.random()
    a = rng.standard_normal(depth + 1) + 1j * rng.standard_normal(depth + 1)
    ks = np.arange(1, depth + 1)
    a[1:] *= (0.2 + 1.6 * rng.random()) / np.sum(ks * np.abs(a[1:])) * g ** (ks + 1)
    a[0] *= g
    return ConformalMap(g, a, validate=False)


# every map the test suite, the self-test and the benchmark shapes build,
# then the two folded maps the validation must reject
FIXTURE_MAPS = [
    (1.0, [0.5]), (1.0, [0.5, 0.3]), (1.0, []), (1.0, [0.0, 0.9]), (1.5, [0.2]),
    (1.3, [0.2 + 0.1j, -0.15, 0.08j]), (1.3, [0.2 + 0.1j, -0.15, 0.05j]),
    (1.2, [0.3 + 0.2j, -0.1, 0.05j]), (1.2, [0.1, 0.25, 0.05 - 0.1j]),
    (1.2, [0.25, 0.1 - 0.2j]), (1.1, [0.2, 0.15 - 0.1j]), (0.9, [0.0, 0.2, 0.1]),
    (1.0, [0.1, 0.25, 0.08 + 0.05j, 0.03]), (1.0, [0.0, 0.3]),
    (1.0, [0.0, 1.2]), (1.0, [0.0, 0.0, 0.0, 0.5]),
]


def test_sweep_pairs_matches_all_pairs():
    rng = np.random.default_rng(11)
    keys = np.round(rng.random(60), 1)  # many ties
    lo = np.round(rng.random(40), 1)
    hi = lo + np.round(0.3 * rng.random(40), 1)
    for closed in (True, False):
        i, j = sweep_pairs(keys, lo, hi, closed=closed)
        upper = keys[None, :] <= hi[:, None] if closed else keys[None, :] < hi[:, None]
        want = np.argwhere((keys[None, :] >= lo[:, None]) & upper)
        assert sorted(zip(i.tolist(), j.tolist())) == sorted(map(tuple, want.tolist()))


def test_self_intersection_matches_brute_force_on_random_maps():
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(300):
        pts = sampled_boundary(random_loop(rng), 256)
        verdicts.append(brute_self_intersects(pts))
        assert _polyline_self_intersects(pts) == verdicts[-1]
    assert 30 <= sum(verdicts) <= 270  # both verdicts are well represented


def test_self_intersection_matches_brute_force_on_fixture_maps():
    verdicts = []
    for gamma, a in FIXTURE_MAPS:
        pts = sampled_boundary(ConformalMap(gamma, a, validate=False))
        verdicts.append(brute_self_intersects(pts))
        assert _polyline_self_intersects(pts) == verdicts[-1]
    # only the a3 = 0.5 map crosses itself; the a1 = 1.2 ellipse is simple
    # but reversed, which the orientation test rejects
    assert verdicts == [False] * (len(FIXTURE_MAPS) - 1) + [True]


def random_polygon(rng, kind):
    """A closed polygon: random vertices, star-shaped, or star-shaped with two vertices swapped.

    Vertices in sorted angular order about the origin make a simple star-shaped
    polygon; swapping two non-adjacent vertices usually makes it cross itself.
    """
    m = int(rng.integers(4, 160))
    if kind == "random":
        return rng.standard_normal((m, 2))
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    r = 0.5 + rng.random(m)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    if kind == "swapped":
        i = int(rng.integers(0, m - 2))
        j = int(rng.integers(i + 2, m))
        pts[[i, j]] = pts[[j, i]]
    return pts


def test_self_intersection_matches_brute_force_on_random_polygons():
    rng = np.random.default_rng(400)
    verdicts = {"random": [], "star": [], "swapped": []}
    for _ in range(150):
        for kind, seen in verdicts.items():
            pts = random_polygon(rng, kind)
            seen.append(brute_self_intersects(pts))
            assert _polyline_self_intersects(pts) == seen[-1]
    assert not any(verdicts["star"])
    assert sum(verdicts["random"]) >= 140 and sum(verdicts["swapped"]) >= 100


@pytest.mark.parametrize("m, step", [(5, 2), (7, 2), (7, 3), (8, 3), (7, 1)])
def test_self_intersection_of_regular_star_polygons(m, step):
    # the star polygon {m/step} joins every step-th vertex of a regular
    # m-gon: it crosses itself unless step is 1
    angles = 2.0 * np.pi * step * np.arange(m) / m
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    assert _polyline_self_intersects(pts) == brute_self_intersects(pts) == (step > 1)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("shape", [[0.0], [0.0, 0.3], [0.1, 0.25, 0.08 + 0.05j, 0.03], [0.0, 0.9]],
                         ids=["disk", "ellipse", "fourterm", "elongated"])
def test_self_intersection_matches_brute_force_on_benchmark_maps(shape, gamma):
    cmap = ConformalMap(gamma, np.asarray(shape) * gamma ** (np.arange(len(shape)) + 1.0))
    pts = sampled_boundary(cmap)
    assert _polyline_self_intersects(pts) is brute_self_intersects(pts) is False


def test_map_validation_peak_memory():
    # the all-pairs scan peaked near 51 MB on this map; the sweep needs well
    # under 1 MB. The map is certified, so the sampled test is called itself.
    cmap = ConformalMap(1.0, [0.0, 0.3], validate=False)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _validate_boundary(cmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


# ---------------------------------------------------------------------------
# the coefficient certificate of univalence


def certificate_sum(gamma, a):
    """s = sum_{k>=1} k |a_k| gamma^(-k-1), summed in Python."""
    return sum(k * abs(complex(ak)) / gamma ** (k + 1) for k, ak in enumerate(a) if k >= 1)


INVALID_FIXTURES = {  # the maps the certificate leaves to the sampled test
    (1.0, (0.0, 1.0)): "derivative vanishes",
    (1.0, (0.0, 1.2)): "reversed orientation",
    (1.0, (0.0, 0.0, 0.0, 0.5)): "not simple",
}


def test_certified_maps_skip_the_sampled_test(monkeypatch):
    certified = [(g, a) for g, a in FIXTURE_MAPS
                 if certificate_sum(g, a) <= 1.0 - SINGULAR_DERIVATIVE_TOL]
    assert len(certified) == len(FIXTURE_MAPS) - 2  # all but the folded and the crossing map

    def refuse(cmap, samples=SIMPLE_CURVE_SAMPLES):
        raise AssertionError("sampled test ran on a certified map")

    monkeypatch.setattr("elastinc.geometry._validate_boundary", refuse)
    for gamma, a in certified:
        ConformalMap(gamma, a)
    for gamma, a in INVALID_FIXTURES:
        with pytest.raises(AssertionError, match="sampled test ran"):
            ConformalMap(gamma, a)
    monkeypatch.undo()
    for (gamma, a), message in INVALID_FIXTURES.items():
        with pytest.raises(GeometryError, match=message):
            ConformalMap(gamma, a)


def test_certificate_overflow_is_not_a_certificate():
    # gamma^(-k-1) overflows at gamma = 1e-200: s is inf or NaN, with no
    # warning, and the map goes to the sampled test
    for a in ([0.0, 1e-300], [0.0, 0.0, 1e-300]):
        assert not _certified_univalent(ConformalMap(1e-200, a, validate=False))


@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 11),
       log_gamma=st.floats(-6.0, 6.0), target=st.floats(0.02, 1.25))
@example(seed=0, depth=1, log_gamma=0.0, target=1.1)  # an ellipse folded onto itself
@example(seed=1, depth=4, log_gamma=-6.0, target=0.999)
def test_certified_maps_pass_the_sampled_test(seed, depth, log_gamma, target):
    # s <= 1 - 1e-12 makes the map univalent on |w| >= gamma, so the sampled
    # test accepts it; the draws reach past s = 1, where a certificate that
    # admitted more would pass maps the sampled test refuses
    rng = np.random.default_rng(seed)
    gamma = 10.0**log_gamma
    b = rng.standard_normal(depth + 1) + 1j * rng.standard_normal(depth + 1)
    k = np.arange(1, depth + 1)
    b[1:] *= target / np.sum(k * np.abs(b[1:]))
    cmap = ConformalMap(gamma, b * gamma ** np.arange(1.0, depth + 2.0), validate=False)
    if _certified_univalent(cmap):
        _validate_boundary(cmap)
    threshold = 1.0 - SINGULAR_DERIVATIVE_TOL
    s = certificate_sum(gamma, cmap.a)
    if abs(s - threshold) > 1e-13:
        assert _certified_univalent(cmap) == (s <= threshold)
