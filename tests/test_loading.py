"""Tests for the far-field loading module."""

import numpy as np
import pytest

from elastinc.geometry import ConformalMap, build_geometry, eval_map, faber_derivative_matrices
from elastinc.loading import (
    LoadingError,
    LoadingSeries,
    LoadingSpec,
    boundary_series,
    eval_loading,
    unit_rhs_vectors,
)
from elastinc.materials import MaterialPair
from elastinc.system import assemble_system
from layer_reference import (
    faber_recurrence_sums,
    horner_boundary_series,
    loading_pair,
    poly_eval,
    polyder,
    rhs_matrices,
    split_window,
)

SERIES_TOL = 1e-8
EXACT_TOL = 1e-12

MAT = MaterialPair(2.0, 1.0, cavity=True, lam_int=0.0, mu_int=0.0)
ELLIPSE = ConformalMap(1.0, [0.5, 0.3])
DISK = ConformalMap(1.0, [0.5])


def test_zero_loading_gives_zero_vectors():
    bundle = build_geometry(ELLIPSE, 8)
    spec = LoadingSpec(np.zeros(3), np.zeros(3))
    for h in unit_rhs_vectors(MAT, bundle, spec):
        assert h.shape == (17,)
        assert np.allclose(h, 0.0, atol=EXACT_TOL)


def test_disk_single_conjugate_mode_matrices():
    # with one loading mode, that mode's row of the per-mode matrices is the vector
    n = 8
    bundle = build_geometry(DISK, n)
    B = np.zeros(n + 1, dtype=complex)
    B[3] = 1.5 - 0.25j
    spec = LoadingSpec(np.zeros(n + 1), B)
    disp, trac = unit_rhs_vectors(MAT, bundle, spec)
    disp_pos, disp_neg = split_window(disp)
    trac_pos, trac_neg = split_window(trac)
    assert np.allclose(disp_pos, 0.0, atol=EXACT_TOL)
    assert np.allclose(trac_pos, 0.0, atol=EXACT_TOL)
    expect = np.zeros(n + 1, dtype=complex)
    expect[3] = np.conj(B[3])  # gamma = 1
    assert np.allclose(disp_neg, expect, atol=EXACT_TOL)
    assert np.allclose(trac_neg, -MAT.mu_ext * expect, atol=EXACT_TOL)


def test_ellipse_single_conjugate_mode_vectors():
    n = 10
    gamma, a1 = 1.0, 0.3
    bundle = build_geometry(ELLIPSE, n)
    for m in (1, 2, 4):
        B = np.zeros(n + 1, dtype=complex)
        B[m] = 0.7 + 0.2j
        spec = LoadingSpec(np.zeros(n + 1), B)
        disp, trac = unit_rhs_vectors(MAT, bundle, spec)
        disp_pos, disp_neg = split_window(disp, gamma)
        trac_pos, trac_neg = split_window(trac, gamma)
        want_pos = np.zeros(n + 1, dtype=complex)
        want_pos[m] = np.conj(B[m] * a1**m) * gamma ** (-2 * m)
        want_neg = np.zeros(n + 1, dtype=complex)
        want_neg[m] = np.conj(B[m]) * gamma ** (2 * m)
        assert np.allclose(disp_pos, want_pos, atol=EXACT_TOL)
        assert np.allclose(disp_neg, want_neg, atol=EXACT_TOL)
        assert np.allclose(trac_pos, -MAT.mu_ext * want_pos, atol=EXACT_TOL)
        assert np.allclose(trac_neg, -MAT.mu_ext * want_neg, atol=EXACT_TOL)


def test_eval_loading_identity_map_dilation():
    cmap = ConformalMap(1.0, [])
    spec = LoadingSpec([0.0, 1.0], [0.0])
    z = np.array([0.3 + 0.4j, -1.2j, 2.0])
    got = eval_loading(spec, cmap, MAT, z)
    assert np.allclose(got, (MAT.kappa - 1.0) * z, atol=EXACT_TOL)


def test_eval_loading_disk_conjugate_mode():
    spec = LoadingSpec([0.0], [0.0, 1.0])
    z = np.array([1.7 + 0.2j, -0.9 + 1.1j])
    got = eval_loading(spec, DISK, MAT, z)
    assert np.allclose(got, np.conj(z) - 0.5, atol=EXACT_TOL)


def random_loading(rng, M):
    A = np.zeros(M + 1, dtype=complex)
    B = np.zeros(M + 1, dtype=complex)
    A[1:] = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    B[1:] = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    return LoadingSpec(A, B)


def test_boundary_series_matches_direct_loading():
    rng = np.random.default_rng(17)
    for gamma, coeffs in [(1.0, [0.5, 0.3]), (1.3, [0.2 + 0.1j, -0.15, 0.05j])]:
        cmap = ConformalMap(gamma, coeffs)
        bundle = build_geometry(cmap, 24)
        spec = random_loading(rng, 6)
        disp, _ = unit_rhs_vectors(MAT, bundle, spec)
        theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        w = gamma * np.exp(1j * theta)
        series = boundary_series(*split_window(disp, gamma), w)
        direct = eval_loading(spec, cmap, MAT, eval_map(cmap, w))
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(series - direct)) <= SERIES_TOL * scale


def test_traction_series_matches_potentials_up_to_constant():
    rng = np.random.default_rng(29)
    cmap = ConformalMap(1.2, [0.1, 0.25, 0.05 - 0.1j])
    bundle = build_geometry(cmap, 24)
    spec = random_loading(rng, 5)
    _, trac = unit_rhs_vectors(MAT, bundle, spec)
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    w = cmap.gamma * np.exp(1j * theta)
    z = eval_map(cmap, w)
    f, g = loading_pair(spec, cmap)
    direct = MAT.mu_ext * (poly_eval(f, z) + z * np.conj(poly_eval(polyder(f), z)) + np.conj(poly_eval(g, z)))
    series = boundary_series(*split_window(trac, cmap.gamma), w)
    diff = series - direct
    diff -= diff.mean()
    assert np.max(np.abs(diff)) <= SERIES_TOL * max(1.0, np.max(np.abs(direct)))


@pytest.mark.parametrize("d", [1, 2, 3, 17, 58, 202])
@pytest.mark.parametrize("rows", [(), (4,)])
def test_boundary_series_matches_horner(d, rows):
    # the blocked power sums against one Horner pass per sign, within
    # 1e-14 of the sum of |terms|: 1/w of modulus 0.02, 0.7 and 1 for the
    # negative side, the unit circle for the positive side
    rng = np.random.default_rng(d)
    c = rng.standard_normal(rows + (d,)) + 1j * rng.standard_normal(rows + (d,))
    unit = np.exp(2j * np.pi * rng.random(40))

    def abs_sum(coeffs, x):
        """sum_k |coeffs_k| |x|^k at every point."""
        return np.abs(coeffs) @ np.abs(x)[None, :] ** np.arange(coeffs.shape[-1])[:, None]

    for r in (0.02, 0.7, 1.0):
        w = unit / r
        got = boundary_series(np.zeros(1), c, w)
        want = horner_boundary_series(np.zeros(1), c, w)
        assert got.shape == want.shape == rows + w.shape
        assert np.all(np.abs(got - want) <= 1e-14 * abs_sum(c, 1.0 / w))
    got = boundary_series(c, np.zeros(1), unit)
    want = horner_boundary_series(c, np.zeros(1), unit)
    assert got.shape == want.shape == rows + unit.shape
    assert np.all(np.abs(got - want) <= 1e-14 * abs_sum(c[..., 1:], unit))


def test_boundary_series_broadcasts_rows_and_points():
    rng = np.random.default_rng(3)
    pos = rng.standard_normal((4, 1, 9)) + 0j
    neg = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    w = 1.5 * np.exp(2j * np.pi * rng.random((2, 5)))
    got = boundary_series(pos, neg, w)
    assert got.shape == (4, 3, 2, 5)
    np.testing.assert_allclose(got, horner_boundary_series(pos, neg, w), rtol=0, atol=1e-13)


# unit-radius shapes: disk, ellipse, four-term, a1 = 0.9 and a seeded depth-5 map
RHS_MAPS = [[0.5], [0.5, 0.3], [0.1, 0.25, 0.08 + 0.05j, 0.03], [0.0, 0.9],
            np.array([1.0, 1.0j]) @ np.random.default_rng(5).standard_normal((2, 6)) * 0.02]


@pytest.mark.parametrize("material", [MAT, MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)],
                         ids=["cavity", "transmission"])
@pytest.mark.parametrize("gamma", [1.0, 1.3])
@pytest.mark.parametrize("a", RHS_MAPS, ids=["disk", "ellipse", "four-term", "a1-0.9", "depth-5"])
def test_unit_rhs_vectors_match_per_mode_reference(a, gamma, material):
    # one product with the two-sided Psi matrix against the column sums of the
    # per-mode matrices, which fold the product across power 0
    rng = np.random.default_rng(43)
    cmap = ConformalMap(gamma, np.asarray(a) * gamma ** (np.arange(len(a)) + 1.0))
    for n in (1, 4, 16, 48):
        bundle = build_geometry(cmap, n)
        spec = random_loading(rng, min(n, 6))
        disp, trac = unit_rhs_vectors(material, bundle, spec)
        got = (*split_window(disp), *split_window(trac))
        for vector, matrix in zip(got, rhs_matrices(material, bundle, spec)):
            want = matrix[1:].sum(axis=0)
            assert np.max(np.abs(vector - want)) <= 1e-14 * np.max(np.abs(want))


def test_index_zero_invariants():
    rng = np.random.default_rng(31)
    cmap = ConformalMap(0.9, [0.0, 0.2, 0.1])
    bundle = build_geometry(cmap, 12)
    spec = random_loading(rng, 4)
    disp, trac = unit_rhs_vectors(MAT, bundle, spec)
    assert disp.shape == trac.shape == (25,)
    assert trac[12] == 0.0  # power 0 of the traction potential


def test_loading_spec_validation():
    with pytest.raises(LoadingError):
        LoadingSpec([1.0], [0.0])
    with pytest.raises(LoadingError):
        LoadingSpec([0.0], [0.5j])
    spec = LoadingSpec([0.0, 0.0, 2.0], [0.0])
    assert spec.order == 2
    with pytest.raises(LoadingError):
        spec.padded(1)
    A, B = spec.padded(5)
    assert A.size == 6 and A[2] == 2.0 and np.all(B == 0)


@pytest.mark.parametrize("A,B", [([0.0, np.nan], [0.0]), ([0.0, 1.0], [0.0, np.inf]),
                                 ([0.0], [0.0, 1.0, complex(0.0, np.nan)]),
                                 ([0.0, -np.inf], [0.0, 1.0])])
def test_loading_spec_rejects_non_finite(A, B):
    with pytest.raises(LoadingError, match="finite"):
        LoadingSpec(A, B)


def test_block_row_layout():
    # the assembled right-hand side is -2 [Re h; Im h] over the equation
    # families, without the structurally zero index-0 entries
    bundle = build_geometry(ConformalMap(1.5, [0.5]), 4)
    spec = LoadingSpec([0.0, 1.0 + 1.0j], [0.0, 2.0])
    _, (tp, tn) = (split_window(h) for h in unit_rhs_vectors(MAT, bundle, spec))
    trans = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
    (dp_t, dn_t), (tp_t, tn_t) = (split_window(h) for h in unit_rhs_vectors(trans, bundle, spec))
    for material, h in (
        (MAT, [tp[1:], tn[1:]]),
        (trans, [dp_t[1:], dn_t, tp_t[1:], tn_t[1:]]),
    ):
        h = np.concatenate(h)
        b = assemble_system(material, bundle, spec).rhs
        assert b.size == 2 * h.size
        np.testing.assert_array_equal(b, -2.0 * np.concatenate([h.real, h.imag]))
    # the unit-radius series are the series in w on |w| = gamma, in powers of w / gamma
    g = 1.5 ** np.arange(5)
    pos, neg = split_window(unit_rhs_vectors(MAT, bundle, spec)[1], 1.5)
    assert np.allclose(pos * g, tp, rtol=1e-15, atol=0.0)
    assert np.allclose(neg / g, tn, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("a", [[0.0, 0.9], [0.1, 0.25, 0.08 + 0.05j, 0.03]],
                         ids=["elongated", "fourterm"])
def test_loading_series_matches_derivative_recurrence(a, gamma):
    # LoadingSeries sums f' and f'' as values of the rows A Dt and A Dt Dt;
    # the reference runs the Faber recurrence's z-derivative on A and A Dt
    rng = np.random.default_rng(32)
    order = 32
    A = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    B = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    A[0] = B[0] = 0.0
    cmap = ConformalMap(gamma, np.asarray(a) * gamma ** (np.arange(len(a)) + 1.0))
    series = LoadingSeries(LoadingSpec(A, B), cmap)
    unit = cmap.unit
    rows = np.stack(LoadingSpec(A, B).unit_radius(gamma).padded(order)) * [[1.0], [-1.0]]
    Dt = faber_derivative_matrices(unit, order)
    for r in (1.0, 1.5, 4.0):
        z = eval_map(cmap, r * gamma * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 37)))
        zeta = z / gamma
        (f, g), (fp,) = faber_recurrence_sums(unit, zeta, rows, rows[:1] / gamma)
        derivs = np.vstack([rows, rows[0] @ Dt / gamma]) / gamma
        _, want_d = faber_recurrence_sums(unit, zeta, rows[:0], derivs)
        for got, want in zip(series.potentials(z) + series.derivatives(z),
                             (f, g, fp) + tuple(want_d)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), r
