"""Tests for the far-field loading module."""

import numpy as np
import pytest

from elastinc.geometry import ConformalMap, build_geometry, eval_map
from elastinc.loading import (
    LoadingError,
    LoadingSpec,
    boundary_series,
    eval_loading,
    rhs_vectors,
    unit_rhs_vectors,
)
from elastinc.materials import MaterialPair
from elastinc.system import assemble_system
from layer_reference import loading_pair, poly_eval, polyder, rhs_matrices

SERIES_TOL = 1e-8
EXACT_TOL = 1e-12

MAT = MaterialPair(2.0, 1.0, cavity=True, lam_int=0.0, mu_int=0.0)
ELLIPSE = ConformalMap(1.0, [0.5, 0.3])
DISK = ConformalMap(1.0, [0.5])


def test_zero_loading_gives_zero_vectors():
    bundle = build_geometry(ELLIPSE, 8)
    spec = LoadingSpec(np.zeros(3), np.zeros(3))
    rhs = rhs_vectors(MAT, bundle, spec)
    for h in (rhs.disp_pos, rhs.disp_neg, rhs.trac_pos, rhs.trac_neg):
        assert np.allclose(h, 0.0, atol=EXACT_TOL)


def test_disk_single_conjugate_mode_matrices():
    # with one loading mode, that mode's row of the per-mode matrices is the vector
    n = 8
    bundle = build_geometry(DISK, n)
    B = np.zeros(n + 1, dtype=complex)
    B[3] = 1.5 - 0.25j
    spec = LoadingSpec(np.zeros(n + 1), B)
    rv = unit_rhs_vectors(MAT, bundle, spec)
    assert np.allclose(rv.disp_pos, 0.0, atol=EXACT_TOL)
    assert np.allclose(rv.trac_pos, 0.0, atol=EXACT_TOL)
    expect = np.zeros(n + 1, dtype=complex)
    expect[3] = np.conj(B[3])  # gamma = 1
    assert np.allclose(rv.disp_neg, expect, atol=EXACT_TOL)
    assert np.allclose(rv.trac_neg, -MAT.mu_ext * expect, atol=EXACT_TOL)


def test_ellipse_single_conjugate_mode_vectors():
    n = 10
    gamma, a1 = 1.0, 0.3
    bundle = build_geometry(ELLIPSE, n)
    for m in (1, 2, 4):
        B = np.zeros(n + 1, dtype=complex)
        B[m] = 0.7 + 0.2j
        spec = LoadingSpec(np.zeros(n + 1), B)
        rhs = rhs_vectors(MAT, bundle, spec)
        want_pos = np.zeros(n + 1, dtype=complex)
        want_pos[m] = np.conj(B[m] * a1**m) * gamma ** (-2 * m)
        want_neg = np.zeros(n + 1, dtype=complex)
        want_neg[m] = np.conj(B[m]) * gamma ** (2 * m)
        assert np.allclose(rhs.disp_pos, want_pos, atol=EXACT_TOL)
        assert np.allclose(rhs.disp_neg, want_neg, atol=EXACT_TOL)
        assert np.allclose(rhs.trac_pos, -MAT.mu_ext * want_pos, atol=EXACT_TOL)
        assert np.allclose(rhs.trac_neg, -MAT.mu_ext * want_neg, atol=EXACT_TOL)


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
        rhs = rhs_vectors(MAT, bundle, spec)
        theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        w = gamma * np.exp(1j * theta)
        series = boundary_series(rhs.disp_pos, rhs.disp_neg, w)
        direct = eval_loading(spec, cmap, MAT, eval_map(cmap, w))
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(series - direct)) <= SERIES_TOL * scale


def test_traction_series_matches_potentials_up_to_constant():
    rng = np.random.default_rng(29)
    cmap = ConformalMap(1.2, [0.1, 0.25, 0.05 - 0.1j])
    bundle = build_geometry(cmap, 24)
    spec = random_loading(rng, 5)
    rhs = rhs_vectors(MAT, bundle, spec)
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    w = cmap.gamma * np.exp(1j * theta)
    z = eval_map(cmap, w)
    f, g = loading_pair(spec, cmap)
    direct = MAT.mu_ext * (poly_eval(f, z) + z * np.conj(poly_eval(polyder(f), z)) + np.conj(poly_eval(g, z)))
    series = boundary_series(rhs.trac_pos, rhs.trac_neg, w)
    diff = series - direct
    diff -= diff.mean()
    assert np.max(np.abs(diff)) <= SERIES_TOL * max(1.0, np.max(np.abs(direct)))


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
        rv = unit_rhs_vectors(material, bundle, spec)
        got = (rv.disp_pos, rv.disp_neg, rv.trac_pos, rv.trac_neg)
        for vector, matrix in zip(got, rhs_matrices(material, bundle, spec)):
            want = matrix[1:].sum(axis=0)
            assert np.max(np.abs(vector - want)) <= 1e-14 * np.max(np.abs(want))


def test_index_zero_invariants():
    rng = np.random.default_rng(31)
    cmap = ConformalMap(0.9, [0.0, 0.2, 0.1])
    bundle = build_geometry(cmap, 12)
    spec = random_loading(rng, 4)
    rhs = rhs_vectors(MAT, bundle, spec)
    assert abs(rhs.disp_pos[0]) <= EXACT_TOL
    assert abs(rhs.trac_pos[0]) <= EXACT_TOL


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
    rv = unit_rhs_vectors(MAT, bundle, spec)
    trans = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
    rt = unit_rhs_vectors(trans, bundle, spec)
    for material, h in (
        (MAT, [rv.trac_pos[1:], rv.trac_neg[1:]]),
        (trans, [rt.disp_pos[1:], rt.disp_neg, rt.trac_pos[1:], rt.trac_neg[1:]]),
    ):
        h = np.concatenate(h)
        b = assemble_system(material, bundle, spec).rhs
        assert b.size == 2 * h.size
        np.testing.assert_array_equal(b, -2.0 * np.concatenate([h.real, h.imag]))
    # the unit-radius series are the series in w on |w| = gamma, in powers of w / gamma
    g = 1.5 ** np.arange(5)
    pub = rhs_vectors(MAT, bundle, spec)
    assert np.allclose(pub.trac_pos * g, rv.trac_pos, rtol=1e-15, atol=0.0)
    assert np.allclose(pub.trac_neg / g, rv.trac_neg, rtol=1e-15, atol=0.0)
