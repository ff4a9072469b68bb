"""Tests for block assembly and the density solve.

The conjugate-coupling matrices are cross-checked against an independent
boundary-sampling route: evaluate the continuous part of the Cauchy-type
transform directly on the circle, form the coupling combination pointwise,
and read its two-sided power coefficients off an FFT.
"""

import dataclasses

import numpy as np
import pytest

from elastinc.geometry import (
    ConformalMap,
    build_geometry,
    eval_map,
    eval_map_derivative,
)
from elastinc.loading import LoadingSpec, unit_rhs_vectors
from elastinc.materials import MaterialPair
from elastinc.system import (
    AssemblyError,
    assemble_system,
    cavity_mode_matrix,
    exterior_blocks,
    interior_blocks,
    m_blocks,
    solve,
)
from layer_reference import faber_matrix, folded_m_blocks, monomial_derivative_matrix, poly_eval

EXACT_TOL = 1e-11
SOLVE_TOL = 1e-10

CAV = MaterialPair(2.0, 1.0, cavity=True)
TRANS = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
DISK = ConformalMap(1.0, [0.5])
ELLIPSE = ConformalMap(1.0, [0.5, 0.3])


def single_mode(m, value, n, conjugate=True):
    A = np.zeros(n + 1, dtype=complex)
    B = np.zeros(n + 1, dtype=complex)
    if conjugate:
        B[m] = value
    else:
        A[m] = value
    return LoadingSpec(A, B)


# ---------------------------------------------------------------------------
# coupling matrices against boundary sampling + FFT


def continuous_transform_rows(cmap, order):
    """Coefficient rows of the continuous Cauchy-part for modes 1..order.

    Mode m maps to -(1/m) gamma^{-m} F_m'(z); returns ascending z-polynomial
    coefficients per mode (row 0 unused).
    """
    P = faber_matrix(cmap, order)
    dP = P @ monomial_derivative_matrix(order)
    rows = np.zeros((order + 1, order + 1), dtype=complex)
    for m in range(1, order + 1):
        rows[m] = -(1.0 / m) * cmap.gamma ** (-m) * dP[m]
    return rows


def coupling_row_by_fft(cmap, j, n, n_theta=512):
    """Row j of the coupling combination via boundary sampling.

    j > 0 selects the positive mode-j density, j <= 0 the mode-j density.
    Returns (pos, neg): coefficients of (w/gamma)^k (k=0..n) and
    (w/gamma)^{-k} (k=0..n), the powers of the unit-radius problem the
    system is assembled for.
    """
    gamma = cmap.gamma
    depth = cmap.a.size - 1
    order = abs(j) + depth + 1
    rows = continuous_transform_rows(cmap, max(order, 1))
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    w = gamma * np.exp(1j * theta)
    z = eval_map(cmap, w)

    def c1(mode):
        if mode < 1 or mode > rows.shape[0] - 1:
            return np.zeros_like(z)
        return poly_eval(rows[mode], z)

    shifted = np.zeros_like(z)
    for l in range(-1, depth + 1):
        al = cmap.coeff(l)
        shifted += np.conj(al) * gamma ** (-l) * c1(j + l)
    G = -eval_map(cmap, w) * np.conj(c1(j)) + np.conj(shifted)
    coef = np.fft.fft(G) / n_theta
    pos = coef[: n + 1]
    neg = coef[-np.arange(n + 1) % n_theta]
    return pos, neg


@pytest.mark.parametrize("cmap", [DISK, ELLIPSE, ConformalMap(1.3, [0.2 + 0.1j, -0.15, 0.08j])])
def test_coupling_blocks_match_fft(cmap):
    # Column 0 of the positive-family matrices is structurally discarded
    # downstream; the whole constant belongs to the negative family.
    n = 8
    depth = cmap.a.size - 1
    n_big = n + depth + 1
    bundle = build_geometry(cmap, n_big)
    M21, M41, M22, M42 = m_blocks(bundle)
    for j in range(1, n + 1):
        pos, neg = coupling_row_by_fft(cmap, j, n)
        assert np.allclose(M21[j, 1 : n + 1], pos[1:], atol=EXACT_TOL)
        assert np.allclose(M22[j, : n + 1], neg, atol=EXACT_TOL)
    for j in range(0, n + 1):
        pos, neg = coupling_row_by_fft(cmap, -j, n)
        assert np.allclose(M41[j, 1 : n + 1], pos[1:], atol=EXACT_TOL)
        assert np.allclose(M42[j, : n + 1], neg, atol=EXACT_TOL)


def test_identity_map_coupling_blocks():
    # Pure rotation/scaling map: only the mode-1 density couples, because
    # its conjugate-shifted partner hits the transform's one-sided gap.
    bundle = build_geometry(ConformalMap(1.0, []), 6)
    M21, M41, M22, M42 = m_blocks(bundle)
    assert np.allclose(M41, 0.0, atol=1e-14)
    assert np.allclose(M42, 0.0, atol=1e-14)
    assert np.allclose(M22, 0.0, atol=1e-14)
    live = M21[:, 1:].copy()
    assert live[1, 0] == pytest.approx(1.0)
    live[1, 0] = 0.0
    assert np.allclose(live, 0.0, atol=1e-14)


# unit-radius shapes: disk, ellipse, four-term, a1 = 0.9 and a seeded depth-5 map
COUPLING_MAPS = [[0.5], [0.5, 0.3], [0.1, 0.25, 0.08 + 0.05j, 0.03], [0.0, 0.9],
                 np.array([1.0, 1.0j]) @ np.random.default_rng(5).standard_normal((2, 6)) * 0.02]


@pytest.mark.parametrize("gamma", [1.0, 1.3])
@pytest.mark.parametrize("a", COUPLING_MAPS, ids=["disk", "ellipse", "four-term", "a1-0.9", "depth-5"])
def test_coupling_blocks_match_folded_reference(a, gamma):
    # the quadrants of one two-sided product against the Hankel/Toeplitz/corner
    # folding; column 0 of M21 and M41 is discarded downstream, and there the
    # two-sided form also carries the w^0 term of the density shift
    cmap = ConformalMap(gamma, np.asarray(a) * gamma ** (np.arange(len(a)) + 1.0))
    for n in (1, 4, 16, 48):
        bundle = build_geometry(cmap, n)
        for name, got, want in zip(("M21", "M41", "M22", "M42"), m_blocks(bundle),
                                   folded_m_blocks(bundle)):
            first = 1 if name in ("M21", "M41") else 0
            err = np.max(np.abs(got[:, first:] - want[:, first:]))
            assert err <= 1e-14 * np.max(np.abs(want)), (name, n, err)


def test_jump_part_cancellation_decays_linearly():
    gamma = ELLIPSE.gamma
    depth = ELLIPSE.a.size - 1
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

    def c2(k, w):
        return gamma ** (-k) * w ** (k - 1) / eval_map_derivative(ELLIPSE, w)

    maxima = []
    for j in range(1, 11):
        w = gamma * (1.0 + 2.0 ** (-j)) * np.exp(1j * theta)
        worst = 0.0
        for k in (1, -1, 2, -2, 3, -3):
            shifted = np.zeros_like(w)
            for l in range(-1, depth + 1):
                shifted += np.conj(ELLIPSE.coeff(l)) * gamma ** (-l) * c2(k + l, w)
            comb = -eval_map(ELLIPSE, w) * np.conj(c2(k, w)) + np.conj(shifted)
            worst = max(worst, float(np.max(np.abs(comb))))
        maxima.append(worst)
    for a, b in zip(maxima, maxima[1:]):
        assert b < a
    # linear decay in the distance to the boundary: ratio about one half
    tail_ratios = [maxima[i + 1] / maxima[i] for i in range(5, 9)]
    assert all(0.4 < r < 0.6 for r in tail_ratios)


# ---------------------------------------------------------------------------
# reference: the complex block assembly and the real repacking it replaced


def reference_blocks(material, bundle, spec):
    """The (R, Q, n+1, n+1) complex blocks of x E = -2h and the block row h."""
    d = bundle.n + 1
    rv = unit_rhs_vectors(material, bundle, spec)
    S = exterior_blocks(material, bundle)
    if material.cavity:
        pairs = [(S[0], S[1], 1.0), (S[2], S[3], 1.0)]
        cols = [2, 3]
    else:
        St = interior_blocks(material, bundle)
        pairs = [(S[0], S[1], 1.0), (S[2], S[3], 1.0), (St[0], St[1], -1.0), (St[2], St[3], -1.0)]
        cols = [0, 1, 2, 3]
    h = [(rv.disp_pos, rv.disp_neg, rv.trac_pos, rv.trac_neg)[c] for c in cols]
    rhs_row = np.concatenate([v for hc in h for v in (hc, np.conj(hc))])
    blocks = np.zeros((2 * len(pairs), 2 * len(cols), d, d), dtype=complex)
    for p, (Fa, Fb, sign) in enumerate(pairs):
        for q, c in enumerate(cols):
            blocks[2 * p, 2 * q] = sign * Fa[c]
            blocks[2 * p, 2 * q + 1] = sign * np.conj(Fb[c])
            blocks[2 * p + 1, 2 * q] = sign * Fb[c]
            blocks[2 * p + 1, 2 * q + 1] = sign * np.conj(Fa[c])
    return blocks, rhs_row


def reference_real(blocks, rhs_row):
    """Real form of the independent half: rows family by family (real part,
    then imaginary part), columns the real parts of every unknown block,
    then the imaginary parts."""
    R, Q, d, _ = blocks.shape
    P = R // 2
    eq_cols = [2 * q for q in range(Q // 2)]
    G = np.zeros((2 * len(eq_cols) * d, 2 * P * d))
    b = np.zeros(2 * len(eq_cols) * d)
    for ci, c in enumerate(eq_cols):
        r0 = 2 * ci * d
        for p in range(P):
            At = blocks[2 * p, c].T
            Bt = blocks[2 * p + 1, c].T
            G[r0 : r0 + d, p * d : (p + 1) * d] = At.real + Bt.real
            G[r0 : r0 + d, (P + p) * d : (P + p + 1) * d] = Bt.imag - At.imag
            G[r0 + d : r0 + 2 * d, p * d : (p + 1) * d] = At.imag + Bt.imag
            G[r0 + d : r0 + 2 * d, (P + p) * d : (P + p + 1) * d] = At.real - Bt.real
        rhs_c = -2.0 * rhs_row[c * d : (c + 1) * d]
        b[r0 : r0 + d] = rhs_c.real
        b[r0 + d : r0 + 2 * d] = rhs_c.imag
    return G, b


FOURTERM = [0.1, 0.25, 0.08 + 0.05j, 0.03]


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("gamma", [1.0, 2.5])
@pytest.mark.parametrize("shape", [[0.0], [0.0, 0.3], FOURTERM])
def test_real_matrix_is_reference_without_zero_rows_and_columns(shape, gamma, n):
    cmap = ConformalMap(gamma, np.asarray(shape) * gamma ** (np.arange(len(shape)) + 1.0))
    bundle = build_geometry(cmap, n)
    spec = LoadingSpec([0.0, 0.3 + 0.1j, 0.2], [0.0, 1.0, 0.5j])
    d = n + 1
    for material, zeros in ((TRANS, 6), (CAV, 4)):
        system = assemble_system(material, bundle, spec)
        G, b = reference_real(*reference_blocks(material, bundle, spec))
        # the reference interleaves the real and imaginary rows family by family
        families = G.shape[0] // (2 * d)
        order = [(2 * f + part) * d + k for part in (0, 1) for f in range(families) for k in range(d)]
        G, b = G[order], b[order]
        rows = np.flatnonzero(np.any(G != 0.0, axis=1))
        cols = np.flatnonzero(np.any(G != 0.0, axis=0))
        assert G.shape[0] - rows.size == zeros and G.shape[1] - cols.size == zeros
        assert np.all(np.delete(b, rows) == 0.0)
        np.testing.assert_array_equal(system.matrix, G[np.ix_(rows, cols)])
        np.testing.assert_array_equal(system.rhs, b[rows])


# ---------------------------------------------------------------------------
# assembled system structure


def test_exterior_block_shapes_and_zero_rows():
    bundle = build_geometry(ELLIPSE, 6)
    S = exterior_blocks(CAV, bundle)
    for i in range(4):
        for j in range(4):
            assert S[i][j].shape == (7, 7)
    # structural zeros: the mode-0 rows of every unknown block
    for i in range(4):
        for j in range(4):
            assert np.allclose(S[i][j][0], 0.0, atol=1e-14)


def test_interior_blocks_require_transmission():
    bundle = build_geometry(ELLIPSE, 4)
    with pytest.raises(AssemblyError):
        interior_blocks(CAV, bundle)
    St = interior_blocks(TRANS, bundle)
    at, bt, _ = TRANS.interior_constants()
    # the mode-0 interior density carries the constant-displacement entry
    assert St[2][1][0, 0] == pytest.approx(2 * at * np.log(bundle.gamma) - bt)
    # ... and couples through the conjugate-shift of the mode-1 transform
    assert St[3][1][0, 0] == pytest.approx(-0.3 * bt)


def test_assemble_modes_and_conflicts():
    bundle = build_geometry(DISK, 4)
    spec = single_mode(1, 1.0, 4)
    sys_cav = assemble_system(CAV, bundle, spec)
    assert sys_cav.mode == "cavity"
    assert sys_cav.matrix.shape == (4 * 5 - 4, 4 * 5 - 4)
    sys_tr = assemble_system(TRANS, bundle, spec)
    assert sys_tr.mode == "transmission"
    assert sys_tr.matrix.shape == (8 * 5 - 6, 8 * 5 - 6)


def test_disk_cavity_closed_form_solution():
    n = 12
    bundle = build_geometry(DISK, n)
    beta = CAV.beta
    for m in (1, 2, 3):
        Bm = 0.8 - 0.3j
        spec = single_mode(m, Bm, n)
        system = assemble_system(CAV, bundle, spec)
        sol = solve(system)
        assert sol.converged
        assert abs(sol.xe_plus[m]) <= SOLVE_TOL
        want = -2.0 * np.conj(Bm) * m / beta  # gamma = 1
        assert abs(sol.xe_minus[m] - want) <= SOLVE_TOL * abs(want)
        # mode decoupling: no other entries are excited
        mask = np.ones(n + 1, dtype=bool)
        mask[m] = False
        assert np.max(np.abs(sol.xe_plus[mask])) <= SOLVE_TOL
        assert np.max(np.abs(sol.xe_minus[mask])) <= SOLVE_TOL


def test_zero_loading_zero_solution():
    bundle = build_geometry(ELLIPSE, 8)
    spec = LoadingSpec(np.zeros(2), np.zeros(2))
    sol = solve(assemble_system(CAV, bundle, spec))
    assert sol.residual == 0.0
    assert sol.converged
    assert np.allclose(sol.xe_plus, 0.0, atol=1e-14)
    assert np.allclose(sol.xe_minus, 0.0, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_is_not_converged(bad):
    # a zero rhs is the only case whose residual is defined as 0
    system = assemble_system(CAV, build_geometry(ELLIPSE, 8), single_mode(1, 1.0, 8))
    rhs = system.rhs.copy()
    rhs[3] = bad
    sol = solve(dataclasses.replace(system, rhs=rhs))
    assert np.isnan(sol.residual)
    assert not sol.converged


def test_realification_round_trip():
    # the solved coefficients against the complex block equations x E = -2h,
    # conjugated unknowns and conjugated equations included
    n = 10
    bundle = build_geometry(ELLIPSE, n)
    spec = single_mode(1, 1.0 + 0.5j, n)
    for material in (CAV, TRANS):
        blocks, rhs_row = reference_blocks(material, bundle, spec)
        sol = solve(assemble_system(material, bundle, spec))
        parts = [sol.xe_plus, sol.xe_minus]
        if material.has_interior:
            parts += [sol.xi_plus, sol.xi_minus]
        x = np.concatenate([v for u in parts for v in (u, np.conj(u))])
        R, Q, d, _ = blocks.shape
        res = x @ blocks.transpose(0, 2, 1, 3).reshape(R * d, Q * d) + 2.0 * rhs_row
        rel = np.linalg.norm(res) / np.linalg.norm(2 * rhs_row)
        assert abs(rel - sol.residual) <= 1e-12
        # conjugate equation columns are exactly the conjugated equations
        for c in range(0, Q, 2):
            a = res[c * d : (c + 1) * d]
            b = res[(c + 1) * d : (c + 2) * d]
            assert np.allclose(b, np.conj(a), atol=1e-12)


def test_ellipse_cavity_truncation_exactness():
    spec8 = single_mode(1, 1.0, 8)
    sol8 = solve(assemble_system(CAV, build_geometry(ELLIPSE, 8), spec8))
    spec16 = single_mode(1, 1.0, 16)
    sol16 = solve(assemble_system(CAV, build_geometry(ELLIPSE, 16), spec16))
    assert abs(sol8.xe_plus[1] - sol16.xe_plus[1]) < 1e-10
    assert abs(sol8.xe_minus[1] - sol16.xe_minus[1]) < 1e-10


def test_ellipse_cavity_mode_matrix_entries():
    lam, mu = 2.0, 1.0
    mat = MaterialPair(lam, mu, cavity=True)
    alpha, beta = mat.alpha, mat.beta
    gamma, a1 = 1.0, 0.3
    bundle = build_geometry(ELLIPSE, 8)
    for m in (1, 2):
        pm = cavity_mode_matrix(mat, bundle, m)
        coup = beta * a1 ** (m - 1) * gamma ** (-3 * m - 2) * (gamma**4 - a1**2)
        want = np.array(
            [
                [-alpha / (m * gamma**m), coup, -alpha * a1**m / (m * gamma ** (3 * m)), 0.0],
                [coup, -alpha / (m * gamma**m), 0.0, -alpha * a1**m / (m * gamma ** (3 * m))],
                [beta * a1**m / (m * gamma**m), 0.0, beta * gamma**m / m, 0.0],
                [0.0, beta * a1**m / (m * gamma**m), 0.0, beta * gamma**m / m],
            ],
            dtype=complex,
        )
        assert np.allclose(pm, want, atol=1e-12)


def test_ellipse_cavity_closed_form_mode_one():
    lam, mu = 2.0, 1.0
    mat = MaterialPair(lam, mu, cavity=True)
    gamma, a1 = 1.0, 0.3
    n = 10
    bundle = build_geometry(ELLIPSE, n)
    B1 = 0.7 + 0.4j
    spec = single_mode(1, B1, n)
    sol = solve(assemble_system(mat, bundle, spec))
    assert sol.converged
    lp, l2 = lam + mu, lam + 2 * mu
    num_e = 2 * gamma**3 * l2 * (lp * (B1**2 * a1**2 + abs(B1 * a1) ** 2) + 2 * mu * abs(B1 * a1) ** 2)
    den_e = B1 * a1 * lp * (gamma**4 - a1**2)
    want_e = num_e / den_e
    num_i = -2 * gamma * l2 * (lp * (B1**2 * a1**2 + abs(B1 * a1) ** 2) + 2 * mu * abs(B1) ** 2 * gamma**4)
    den_i = B1 * lp * (gamma**4 - a1**2)
    want_i = num_i / den_i
    assert abs(sol.xe_plus[1] - want_e) <= 1e-8 * abs(want_e)
    assert abs(sol.xe_minus[1] - want_i) <= 1e-8 * abs(want_i)


def test_transmission_solve_converges_and_decouples():
    n = 12
    bundle = build_geometry(ELLIPSE, n)
    spec = single_mode(1, 1.0, n)
    system = assemble_system(TRANS, bundle, spec)
    sol = solve(system)
    assert sol.converged
    assert sol.residual <= 1e-10
    assert abs(sol.rotation_projection) <= 1e-8
    assert sol.xi_plus is not None and sol.xi_minus is not None
    assert abs(sol.xe_plus[0]) <= 1e-12
    assert abs(sol.xe_minus[0]) <= 1e-12
    assert abs(sol.xi_plus[0]) <= 1e-12
    # Joukowski map: mode-1 loading excites only mode-1 coefficients
    for vec in (sol.xe_plus, sol.xe_minus, sol.xi_plus):
        mask = np.ones(n + 1, dtype=bool)
        mask[1] = False
        assert np.max(np.abs(vec[mask])) <= 1e-9
