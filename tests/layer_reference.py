"""Reference implementations the tests compare the package against.

FieldEvaluator sums combined coefficient series by the Faber recurrence
inside and by one Laurent series in 1/w outside; these straightforward
per-mode sums over the monomial Faber coefficients, the per-mode Grunsky
form of the exterior series, and the per-entry dict form of the
conjugate-coordinate shift, are the routes the tests compare it against.
The package sums every Faber series by the recurrence on point values
(geometry.faber_series); the monomial Faber matrices, their inverse, the
monomial derivative shift and the loading's monomial polynomial pair live
here only, as references. loading_by_grunsky is the reference for the
loading and its derivatives on and outside the boundary. The Hankel,
Toeplitz and corner matrices that fold multiplication by Psi across power
0, and the coupling blocks and per-mode right-hand-side matrices built from
them, are the references for the package's one two-sided Psi matrix
(GeometryBundle.psi). The quadrant coupling matrices (m_blocks) and the
sixteen coefficient blocks per side (exterior_blocks, interior_blocks) and
the cavity mode matrix read off them are the references for the block
system's layer and coupling matrices on the two-sided window
(system.layer_matrices). The row-wise grid evaluation and field.csv writer at
the end are the references for grid_field's columns and the CLI's
column-wise writer. horner_boundary_series, one Horner pass per sign of the
power, is the reference for loading.boundary_series's blocked power sums.
split_window gives the per-sign vectors of a right-hand-side window
(loading.unit_rhs_vectors) that the per-mode matrices and boundary_series
read. dense_chord_frames, dense_single_layer_blocks and
dense_conormal_blocks build the reference solver's (2q, 2q) blocks as new
dense arrays, the reference for the blocks assemble_nystrom writes in
place from shared factors. single_layer_matrix and conormal_matrix are thin
callers of them; eval_oracle_interior and self_convergence call the
reference solver's own potential and solve, the forms its tests check.
rigid_moments and trace_gap measure two parts of the bordered residual the
solver reports (OracleSolution.residual_norm) on their own: the exterior
density's moments against the rigid motions, and the interior-exterior
displacement gap at the nodes.
"""

import csv
from dataclasses import dataclass

import numpy as np

from elastinc.field import FieldEvaluator, FieldSample, classify_points, invert_map
from elastinc.geometry import (
    ConformalMap,
    GeometryError,
    eval_map,
    eval_map_derivative,
    eval_map_second_derivative,
    grunsky_rows,
)
from elastinc.loading import LoadingSpec, boundary_series
from elastinc.oracle import (
    BoundaryMesh,
    OracleError,
    hilbert_weights,
    log_weights,
    rigid_fields,
    single_layer_potential,
    solve_oracle,
)
from elastinc.system import AssemblyError


def horner_boundary_series(pos: np.ndarray, neg: np.ndarray, w):
    """Evaluate sum_k pos[..., k] w^k + sum_k neg[..., k] w^{-k} (index 0 read from neg).

    Leading axes of pos and neg are coefficient rows, broadcast against each
    other: every row is summed at every point by one Horner pass per sign,
    and the result has shape rows + w.shape. The pass in 1/w runs in place
    on the result.
    """
    w = np.asarray(w, dtype=complex)
    pos, neg = (np.moveaxis(np.asarray(c), -1, 0) for c in (pos, neg))
    pos, neg = (c.reshape(c.shape + (1,) * w.ndim) for c in (pos, neg))
    out = np.zeros(np.broadcast_shapes(pos.shape[1:], neg.shape[1:], w.shape), dtype=complex)
    winv = 1.0 / w
    for k in range(len(neg) - 1, 0, -1):
        out += neg[k]
        out *= winv
    acc = 0.0
    for k in range(len(pos) - 1, 0, -1):
        acc = (acc + pos[k]) * w
    out += acc
    out += neg[0]
    return out


def split_window(window: np.ndarray, gamma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(pos, neg) of a window over the powers -n..n (power k at index k + n).

    pos[k] multiplies w^k (pos[0] = 0) and neg[k] multiplies w^-k, the
    layout boundary_series reads. A unit-radius window split with gamma
    gives the series in powers of w on |w| = gamma: the coefficients of w^k
    and w^-k divided and multiplied by gamma^k.
    """
    n = window.shape[-1] // 2
    pos, neg = window[..., n:].copy(), window[..., n::-1].copy()
    pos[..., 0] = 0.0
    if gamma != 1.0:  # at gamma = 1 the entries keep their bits, signs of zero included
        g = gamma ** np.arange(n + 1)
        pos /= g
        neg *= g
    return pos, neg


# -- the monomial Faber substrate -----------------------------------------------


def faber_matrix(cmap: ConformalMap, n: int) -> np.ndarray:
    """Rows 0..n of Faber polynomial coefficients (row m: F_m, ascending powers).

    Built from the recursion
        F_{m+1}(z) = z F_m(z) - m a_m - sum_{k=0}^{m} a_{m-k} F_k(z),
    which yields a unit-lower-triangular matrix.
    """
    if n < 0:
        raise GeometryError("truncation order must be nonnegative")
    P = np.zeros((n + 1, n + 1), dtype=complex)
    P[0, 0] = 1.0
    for m in range(n):
        row = np.zeros(n + 1, dtype=complex)
        row[1 : m + 2] = P[m, : m + 1]  # z * F_m
        row[0] -= m * cmap.coeff(m)
        for k in range(m + 1):
            ak = cmap.coeff(m - k)
            if ak != 0.0:
                row[: k + 1] -= ak * P[k, : k + 1]
        P[m + 1] = row
    return P


def faber_inverse(P: np.ndarray) -> np.ndarray:
    """Exact inverse of the unit-lower-triangular Faber coefficient matrix.

    Forward substitution on P X = I: row i of X is e_i - sum_{j<i} P[i,j] X[j].
    """
    X = np.eye(P.shape[0], dtype=complex)
    for i in range(1, P.shape[0]):
        X[i] -= P[i, :i] @ X[:i]
    return X


def monomial_derivative_matrix(n: int) -> np.ndarray:
    """Subdiagonal (1, 2, ..., n): the d/dz action on monomial coefficients."""
    T = np.zeros((n + 1, n + 1), dtype=complex)
    for m in range(1, n + 1):
        T[m, m - 1] = m
    return T


def poly_eval(coeffs_ascending: np.ndarray, z):
    """Evaluate a polynomial given ascending coefficients (vectorized in z)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in np.asarray(coeffs_ascending)[::-1]:
        out = out * z + c
    return out


def polyder(coeffs: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the derivative of a polynomial."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, coeffs.size)


def loading_pair(spec: LoadingSpec, cmap: ConformalMap) -> tuple[np.ndarray, np.ndarray]:
    """Ascending-coefficient polynomials (f, g) with loading = kappa f - z conj(f') - conj(g)."""
    M = spec.order
    A, B = spec.padded(M)
    P = faber_matrix(cmap, M)
    f = A @ P
    g = -(B @ P)
    return f, g


# -- the loading by its Grunsky series --------------------------------------------


def loading_by_grunsky(spec: LoadingSpec, cmap: ConformalMap, w):
    """(f, g, f', g', f'') of the loading at Psi(w), |w| >= gamma, from the Grunsky series.

    F_m(Psi(w)) = w^m + sum_k c_mk w^-k is finite (k <= mK) for a
    Laurent-polynomial map of depth K, so the potentials f = sum A_m F_m and
    g = -sum B_m F_m are two-sided power series S(w), summed by
    boundary_series. Their z-derivatives follow from the chain rule,
    f' = dS/dw / Psi' and f'' = (d^2S/dw^2 - f' Psi'') / Psi'^2, with
    w dS/dw and w^2 d^2S/dw^2 summed as series of their own.
    """
    w = np.asarray(w, dtype=complex)
    M = spec.order
    A, B = spec.padded(M)
    kmax = max(M * cmap.depth, 1)
    pos = np.stack([A, -B])
    neg = pos @ grunsky_rows(cmap, M, kmax)
    kp, kn = np.arange(M + 1), np.arange(kmax + 1)
    S = boundary_series(pos, neg, w)
    dS = boundary_series(kp * pos, -kn * neg, w) / w
    d2S = boundary_series(kp * (kp - 1) * pos, kn * (kn + 1) * neg, w) / w**2
    dpsi = eval_map_derivative(cmap, w)
    d2psi = eval_map_second_derivative(cmap, w)
    first = dS / dpsi
    fpp = (d2S[0] - first[0] * d2psi) / dpsi**2
    return S[0], S[1], first[0], first[1], fpp


# -- the folded multiplication by Psi ----------------------------------------------


def map_coefficient_matrices(cmap: ConformalMap, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hankel, Toeplitz and corner matrices of the map coefficients.

    hankel[m, k] = a_{m+k};  toeplitz[m, k] = a_{m-k} (so the first
    superdiagonal is a_{-1} = 1);  corner holds a0 at (0,0) and 1 at (0,1)
    and (1,0), zero elsewhere. Both are gathered from one zero-padded copy
    of (a_{-n-1}, ..., a_{2n}), with a_j stored at position j + n + 1.
    """
    idx = np.arange(n + 1)
    padded = np.zeros(3 * n + 2, dtype=complex)
    padded[n] = 1.0
    top = min(cmap.a.size, 2 * n + 1)
    padded[n + 1 : n + 1 + top] = cmap.a[:top]
    hankel = padded[np.add.outer(idx, idx) + n + 1]
    toeplitz = padded[np.subtract.outer(idx, idx) + n + 1]
    corner = np.zeros((n + 1, n + 1), dtype=complex)
    corner[0, 0] = cmap.coeff(0)
    if n >= 1:
        corner[0, 1] = 1.0
        corner[1, 0] = 1.0
    return hankel, toeplitz, corner


def folded_matrices(bundle):
    """(D, hankel, toeplitz, corner) of the unit-radius bundle; D is the
    Faber derivative matrix with row m divided by m (row 0 zero)."""
    n = bundle.n
    scale = np.zeros(n + 1)
    scale[1:] = 1.0 / np.arange(1, n + 1)
    D = bundle.faber_deriv * scale[:, None]
    return (D, *map_coefficient_matrices(bundle.cmap.unit, n))


def folded_m_blocks(bundle):
    """Conjugate-coupling matrices (M21, M41, M22, M42), with multiplication
    by Psi folded across power 0 into Hankel, Toeplitz and corner parts."""
    D, hank, toep, corner = folded_matrices(bundle)
    D = np.conj(D)
    C = np.conj(bundle.grunsky)

    DC = D @ C
    M21 = D @ corner + DC @ toep - toep.T @ DC
    M41 = -(hank @ DC)
    M22 = D @ toep.T + DC @ hank - toep.T @ D
    M42 = -(hank @ D)
    return M21, M41, M22, M42


def rhs_matrices(material, bundle, spec: LoadingSpec):
    """Per-mode boundary coefficient matrices of the unit-radius problem.

    Returns (disp_pos_mat, disp_neg_mat, trac_pos_mat, trac_neg_mat) where row
    m of disp_pos_mat holds the w^k coefficients on |w| = 1 of mode m's
    contribution to the rescaled loading spec.unit_radius(gamma), and
    similarly for the other three. Split by split_window, the two windows of
    unit_rhs_vectors are the column sums of rows m >= 1.
    """
    n = bundle.n
    A, B = spec.unit_radius(bundle.gamma).padded(n)
    C = bundle.grunsky
    # mode-scaled conjugated derivative rows: row m holds conj of F_m' in the basis
    W = np.conj(bundle.faber_deriv)
    kill0 = np.ones(n + 1)
    kill0[0] = 0.0
    _, hank, toep, corner = folded_matrices(bundle)
    kappa = material.kappa
    mu = material.mu_ext
    Ac = np.conj(A)[:, None]
    Bc = np.conj(B)[:, None]
    Cb = np.conj(C)

    X_pos = Ac * W @ (corner + Cb @ toep) * kill0
    X_neg = Ac * W @ (toep.T + Cb @ hank)
    Y_pos = Bc * Cb
    Y_neg = np.diag(np.conj(B))

    disp_pos = kappa * np.diag(A) - X_pos + Y_pos
    disp_neg = kappa * A[:, None] * C - X_neg + Y_neg
    trac_pos = mu * (np.diag(A) + X_pos - Y_pos)
    trac_neg = mu * (A[:, None] * C + X_neg * kill0 - Y_neg)
    return disp_pos, disp_neg, trac_pos, trac_neg


# -- the sixteen-block system ------------------------------------------------------
# system.assemble_system builds each side's coefficients from one layer matrix
# and one coupling matrix on the two-sided window; these are the quadrant
# coupling matrices and the sixteen hand-written blocks per side it replaced.


def m_blocks(bundle):
    """Conjugate-coupling matrices (M21, M41, M22, M42).

    Row j of M21/M22 holds the w^k / w^{-k} coefficients produced by the
    conjugated mode-j density (j >= 1) in the combination
    -Psi(w) conj(C1[dens]) + conj(C1[zeta-bar dens]); rows of M41/M42 do the
    same for the negative modes, with row 0 carrying the mode-0 density.

    Row m of T is mode m's series on the powers -n..n: conj(Dt[m]) / m in
    the w^{-k} part and that row times conj(C) in the w^k part. T @ P
    multiplies every series by Psi; P.T[:, n:] @ T is the shifted density,
    whose mode l (-n..n) collects a_{m-l} times mode m's series. Their
    difference has the modes -n..n as rows and the powers -n..n as
    columns, and the four matrices are its quadrants. Column 0 of M21 and
    M41 (the power w^0 on the positive side) is discarded downstream.
    """
    n = bundle.n
    P = bundle.psi
    ninv0 = np.zeros(n + 1)
    ninv0[1:] = 1.0 / np.arange(1, n + 1)
    D = np.conj(bundle.faber_deriv) * ninv0[:, None]
    T = np.empty((n + 1, 2 * n + 1), dtype=complex)
    T[:, n::-1] = D
    T[:, n + 1 :] = (D @ np.conj(bundle.grunsky))[:, 1:]
    full = -(P.T[:, n:] @ T)
    full[n:] += T @ P
    return full[n:, n:], full[n::-1, n:], full[n:, n::-1], full[n::-1, n::-1]


def exterior_blocks(material, bundle):
    """The sixteen exterior coefficient blocks S[i][j].

    Index i selects the unknown block (0: xe+, 1: conj xe+, 2: xe-,
    3: conj xe-) and j the equation family (0/1: displacement series in
    w^k / w^{-k}, 2/3: traction-potential series).
    """
    return _sided_blocks(bundle, m_blocks(bundle), material.alpha, material.beta,
                         material.mu_ext, interior=False)


def interior_blocks(material, bundle):
    """The sixteen interior coefficient blocks, transmission mode only."""
    if material.cavity:
        raise AssemblyError("interior blocks are undefined for a cavity")
    alpha, beta, kappa = material.interior_constants()
    return _sided_blocks(bundle, m_blocks(bundle), alpha, beta, material.mu_int, interior=True)


def _sided_blocks(bundle, M, alpha, beta, mu, interior):
    """The sixteen blocks of one side, from the coupling matrices M = m_blocks(bundle)."""
    M21, M41, M22, M42 = M
    n = bundle.n
    ninv0 = np.zeros(n + 1)
    ninv0[1:] = 1.0 / np.arange(1, n + 1)
    kill0 = np.ones(n + 1)
    kill0[0] = 0.0  # drops the index-0 row or column
    # the exterior side also drops row 0 of the negative-mode blocks
    rows41 = np.ones(n + 1) if interior else kill0
    C = bundle.grunsky
    Cb = np.conj(C)

    S = [[None] * 4 for _ in range(4)]
    S[0][0] = np.diag(-alpha * ninv0)
    S[1][0] = beta * kill0[:, None] * M21 * kill0
    S[2][0] = -alpha * ninv0[:, None] * Cb
    S[0][1] = -alpha * ninv0[:, None] * C
    S[1][1] = beta * kill0[:, None] * M22
    S[2][1] = np.diag(-alpha * ninv0)
    if interior:
        # the mode-0 interior density produces a genuine constant displacement
        S[2][1][0, 0] -= beta
    S[3][0] = beta * rows41[:, None] * M41 * kill0
    S[3][1] = beta * rows41[:, None] * M42
    S[0][2] = np.diag((-mu * beta if interior else mu * alpha) * ninv0)
    S[3][2] = -mu * beta * rows41[:, None] * M41 * kill0
    S[3][3] = -mu * beta * rows41[:, None] * M42 * kill0
    S[1][2] = -mu * beta * kill0[:, None] * M21 * kill0
    S[2][2] = mu * alpha * ninv0[:, None] * Cb
    S[0][3] = -mu * beta * ninv0[:, None] * C
    S[1][3] = -mu * beta * kill0[:, None] * M22 * kill0
    S[2][3] = np.diag((mu * alpha if interior else -mu * beta) * ninv0)
    return S


def block_cavity_mode_matrix(material, bundle, m, S):
    """The per-mode 4x4 cavity matrix read off the sixteen exterior blocks
    S = exterior_blocks(material, bundle)."""
    # unknown order: xe+[m], conj xe+[m], xe-[m], conj xe-[m]
    unknown_blocks = [(S[0], S[1]), (S[2], S[3])]
    E0 = np.zeros((4, 4), dtype=complex)
    for p, (Fa, Fb) in enumerate(unknown_blocks):
        for q, c in enumerate((2, 3)):
            E0[2 * p, 2 * q] = Fa[c][m, m]
            E0[2 * p, 2 * q + 1] = np.conj(Fb[c][m, m])
            E0[2 * p + 1, 2 * q] = Fb[c][m, m]
            E0[2 * p + 1, 2 * q + 1] = np.conj(Fa[c][m, m])
    power = bundle.gamma ** np.array([-m, -m, m, m], dtype=float)
    return -(E0.T) * power[:, None] / material.mu_ext


# -- the layer transforms ---------------------------------------------------------


def _shifted_coefficients(cmap: ConformalMap, full: dict) -> dict:
    """Mode coefficients of the conjugate-coordinate multiple of a density.

    full maps mode index k to its coefficient; the returned dict maps j to
    sum_l conj(a_l) gamma^{-l} full[j - l] over the map coefficients
    (a_{-1} = 1).
    """
    gamma = cmap.gamma
    depth = cmap.a.size - 1
    out: dict[int, complex] = {}
    for k, xk in full.items():
        if xk == 0.0:
            continue
        for l in range(-1, depth + 1):
            al = cmap.coeff(l)
            if al == 0.0:
                continue
            j = k + l
            out[j] = out.get(j, 0.0) + np.conj(al) * gamma ** (-l) * xk
    return out


def exterior_tail(cmap: ConformalMap, solution, kmax: int) -> np.ndarray:
    """The exterior series rows (f, fbar, C, q) of FieldEvaluator.tail, mode by mode.

    Column k multiplies w^-k on the unit-radius map cmap, up to k = kmax.
    With the Grunsky coefficients c_mk of F_m(Psi(w)) = w^m + sum_k c_mk w^-k
    and y the dict-shifted density:
        f_k = sum_m (-x_m / m) c_mk - x_-k / k,  fbar likewise for the
        conjugate density, C_k = -k f_k with C_0 = x_0, and
        q_k = sum_{j >= 1} y_j (k / j) c_jk + y_-k.
    """
    n = solution.n
    xp, xm = solution.xe_plus, solution.xe_minus
    full = {m: xp[m] for m in range(1, n + 1)}
    full.update({-k: xm[k] for k in range(1, n + 1)})
    full[0] = xm[0]
    y = _shifted_coefficients(cmap, full)
    c = grunsky_rows(cmap, max([j for j in y if j >= 1] + [n, 1]), kmax)
    ks = np.arange(kmax + 1)
    rows = np.zeros((4, kmax + 1), dtype=complex)
    for m in range(1, n + 1):
        rows[0] += -xp[m] / m * c[m]
        rows[1] += -np.conj(xm[m]) / m * c[m]
        if m <= kmax:
            rows[0, m] -= xm[m] / m
            rows[1, m] -= np.conj(xp[m]) / m
    rows[2] = -ks * rows[0]
    rows[2, 0] = xm[0]
    for j, yj in y.items():
        if j >= 1:
            rows[3] += yj * (ks / j) * c[j]
        elif -j <= kmax:
            rows[3, -j] += yj
    return rows


def log_layer_exterior(cmap: ConformalMap, plus: np.ndarray, minus: np.ndarray, w):
    """The log-kernel layer transform of a density, evaluated outside.

    plus[m] multiplies the mode-m basis density (m >= 1), minus[k] the
    mode-(-k) one, minus[0] the mode-0 one. Straightforward per-mode sum;
    the evaluator reproduces this with precomputed combined series.
    """
    w = np.asarray(w, dtype=complex)
    gamma = cmap.gamma
    z = eval_map(cmap, w)
    P = faber_matrix(cmap, max(plus.size - 1, 1))
    out = minus[0] * np.log(w)
    for m in range(1, plus.size):
        if plus[m] != 0.0:
            out = out + plus[m] * (-1.0 / m) * gamma ** (-m) * (poly_eval(P[m], z) - w**m)
    for k in range(1, minus.size):
        if minus[k] != 0.0:
            out = out + minus[k] * (-1.0 / k) * gamma**k * w ** (-k)
    return out


def log_layer_interior(cmap: ConformalMap, plus: np.ndarray, minus: np.ndarray, z):
    """Interior branch of the log-kernel layer transform at physical points."""
    z = np.asarray(z, dtype=complex)
    gamma = cmap.gamma
    P = faber_matrix(cmap, max(plus.size - 1, 1))
    out = minus[0] * np.log(gamma) * np.ones_like(z)
    for m in range(1, plus.size):
        if plus[m] != 0.0:
            out = out + plus[m] * (-1.0 / m) * gamma ** (-m) * poly_eval(P[m], z)
    return out


def deriv_layer_exterior(cmap: ConformalMap, plus: np.ndarray, minus: np.ndarray, w):
    """z-derivative of the log-kernel layer transform, exterior branch."""
    w = np.asarray(w, dtype=complex)
    gamma = cmap.gamma
    z = eval_map(cmap, w)
    dpsi = eval_map_derivative(cmap, w)
    order = max(plus.size - 1, 1)
    P = faber_matrix(cmap, order)
    dP = P @ monomial_derivative_matrix(order)
    out = minus[0] / (w * dpsi)
    for m in range(1, plus.size):
        if plus[m] != 0.0:
            out = out + plus[m] * (
                (-1.0 / m) * gamma ** (-m) * poly_eval(dP[m], z)
                + gamma ** (-m) * w ** (m - 1) / dpsi
            )
    for k in range(1, minus.size):
        if minus[k] != 0.0:
            out = out + minus[k] * gamma**k * w ** (-k - 1) / dpsi
    return out


def deriv_layer_interior(cmap: ConformalMap, plus: np.ndarray, minus: np.ndarray, z):
    """z-derivative of the log-kernel layer transform, interior branch."""
    z = np.asarray(z, dtype=complex)
    gamma = cmap.gamma
    order = max(plus.size - 1, 1)
    P = faber_matrix(cmap, order)
    dP = P @ monomial_derivative_matrix(order)
    out = np.zeros_like(z)
    for m in range(1, plus.size):
        if plus[m] != 0.0:
            out = out + plus[m] * (-1.0 / m) * gamma ** (-m) * poly_eval(dP[m], z)
    return out


def _samples(arrays: dict, w, region: str, near) -> list[FieldSample]:
    """One FieldSample per evaluated point, converting each array column once."""
    columns = [np.asarray(arrays[key], dtype=complex).tolist()
               for key in ("z", "u", "f", "fprime", "g")]
    return [
        FieldSample(wi, z, u, region, f, fp, g, nb)
        for wi, nb, z, u, f, fp, g in zip(w, near, *columns)
    ]


def grid_rows(solution, loading, cmap: ConformalMap, material, grid) -> list[FieldSample]:
    """grid_field built row by row: one FieldSample per grid point."""
    ev = FieldEvaluator(solution, loading, cmap, material)
    pts = grid.points()
    regions, near = classify_points(cmap, pts, band=grid.band)
    ext = np.flatnonzero(regions == "exterior")
    inner = np.flatnonzero(regions == "interior")
    samples = np.empty(pts.size, dtype=object)
    if ext.size:
        w_ext = invert_map(cmap, pts[ext])
        w_ext = np.where(
            np.abs(w_ext) <= cmap.gamma, cmap.gamma * (1.0 + 1e-9) * w_ext / np.abs(w_ext), w_ext
        )
        samples[ext] = _samples(ev.exterior_arrays(w_ext), w_ext.tolist(), "exterior",
                                near[ext].tolist())
    nanval = complex(np.nan, np.nan)
    if inner.size and solution.mode == "transmission":
        samples[inner] = _samples(ev.interior_arrays_z(pts[inner]), [nanval] * inner.size,
                                  "interior", near[inner].tolist())
    elif inner.size:
        samples[inner] = [
            FieldSample(w=nanval, z=zi, u=nanval, region="interior", f=nanval, fprime=nanval,
                        g=nanval, near_boundary=nb)
            for zi, nb in zip(pts[inner].tolist(), near[inner].tolist())
        ]
    return samples.tolist()


def write_field_rows(path, header, samples) -> None:
    """field.csv written one FieldSample at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for s in samples:
            writer.writerow(
                [
                    repr(float(np.real(s.w))),
                    repr(float(np.imag(s.w))),
                    repr(float(np.real(s.z))),
                    repr(float(np.imag(s.z))),
                    s.region,
                    repr(float(np.real(s.u))),
                    repr(float(np.imag(s.u))),
                ]
            )


# -- the reference solver's matrices and solves -----------------------------------


@dataclass(frozen=True, eq=False)
class DenseChordFrames:
    """Geometry-only factors shared by every kernel block on one mesh."""

    e1: np.ndarray       # unit chord components, tangent on the diagonal
    e2: np.ndarray
    log_smooth: np.ndarray   # log(r / (2 |sin((t-s)/2)|)), log h on the diagonal
    a_normal: np.ndarray     # h(s) (chord . n(t)) / r^2, curvature limit on the diagonal
    q_smooth: np.ndarray     # odd kernel minus half-cotangent, curvature limit on the diagonal


def dense_chord_frames(mesh: BoundaryMesh) -> DenseChordFrames:
    z, h, normal = mesh.z, mesh.h, mesh.normal
    q = mesh.q
    d = z[:, None] - z[None, :]
    eye = np.eye(q, dtype=bool)
    r = np.abs(d)
    r[eye] = 1.0

    tau = mesh.zprime / h
    e1 = d.real / r
    e2 = d.imag / r
    e1[eye] = tau.real
    e2[eye] = tau.imag

    delta = mesh.theta[:, None] - mesh.theta[None, :]
    sin_half = 2.0 * np.abs(np.sin(0.5 * delta))
    sin_half[eye] = 1.0
    log_smooth = np.log(r / sin_half)
    log_smooth[eye] = np.log(h)

    curv = mesh.zsecond / mesh.zprime
    n_over_d = normal[:, None] / np.where(eye, 1.0, d)
    a_normal = h[None, :] * n_over_d.real
    a_normal[eye] = 0.5 * curv.imag

    half_cot = 0.5 / np.tan(np.where(eye, 1.0, -0.5 * delta))
    q_smooth = h[None, :] * n_over_d.imag - half_cot
    q_smooth[eye] = 0.5 * curv.real
    return DenseChordFrames(e1, e2, log_smooth, a_normal, q_smooth)


def dense_single_layer_blocks(mesh: BoundaryMesh, frames: DenseChordFrames,
                              alpha: float, beta: float) -> np.ndarray:
    """Dense (2q, 2q) matrix mapping nodal density components to the layer trace."""
    q = mesh.q
    htrap = 2.0 * np.pi / q
    hj = mesh.h[None, :]
    log_part = 0.5 * log_weights(q) + htrap * frames.log_smooth
    diag_kernel = (alpha / (2.0 * np.pi)) * log_part * hj
    ee = -(beta / (2.0 * np.pi)) * htrap * hj
    out = np.zeros((2 * q, 2 * q))
    out[:q, :q] = diag_kernel + ee * frames.e1 * frames.e1
    out[:q, q:] = ee * frames.e1 * frames.e2
    out[q:, :q] = out[:q, q:]
    out[q:, q:] = diag_kernel + ee * frames.e2 * frames.e2
    return out


def dense_conormal_blocks(mesh: BoundaryMesh, frames: DenseChordFrames,
                          lam: float, mu: float, jump_sign: float) -> np.ndarray:
    """Dense (2q, 2q) matrix for the one-sided conormal trace of the layer.

    jump_sign +1 gives the trace from outside, -1 from inside; the
    principal-value part is the same on both sides.
    """
    q = mesh.q
    htrap = 2.0 * np.pi / q
    c1 = mu / (lam + 2.0 * mu)
    c2 = 2.0 * (lam + mu) / (lam + 2.0 * mu)
    pref = 1.0 / (2.0 * np.pi)
    smooth = htrap * frames.a_normal
    odd = 0.5 * hilbert_weights(q) + htrap * frames.q_smooth
    out = np.zeros((2 * q, 2 * q))
    out[:q, :q] = pref * (c1 * smooth + c2 * frames.e1 * frames.e1 * smooth)
    out[:q, q:] = pref * (c2 * frames.e1 * frames.e2 * smooth + c1 * odd)
    out[q:, :q] = pref * (c2 * frames.e1 * frames.e2 * smooth - c1 * odd)
    out[q:, q:] = pref * (c1 * smooth + c2 * frames.e2 * frames.e2 * smooth)
    out += jump_sign * 0.5 * np.eye(2 * q)
    return out


def kelvin_constants(material, side: str) -> tuple[float, float]:
    """The single-layer kernel constants (alpha, beta) of one material side."""
    if side == "exterior":
        return material.alpha, material.beta
    return material.interior_constants()[:2]


def single_layer_matrix(mesh, material, side: str = "exterior") -> np.ndarray:
    """Boundary trace of the single-layer displacement, one material side."""
    alpha, beta = kelvin_constants(material, side)
    return dense_single_layer_blocks(mesh, dense_chord_frames(mesh), alpha, beta)


def conormal_matrix(mesh, material, side: str = "exterior", trace: str = "exterior") -> np.ndarray:
    """One-sided conormal derivative of the single layer at the nodes.

    side picks the material whose kernel defines the layer; trace picks
    the side of the boundary the limit is taken from (the jump term flips
    sign between the two).
    """
    lam, mu = ((material.lam_ext, material.mu_ext) if side == "exterior"
               else (material.lam_int, material.mu_int))
    jump = {"exterior": 1.0, "interior": -1.0}[trace]
    return dense_conormal_blocks(mesh, dense_chord_frames(mesh), lam, mu, jump)


def rigid_moments(mesh: BoundaryMesh, density: np.ndarray) -> np.ndarray:
    """Arclength inner products of a nodal density with the rigid fields."""
    values = np.asarray(density, dtype=complex)
    wq = mesh.weights
    return np.array(
        [np.sum(wq * (values.real * r.real + values.imag * r.imag)) for r in rigid_fields(mesh.z)]
    )


def trace_gap(system, solution) -> float:
    """max |u_int - u_ext| at the nodes of a transmission solve.

    Both traces are read off the displacement rows of the assembled matrix:
    u_int is the interior single layer of phi, u_ext the loading minus the
    exterior single layer of psi (the block holds it with the minus sign).
    The rows hold the layers divided by gamma.
    """
    q = system.mesh.q

    def layer(block, density):
        out = system.mesh.cmap.gamma * (block @ np.concatenate([density.real, density.imag]))
        return out[:q] + 1j * out[q:]

    u_int = layer(system.matrix[: 2 * q, : 2 * q], solution.phi)
    u_ext = system.loading_nodes - layer(system.matrix[: 2 * q, 2 * q : 4 * q], solution.psi)
    return float(np.max(np.abs(u_int - u_ext)))


def eval_oracle_interior(solution, material, z) -> np.ndarray:
    """Oracle displacement at interior points: the interior layer alone."""
    if solution.phi is None:
        raise OracleError("cavity solution has no interior displacement")
    z = np.asarray(z, dtype=complex)
    alpha_t, beta_t, _ = material.interior_constants()
    return single_layer_potential(solution.mesh, solution.phi, alpha_t, beta_t, z)


def self_convergence(cmap, material, loading, node_counts=(32, 64, 128)) -> np.ndarray:
    """Boundary-displacement changes under mesh doubling, one per count.

    Entry k is the max difference between the solves at node_counts[k]
    and twice that, compared on the shared (even-index) nodes. On an
    analytic boundary the sequence should fall super-algebraically.
    """
    diffs = []
    for q in node_counts:
        coarse = solve_oracle(cmap, material, loading, q)
        fine = solve_oracle(cmap, material, loading, 2 * q)
        diffs.append(np.max(np.abs(coarse.u_boundary - fine.u_boundary[::2])))
    return np.array(diffs)
