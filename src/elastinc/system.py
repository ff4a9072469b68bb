"""Block system assembly and solve for the layer-potential density coefficients.

The exterior displacement is written as the loading plus a single-layer field
with density psi, the interior as a single-layer field with density phi. On
the boundary circle each density mode produces two-sided power series for the
displacement and for the traction potential; collecting coefficients in the
basis (w^k, w^{-k}) turns the two transmission conditions into a block linear
system x E = -2h over the mode coefficient blocks

    x = [xe+, conj xe+, xe-, conj xe-, xi+, conj xi+, xi-, conj xi-].

The system is posed on the unit-radius problem (geometry.unit_radius and
LoadingSpec.unit_radius), whose density coefficients serve every radius.
The conjugated blocks make half the unknowns and half the equations
redundant; the independent half is assembled as one square real matrix,
without its structurally zero rows and columns, and factored once by LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryBundle
from .loading import LoadingSpec, unit_rhs_vectors
from .materials import MaterialPair

DEFAULT_RESIDUAL_THRESHOLD = 1e-8


class AssemblyError(ValueError):
    """Inconsistent assembly inputs."""


def m_blocks(bundle: GeometryBundle):
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


def exterior_blocks(material: MaterialPair, bundle: GeometryBundle):
    """The sixteen exterior coefficient blocks S[i][j].

    Index i selects the unknown block (0: xe+, 1: conj xe+, 2: xe-,
    3: conj xe-) and j the equation family (0/1: displacement series in
    w^k / w^{-k}, 2/3: traction-potential series).
    """
    return _sided_blocks(bundle, m_blocks(bundle), material.alpha, material.beta,
                         material.mu_ext, interior=False)


def interior_blocks(material: MaterialPair, bundle: GeometryBundle):
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


@dataclass(frozen=True)
class BlockSystem:
    """The square real system matrix @ x = rhs of the unit-radius problem.

    Rows: real parts of the equation families (disp_pos, disp_neg, trac_pos,
    trac_neg; the trac pair alone for a cavity), then imaginary parts.
    Columns: real parts of the unknown blocks (xe+, xe-, xi+, xi-; xe+, xe-
    for a cavity), then imaginary parts. Entry 0 of every family but
    disp_neg and of every block but xi- is structurally zero and left out.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    n: int
    mode: str                 # "transmission" | "cavity"
    material: MaterialPair
    bundle: GeometryBundle


def assemble_system(material: MaterialPair, bundle: GeometryBundle,
                    spec: LoadingSpec) -> BlockSystem:
    """Assemble the square real system (8 unknown blocks, or 4 for a cavity).

    Unknown block (Fa, Fb) enters equation family c as x Fa[c] + conj(x) Fb[c];
    with x = r + i s its transpose is (Fa + Fb)^T r + i (Fa - Fb)^T s, whose
    real and imaginary parts are written as they stand.
    """
    mode = "cavity" if material.cavity else "transmission"
    d = bundle.n + 1
    M = m_blocks(bundle)  # shared by both sides
    sides = [(_sided_blocks(bundle, M, material.alpha, material.beta, material.mu_ext,
                            interior=False), 1.0)]
    families = [2, 3]
    if mode == "transmission":
        alpha, beta, _ = material.interior_constants()
        sides.append((_sided_blocks(bundle, M, alpha, beta, material.mu_int, interior=True), -1.0))
        families = [0, 1, 2, 3]
    pairs = [(S[i], S[i + 1], sign) for S, sign in sides for i in (0, 2)]
    # index 0 survives only in the w^0 displacement family and in xi-
    row_lead = [int(c != 1) for c in families]
    col_lead = [int(p != 3) for p in range(len(pairs))]
    row_at = np.cumsum([0] + [d - lead for lead in row_lead])
    col_at = np.cumsum([0] + [d - lead for lead in col_lead])
    half = row_at[-1]
    matrix = np.empty((2 * half, 2 * half))
    for f, c in enumerate(families):
        re, im = slice(row_at[f], row_at[f + 1]), slice(half + row_at[f], half + row_at[f + 1])
        for p, (Fa, Fb, sign) in enumerate(pairs):
            r, i = slice(col_at[p], col_at[p + 1]), slice(half + col_at[p], half + col_at[p + 1])
            plus = (sign * (Fa[c] + Fb[c])).T[row_lead[f]:, col_lead[p]:]
            minus = (sign * (Fa[c] - Fb[c])).T[row_lead[f]:, col_lead[p]:]
            matrix[re, r], matrix[re, i] = plus.real, -minus.imag
            matrix[im, r], matrix[im, i] = plus.imag, minus.real

    rv = unit_rhs_vectors(material, bundle, spec)
    h = np.concatenate([(rv.disp_pos, rv.disp_neg, rv.trac_pos, rv.trac_neg)[c][lead:]
                        for c, lead in zip(families, row_lead)])
    return BlockSystem(matrix=matrix, rhs=-2.0 * np.concatenate([h.real, h.imag]), n=bundle.n,
                       mode=mode, material=material, bundle=bundle)


@dataclass(frozen=True)
class DensitySolution:
    """Solved density mode coefficients with solve diagnostics.

    The coefficients are those of the unit-radius problem, which describe
    the field at the map's own radius as well. xe_plus[m] multiplies the
    exterior mode-m density, xe_minus[m] the exterior mode-(-m) density;
    xi_plus/xi_minus likewise for the interior (None in cavity mode, where
    there is no interior density). Entry 0 of xe_plus, xe_minus and
    xi_plus is structurally zero; xi_minus[0] is the interior mode-0
    coefficient. rank is the order of the square system solved and
    condition_estimate its 1-norm condition estimate.
    """

    xe_plus: np.ndarray
    xe_minus: np.ndarray
    xi_plus: np.ndarray | None
    xi_minus: np.ndarray | None
    residual: float
    rank: int
    condition_estimate: float
    rotation_projection: float
    converged: bool
    n: int
    mode: str


def one_norm_condition(matrix: np.ndarray, probe: np.ndarray, start: np.ndarray) -> float:
    """Hager-Higham estimate of the 1-norm condition number ||K||_1 ||K^-1||_1.

    ||K^-1||_1 is the maximum of the convex function f(x) = ||K^-1 x||_1
    on the unit 1-norm ball, attained at a unit vector e_j. probe is
    K^-1 start for the uniform start vector, already solved with the
    system. One solve with K^T gives the subgradient z = K^-T sign(probe)
    of f there; if some |z_j| exceeds z . start, f rises towards e_j and
    one more solve takes that column of K^-1. Every value taken is
    ||K^-1 x||_1 for some unit x, so the estimate never exceeds the true
    condition number.
    """
    estimate = float(np.sum(np.abs(probe)))
    z = np.linalg.solve(matrix.T, np.where(probe >= 0.0, 1.0, -1.0))
    j = int(np.argmax(np.abs(z)))
    if abs(z[j]) > z @ start:
        unit = np.zeros_like(start)
        unit[j] = 1.0
        estimate = max(estimate, float(np.sum(np.abs(np.linalg.solve(matrix, unit)))))
    return float(np.max(np.sum(np.abs(matrix), axis=0))) * estimate


def solve(system: BlockSystem) -> DensitySolution:
    """LU solve of the square real system, with a 1-norm condition estimate.

    One factorization solves for the densities and for the first probe of
    the condition estimator together; the estimator adds one solve with the
    transpose and at most one more with the matrix. An exactly singular
    matrix raises np.linalg.LinAlgError. Conjugate pairing holds exactly,
    because only the independent real and imaginary parts are unknowns.
    """
    matrix, rhs = system.matrix, system.rhs
    size = rhs.size
    start = np.full(size, 1.0 / size)
    both = np.linalg.solve(matrix, np.column_stack([rhs, start]))
    condition = one_norm_condition(matrix, both[:, 1], start)
    sol = both[:, 0]
    scale = np.linalg.norm(rhs)
    # a non-finite rhs gives a NaN residual, which never counts as converged
    residual = float(np.linalg.norm(matrix @ sol - rhs) / scale) if scale != 0 else 0.0

    # put back the structurally zero index-0 entries of xe+, xe- (and xi+)
    n, d = system.n, system.n + 1
    blocks, dropped = (4, 3) if system.mode == "transmission" else (2, 2)
    x = sol.reshape(2, -1)
    u = np.insert(x[0] + 1j * x[1], n * np.arange(dropped), 0.0).reshape(blocks, d)
    if system.mode == "transmission":
        xe_plus, xe_minus, xi_plus, xi_minus = u
    else:
        xe_plus, xe_minus = u
        xi_plus = xi_minus = None

    cmap = system.bundle.cmap
    gamma = cmap.gamma
    proj = gamma * xe_plus[1] if d > 1 else 0.0
    for l in range(cmap.a.size):
        if l < d:
            proj = proj + np.conj(cmap.coeff(l)) * gamma ** (-l) * xe_minus[l]
    rotation_projection = float(-2.0 * np.pi * np.imag(proj))

    return DensitySolution(
        xe_plus=xe_plus,
        xe_minus=xe_minus,
        xi_plus=xi_plus,
        xi_minus=xi_minus,
        residual=residual,
        rank=size,
        condition_estimate=condition,
        rotation_projection=rotation_projection,
        converged=residual <= DEFAULT_RESIDUAL_THRESHOLD,
        n=system.n,
        mode=system.mode,
    )


def cavity_mode_matrix(material: MaterialPair, bundle: GeometryBundle, m: int) -> np.ndarray:
    """The per-mode 4x4 coefficient matrix of the cavity system.

    Rows are the four scalar equations of boundary power m (traction series,
    plain and conjugated, positive and negative side), columns the unknowns
    (xe_plus[m], conj xe_plus[m], xe_minus[m], conj xe_minus[m]); the whole
    matrix is scaled by -1/mu so entries are material ratios. The equations
    are for powers of w on |w| = gamma: the unit-radius rows of w^m and w^-m
    are divided and multiplied by gamma^m.
    """
    if not 1 <= m <= bundle.n:
        raise AssemblyError(f"mode {m} outside 1..{bundle.n}")
    S = exterior_blocks(material, bundle)
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
