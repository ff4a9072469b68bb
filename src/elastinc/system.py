"""Block system assembly and solve for the layer-potential density coefficients.

The exterior displacement is written as the loading plus a single-layer field
with density psi, the interior as a single-layer field with density phi. On
the boundary circle each density mode produces two-sided power series for the
displacement and for the traction potential. On the window of modes x powers
-n..n a side's density enters them through the layer matrix Q / |l| and its
conjugate through the coupling matrix M (layer_matrices), each scaled by one
material factor per equation family; the two transmission conditions,
exterior minus interior, equal -2h, with h the loading's displacement and
traction-potential windows on the same powers (loading.unit_rhs_vectors).

The system is posed on the unit-radius problem (ConformalMap.unit and
LoadingSpec.unit_radius), whose density coefficients serve every radius.
The real and imaginary parts of the kept coefficients (kept_indices) are the
unknowns of one square real matrix, factored once by LU; its condition
estimate (one_norm_condition) is a separate call that factors it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryBundle, pow2_floor
from .loading import LoadingSpec, unit_rhs_vectors
from .materials import MaterialPair

DEFAULT_RESIDUAL_THRESHOLD = 1e-8


class AssemblyError(ValueError):
    """Inconsistent assembly inputs."""


def kept_indices(n: int):
    """Window indices (mode or power + n) of the unknowns and equations kept.

    Returns (exterior modes, interior modes, displacement powers, traction
    powers), each ordered positives first, then 0, -1, ..., -n. Mode 0 is
    kept only in the interior, where its density is the constant
    displacement; power 0 only in the displacement, where the constant
    lands. The other index-0 rows and columns are structurally zero.
    """
    every = np.r_[n + 1 : 2 * n + 1, n : -1 : -1]
    nonzero = np.delete(every, n)
    return nonzero, every, every, nonzero


def layer_matrices(bundle: GeometryBundle):
    """The layer matrix Q, the weights 1/|l| and the coupling matrix M.

    Both matrices have the density modes l = -n..n as rows and the boundary
    powers k = -n..n as columns, each stored at index +n; the weight of
    mode 0 is 0. Row l >= 0 of Q is F_l(Psi(w)) = w^l + sum_k c_lk w^-k
    (row 0 is w^0: c_0k = 0), row -l its conjugate w^-l + sum_k conj(c_lk) w^k.

    Row l of M holds the coefficients produced by the conjugated mode-l
    density in the combination -Psi(w) conj(C1[dens]) + conj(C1[zeta-bar
    dens]). Row m of T is mode m's series on the powers -n..n:
    conj(Dt[m]) / m in the w^{-k} part and that row times conj(C) in the
    w^k part. T @ P multiplies every series by Psi; P.T[:, n:] @ T is the
    shifted density, whose mode l (-n..n) collects a_{m-l} times mode m's
    series; M is their difference.
    """
    n = bundle.n
    weight = np.zeros(2 * n + 1)
    weight[n + 1 :] = 1.0 / np.arange(1, n + 1)
    weight[:n] = weight[: n : -1]
    C = bundle.grunsky
    # zeros stored as 0 - 0j stay +0 when scaled by a factor of either sign
    Q = np.full((2 * n + 1, 2 * n + 1), complex(0.0, -0.0))
    np.fill_diagonal(Q, 1.0)
    Q[n + 1 :, : n + 1] = C[1:, ::-1]
    Q[:n, n:] = np.conj(C[:0:-1])
    P = bundle.psi
    D = np.conj(bundle.faber_deriv) * weight[n:, None]
    T = np.empty((n + 1, 2 * n + 1), dtype=complex)
    T[:, n::-1] = D
    T[:, n + 1 :] = (D @ np.conj(C))[:, 1:]
    M = -(P.T[:, n:] @ T)
    M[n:] += T @ P
    return Q, weight, M


def _layer_pair(window, modes, powers, alpha, beta, mu, interior, traction):
    """(A, B): one side's density x enters one equation family as A x + B conj(x).

    Rows are the kept powers, columns the kept modes. Displacement: A is
    -alpha Q / |l|, plus -beta at power 0 for the interior mode-0 density,
    and B is beta M. Traction potential: A is Q / |l| scaled by mu alpha on
    positive powers and -mu beta on the others, the two swapped on the
    interior diagonal, so that there the factor follows the mode's sign;
    B is -mu beta M.
    """
    Q, weight, M = window
    n = weight.size // 2
    A, B = Q[modes].T[powers], M[modes].T[powers]
    if not traction:
        A *= -alpha * weight[modes]
        A[np.ix_(powers == n, modes == n)] -= beta
        B *= beta
        return A, B
    a, b = mu * alpha, -mu * beta
    A *= (np.where(modes > n, b, a) if interior else np.where(powers > n, a, b)[:, None]) * weight[modes]
    B *= b
    return A, B


@dataclass(frozen=True, eq=False)
class BlockSystem:
    """The square real system matrix @ x = rhs of the unit-radius problem.

    Rows: real parts of the equation families (displacement, then traction
    potential; the traction alone for a cavity), then imaginary parts.
    Columns: real parts of the exterior, then the interior density
    coefficients (the exterior alone for a cavity), then imaginary parts.
    Each family and side runs over its kept powers or modes, in the order
    of kept_indices.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    material: MaterialPair
    bundle: GeometryBundle


def assemble_system(material: MaterialPair, bundle: GeometryBundle,
                    spec: LoadingSpec) -> BlockSystem:
    """Assemble the square real system of the kept modes and powers.

    The density x enters an equation family as A x + B conj(x); with
    x = r + i s the family's columns are (A + B) r + i (A - B) s, whose
    real and imaginary parts are written as they stand. The interior enters
    with the opposite sign: each condition is exterior minus interior.
    """
    n = bundle.n
    window = layer_matrices(bundle)  # shared by both sides
    ext_modes, int_modes, disp_powers, trac_powers = kept_indices(n)
    disp, trac = unit_rhs_vectors(material, bundle, spec)
    # (kept powers, right-hand side on the window, traction?)
    families = [(trac_powers, trac, True)]
    sides = [(ext_modes, material.alpha, material.beta, material.mu_ext, False)]
    if material.has_interior:
        alpha, beta, _ = material.interior_constants()
        families.insert(0, (disp_powers, disp, False))
        sides.append((int_modes, alpha, beta, material.mu_int, True))
    row_at = np.cumsum([0] + [powers.size for powers, _, _ in families])
    col_at = np.cumsum([0] + [side[0].size for side in sides])
    half = row_at[-1]
    matrix = np.empty((2 * half, 2 * half))
    for s, (modes, alpha, beta, mu, interior) in enumerate(sides):
        r, i = slice(col_at[s], col_at[s + 1]), slice(half + col_at[s], half + col_at[s + 1])
        for f, (powers, _, traction) in enumerate(families):
            re, im = slice(row_at[f], row_at[f + 1]), slice(half + row_at[f], half + row_at[f + 1])
            A, B = _layer_pair(window, modes, powers, alpha, beta, mu, interior, traction)
            plus, minus = A + B, np.subtract(A, B, out=A)
            if interior:  # after the sum: folded into alpha, beta it flips the sign of zeros
                plus *= -1.0
                minus *= -1.0
            matrix[re, r], matrix[re, i] = plus.real, -minus.imag
            matrix[im, r], matrix[im, i] = plus.imag, minus.real

    h = np.concatenate([rhs[powers] for powers, rhs, _ in families])
    return BlockSystem(matrix=matrix, rhs=-2.0 * np.concatenate([h.real, h.imag]),
                       material=material, bundle=bundle)


@dataclass(frozen=True, eq=False)
class DensitySolution:
    """Solved density mode coefficients with solve diagnostics.

    The coefficients are those of the unit-radius problem, which describe
    the field at the map's own radius as well. xe_plus[m] multiplies the
    exterior mode-m density, xe_minus[m] the exterior mode-(-m) density;
    xi_plus/xi_minus likewise for the interior (None in cavity mode, where
    there is no interior density). Entry 0 of xe_plus, xe_minus and
    xi_plus is structurally zero; xi_minus[0] is the interior mode-0
    coefficient. rank is the order of the square system solved; its
    1-norm condition estimate is one_norm_condition(system.matrix).
    """

    xe_plus: np.ndarray
    xe_minus: np.ndarray
    xi_plus: np.ndarray | None
    xi_minus: np.ndarray | None
    residual: float
    rank: int
    rotation_projection: float
    converged: bool
    n: int
    mode: str


def one_norm_condition(matrix: np.ndarray) -> float:
    """Hager-Higham estimate of the 1-norm condition number ||K||_1 ||K^-1||_1.

    ||K^-1||_1 is the maximum of the convex function f(x) = ||K^-1 x||_1
    on the unit 1-norm ball, attained at a unit vector e_j. One solve takes
    f at the uniform start vector, one solve with K^T the subgradient
    z = K^-T sign(K^-1 start) of f there; if some |z_j| exceeds z . start,
    f rises towards e_j and one more solve takes that column of K^-1. Every
    value taken is ||K^-1 x||_1 for some unit x, so the estimate never
    exceeds the true condition number. Each solve factors K afresh (numpy
    keeps no LU factors), so the estimate costs two or three
    factorizations; it is computed where it is reported, not by solve.
    """
    size = matrix.shape[0]
    start = np.full(size, 1.0 / size)
    probe = np.linalg.solve(matrix, start)
    estimate = float(np.sum(np.abs(probe)))
    z = np.linalg.solve(matrix.T, np.where(probe >= 0.0, 1.0, -1.0))
    j = int(np.argmax(np.abs(z)))
    if abs(z[j]) > z @ start:
        unit = np.zeros_like(start)
        unit[j] = 1.0
        estimate = max(estimate, float(np.sum(np.abs(np.linalg.solve(matrix, unit)))))
    return float(np.max(np.sum(np.abs(matrix), axis=0))) * estimate


def solve(system: BlockSystem) -> DensitySolution:
    """LU solve of the square real system: one factorization.

    An exactly singular matrix raises np.linalg.LinAlgError. Conjugate
    pairing holds exactly, because only the independent real and imaginary
    parts are unknowns. The condition estimate is one_norm_condition of
    system.matrix, computed apart by whoever reports it.
    """
    matrix, rhs = system.matrix, system.rhs
    sol = np.linalg.solve(matrix, rhs)
    # both norms of vectors divided by the power of two at or below max|rhs|:
    # exact, and free of the overflow (underflow) of squaring a huge (tiny) rhs
    unit = pow2_floor(np.max(np.abs(rhs)))
    scale = np.linalg.norm(rhs / unit)
    # a non-finite rhs gives a NaN residual, which never counts as converged
    residual = float(np.linalg.norm((matrix @ sol - rhs) / unit) / scale) if scale != 0 else 0.0

    # the kept modes of both sides onto the window; mode 0 is a minus entry
    n = system.bundle.n
    ext_modes, int_modes, _, _ = kept_indices(n)
    x = sol.reshape(2, -1)
    window = np.zeros((2, 2 * n + 1), dtype=complex)  # exterior, interior
    window.flat[np.r_[ext_modes, int_modes + 2 * n + 1][: x.shape[1]]] = x[0] + 1j * x[1]
    plus, minus = window[:, n:].copy(), window[:, n::-1]
    plus[:, 0] = 0.0
    xe_plus, xe_minus, xi_plus, xi_minus = plus[0], minus[0], plus[1], minus[1]
    cavity = system.material.cavity
    if cavity:
        xi_plus = xi_minus = None

    # gamma xe_plus[1] + sum_l conj(a_l) gamma^-l xe_minus[l], with gamma
    # factored out (conj(a_l) gamma^-l = gamma conj(b_l), b the unit map's
    # coefficients), so that no term overflows where the projection does not
    cmap = system.bundle.cmap
    b = cmap.unit.a
    proj = xe_plus[1] if n > 0 else 0.0
    for l in range(min(b.size, n + 1)):
        proj = proj + np.conj(b[l]) * xe_minus[l]
    rotation_projection = float(-2.0 * np.pi * cmap.gamma * np.imag(proj))

    return DensitySolution(
        xe_plus=xe_plus,
        xe_minus=xe_minus,
        xi_plus=xi_plus,
        xi_minus=xi_minus,
        residual=residual,
        rank=rhs.size,
        rotation_projection=rotation_projection,
        converged=residual <= DEFAULT_RESIDUAL_THRESHOLD,
        n=n,
        mode="cavity" if cavity else "transmission",
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
    n = bundle.n
    modes, _, _, powers = kept_indices(n)
    pick = [m - 1, n + m - 1]  # mode (power) m and -m in the kept order
    A, B = _layer_pair(layer_matrices(bundle), modes[pick], powers[pick], material.alpha,
                       material.beta, material.mu_ext, interior=False, traction=True)
    # E[2q + j, 2p + i]: power q (m, -m), conjugated equation if j; unknown p
    # (xe+[m], xe-[m]), conjugated if i
    E = np.empty((2, 2, 2, 2), dtype=complex)
    E[:, 0, :, 0], E[:, 0, :, 1] = A, B
    E[:, 1, :, 0], E[:, 1, :, 1] = np.conj(B), np.conj(A)
    power = bundle.gamma ** np.array([-m, -m, m, m], dtype=float)
    return -E.reshape(4, 4) * power[:, None] / material.mu_ext
