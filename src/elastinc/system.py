"""Block system assembly and solve for the layer-potential density coefficients.

The exterior displacement is written as the loading plus a single-layer field
with density psi, the interior as a single-layer field with density phi. On
the boundary circle each density mode produces two-sided power series for the
displacement and for the traction potential; collecting coefficients in the
basis (w^k, w^{-k}) turns the two transmission conditions into a block linear
system x E = -2h over the mode coefficient blocks

    x = [xe+, conj xe+, xe-, conj xe-, xi+, conj xi+, xi-, conj xi-].

The conjugated blocks make half the unknowns and half the equations redundant;
the solver works on the independent half after splitting into real parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryBundle
from .loading import LoadingSpec, RhsVector, rhs_vectors
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
    """
    D = np.conj(bundle.faber_deriv_scaled)
    C = np.conj(bundle.grunsky)
    g1 = bundle.gamma_pow(1)
    gm1 = bundle.gamma_pow(-1)
    toep = bundle.coeff_toeplitz
    hank = bundle.coeff_hankel
    corner = bundle.coeff_corner

    DC = (D @ C) * bundle.gamma_pow(-2)
    Dg2 = D * bundle.gamma_pow(2)
    g1_toepT_gm1 = g1[:, None] * toep.T * gm1
    gm1_hank_gm1 = gm1[:, None] * hank * gm1
    M21 = Dg2 @ corner + DC @ toep - g1_toepT_gm1 @ DC
    M41 = -(gm1_hank_gm1 @ DC)
    M22 = Dg2 @ toep.T + DC @ hank - g1_toepT_gm1 @ Dg2
    M42 = -(gm1_hank_gm1 @ Dg2)
    return M21, M41, M22, M42


def exterior_blocks(material: MaterialPair, bundle: GeometryBundle):
    """The sixteen exterior coefficient blocks S[i][j].

    Index i selects the unknown block (0: xe+, 1: conj xe+, 2: xe-,
    3: conj xe-) and j the equation family (0/1: displacement series in
    w^k / w^{-k}, 2/3: traction-potential series).
    """
    alpha, beta, mu = material.alpha, material.beta, material.mu_ext
    return _sided_blocks(bundle, alpha, beta, mu, interior=False)


def interior_blocks(material: MaterialPair, bundle: GeometryBundle):
    """The sixteen interior coefficient blocks, transmission mode only."""
    if material.cavity:
        raise AssemblyError("interior blocks are undefined for a cavity")
    alpha, beta, kappa = material.interior_constants()
    return _sided_blocks(bundle, alpha, beta, material.mu_int, interior=True)


def _sided_blocks(bundle, alpha, beta, mu, interior):
    M21, M41, M22, M42 = m_blocks(bundle)
    n = bundle.n
    ninv0 = np.zeros(n + 1)
    ninv0[1:] = 1.0 / np.arange(1, n + 1)
    kill0 = np.ones(n + 1)
    kill0[0] = 0.0  # drops the index-0 row or column
    # the exterior side also drops row 0 of the negative-mode blocks
    rows41 = np.ones(n + 1) if interior else kill0
    # gamma^{-m}/m and gamma^{m}/m, index-0 entry zero
    ngm1 = ninv0 * bundle.gamma_pow(-1)
    ng1 = ninv0 * bundle.gamma_pow(1)
    gm2 = bundle.gamma_pow(-2)
    C = bundle.grunsky
    Cb = np.conj(C)

    S = [[None] * 4 for _ in range(4)]
    S[0][0] = np.diag(-alpha * ngm1)
    S[1][0] = beta * kill0[:, None] * M21 * kill0
    S[2][0] = -alpha * ngm1[:, None] * Cb * gm2
    S[0][1] = -alpha * ngm1[:, None] * C
    S[1][1] = beta * kill0[:, None] * M22
    S[2][1] = np.diag(-alpha * ng1)
    if interior:
        # the mode-0 interior density produces a genuine constant displacement
        S[2][1][0, 0] += 2.0 * alpha * np.log(bundle.gamma) - beta
    S[3][0] = beta * rows41[:, None] * M41 * kill0
    S[3][1] = beta * rows41[:, None] * M42
    S[0][2] = np.diag((-mu * beta if interior else mu * alpha) * ngm1)
    S[3][2] = -mu * beta * rows41[:, None] * M41 * kill0
    S[3][3] = -mu * beta * rows41[:, None] * M42 * kill0
    S[1][2] = -mu * beta * kill0[:, None] * M21 * kill0
    S[2][2] = mu * alpha * ngm1[:, None] * Cb * gm2
    S[0][3] = -mu * beta * ngm1[:, None] * C
    S[1][3] = -mu * beta * kill0[:, None] * M22 * kill0
    S[2][3] = np.diag((mu * alpha if interior else -mu * beta) * ng1)
    return S


@dataclass(frozen=True)
class BlockSystem:
    """Assembled block matrix, right-hand side and context."""

    blocks: np.ndarray        # (R, Q, n+1, n+1): block rows x block columns
    rhs: RhsVector
    rhs_row: np.ndarray       # length Q(n+1), the 1xQ block row h
    n: int
    mode: str                 # "transmission" | "cavity"
    material: MaterialPair
    bundle: GeometryBundle

    @property
    def block_dim(self) -> int:
        return self.n + 1

    def full_matrix(self) -> np.ndarray:
        R, Q, d, _ = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(R * d, Q * d)

    def residual_row(self, x_row: np.ndarray) -> np.ndarray:
        """x E + 2h over every block column."""
        return x_row @ self.full_matrix() + 2.0 * self.rhs_row


def assemble_system(material: MaterialPair, bundle: GeometryBundle, spec: LoadingSpec,
                    mode: str | None = None) -> BlockSystem:
    """Assemble the full block system (8x8 blocks, or 4x4 for a cavity)."""
    if mode is None:
        mode = "cavity" if material.cavity else "transmission"
    if (mode == "cavity") != material.cavity:
        raise AssemblyError(f"mode {mode!r} conflicts with the material pair")
    d = bundle.n + 1
    rhs = rhs_vectors(material, bundle, spec)
    S = exterior_blocks(material, bundle)

    if mode == "transmission":
        St = interior_blocks(material, bundle)
        pairs = [(S[0], S[1], 1.0), (S[2], S[3], 1.0), (St[0], St[1], -1.0), (St[2], St[3], -1.0)]
        cols = range(4)
        rhs_row = rhs.block_row()
    else:
        pairs = [(S[0], S[1], 1.0), (S[2], S[3], 1.0)]
        cols = range(2, 4)
        rhs_row = rhs.block_row_cavity()

    R = 2 * len(pairs)
    Q = 2 * len(list(cols))
    blocks = np.zeros((R, Q, d, d), dtype=complex)
    for p, (Fa, Fb, sign) in enumerate(pairs):
        for q, c in enumerate(cols):
            blocks[2 * p, 2 * q] = sign * Fa[c]
            blocks[2 * p, 2 * q + 1] = sign * np.conj(Fb[c])
            blocks[2 * p + 1, 2 * q] = sign * Fb[c]
            blocks[2 * p + 1, 2 * q + 1] = sign * np.conj(Fa[c])
    return BlockSystem(blocks=blocks, rhs=rhs, rhs_row=rhs_row, n=bundle.n, mode=mode,
                       material=material, bundle=bundle)


@dataclass(frozen=True)
class DensitySolution:
    """Solved density mode coefficients with solve diagnostics.

    xe_plus[m] multiplies the exterior mode-m density, xe_minus[m] the
    exterior mode-(-m) density; xi_plus/xi_minus likewise for the interior
    (None in cavity mode, where there is no interior density). Entry 0 of
    xe_plus, xe_minus and xi_plus is structurally zero; xi_minus[0] is the
    interior mode-0 coefficient.
    """

    xe_plus: np.ndarray
    xe_minus: np.ndarray
    xi_plus: np.ndarray | None
    xi_minus: np.ndarray | None
    residual: float
    rank: int
    null_dim: int
    sv_smallest_kept: float
    sv_largest_dropped: float
    rotation_projection: float
    converged: bool
    n: int
    mode: str

    def block_row(self) -> np.ndarray:
        """The solution in the 1xR block layout matching the assembled system."""
        parts = [self.xe_plus, self.xe_minus]
        if self.mode == "transmission":
            parts += [self.xi_plus, self.xi_minus]
        out = []
        for u in parts:
            out.extend([u, np.conj(u)])
        return np.concatenate(out)


def solve(system: BlockSystem,
          residual_threshold: float = DEFAULT_RESIDUAL_THRESHOLD) -> DensitySolution:
    """Least-squares solve of the truncated block system.

    Conjugated unknown blocks are eliminated by splitting the independent
    blocks into real and imaginary parts, so the conjugate pairing holds
    exactly; the minimum-norm solution zeroes the structural kernel.
    """
    blocks = system.blocks
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
        rhs_c = -2.0 * system.rhs_row[c * d : (c + 1) * d]
        b[r0 : r0 + d] = rhs_c.real
        b[r0 + d : r0 + 2 * d] = rhs_c.imag

    sol, _, rank, sv = np.linalg.lstsq(G, b, rcond=None)
    u = (sol[: P * d] + 1j * sol[P * d :]).reshape(P, d)

    if system.mode == "transmission":
        xe_plus, xe_minus, xi_plus, xi_minus = u
    else:
        xe_plus, xe_minus = u
        xi_plus = xi_minus = None

    null_dim = G.shape[1] - rank
    sv_kept = float(sv[rank - 1]) if rank > 0 else 0.0
    sv_dropped = float(sv[rank]) if rank < sv.size else 0.0

    x_row = np.concatenate([np.stack([ui, np.conj(ui)]).reshape(-1) for ui in u])
    res_vec = system.residual_row(x_row.reshape(-1))
    scale = np.linalg.norm(2.0 * system.rhs_row)
    residual = float(np.linalg.norm(res_vec) / scale) if scale > 0 else 0.0

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
        rank=int(rank),
        null_dim=int(null_dim),
        sv_smallest_kept=sv_kept,
        sv_largest_dropped=sv_dropped,
        rotation_projection=rotation_projection,
        converged=residual <= residual_threshold,
        n=system.n,
        mode=system.mode,
    )


def cavity_mode_matrix(material: MaterialPair, bundle: GeometryBundle, m: int) -> np.ndarray:
    """The per-mode 4x4 coefficient matrix of the cavity system.

    Rows are the four scalar equations of boundary power m (traction series,
    plain and conjugated, positive and negative side), columns the unknowns
    (xe_plus[m], conj xe_plus[m], xe_minus[m], conj xe_minus[m]); the whole
    matrix is scaled by -1/mu so entries are material ratios.
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
    return -(E0.T) / material.mu_ext
