"""Independent reference solver on the physical boundary curve.

Everything else in the package works in coefficient space. This module
solves the same transmission problem a second, unrelated way: a Nystrom
discretization of the real boundary integral equations with the Kelvin
(elastostatic fundamental solution) kernel,

    interior_layer[phi] - exterior_layer[psi] = loading      (displacement)
    conormal(interior_layer[phi])|- - conormal(exterior_layer[psi])|+
                                       = conormal(loading)   (traction)

with the exterior density constrained to be orthogonal to the three rigid
motions. Quadrature on the equispaced-in-angle nodes splits each kernel
into a smooth part (plain periodic trapezoid), a log part (spectrally
exact weights for the periodic log kernel), and an odd principal-value
part (spectrally exact weights for the half-cotangent kernel, whose
diagonal vanishes by odd symmetry); diagonal entries of the smooth parts
are local Taylor limits involving the curve's second derivative. The
weights depend on the node angles only through t_i - t_j, so each weight
matrix is a read-only circulant view of one generating column, built per
call by one inverse real FFT of its mode coefficients; so are the angle
factors |sin((t_i - t_j)/2)| and cot((t_i - t_j)/2), whose columns are
evaluated at the signed difference reduced to [-q/2, q/2).

Assembly computes the q x q factors that every block shares once per mesh
(_chord_frames: the chord products, the log part and the conormal's smooth
and odd kernels). Each material- and sign-scaled block is then written
straight into the bordered matrix by in-place passes over these factors,
and the +-1/2 jump goes on the diagonal alone.

The rigid-motion constraints border the discretized equations, with one
Lagrange multiplier each, into a square system solved by one LU
factorization. Its 1-norm condition estimate (system.one_norm_condition,
the Hager-Higham estimator behind LAPACK's gecon) is a separate call on
NystromSystem.matrix, made where the estimate is reported.

Agreement between this solver and the coefficient-space route is the
package's main end-to-end correctness check. The solver is a desk-scale
instrument (node counts up to 512), not a performance target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import FieldEvaluator
from .geometry import ConformalMap, eval_map, map_jet, pow2_floor
from .loading import LoadingSeries, LoadingSpec, eval_loading
from .materials import MaterialPair

MIN_NODES = 8
MAX_DESK_NODES = 512
OFFSET_RATIO = 1.5


class OracleError(ValueError):
    """Invalid mesh data or an ill-posed reference solve."""


def check_node_count(q: int) -> None:
    """Raise OracleError unless q is a node count the reference solver accepts."""
    if q % 2 != 0 or q < MIN_NODES:
        raise OracleError(f"node count must be even and >= {MIN_NODES}, got {q}")
    if q > MAX_DESK_NODES:
        raise OracleError(f"reference solver is desk scale only: q <= {MAX_DESK_NODES}, got {q}")


@dataclass(frozen=True, eq=False)
class BoundaryMesh:
    """Equispaced-in-angle quadrature nodes on the boundary curve.

    theta holds the q node angles, z the boundary points, h the arclength
    scale factors (dsigma = h dtheta), normal the outward unit normals as
    complex numbers, zprime/zsecond the first and second derivatives of
    the curve parametrization theta -> Psi(gamma e^{i theta}).
    """

    cmap: ConformalMap
    q: int
    theta: np.ndarray
    z: np.ndarray
    h: np.ndarray
    normal: np.ndarray
    zprime: np.ndarray
    zsecond: np.ndarray

    def __post_init__(self) -> None:
        check_node_count(self.q)
        if np.min(np.abs(np.roll(self.z, -1) - self.z)) <= 1e-12 * np.max(np.abs(self.z)):
            raise OracleError("mesh nodes are not distinct")
        if np.max(np.abs(np.abs(self.normal) - 1.0)) > 1e-12:
            raise OracleError("normals are not unit length")
        # on z divided by the power of two at or below gamma (exact), the
        # cross products neither underflow at a tiny radius nor overflow at
        # a huge one
        zs = self.z / pow2_floor(self.cmap.gamma)
        x, y = zs.real, zs.imag
        signed_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if signed_area <= 0.0:
            raise OracleError("boundary polygon is not positively oriented")

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid arclength weights h_j * (2 pi / q)."""
        return self.h * (2.0 * np.pi / self.q)


def build_mesh(cmap: ConformalMap, q: int) -> BoundaryMesh:
    """Boundary mesh with q equispaced angles on |w| = gamma.

    Psi, Psi' and Psi'' at the nodes come from one Horner pass (map_jet).
    The second derivative is grouped as -w Psi' - w (w Psi''): w Psi'' is of
    order 1 and w^2 alone is not, so nothing overflows or underflows at
    any radius.
    """
    theta = 2.0 * np.pi * np.arange(q) / q
    w = cmap.gamma * np.exp(1j * theta)
    z, dpsi, d2psi = map_jet(cmap, w, 2)
    zprime = 1j * w * dpsi
    zsecond = -w * dpsi - w * (w * d2psi)
    h = np.abs(zprime)
    normal = w * dpsi / h
    return BoundaryMesh(cmap, q, theta, z, h, normal, zprime, zsecond)


# -- kernels ------------------------------------------------------------------


def _circulant(column: np.ndarray) -> np.ndarray:
    """Read-only q x q view whose (i, j) entry is column[(i - j) mod q].

    Row i is a window of one (2q - 1)-vector (the column reversed, then
    again without its last entry), so the matrix costs O(q) memory.
    """
    q = column.size
    doubled = np.concatenate((column[::-1], column[:0:-1]))
    return sliding_window_view(doubled, q)[::-1]


def log_weights(q: int) -> np.ndarray:
    """Quadrature weights for the periodic kernel log(4 sin^2((t-s)/2)).

    Spectrally exact on trigonometric polynomials of degree below q/2;
    applied to the smooth factor sampled at the nodes. The weights depend
    on t_i - t_j only, so the matrix is a read-only circulant view of one
    generating column, -(4 pi / q) sum_{m < q/2} cos(m t_k) / m
    - (4 pi / q^2) (-1)^k: one inverse real FFT of the coefficients 1/m,
    m = 1 .. q/2.
    """
    c = np.zeros(q // 2 + 1)
    c[1:] = 1.0 / np.arange(1, q // 2 + 1)
    return _circulant(-2.0 * np.pi * np.fft.irfft(c, q))


def hilbert_weights(q: int) -> np.ndarray:
    """Quadrature weights for the principal-value kernel cot((s-t)/2).

    Spectrally exact on trigonometric polynomials of degree below q/2;
    the diagonal weight is zero (odd symmetry about the singularity).
    A read-only circulant view like the log weights, of the column
    -(4 pi / q) sum_{m < q/2} sin(m t_k): one inverse real FFT of the
    coefficients -i, m = 1 .. q/2 - 1.
    """
    c = np.zeros(q // 2 + 1, dtype=complex)
    c[1 : q // 2] = -1j
    return _circulant(-2.0 * np.pi * np.fft.irfft(c, q))


def _half_angle_columns(q: int) -> tuple[np.ndarray, np.ndarray]:
    """|sin((t_i - t_j)/2)| and cot((t_i - t_j)/2) / 2 as circulant columns.

    Entry k is taken at the signed difference s = i - j reduced to
    [-q/2, q/2), half angle pi s / q: next to the diagonal the angle is
    small and exact to rounding, where pi k / q near pi would lose digits
    in the sine. Entry 0 (the diagonal) is 0 in both columns.
    """
    s = (np.arange(q) + q // 2) % q - q // 2
    half = (np.pi / q) * s
    tan_half = np.tan(half)
    tan_half[0] = 1.0
    half_cot = 0.5 / tan_half
    half_cot[0] = 0.0
    return np.abs(np.sin(half)), half_cot


@dataclass(frozen=True, eq=False)
class _ChordFrames:
    """Geometry-only q x q factors that every kernel block on one mesh shares.

    With chord d = z_i - z_j, r = |d|, unit chord (e1, e2) = d / r (the
    unit tangent on the diagonal) and htrap = 2 pi / q:

        e11, e12, e22   e1 e1, e1 e2, e2 e2
        log_part        0.5 log_weights + htrap log(r / 2|sin((t_i - t_j)/2)|),
                        with log h_i in place of the log on the diagonal
        smooth          htrap h_j Re(n_i / d), 0.5 htrap Im(z''/z') on the diagonal
        odd             0.5 hilbert_weights + htrap (h_j Im(n_i / d) + cot((t_i - t_j)/2) / 2),
                        0.5 htrap Re(z''/z') on the diagonal

    log_part times h_j is the log kernel of the single layer; smooth and
    odd are the conormal kernel's smooth part and its principal-value part.
    """

    e11: np.ndarray
    e12: np.ndarray
    e22: np.ndarray
    log_part: np.ndarray
    smooth: np.ndarray
    odd: np.ndarray


def _chord_frames(mesh: BoundaryMesh) -> _ChordFrames:
    """The shared factors, computed once per mesh with in-place passes.

    The angle factors come from _half_angle_columns as circulant views, so
    log_part and odd each add one circulant view to the chord-dependent
    term. Every diagonal is set before any division by it.
    """
    z, h, q = mesh.z, mesh.h, mesh.q
    htrap = 2.0 * np.pi / q
    diag = np.diag_indices(q)
    abs_sin, half_cot = _half_angle_columns(q)
    circle_chord = 2.0 * abs_sin
    circle_chord[0] = 1.0

    d = z[:, None] - z[None, :]
    d[diag] = 1.0
    r = np.abs(d)
    e11 = d.real / r  # the unit chord's components, squared in place below
    e22 = d.imag / r
    tau = mesh.zprime / h
    e11[diag] = tau.real
    e22[diag] = tau.imag
    e12 = e11 * e22
    e11 *= e11
    e22 *= e22

    log_part = r
    log_part[diag] = h
    log_part /= _circulant(circle_chord)
    np.log(log_part, out=log_part)
    log_part *= htrap
    log_part += _circulant(0.5 * log_weights(q)[:, 0])

    curv = (0.5 * htrap) * (mesh.zsecond / mesh.zprime)
    n_over_d = np.divide(mesh.normal[:, None], d, out=d)
    smooth = np.multiply(n_over_d.real, htrap * h)
    smooth[diag] = curv.imag
    odd = np.multiply(n_over_d.imag, htrap * h)
    odd += _circulant(0.5 * hilbert_weights(q)[:, 0] + htrap * half_cot)
    odd[diag] = curv.real
    return _ChordFrames(e11, e12, e22, log_part, smooth, odd)


def _write_single_layer(out: np.ndarray, frames: _ChordFrames, h: np.ndarray,
                        alpha: float, beta: float, factor: float) -> None:
    """Write factor times the (2q, 2q) single-layer trace matrix into the view out.

    Block (a, b) is (alpha / 2 pi) h_j (delta_ab log_part + ratio e_ab),
    ratio = -beta htrap / alpha, formed in out itself with no temporary;
    the two off-diagonal blocks are equal.
    """
    q = h.size
    htrap = 2.0 * np.pi / q
    ratio = -beta * htrap / alpha
    scale = (factor * alpha / (2.0 * np.pi)) * h
    for blk, chord in ((out[:q, :q], frames.e11), (out[q:, q:], frames.e22)):
        np.multiply(chord, ratio, out=blk)
        blk += frames.log_part
        blk *= scale
    np.multiply(frames.e12, ratio * scale, out=out[:q, q:])
    out[q:, :q] = out[:q, q:]


def _write_conormal(out: np.ndarray, frames: _ChordFrames, lam: float, mu: float,
                    jump_sign: float, sign: float) -> None:
    """Write sign times the (2q, 2q) one-sided conormal trace matrix into out.

    Block (a, a) is (c1 + c2 e_aa) smooth / 2 pi and block (1, 2), (2, 1) is
    (c2 e12 smooth +- c1 odd) / 2 pi, formed in out itself with no temporary.
    jump_sign +1 gives the trace from outside, -1 from inside; the
    principal-value part is the same on both sides, and the jump
    jump_sign / 2 goes on the diagonal alone.
    """
    q = frames.e11.shape[0]
    c1 = mu / (lam + 2.0 * mu)
    c2 = 2.0 * (lam + mu) / (lam + 2.0 * mu)
    pref = sign / (2.0 * np.pi)
    for blk, chord in ((out[:q, :q], frames.e11), (out[q:, q:], frames.e22)):
        np.multiply(chord, pref * c2, out=blk)
        blk += pref * c1
        blk *= frames.smooth
    for blk, odd_sign in ((out[:q, q:], 1.0), (out[q:, :q], -1.0)):
        np.multiply(frames.e12, odd_sign * c2 / c1, out=blk)
        blk *= frames.smooth
        blk += frames.odd
        blk *= odd_sign * pref * c1
    idx = np.arange(2 * q)
    out[idx, idx] += sign * jump_sign * 0.5


def _single_layer_apply(frames: _ChordFrames, h: np.ndarray, alpha: float, beta: float,
                        density: np.ndarray) -> np.ndarray:
    """The single-layer trace of a (2q,) component density, by q x q products.

    The same sums as _write_single_layer's blocks, without forming them.
    """
    q = h.size
    htrap = 2.0 * np.pi / q
    v = (h * density.reshape(2, q)).T
    log_v = frames.log_part @ v
    cross = frames.e12 @ v
    ratio = -beta * htrap / alpha
    u1 = log_v[:, 0] + ratio * (frames.e11 @ v[:, 0] + cross[:, 1])
    u2 = log_v[:, 1] + ratio * (cross[:, 0] + frames.e22 @ v[:, 1])
    return (alpha / (2.0 * np.pi)) * np.concatenate((u1, u2))


# -- density plumbing ---------------------------------------------------------


def _components(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    return np.concatenate([values.real, values.imag])


def _complexify(components: np.ndarray) -> np.ndarray:
    q = components.size // 2
    return components[:q] + 1j * components[q:]


def rigid_fields(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """The two translations and the rotation, as complex fields at points z."""
    z = np.asarray(z, dtype=complex)
    ones = np.ones_like(z)
    return ones, 1j * ones, -1j * z


# -- loading data on the mesh -------------------------------------------------


def loading_conormal(loading: LoadingSpec, mesh: BoundaryMesh,
                     material: MaterialPair) -> np.ndarray:
    """Conormal derivative of the background loading at the mesh nodes.

    With F = f + z conj(f') + conj(g) the traction on the curve is
    -(2 i mu / h) dF/dt, for the counterclockwise parametrization and the
    outward normal (checked against the componentwise definition
    lambda (div u) n + mu (grad u + grad u^T) n on explicit fields). f',
    f'' and g' at the nodes come from loading.LoadingSeries, the Faber
    recurrence the series side sums the loading with.
    """
    df, dg, d2f = LoadingSeries(loading, mesh.cmap).derivatives(mesh.z)
    z, zp = mesh.z, mesh.zprime
    tangential = 2.0 * zp * np.real(df) + np.conj(zp) * (z * np.conj(d2f) + np.conj(dg))
    return -(2.0j * material.mu_ext / mesh.h) * tangential


# -- system assembly and solve ------------------------------------------------


@dataclass(frozen=True, eq=False)
class NystromSystem:
    """Dense real Nystrom system bordered by the rigid-motion constraints.

    For a transmission pair the N = 4q unknowns are the stacked
    [phi_1, phi_2, psi_1, psi_2] (component-major nodal values); for a
    cavity N = 2q over psi alone. matrix is the square (N+3, N+3)

        K = [[M, C^T],
             [C, 0  ]]

    with M the Nystrom discretization and C the three unit-norm rows that
    make psi orthogonal to the rigid motions; constraints is the view
    K[N:, :N]. The three trailing unknowns are Lagrange multipliers, zero
    up to discretization error when the discrete equations are consistent.
    loading_nodes is the loading displacement at the mesh nodes, which
    the boundary displacement adds to the layer. frames are the shared
    q x q factors of the assembly (_chord_frames), kept for a cavity only:
    its boundary displacement needs the single layer, which K lacks, and
    solve_nystrom applies it by q x q matrix-vector products with them.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    constraints: np.ndarray
    mesh: BoundaryMesh
    material: MaterialPair
    loading_nodes: np.ndarray
    frames: _ChordFrames | None = None


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """Solved nodal densities and boundary displacement.

    psi and phi hold the complex nodal densities psi_1 + i psi_2 of the
    exterior and interior layers (phi is None for a cavity); u_boundary is
    the complex boundary displacement taken from the exterior
    representation. residual_norm is the one check of the solve: its
    constraint rows are psi's normalised rigid moments, and in transmission
    its displacement rows are the interior minus the exterior trace at the
    nodes.
    """

    psi: np.ndarray
    phi: np.ndarray | None
    u_boundary: np.ndarray
    mesh: BoundaryMesh
    residual_norm: float


def assemble_nystrom(mesh: BoundaryMesh, material: MaterialPair,
                     loading: LoadingSpec) -> NystromSystem:
    """Discretize the boundary integral equations into the bordered matrix.

    Transmission: displacement rows equate the interior layer to the
    exterior layer plus the loading; traction rows do the same for the
    one-sided conormal derivatives. Displacements scale as gamma and
    traction potentials as 1, so the displacement rows and their
    right-hand side are divided by gamma: the matrix's conditioning is then
    that of the unit-radius problem at every scale. Cavity: the exterior
    conormal rows alone, with a traction-free boundary. The blocks are written into the
    (N+3, N+3) matrix in place, bordered by the constraint rows and their
    transpose.
    """
    q, h = mesh.q, mesh.h
    frames = _chord_frames(mesh)
    h_nodes = eval_loading(loading, mesh.cmap, material, mesh.z)
    dh_nodes = loading_conormal(loading, mesh, material)
    lam, mu = material.lam_ext, material.mu_ext

    if material.has_interior:
        n = 4 * q
        matrix = np.zeros((n + 3, n + 3))
        alpha_t, beta_t = material.interior_constants()[:2]
        inv_gamma = 1.0 / mesh.cmap.gamma  # the displacement rows' scale
        _write_single_layer(matrix[: 2 * q, : 2 * q], frames, h, alpha_t, beta_t, inv_gamma)
        _write_single_layer(matrix[: 2 * q, 2 * q : n], frames, h, material.alpha, material.beta,
                            -inv_gamma)
        _write_conormal(matrix[2 * q : n, : 2 * q], frames,
                        material.lam_int, material.mu_int, -1.0, 1.0)
        _write_conormal(matrix[2 * q : n, 2 * q : n], frames, lam, mu, 1.0, -1.0)
        rhs = np.concatenate([_components(h_nodes) * inv_gamma, _components(dh_nodes)])
    else:
        n = 2 * q
        matrix = np.zeros((n + 3, n + 3))
        _write_conormal(matrix[:n, :n], frames, lam, mu, 1.0, 1.0)
        rhs = -_components(dh_nodes)

    constraints = matrix[n:, :n]
    # the rows are built from the weights and the nodes divided by the power
    # of two at or below gamma, so the rotation row, which scales as
    # gamma^2, neither overflows nor underflows; dividing each row by the
    # power of two at or below its max, both exact, keeps its norm in range
    scale = pow2_floor(mesh.cmap.gamma)
    wq = mesh.weights / scale
    for row, r in zip(constraints, rigid_fields(mesh.z / scale)):
        row[n - 2 * q : n - q] = wq * r.real
        row[n - q :] = wq * r.imag
        row /= pow2_floor(np.max(np.abs(row)))
        row /= np.linalg.norm(row)
    matrix[:n, n:] = constraints.T
    return NystromSystem(matrix, rhs, constraints, mesh, material, h_nodes,
                         None if material.has_interior else frames)


def solve_nystrom(system: NystromSystem) -> OracleSolution:
    """LU solve of the bordered system: one factorization.

    A singular K raises OracleError. The residual is that of the unbordered
    equations and the constraint rows, ||K [sol, 0] - [rhs, 0]||, without
    the multipliers. The condition estimate is one_norm_condition of
    system.matrix, computed apart by whoever reports it.
    """
    matrix, mesh = system.matrix, system.mesh
    q, size = mesh.q, matrix.shape[0]
    n = size - 3
    rhs = np.zeros(size)
    rhs[:n] = system.rhs
    try:
        sol = np.linalg.solve(matrix, rhs)[:n]
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular reference system ({size}x{size} bordered matrix)") from exc
    gap = matrix[:, :n] @ sol - rhs
    unit = pow2_floor(np.max(np.abs(gap)))  # exact; the squares neither overflow nor underflow
    residual = float(np.linalg.norm(gap / unit) * unit)

    psi, phi = sol[n - 2 * q :], None
    material = system.material
    if material.has_interior:
        layer = mesh.cmap.gamma * (matrix[: 2 * q, 2 * q : n] @ psi)
        u_ext = system.loading_nodes - _complexify(layer)
        phi = _complexify(sol[: 2 * q])
    else:
        layer = _single_layer_apply(system.frames, mesh.h, material.alpha, material.beta, psi)
        u_ext = system.loading_nodes + _complexify(layer)
    return OracleSolution(psi=_complexify(psi), phi=phi, u_boundary=u_ext, mesh=mesh,
                          residual_norm=residual)


def solve_oracle(cmap: ConformalMap, material: MaterialPair, loading: LoadingSpec,
                 q: int) -> OracleSolution:
    """Mesh, assemble, and solve in one call."""
    mesh = build_mesh(cmap, q)
    return solve_nystrom(assemble_nystrom(mesh, material, loading))


# -- off-boundary evaluation --------------------------------------------------


def single_layer_potential(mesh: BoundaryMesh, density: np.ndarray,
                           alpha: float, beta: float, z) -> np.ndarray:
    """Single-layer displacement at points away from the boundary.

    alpha and beta are the kernel constants of the layer's material
    (MaterialPair.alpha, .beta, or the first two of interior_constants()).
    Plain trapezoid sum over the nodes; spectrally accurate at points
    whose distance from the curve is comparable to the node spacing or
    larger, inaccurate very close to it.
    """
    values = np.asarray(density, dtype=complex)
    z = np.asarray(z, dtype=complex)
    d = z[:, None] - mesh.z[None, :]
    r = np.abs(d)
    if np.min(r) == 0.0:
        raise OracleError("potential evaluated on a mesh node")
    e1 = d.real / r
    e2 = d.imag / r
    wq = mesh.weights[None, :]
    log_part = (alpha / (2.0 * np.pi)) * np.log(r) * wq
    dot = e1 * values.real[None, :] + e2 * values.imag[None, :]
    ee = (beta / (2.0 * np.pi)) * wq * dot
    u1 = np.sum(log_part * values.real[None, :] - ee * e1, axis=1)
    u2 = np.sum(log_part * values.imag[None, :] - ee * e2, axis=1)
    return u1 + 1j * u2


def eval_oracle_exterior(solution: OracleSolution, material: MaterialPair,
                         loading: LoadingSpec, z) -> np.ndarray:
    """Oracle displacement at exterior points: loading plus exterior layer."""
    z = np.asarray(z, dtype=complex)
    layer = single_layer_potential(solution.mesh, solution.psi, material.alpha, material.beta, z)
    return eval_loading(loading, solution.mesh.cmap, material, z) + layer


# -- comparison against the coefficient-space route ---------------------------


def discrepancy(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Max and root-mean-square absolute difference of two sample sets.

    The rms is taken of the differences divided by the power of two at or
    below their max, then multiplied back: exact, and the squares neither
    overflow nor underflow.
    """
    diff = np.abs(np.asarray(a) - np.asarray(b))
    top = np.max(diff)
    unit = pow2_floor(top)
    return float(top), float(np.sqrt(np.mean((diff / unit) ** 2)) * unit)


@dataclass(frozen=True)
class ComparisonReport:
    """Agreement between the reference solve and the coefficient-space solve."""

    boundary_max: float
    boundary_rms: float
    exterior_max: float
    exterior_rms: float
    q: int
    n_points: int

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("boundary_max", self.boundary_max),
            ("boundary_rms", self.boundary_rms),
            ("exterior_max", self.exterior_max),
            ("exterior_rms", self.exterior_rms),
        ]


def compare(oracle: OracleSolution, series, cmap: ConformalMap, material: MaterialPair,
            loading: LoadingSpec, n_points: int = 64) -> ComparisonReport:
    """Boundary and offset-circle discrepancies between the two routes.

    Boundary displacement is compared at the mesh nodes, the series side
    evaluated on the boundary |w| = gamma at the mesh angles; the exterior
    field is compared at n_points on |w| = OFFSET_RATIO * gamma.
    """
    evaluator = FieldEvaluator(series, loading, cmap, material)
    gamma = cmap.gamma

    w_bdry = gamma * np.exp(1j * oracle.mesh.theta)
    u_series_bdry = evaluator.exterior_arrays(w_bdry)["u"]
    boundary_max, boundary_rms = discrepancy(u_series_bdry, oracle.u_boundary)

    phi = 2.0 * np.pi * np.arange(n_points) / n_points
    w_out = OFFSET_RATIO * gamma * np.exp(1j * phi)
    u_series_out = evaluator.exterior_arrays(w_out)["u"]
    z_out = eval_map(cmap, w_out)
    u_oracle_out = eval_oracle_exterior(oracle, material, loading, z_out)
    exterior_max, exterior_rms = discrepancy(u_series_out, u_oracle_out)

    return ComparisonReport(
        boundary_max=boundary_max,
        boundary_rms=boundary_rms,
        exterior_max=exterior_max,
        exterior_rms=exterior_rms,
        q=oracle.mesh.q,
        n_points=n_points,
    )

