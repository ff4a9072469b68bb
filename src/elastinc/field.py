"""Displacement-field evaluation from solved density coefficients.

Outside the inclusion the displacement is the loading plus the layer
contribution; inside it is the interior layer contribution alone. Both are
driven by a pair of holomorphic functions (f, g):

    u = loading_part + (kappa f - z conj(f') - conj(g) - mean_term) / 2.

Sums over the map-adapted (Faber) polynomials in z, the loading's and the
interior layer terms', run the Faber recurrence on the point values
(geometry.faber_series), so no monomial coefficients are formed; a sum of
derivatives F_m' is the value sum of its row times the derivative matrix
Dt, since F_m' = sum_j Dt[m, j] F_j exactly. The layer
terms shift their densities to the conjugate coordinate by one convolution
with the map coefficients. Outside, the layer terms decay, and for a
Laurent-polynomial map of depth K they are finite Laurent series in 1/w:
F_m(Psi(w)) = w^m + sum_{k <= mK} c_mk w^-k, whose w^m cancels against the
density's explicit powers. Their coefficients are built once, exactly, from
the map's kept Grunsky table and summed at every |w| >= gamma by
loading.boundary_series.
Interior evaluation uses the Faber sums alone, valid throughout the
inclusion. On the boundary circle itself every one of these sums is a
Laurent polynomial in w, so the interface residuals take them at
equispaced angles by one inverse FFT (FieldEvaluator._ring_arrays).
The tables stay exact; evaluation reads each one cut after its last
column of more than rounding mass (_cut), so a decaying series costs as
many columns as it has digits.

A solved problem is a fixed set of these tables, so its evaluator is built
once: FieldEvaluator(solution, loading, cmap, material) returns the one kept
on the solution for those objects, and the grid, compare and both residuals
go through it, each table built on its first use.

On a grid of physical points, one sweep of the sampled boundary over the
grid's row heights gives both region masks, interior by the even-odd rule
and the boundary band by segment distance (_grid_regions; _regions is the
same sweep over scattered points). The sampled boundary belongs to the map
and is kept on it (_Polyline.of). Exterior points are inverted by
Newton's method, with Psi and Psi' taken in one Horner pass per iteration
(geometry.map_jet, in invert_map). On a map of depth one the seed
w = zeta (1 + sqrt(1 - 4 a1 / zeta^2)) / 2, zeta = z - a0, is its exact
inverse; a deeper map starts from the first-order inverse zeta - a1 / zeta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    SINGULAR_DERIVATIVE_TOL,
    ConformalMap,
    GeometryError,
    eval_map,
    exterior_series_orders,
    faber_derivative_matrices,
    faber_series,
    grunsky_rows,
    map_jet,
    pow2_floor,
    sweep_pairs,
)
from .loading import LoadingSeries, LoadingSpec, boundary_series
from .materials import MaterialPair
from .system import DensitySolution

DEFAULT_BOUNDARY_BAND = 1e-3
NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-13
REGION_SAMPLES = 2048
# a series is cut where its remaining columns sum to at most this many eps
# of its row's largest entry (_cut)
SERIES_CUT = 1.0
_REGIONS = ("exterior", "interior")  # indexed by the interior flag


class FieldError(ValueError):
    """Field evaluation was asked for something the solution cannot provide."""


@dataclass(frozen=True)
class FieldSample:
    """One evaluated displacement value.

    w is the preimage coordinate (NaN when the point was given in the
    physical plane and no preimage is available), z the physical point and
    u the complex displacement u1 + i u2. f, fprime, g are the values of
    the total holomorphic pair and its derivative at z, so that the
    traction potential can be formed later.
    """

    w: complex
    z: complex
    u: complex
    region: str
    f: complex
    fprime: complex
    g: complex
    near_boundary: bool = False

    def __post_init__(self) -> None:
        if self.region not in ("exterior", "interior"):
            raise FieldError(f"unknown region {self.region!r}")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned rectangular grid in the physical plane, row-major order.

    band is the boundary band of classify_points, a fraction of gamma.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int
    band: float = DEFAULT_BOUNDARY_BAND

    def points(self) -> np.ndarray:
        xs = np.linspace(self.xmin, self.xmax, self.nx)
        ys = np.linspace(self.ymin, self.ymax, self.ny)
        return (xs[None, :] + 1j * ys[:, None]).ravel()


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """A field evaluated on a grid: one array per quantity, in row-major order.

    w, z, u, f, fprime, g are complex columns with FieldSample's meanings;
    interior and near are boolean region and boundary-band flags. w is NaN
    at interior points, and u, f, fprime, g are NaN too at the interior
    points of a cavity. The grid also reads as a sequence of FieldSample
    rows.
    """

    w: np.ndarray
    z: np.ndarray
    u: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    g: np.ndarray
    interior: np.ndarray
    near: np.ndarray

    def regions(self) -> list[str]:
        """The region label of every point."""
        return [_REGIONS[inside] for inside in self.interior.tolist()]

    def __len__(self) -> int:
        return self.w.size

    def __getitem__(self, i: int) -> FieldSample:
        w, z, u, f, fp, g = (col[i].item() for col in
                             (self.w, self.z, self.u, self.f, self.fprime, self.g))
        return FieldSample(w, z, u, _REGIONS[bool(self.interior[i])], f, fp, g,
                           bool(self.near[i]))

    def __iter__(self):
        # one tolist() per column: per-element access costs far more per row
        rows = zip(self.w.tolist(), self.z.tolist(), self.u.tolist(), self.regions(),
                   self.f.tolist(), self.fprime.tolist(), self.g.tolist(), self.near.tolist())
        for w, z, u, region, f, fp, g, nb in rows:
            yield FieldSample(w, z, u, region, f, fp, g, nb)


def _cut(rows: np.ndarray, bound=1.0, least: int = 1) -> np.ndarray:
    """rows without the trailing columns that sum below rounding.

    Column m of a row multiplies a term of modulus at most bound[m] where
    the row is summed (1 for a power of 1/w at |w| >= gamma). Row by row,
    the columns from k on can go when their |entries| times bound sum to at
    most SERIES_CUT eps times the row's largest such product; the rows keep
    the widest of their kept prefixes, and at least least columns. A row's
    sum then moves by at most the mass it drops. A series that does not
    decay keeps every column, and so does a row that is not finite.
    """
    mag = np.abs(rows) * bound
    mass = mag[:, ::-1].cumsum(axis=1)  # mass[:, j]: the last j + 1 columns
    limit = SERIES_CUT * np.finfo(float).eps * mag.max(axis=1, keepdims=True)
    spare = int((mass <= limit).sum(axis=1).min())
    return rows[:, : max(mag.shape[1] - spare, least)]


class FieldEvaluator:
    """Precomputed series data for evaluating one solved configuration.

    The solution's coefficients belong to the unit-radius problem, so the
    series are built for cmap.unit and are evaluated at w / gamma
    and z / gamma; since z = gamma zeta, f and g keep their values and f'
    is divided by gamma on output. The exterior layer terms are one exact
    Laurent series in 1/w at every |w| >= gamma (tail, built on the first
    exterior evaluation, and summed as tail_cut); the interior layer terms
    are Faber sums in z (interior_rows), and the loading is summed the same
    way by a loading.LoadingSeries.

    One evaluator serves a solved problem. The constructor returns the
    evaluator kept on the solution when it was built for the same loading
    and map objects, an equal material and the solution's present
    coefficients (a solution's arrays can be changed in place), and builds
    and keeps a new one otherwise; so grid_field, compare and the residuals
    reuse one evaluator and every table it has built. The evaluator holds
    the solution's n and mode, not the solution, so the kept evaluator
    makes no reference cycle and dies with its solution.
    """

    def __new__(cls, solution: DensitySolution, loading: LoadingSpec,
                cmap: ConformalMap, material: MaterialPair):
        densities = (solution.xe_plus, solution.xe_minus, solution.xi_plus, solution.xi_minus)
        key = (loading, cmap, material, b"".join(x.tobytes() for x in densities if x is not None))
        kept = solution.__dict__.get("_evaluator")
        if kept is None or kept[0] != key:
            kept = key, super().__new__(cls)._build(solution, loading, cmap, material)
            object.__setattr__(solution, "_evaluator", kept)
        return kept[1]

    def _build(self, solution: DensitySolution, loading: LoadingSpec,
               cmap: ConformalMap, material: MaterialPair) -> "FieldEvaluator":
        self.cmap = cmap
        self.material = material
        self.n = n = solution.n
        self.mode = solution.mode
        self.gamma = cmap.gamma
        unit = cmap.unit
        self.unit = unit
        order, _ = exterior_series_orders(unit, n)
        scale = 1.0 / np.arange(1, order + 1)
        kernel = np.conj(np.concatenate([[1.0], unit.a]))  # conj(a_l), l = -1..K

        def density(plus, minus):
            """Coefficients of the powers -n..n of a density."""
            return np.concatenate([minus[:0:-1], minus[:1], plus[1:]])

        def layer(c):
            """Faber-basis coefficients -c_m / m of a layer transform, from c_1, c_2, ..."""
            out = np.zeros(order + 1, dtype=complex)
            out[1 : c.size + 1] = -c * scale[: c.size]
            return out

        xp, xm = solution.xe_plus, solution.xe_minus
        # the conjugate-coordinate multiple of the density, powers -n-1..n+K
        y = np.convolve(density(xp, xm), kernel)
        # rows (L, Lbar, Cy): L and Lbar as sums of F_m(z), Cy as a sum of F_m'(z)
        self.faber_rows = np.stack([layer(xp[1:]), layer(np.conj(xm[1:])), layer(y[n + 2 :])])
        # the w^-k terms of L and Lbar beside their Faber sums, and y_0, y_-1,
        # ..., y_-n-1 beside that of Cy; mode 0 of the exterior density is
        # never kept (system.kept_indices), so L has no log w term
        self.wneg = np.stack([-xm[1:], -np.conj(xp[1:])]) * scale[:n]
        self.yneg = y[n + 1 :: -1]
        self.load_series = LoadingSeries(loading, cmap)

        # interior polynomials (transmission mode)
        if self.mode == "transmission":
            xpi, xmi = solution.xi_plus, solution.xi_minus
            yi = np.convolve(density(xpi, xmi), kernel)
            # rows: (Li, Libar) as sums of F_m, (Ci, Cyi) as sums of F_m'
            self.faber_values_i = np.stack([layer(xpi[1:]), layer(np.conj(xmi[1:]))])
            self.faber_derivs_i = np.stack([layer(xpi[1:]), layer(yi[n + 2 :])])
            self.mean_i = xmi[0]
        return self

    @cached_property
    def interior_rows(self) -> np.ndarray:
        """Rows (Li, Libar, Ci Dt, Cyi Dt): every interior sum as a sum of F_m, cut.

        F_m' = sum_j Dt[m, j] F_j exactly, so one value recurrence serves the
        derivative sums too. The rows are cut at rounding (_cut), so the
        recurrence runs only as deep as the densities carry digits. The cut
        takes each |F_m| inside as 1: its bound, 1 + sum_k |c_mk| on the
        boundary, needs the Grunsky table, which interior evaluation does not
        build (1.4 at most on the four-term map, 1 + 0.9^m on a1 = 0.9). Built
        on the first interior evaluation, so an evaluator that never goes
        inside does not pay for Dt.
        """
        order = self.faber_derivs_i.shape[1] - 1
        slopes = self.faber_derivs_i @ faber_derivative_matrices(self.unit, order)
        return _cut(np.vstack([self.faber_values_i, slopes]))

    @cached_property
    def tail(self) -> np.ndarray:
        """Rows (f, fbar, C, q) of the exterior layer terms, Laurent series in 1/w.

        Column k of f and fbar is the w^-k coefficient of L and Lbar; C and
        q are w Psi'(w) times Cpsi and Cy, so C = -k f. Every Faber row
        stops at the order n + K, and c_mk = 0 for k > mK, so with
        max(n + 2, (n + K) K) columns the series are exact, not truncated.
        Built on the first exterior evaluation: interior evaluation never
        needs it. The Grunsky rows are a view of the table kept on the unit
        map (geometry.grunsky_rows), which build_geometry at the same
        truncation fills at this shape; an evaluator pays one matrix product
        here, not a recurrence, and the residuals read the tail of the
        evaluator kept on the solution. The table is exact; evaluation reads
        its cut, tail_cut.
        """
        n = self.n
        order, kfar = exterior_series_orders(self.unit, n)
        ks = np.arange(kfar + 1)
        tail = np.zeros((4, kfar + 1), dtype=complex)
        tail[[0, 1, 3]] = self.faber_rows @ grunsky_rows(self.unit, order, kfar)
        tail[:2, 1 : n + 1] += self.wneg
        tail[2] = -ks * tail[0]
        tail[3] *= -ks
        tail[3, : n + 2] += self.yneg
        return tail

    @cached_property
    def tail_cut(self) -> np.ndarray:
        """The tail cut at rounding (_cut): the columns exterior evaluation sums.

        At |w| >= gamma every power of 1/w is at most 1 in modulus, so each
        row's sum moves by at most the mass of its dropped columns, at most
        SERIES_CUT eps times the row's largest coefficient.
        """
        return _cut(self.tail)

    # -- exterior ----------------------------------------------------------

    def exterior_arrays(self, w: np.ndarray) -> dict:
        """Vectorized exterior evaluation at preimage points w, |w| >= gamma.

        The series extend analytically across the boundary circle, so
        points on |w| = gamma are evaluated as they stand.
        """
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) < self.gamma * (1.0 - 1e-12)):
            raise FieldError("exterior evaluation requires |w| >= gamma")
        z = eval_map(self.cmap, w)
        load = self.load_series.potentials(z)
        omega = w / self.gamma
        wdpsi = omega * map_jet(self.unit, omega, 1)[1]
        sums = boundary_series(np.zeros(1), self.tail_cut, omega)
        del omega  # fewer arrays alive at once: fresh memory is what a large call pays for
        return self._exterior(z, sums, wdpsi, load)

    def _exterior(self, z, tail_sums, wdpsi, load_sums) -> dict:
        """Exterior arrays from the tail's sums (L, Lbar, C, q), w Psi'(w) of
        the unit map and the loading's (f, g, f').

        The layer potentials are formed in the rows of tail_sums, which this
        overwrites, and the displacement starts from the loading's own,
        kappa f - z conj(f') - conj(g), summed apart as a reference solver
        sums it.
        """
        L, Lbar, C, q = tail_sums
        fH, gH, dfH = load_sums
        alpha, beta, kappa = self.material.alpha, self.material.beta, self.material.kappa
        L *= beta
        C /= wdpsi
        C *= beta
        q /= wdpsi
        q *= beta
        Lbar *= -alpha
        Lbar -= q
        u = kappa * fH
        u -= np.multiply(z, np.conjugate(dfH, out=q), out=q)
        u -= np.conjugate(gH, out=q)
        arrays = self._arrays(z, u, kappa, L, C, Lbar, q)
        arrays["f"] += fH
        arrays["fprime"] += dfH
        arrays["g"] += gH
        return arrays

    def _arrays(self, z, u, kappa, f, fp, g, spare) -> dict:
        """Add (kappa f - zeta conj(fp) - conj(g)) / 2 to the displacement u.

        f, fp and g are the layer potentials of the unit-radius problem,
        zeta = z / gamma its point; they are returned as their halves, fp
        returned to z by 1/gamma. Every array is updated in place, and
        spare, of their shape, is overwritten.
        """
        u += np.multiply(f, 0.5 * kappa, out=spare)
        half_zeta = np.divide(z, self.gamma)
        half_zeta *= 0.5
        u -= np.multiply(half_zeta, np.conjugate(fp, out=spare), out=spare)
        u -= np.multiply(np.conjugate(g, out=spare), 0.5, out=spare)
        f *= 0.5
        fp *= 0.5
        fp /= self.gamma
        g *= 0.5
        return {"z": z, "u": u, "f": f, "fprime": fp, "g": g}

    # -- the boundary ring -------------------------------------------------

    def _ring_arrays(self, count: int) -> tuple[dict, dict | None]:
        """Exterior arrays, and in transmission interior arrays, on |w| = gamma.

        The points are w_j = gamma omega^j, omega = e^(2 pi i / count),
        j = 0..count-1. There every sum the arrays need is a Laurent
        polynomial in omega: Psi and omega Psi' of the unit map, the exterior
        tail, and each Faber sum sum_m d_m F_m = sum_m d_m omega^m +
        sum_k (d C)_k omega^-k, C the kept Grunsky table, with the derivative
        sums as omega Psi' sum_m d_m F_m' = sum_m m d_m omega^m -
        sum_k k (d C)_k omega^-k. At count equispaced points a power counts
        only modulo count, so each row's powers are folded into count slots,
        exactly also when a row has more than count powers, and one inverse
        FFT sums every row at every point. The rows are cut at rounding
        first: the tail is read as tail_cut, and each Faber column is weighed
        by the largest modulus of its term on the circle. The pointwise
        formulas are those of exterior_arrays and interior_arrays_z.
        """
        unit, load = self.unit, self.load_series
        transmission = self.mode == "transmission"
        order, _ = exterior_series_orders(unit, max(self.n, load.order))
        # Faber rows: the loading's f, g, f', then the interior Li, Libar, Ci, Cyi
        d = np.zeros((3, order + 1), dtype=complex)
        d[:, : load.rows.shape[1]] = load.rows[[0, 1, 0]]
        if transmission:
            d = np.vstack([d, self.faber_values_i, self.faber_derivs_i])
        deriv = np.array([False, False, True, False, False, True, True])[: d.shape[0]]
        # cut at rounding; on |omega| = 1, where c_mk = 0 for k > mK,
        # |F_m| <= 1 + sum_k |c_mk| and |omega Psi' F_m'| <= m + sum_k k |c_mk|
        grunsky = grunsky_rows(unit, order, order * unit.depth)
        size = np.abs(grunsky)
        bound = np.where(deriv[:, None], np.arange(order + 1) + size @ np.arange(size.shape[1]),
                         1.0 + size.sum(axis=1))
        d = _cut(d, bound, least=2)
        order = d.shape[1] - 1
        tail = self.tail_cut
        kfar = max(order * unit.depth, tail.shape[1] - 1)

        # coefficients of the powers -kfar..order, padded in front so that
        # column 0 holds a power divisible by count, and behind to whole blocks
        front = -kfar % count
        zero = front + kfar
        width = -(-(zero + order + 1) // count) * count
        coeffs = np.zeros((6 + d.shape[0], width), dtype=complex)
        pos = coeffs[:, zero : zero + order + 1]
        neg = coeffs[:, front : zero + 1][:, ::-1]
        ks, b = np.arange(kfar + 1), unit.a
        pos[:2, 1] = 1.0  # Psi and omega Psi'
        neg[0, : b.size] = b
        neg[1, : b.size] = -ks[: b.size] * b
        neg[2:6, : tail.shape[1]] = tail
        neg[6:, : order * unit.depth + 1] = d @ grunsky[: order + 1, : order * unit.depth + 1]
        neg[6:][deriv] *= -ks
        d[deriv] *= np.arange(order + 1)
        pos[6:] += d
        folded = coeffs.reshape(coeffs.shape[0], -1, count).sum(axis=1)
        zeta, wdpsi, *sums = np.fft.ifft(folded, norm="forward")
        if np.any(np.abs(wdpsi) < SINGULAR_DERIVATIVE_TOL):
            raise GeometryError("map derivative vanishes at an evaluation point")
        z = self.gamma * zeta
        fH, gH, dfH = sums[4:7]
        outer = self._exterior(z, sums[:4], wdpsi, (fH, gH, dfH / wdpsi / self.gamma))
        if not transmission:
            return outer, None
        sL, sLbar, sC, sCy = sums[7:]
        return outer, self._interior(z, sL, sLbar, sC / wdpsi, sCy / wdpsi)

    # -- interior ----------------------------------------------------------

    def interior_arrays_z(self, z: np.ndarray) -> dict:
        """Vectorized interior evaluation at physical points z."""
        if self.mode != "transmission":
            raise FieldError("cavity solutions have no interior field")
        z = np.asarray(z, dtype=complex)
        sL, sLbar, sC, sCy = faber_series(self.unit, z / self.gamma, self.interior_rows)
        return self._interior(z, sL, sLbar, sC, sCy)

    def _interior(self, z, sL, sLbar, sC, sCy) -> dict:
        """Interior arrays from the Faber sums (Li, Libar) and derivative sums (Ci, Cyi).

        The layer potentials are formed in the sums' arrays, which this
        overwrites; the displacement starts from the constant of the mode-0
        density.
        """
        at, bt, kt = self.material.interior_constants()
        sL *= bt
        sC *= bt
        sCy *= bt
        sLbar *= -at
        sLbar -= sCy
        u = np.full_like(z, -0.5 * (bt * self.mean_i))
        return self._arrays(z, u, kt, sL, sC, sLbar, sCy)

    def interior_arrays(self, w: np.ndarray) -> dict:
        """Interior evaluation at preimage points in the extension band."""
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) > self.gamma * (1.0 + 1e-12)):
            raise FieldError("interior evaluation requires |w| <= gamma")
        z = eval_map(self.cmap, w)
        return self.interior_arrays_z(z)


def _traction_arrays(arrays: dict, mu: float) -> np.ndarray:
    return mu * (arrays["f"] + arrays["z"] * np.conj(arrays["fprime"]) + np.conj(arrays["g"]))


def transmission_residual(solution: DensitySolution, loading: LoadingSpec,
                          cmap: ConformalMap, material: MaterialPair,
                          angles: int) -> tuple[float, float]:
    """Interface mismatch of the solved transmission field.

    Returns (r_disp, r_trac): the largest displacement gap across the
    boundary and the largest pairwise spread of the traction-potential
    difference, both evaluated on the boundary w = gamma e^(i theta) at
    angles equispaced angles, from the exterior series and the interior
    polynomials summed there by one inverse FFT.
    """
    if solution.mode != "transmission":
        raise FieldError("transmission residual needs a transmission solution")
    outer, inner = FieldEvaluator(solution, loading, cmap, material)._ring_arrays(angles)
    r_disp = float(np.max(np.abs(outer["u"] - inner["u"])))
    diff = _traction_arrays(outer, material.mu_ext) - _traction_arrays(inner, material.mu_int)
    r_trac = float(np.max(np.abs(diff[:, None] - diff[None, :])))
    return r_disp, r_trac


def boundary_traction_spread(solution: DensitySolution, loading: LoadingSpec,
                             cmap: ConformalMap, material: MaterialPair, angles: int) -> float:
    """Largest pairwise spread of the exterior traction potential on the boundary.

    Evaluated on w = gamma e^(i theta) at angles equispaced angles. For a
    traction-free cavity this measures how far the solved field is from
    exactly cancelling the loading traction.
    """
    outer, _ = FieldEvaluator(solution, loading, cmap, material)._ring_arrays(angles)
    te = _traction_arrays(outer, material.mu_ext)
    return float(np.max(np.abs(te[:, None] - te[None, :])))


# -- physical-plane plumbing -------------------------------------------------


def invert_map(cmap: ConformalMap, z) -> np.ndarray:
    """Newton inversion of the exterior map at physical points z.

    On a map of depth one, w + a0 + a1 / w, the iteration starts from its
    exact inverse w = zeta (1 + sqrt(1 - 4 a1 / zeta^2)) / 2, zeta = z - a0,
    the root of larger modulus (the principal square root has a nonnegative
    real part). The ratio is formed as (a1 / zeta) / zeta, so it neither
    overflows at a huge radius nor loses the exact scaling by a power-of-two
    gamma; where a1 = 0 the seed is zeta itself, with no square root. On a
    deeper map the square root would save no step, and the iteration starts
    from the first-order inverse w = zeta - a1 / zeta. Either ratio is taken
    as 0 where |zeta| < 1e-12 gamma, so that it neither divides by zero nor
    overflows. A seed inside the circle is moved out to |w| = 2 gamma. Disks
    and ellipses then need
    one Newton step. Convergence is tracked per point and only unconverged
    points iterate, each iteration one Horner pass for Psi and Psi'
    (geometry.map_jet). A step that would land below |w| = 0.6 gamma is
    halved until it does not, which keeps every iterate away from the map's
    pole at w = 0. A point stops one Newton step after its residual drops
    below tolerance; that last step takes the iterate to full precision.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    zf = z.reshape(-1)
    zeta = zf - cmap.coeff(0)
    a1 = cmap.coeff(1)
    if cmap.depth > 1:
        inv = np.divide(1.0, zeta, out=np.zeros_like(zeta),
                        where=np.abs(zeta) >= SINGULAR_DERIVATIVE_TOL * cmap.gamma)
        w = zeta - a1 * inv
    elif a1 != 0.0:
        wide = np.abs(zeta) >= SINGULAR_DERIVATIVE_TOL * cmap.gamma
        root = np.divide(a1, zeta, out=np.zeros_like(zeta), where=wide)
        np.divide(root, zeta, out=root, where=wide)
        root *= -4.0
        root += 1.0
        np.sqrt(root, out=root)
        root += 1.0
        root *= 0.5
        w = zeta * root
    else:
        w = zeta
    inside = np.abs(w) < cmap.gamma
    w[inside] = 2.0 * cmap.gamma * np.exp(1j * np.angle(w[inside]))
    tol = NEWTON_TOL * max(cmap.gamma, float(np.max(np.abs(z), initial=0.0)))
    floor = 0.6 * cmap.gamma
    active = np.arange(w.size)
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        wa = w[active]
        psi, dpsi = map_jet(cmap, wa, 1)
        val = np.subtract(psi, zf[active], out=psi)
        step = np.divide(val, dpsi, out=dpsi)
        nxt = wa - step
        low = np.abs(nxt) < floor
        while np.any(low):
            step[low] *= 0.5
            nxt = wa - step
            low = np.abs(nxt) < floor
        w[active] = nxt
        active = active[np.abs(val) >= tol]
    if active.size:
        raise FieldError("map inversion did not converge")
    return w.reshape(shape)


class _Polyline:
    """The sampled boundary of one map, divided by scale, the power of two at
    or below gamma (pow2_floor); the band and the points tested against it
    are divided by it too.

    The division is exact, so every comparison below gives the bits it
    would give on raw coordinates, while neither the squared edge lengths
    nor the crossings overflow at huge gamma. The samples, the edges and
    their ranges depend on the map alone, so one polyline is built per map
    and kept on it (of); the band's widening is worked out per call. The two
    enumerations, _regions over scattered points and _grid_regions over a
    grid's rows, share the polyline, its half-open crossing rule and its
    distance test.
    """

    def __init__(self, cmap: ConformalMap):
        self.gamma = cmap.gamma
        self.scale = scale = pow2_floor(cmap.gamma)
        theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
        p0 = eval_map(cmap, cmap.gamma * np.exp(1j * theta)) / scale
        p1 = np.roll(p0, -1)
        self.p0, self.d = p0, p1 - p0
        self.ylo = np.minimum(p0.imag, p1.imag)
        self.yhi = np.maximum(p0.imag, p1.imag)
        self.xlo = np.minimum(p0.real, p1.real)
        self.xhi = np.maximum(p0.real, p1.real)
        self.top = np.max(np.abs(p0))

    @staticmethod
    def of(cmap: ConformalMap) -> "_Polyline":
        """The polyline kept on cmap, built on the first request."""
        kept = cmap.__dict__.get("_polyline")
        if kept is None:
            kept = _Polyline(cmap)
            object.__setattr__(cmap, "_polyline", kept)
        return kept

    def band(self, band: float) -> float:
        """The band, a fraction of gamma, in the polyline's coordinates."""
        return band * self.gamma / self.scale

    def x_ranges(self, band: float) -> tuple[np.ndarray, np.ndarray]:
        """The edges' x-ranges widened by the band and a rounding margin."""
        # the distance's rounding stays below a few ulps of the coordinates
        reach = band + 16.0 * np.finfo(float).eps * (self.top + band)
        return self.xlo - reach, self.xhi + reach

    def pairs(self, y: np.ndarray, band: float) -> tuple[np.ndarray, np.ndarray]:
        """(edge, j) pairs with y[j] in the edge's y-range widened by the band."""
        return sweep_pairs(y, self.ylo - band, self.yhi + band)

    def crossings(self, e: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which pairs (e, y) cross, y in edge e's half-open y-range, and the crossings' x."""
        cross = (self.ylo[e] <= y) & (y < self.yhi[e])
        e, y = e[cross], y[cross]
        return cross, self.p0.real[e] + (y - self.p0.imag[e]) * self.d.real[e] / self.d.imag[e]

    def near(self, e: np.ndarray, pts: np.ndarray, band: float) -> np.ndarray:
        """Whether each point pts lies within the band of its edge e."""
        rel = pts - self.p0[e]
        d = self.d[e]
        t = np.clip((rel * np.conj(d)).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
        return np.abs(rel - t * d) <= band


def _regions(cmap: ConformalMap, flat: np.ndarray, band: float) -> tuple[np.ndarray, np.ndarray]:
    """Interior and boundary-band masks of the points flat, band a fraction of gamma.

    One sweep_pairs over the edges' y-ranges widened by the band yields
    every (edge, point) pair that can cross or come near. The crossing
    pairs are those with the point's y in the edge's half-open y-range; a
    horizontal ray to the right of the point crosses the edge when the
    crossing lies right of it, and an odd count is interior. Only the pairs
    whose x also lies within the edge's x-range widened by the band, and
    by a rounding margin, get the point-to-segment distance. Coordinates
    are divided by the power of two at or below gamma (_Polyline).
    """
    line = _Polyline.of(cmap)
    band = line.band(band)
    x, y = flat.real / line.scale, flat.imag / line.scale
    e, j = line.pairs(y, band)
    cross, x_cross = line.crossings(e, y[j])
    jc = j[cross]
    interior = np.bincount(jc[x_cross > x[jc]], minlength=flat.size) % 2 == 1

    xlo, xhi = line.x_ranges(band)
    xj = x[j]
    keep = (xlo[e] <= xj) & (xj <= xhi[e])
    e, j = e[keep], j[keep]
    near = np.zeros(flat.size, dtype=bool)
    near[j[line.near(e, x[j] + 1j * y[j], band)]] = True
    return interior, near


def _grid_regions(cmap: ConformalMap, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The masks of _regions for the points of grid, in row-major order, row by row.

    A grid's points share ny heights, so the sweep pairs edges with rows,
    not with points. Each crossing (edge, row) pair adds one to the counts
    of the columns left of its crossing, found by searchsorted on the
    sorted x axis, and a cumulative sum along the row gives every count.
    The band candidates of an (edge, row) pair are the columns within the
    edge's widened x-range, a second sweep over the x axis. Point, rule
    and distance are those of _regions, so the masks are the same bits.
    """
    line = _Polyline.of(cmap)
    band = line.band(grid.band)
    xs = np.linspace(grid.xmin, grid.xmax, grid.nx) / line.scale
    ys = np.linspace(grid.ymin, grid.ymax, grid.ny) / line.scale
    e, r = line.pairs(ys, band)
    cross, x_cross = line.crossings(e, ys[r])
    # sorted column p lies left of a crossing when p < k
    order = np.argsort(xs, kind="stable")
    k = np.searchsorted(xs[order], x_cross, side="left")
    width = grid.nx + 1
    hits = np.bincount(r[cross] * width + k, minlength=grid.ny * width).reshape(grid.ny, width)
    right = np.cumsum(hits[:, :0:-1], axis=1)[:, ::-1]  # crossings right of sorted column p
    interior = np.empty((grid.ny, grid.nx), dtype=bool)
    interior[:, order] = right % 2 == 1

    xlo, xhi = line.x_ranges(band)
    i, c = sweep_pairs(xs, xlo[e], xhi[e])
    e, r = e[i], r[i]
    close = line.near(e, xs[c] + 1j * ys[r], band)
    near = np.zeros((grid.ny, grid.nx), dtype=bool)
    near[r[close], c[close]] = True
    return interior.reshape(-1), near.reshape(-1)


def classify_points(cmap: ConformalMap, z, band: float = DEFAULT_BOUNDARY_BAND):
    """Region tags and boundary-band flags for physical points.

    Returns (regions, near) where regions[i] is "exterior" or "interior"
    by the even-odd rule against the sampled boundary polyline, and near[i]
    marks points within band * gamma of that polyline: the band is a
    fraction of the map's radius, so a grid scaled with the map flags the
    same points at every gamma. The masks come from the point sweep
    _regions; grid_field takes the same masks from its rows (_grid_regions)
    and builds no labels.
    """
    z = np.asarray(z, dtype=complex)
    interior, near = _regions(cmap, z.reshape(-1), band)
    regions = np.array(_REGIONS, dtype=object)[interior.astype(np.intp)]
    return regions.reshape(z.shape), near.reshape(z.shape)


def grid_field(solution: DensitySolution, loading: LoadingSpec, cmap: ConformalMap,
               material: MaterialPair, grid: GridSpec) -> FieldGrid:
    """Evaluate the solved field on a rectangular grid of physical points.

    Exterior points are inverted through the map; interior points use the
    polynomial forms directly (preimage recorded as NaN). Interior points
    of a cavity get NaN displacement. Points inside the boundary band are
    flagged, not skipped. The region masks come from the grid's own axes
    (_grid_regions), and the series are summed as cut at rounding by the
    evaluator kept on the solution, so a second grid of the same problem
    builds no table.
    """
    ev = FieldEvaluator(solution, loading, cmap, material)
    pts = grid.points()
    interior, near = _grid_regions(cmap, grid)
    ext = np.flatnonzero(~interior)
    inner = np.flatnonzero(interior)
    w_ext, outside, inside = np.zeros(0, dtype=complex), {}, {}
    if ext.size:
        w_ext = invert_map(cmap, pts[ext])
        # points the inversion pushed to the boundary circle are band cases:
        # gamma (1 + 1e-9) w / |w|, grouped by the power of two above gamma so
        # that gamma w does not overflow (exact, so the bits are those of the
        # ungrouped product)
        pushed = np.abs(w_ext) <= cmap.gamma
        if np.any(pushed):
            wp, scale = w_ext[pushed], pow2_floor(cmap.gamma)
            w_ext[pushed] = cmap.gamma * (1.0 + 1e-9) / scale * wp / np.abs(wp) * scale
        outside = ev.exterior_arrays(w_ext)
    if inner.size and solution.mode == "transmission":
        inside = ev.interior_arrays_z(pts[inner])
    # the columns are filled from the regions' arrays once these are done,
    # each array let go once it is in its column; the rest is NaN
    nan = complex(np.nan, np.nan)
    z = pts  # exterior points take the map's value at their preimage
    z[ext] = outside.pop("z", nan)
    columns = {"w": np.empty_like(pts)}
    columns["w"][ext] = w_ext
    columns["w"][inner] = nan
    for key in ("u", "f", "fprime", "g"):
        col = columns[key] = np.empty_like(pts)
        col[ext] = outside.pop(key, nan)
        col[inner] = inside.pop(key, nan)
    return FieldGrid(z=z, interior=interior, near=near, **columns)
