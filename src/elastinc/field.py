"""Displacement-field evaluation from solved density coefficients.

Outside the inclusion the displacement is the loading plus the layer
contribution; inside it is the interior layer contribution alone. Both are
driven by a pair of holomorphic functions (f, g):

    u = loading_part + (kappa f - z conj(f') - conj(g) - mean_term) / 2.

Sums over the map-adapted (Faber) polynomials in z, the loading's and the
interior layer terms', run the Faber recurrence on the point values
(geometry.faber_series), so no monomial coefficients are formed. The layer
terms shift their densities to the conjugate coordinate by one convolution
with the map coefficients. Outside, the layer terms decay, and for a
Laurent-polynomial map of depth K they are finite Laurent series in 1/w:
F_m(Psi(w)) = w^m + sum_{k <= mK} c_mk w^-k, whose w^m cancels against the
density's explicit powers. Their coefficients are built once, exactly, from
the map's kept Grunsky table and summed at every |w| >= gamma by
loading.boundary_series.
Interior evaluation uses the Faber sums alone, valid throughout the
inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    ConformalMap,
    eval_map,
    eval_map_derivative,
    exterior_series_orders,
    faber_series,
    grunsky_rows,
    sweep_pairs,
)
from .loading import LoadingSeries, LoadingSpec, boundary_series
from .materials import MaterialPair
from .system import DensitySolution

DEFAULT_BOUNDARY_BAND = 1e-3
NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-13
REGION_SAMPLES = 2048
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
        X, Y = np.meshgrid(xs, ys)
        return (X + 1j * Y).ravel()


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


class FieldEvaluator:
    """Precomputed series data for evaluating one solved configuration.

    The solution's coefficients belong to the unit-radius problem, so the
    series are built for cmap.unit and are evaluated at w / gamma
    and z / gamma; since z = gamma zeta, f and g keep their values and f'
    is divided by gamma on output. The exterior layer terms are one exact
    Laurent series in 1/w at every |w| >= gamma (tail, built on the first
    exterior evaluation); the interior layer terms are Faber sums in z, and
    the loading is summed the same way by a loading.LoadingSeries.
    """

    def __init__(self, solution: DensitySolution, loading: LoadingSpec,
                 cmap: ConformalMap, material: MaterialPair):
        self.cmap = cmap
        self.material = material
        self.solution = solution
        self.gamma = cmap.gamma
        unit = cmap.unit
        self.unit = unit
        n = solution.n
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
        # the w^-k terms of L and Lbar beside their Faber sums, y_0, y_-1, ...,
        # y_-n-1 beside that of Cy, and the log w coefficient of L
        self.wneg = np.stack([-xm[1:], -np.conj(xp[1:])]) * scale[:n]
        self.yneg = y[n + 1 :: -1]
        self.x0_log = xm[0]
        self.load_series = LoadingSeries(loading, cmap)

        # interior polynomials (transmission mode)
        if solution.mode == "transmission":
            xpi, xmi = solution.xi_plus, solution.xi_minus
            yi = np.convolve(density(xpi, xmi), kernel)
            # rows: (Li, Libar) as sums of F_m(z), (Ci, Cyi) as sums of F_m'(z)
            self.faber_values_i = np.stack([layer(xpi[1:]), layer(np.conj(xmi[1:]))])
            self.faber_derivs_i = np.stack([layer(xpi[1:]), layer(yi[n + 2 :])])
            self.mean_i = xmi[0]

    @cached_property
    def tail(self) -> np.ndarray:
        """Rows (f, fbar, C, q) of the exterior layer terms, Laurent series in 1/w.

        Column k of f and fbar is the w^-k coefficient of L and Lbar without
        their log terms; C and q are w Psi'(w) times Cpsi and Cy, so that
        the log term contributes x0 to the w^0 slot of C. Every Faber row
        stops at the order n + K, and c_mk = 0 for k > mK, so with
        max(n + 2, (n + K) K) columns the series are exact, not truncated.
        Built on the first exterior evaluation: interior evaluation never
        needs it. The Grunsky rows are a view of the table kept on the unit
        map (geometry.grunsky_rows), which build_geometry at the same
        truncation fills at this shape; every evaluator of that map, the
        residuals' own among them, pays one matrix product here, not a
        recurrence.
        """
        n = self.solution.n
        order, kfar = exterior_series_orders(self.unit, n)
        ks = np.arange(kfar + 1)
        tail = np.zeros((4, kfar + 1), dtype=complex)
        tail[[0, 1, 3]] = self.faber_rows @ grunsky_rows(self.unit, order, kfar)
        tail[:2, 1 : n + 1] += self.wneg
        tail[2] = -ks * tail[0]
        tail[2, 0] = self.x0_log
        tail[3] *= -ks
        tail[3, : n + 2] += self.yneg
        return tail

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
        omega, zeta = w / self.gamma, z / self.gamma
        alpha, beta = self.material.alpha, self.material.beta
        L, Lbar, C, q = boundary_series(np.zeros(1), self.tail, omega)
        logw = np.log(omega)
        wdpsi = omega * eval_map_derivative(self.unit, omega)
        f = beta * (L + self.x0_log * logw)
        fp = beta * (C / wdpsi)
        g = -alpha * (Lbar + np.conj(self.x0_log) * logw) - beta * (q / wdpsi)
        fH, gH, dfH = self.load_series.potentials(z)
        kappa = self.material.kappa
        load = kappa * fH - z * np.conj(dfH) - np.conj(gH)
        arrays = self._arrays(z, zeta, load, kappa, f, fp, g)
        arrays["f"] += fH
        arrays["fprime"] += dfH
        arrays["g"] += gH
        return arrays

    def _arrays(self, z, zeta, load, kappa, f, fp, g) -> dict:
        """The displacement u = load + (kappa f - zeta conj(fp) - conj(g)) / 2.

        f, fp and g are the layer potentials of the unit-radius problem; the
        returned f, fprime and g are their halves, fprime returned to z by
        1/gamma.
        """
        return {
            "z": z,
            "u": load + 0.5 * kappa * f - 0.5 * zeta * np.conj(fp) - 0.5 * np.conj(g),
            "f": 0.5 * f,
            "fprime": 0.5 * fp / self.gamma,
            "g": 0.5 * g,
        }

    # -- interior ----------------------------------------------------------

    def interior_arrays_z(self, z: np.ndarray) -> dict:
        """Vectorized interior evaluation at physical points z."""
        if self.solution.mode != "transmission":
            raise FieldError("cavity solutions have no interior field")
        z = np.asarray(z, dtype=complex)
        zeta = z / self.gamma
        at, bt, kt = self.material.interior_constants()
        (sL, sLbar), (sC, sCy) = faber_series(
            self.unit, zeta, self.faber_values_i, self.faber_derivs_i
        )
        f = bt * sL
        fp = bt * sC
        g = -at * sLbar - bt * sCy
        load = np.full_like(z, -0.5 * (bt * self.mean_i))
        return self._arrays(z, zeta, load, kt, f, fp, g)

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
    polynomials.
    """
    if solution.mode != "transmission":
        raise FieldError("transmission residual needs a transmission solution")
    w = _boundary_ring(cmap, angles)
    ev = FieldEvaluator(solution, loading, cmap, material)
    outer = ev.exterior_arrays(w)
    inner = ev.interior_arrays_z(outer["z"])
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
    w = _boundary_ring(cmap, angles)
    ev = FieldEvaluator(solution, loading, cmap, material)
    te = _traction_arrays(ev.exterior_arrays(w), material.mu_ext)
    return float(np.max(np.abs(te[:, None] - te[None, :])))


def _boundary_ring(cmap: ConformalMap, count: int) -> np.ndarray:
    """count equispaced points on the boundary circle |w| = gamma."""
    return cmap.gamma * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, count, endpoint=False))


# -- physical-plane plumbing -------------------------------------------------


def invert_map(cmap: ConformalMap, z) -> np.ndarray:
    """Newton inversion of the exterior map at physical points z.

    Convergence is tracked per point and only unconverged points iterate.
    A step that would land below |w| = 0.6 gamma is halved until it does
    not, which keeps every iterate inside the map's evaluation margin. A
    point stops one Newton step after its residual drops below tolerance;
    that last step takes the iterate to full precision.
    """
    z = np.asarray(z, dtype=complex)
    w = z - cmap.coeff(0)
    w = np.where(np.abs(w) < cmap.gamma, 2.0 * cmap.gamma * np.exp(1j * np.angle(w)), w)
    shape = w.shape
    w, zf = w.reshape(-1), z.reshape(-1)
    tol = NEWTON_TOL * max(cmap.gamma, float(np.max(np.abs(z), initial=0.0)))
    floor = 0.6 * cmap.gamma
    active = np.arange(w.size)
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        wa = w[active]
        val = eval_map(cmap, wa, margin=0.5) - zf[active]
        step = val / eval_map_derivative(cmap, wa, margin=0.5)
        low = np.abs(wa - step) < floor
        while np.any(low):
            step[low] *= 0.5
            low = np.abs(wa - step) < floor
        w[active] = wa - step
        active = active[np.abs(val) >= tol]
    if active.size:
        raise FieldError("map inversion did not converge")
    return w.reshape(shape)


def classify_points(cmap: ConformalMap, z, band: float = DEFAULT_BOUNDARY_BAND):
    """Region tags and boundary-band flags for physical points.

    Returns (regions, near) where regions[i] is "exterior" or "interior"
    by the even-odd rule against the sampled boundary polyline, and near[i]
    marks points within band * gamma of that polyline: the band is a
    fraction of the map's radius, so a grid scaled with the map flags the
    same points at every gamma. A horizontal ray to the right of a point
    crosses an edge when the point's y lies in the edge's half-open y-range
    and the crossing lies right of it; sweep_pairs finds those (edge, point)
    pairs from the points sorted by y, so only pairs that can cross (or,
    with the y-range widened by the band, come near) are formed.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    band = band * cmap.gamma
    theta = np.linspace(0.0, 2.0 * np.pi, REGION_SAMPLES, endpoint=False)
    p0 = eval_map(cmap, cmap.gamma * np.exp(1j * theta))
    p1 = np.roll(p0, -1)
    d = p1 - p0
    ylo = np.minimum(p0.imag, p1.imag)
    yhi = np.maximum(p0.imag, p1.imag)

    e, j = sweep_pairs(flat.imag, ylo, yhi, closed=False)
    x_cross = p0.real[e] + (flat.imag[j] - p0.imag[e]) * d.real[e] / d.imag[e]
    crossings = np.bincount(j[x_cross > flat.real[j]], minlength=flat.size)
    regions = np.where(crossings % 2 == 1, "interior", "exterior").astype(object)

    e, j = sweep_pairs(flat.imag, ylo - band, yhi + band)
    rel = flat[j] - p0[e]
    t = np.clip((rel * np.conj(d[e])).real / np.maximum(np.abs(d[e]) ** 2, 1e-300), 0.0, 1.0)
    close = np.abs(rel - t * d[e]) <= band
    near = np.bincount(j[close], minlength=flat.size) > 0
    return regions.reshape(z.shape), near.reshape(z.shape)


def grid_field(solution: DensitySolution, loading: LoadingSpec, cmap: ConformalMap,
               material: MaterialPair, grid: GridSpec) -> FieldGrid:
    """Evaluate the solved field on a rectangular grid of physical points.

    Exterior points are inverted through the map; interior points use the
    polynomial forms directly (preimage recorded as NaN). Interior points
    of a cavity get NaN displacement. Points inside the boundary band are
    flagged, not skipped.
    """
    ev = FieldEvaluator(solution, loading, cmap, material)
    pts = grid.points()
    regions, near = classify_points(cmap, pts, band=grid.band)
    interior = regions == "interior"
    ext = np.flatnonzero(~interior)
    inner = np.flatnonzero(interior)
    nan = complex(np.nan, np.nan)
    w = np.full(pts.size, nan)
    z = pts.copy()
    values = {key: np.full(pts.size, nan) for key in ("u", "f", "fprime", "g")}
    if ext.size:
        w_ext = invert_map(cmap, pts[ext])
        # points the inversion pushed to the boundary circle are band cases
        w_ext = np.where(
            np.abs(w_ext) <= cmap.gamma, cmap.gamma * (1.0 + 1e-9) * w_ext / np.abs(w_ext), w_ext
        )
        arrays = ev.exterior_arrays(w_ext)
        w[ext] = w_ext
        z[ext] = arrays["z"]
        for key, col in values.items():
            col[ext] = arrays[key]
    if inner.size and solution.mode == "transmission":
        arrays = ev.interior_arrays_z(pts[inner])
        for key, col in values.items():
            col[inner] = arrays[key]
    return FieldGrid(w=w, z=z, interior=interior, near=near, **values)
