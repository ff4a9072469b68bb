"""Far-field loading in the map-adapted polynomial basis and its boundary data.

A loading is a pair of polynomial displacement potentials expanded over the
Faber polynomials of the inclusion: mode m contributes

    kappa * A_m F_m(z) - z * conj(A_m F_m'(z)) + conj(B_m F_m(z)).

At points, the potentials and their derivatives are summed by one helper,
LoadingSeries, on the Faber recurrence of geometry.faber_series; the
field, the interface diagnostics and the reference solver all read the
loading through it. On the boundary circle |w| = gamma each mode becomes a
two-sided power series in w. The module builds, per mode, the matrices of
those coefficients for the loading itself and for its traction potential,
and sums them into the four right-hand-side row vectors of the block system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConformalMap,
    GeometryBundle,
    faber_derivative_matrices,
    faber_series,
    unit_radius,
)
from .materials import MaterialPair


class LoadingError(ValueError):
    """Inconsistent loading data."""


@dataclass(frozen=True)
class LoadingSpec:
    """Coefficient arrays (A, B) indexed by mode; index 0 must be zero."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=complex).reshape(-1)
        B = np.asarray(self.B, dtype=complex).reshape(-1)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        for name, arr in (("A", A), ("B", B)):
            if not np.all(np.isfinite(arr)):
                raise LoadingError(f"{name} coefficients must be finite")
            if arr.size and arr[0] != 0.0:
                raise LoadingError(f"{name}[0] must be zero: constant background is omitted")

    @property
    def order(self) -> int:
        """Highest mode index carrying a nonzero coefficient."""
        top = 0
        for arr in (self.A, self.B):
            nz = np.nonzero(arr)[0]
            if nz.size:
                top = max(top, int(nz[-1]))
        return top

    def padded(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-padded coefficient arrays of length n+1; modes above n error."""
        if self.order > n:
            raise LoadingError(f"loading mode {self.order} exceeds truncation order {n}")
        A = np.zeros(n + 1, dtype=complex)
        B = np.zeros(n + 1, dtype=complex)
        A[: min(self.A.size, n + 1)] = self.A[: n + 1]
        B[: min(self.B.size, n + 1)] = self.B[: n + 1]
        return A, B

    def unit_radius(self, gamma: float) -> "LoadingSpec":
        """The loading of the unit-radius problem: A_m gamma^m, B_m gamma^m."""
        return LoadingSpec(self.A * gamma ** np.arange(self.A.size),
                           self.B * gamma ** np.arange(self.B.size))


@dataclass(frozen=True)
class RhsVector:
    """Boundary power-series coefficients of the loading and its traction potential.

    disp_pos[k] multiplies w^k (k >= 1) and disp_neg[k] multiplies w^{-k}
    (k >= 0) in the loading's boundary series; trac_pos/trac_neg do the same
    for the traction potential. Index 0 of disp_pos and trac_pos is zero.
    """

    disp_pos: np.ndarray
    disp_neg: np.ndarray
    trac_pos: np.ndarray
    trac_neg: np.ndarray


def rhs_matrices(material: MaterialPair, bundle: GeometryBundle, spec: LoadingSpec):
    """Per-mode boundary coefficient matrices of the unit-radius problem.

    Returns (disp_pos_mat, disp_neg_mat, trac_pos_mat, trac_neg_mat) where row
    m of disp_pos_mat holds the w^k coefficients on |w| = 1 of mode m's
    contribution to the rescaled loading spec.unit_radius(gamma), and
    similarly for the other three.
    """
    n = bundle.n
    A, B = spec.unit_radius(bundle.gamma).padded(n)
    C = bundle.grunsky
    # mode-scaled conjugated derivative rows: row m holds conj of F_m' in the basis
    W = np.conj(bundle.faber_deriv)
    kill0 = np.ones(n + 1)
    kill0[0] = 0.0
    hank = bundle.coeff_hankel
    toep = bundle.coeff_toeplitz
    corner = bundle.coeff_corner
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


def unit_rhs_vectors(material: MaterialPair, bundle: GeometryBundle,
                     spec: LoadingSpec) -> RhsVector:
    """Column sums of the per-mode matrices over modes m >= 1, at unit radius."""
    return RhsVector(*[m[1:].sum(axis=0) for m in rhs_matrices(material, bundle, spec)])


def rhs_vectors(material: MaterialPair, bundle: GeometryBundle, spec: LoadingSpec) -> RhsVector:
    """The boundary series in powers of w on |w| = gamma: the unit-radius
    coefficients of w^k and w^-k divided and multiplied by gamma^k."""
    rv = unit_rhs_vectors(material, bundle, spec)
    g = bundle.gamma ** np.arange(bundle.n + 1)
    return RhsVector(rv.disp_pos / g, rv.disp_neg * g, rv.trac_pos / g, rv.trac_neg * g)


class LoadingSeries:
    """The loading's potentials and their derivatives at points, for one map.

    The loading is kappa f - z conj(f') - conj(g), with f = sum_m A_m F_m and
    g = -sum_m B_m F_m. Every sum runs the Faber recurrence on the point
    values (geometry.faber_series) of the unit-radius map at z / gamma, with
    the coefficients A_m gamma^m and B_m gamma^m; each derivative returns to
    z by a factor 1/gamma, applied to its coefficient row. The rows are
    built once, so an evaluator that sums the loading at many point sets
    pays for them once.
    """

    def __init__(self, spec: LoadingSpec, cmap: ConformalMap):
        self.gamma = cmap.gamma
        self.unit = unit_radius(cmap)
        self.order = spec.order
        A, B = spec.padded(self.order)
        self.rows = np.stack([A, -B]) * self.gamma ** np.arange(A.size)  # (f, g) at unit radius

    def potentials(self, z):
        """(f, g, f') at points z, what the displacement needs."""
        zeta = np.asarray(z, dtype=complex) / self.gamma
        (f, g), (fp,) = faber_series(self.unit, zeta, self.rows, self.rows[:1] / self.gamma)
        return f, g, fp

    def derivatives(self, z):
        """(f', g', f'') at points z, what the traction needs.

        f'' needs no second recurrence: F_m' = sum_j Dt[m, j] F_j exactly, so
        f'' is the derivative sum of the coefficient row A Dt.
        """
        Dt, _ = faber_derivative_matrices(self.unit, self.order)
        derivs = np.vstack([self.rows, self.rows[0] @ Dt / self.gamma]) / self.gamma
        zeta = np.asarray(z, dtype=complex) / self.gamma
        _, (fp, gp, fpp) = faber_series(self.unit, zeta, self.rows[:0], derivs)
        return fp, gp, fpp


def eval_loading(spec: LoadingSpec, cmap: ConformalMap, material: MaterialPair, z):
    """The loading displacement at points z (complex, vectorized)."""
    z = np.asarray(z, dtype=complex)
    f, g, fp = LoadingSeries(spec, cmap).potentials(z)
    return material.kappa * f - z * np.conj(fp) - np.conj(g)


def boundary_series(pos: np.ndarray, neg: np.ndarray, w):
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
