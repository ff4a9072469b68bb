"""Far-field loading in the map-adapted polynomial basis and its boundary data.

A loading is a pair of polynomial displacement potentials expanded over the
Faber polynomials of the inclusion: mode m contributes

    kappa * A_m F_m(z) - z * conj(A_m F_m'(z)) + conj(B_m F_m(z)).

At points, the potentials and their derivatives are summed by one helper,
LoadingSeries, on the Faber recurrence of geometry.faber_series; the
field, the interface diagnostics and the reference solver all read the
loading through it. On the boundary circle |w| = gamma the loading and its
traction potential become two-sided power series in w; their coefficients,
split by the sign of the power, are the four right-hand-side row vectors of
the block system. The term z conj(f') is Psi(w) times the two-sided series
of conj(f'), one product with GeometryBundle.psi.
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


def unit_rhs_vectors(material: MaterialPair, bundle: GeometryBundle,
                     spec: LoadingSpec) -> RhsVector:
    """The boundary series of the unit-radius problem on |w| = 1.

    Mode m of f = sum_m A_m F_m is A_m (w^m + sum_k C[m, k] w^{-k}) on the
    circle, where conj(w^k) = w^{-k}; so conj(f') = sum_m conj(A_m F_m') has
    the series x = conj(A) conj(Dt) in the powers w^{-k} and x conj(C) in
    the powers w^k, and z conj(f') is that two-sided series times Psi.
    """
    n = bundle.n
    A, B = spec.unit_radius(bundle.gamma).padded(n)
    C = bundle.grunsky
    Cb = np.conj(C)
    kill0 = np.ones(n + 1)
    kill0[0] = 0.0
    kappa = material.kappa
    mu = material.mu_ext

    x = np.conj(A) @ np.conj(bundle.faber_deriv)
    X = np.concatenate([x[::-1], (x @ Cb)[1:]]) @ bundle.psi  # z conj(f'), powers -n..n
    X_pos = X[n:] * kill0
    X_neg = X[n::-1]
    Y_pos = np.conj(B) @ Cb
    Y_neg = np.conj(B)
    AC = A @ C

    return RhsVector(disp_pos=kappa * A - X_pos + Y_pos,
                     disp_neg=kappa * AC - X_neg + Y_neg,
                     trac_pos=mu * (A + X_pos - Y_pos),
                     trac_neg=mu * (AC + X_neg * kill0 - Y_neg))


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
        Dt = faber_derivative_matrices(self.unit, self.order)
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
    other: every row is summed at every point, and the result has shape
    rows + w.shape. Each sign is one power sum, in x = 1/w and in x = w.
    """
    w = np.asarray(w, dtype=complex)
    pos, neg = np.asarray(pos), np.asarray(neg)
    x = w.reshape(-1)
    out = np.zeros(np.broadcast_shapes(pos.shape[:-1], neg.shape[:-1]) + x.shape, dtype=complex)
    out += _power_sum(neg, 1.0 / x)
    if pos.shape[-1] > 1:
        out += x * _power_sum(pos[..., 1:], x)
    return out.reshape(out.shape[:-1] + w.shape)


def _power_sum(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[..., k] x^k at the points x (one axis), summed in blocks.

    With s = ceil(sqrt(D)) for D coefficients, the powers x^0..x^(s-1) come
    from one cumprod; each block of s coefficients is one matrix product
    with them, and Horner in x^s runs across the ceil(D / s) blocks
    (Paterson and Stockmeyer, 1973): O(sqrt(D)) array operations where a
    Horner pass takes 2D, on a working set of s rows of points.
    """
    d = c.shape[-1]
    s = max(int(np.ceil(np.sqrt(d))), 1)
    blocks = -(-d // s)
    powers = np.empty((s,) + x.shape, dtype=complex)
    powers[0] = 1.0
    np.cumprod(np.broadcast_to(x, (s - 1,) + x.shape), axis=0, out=powers[1:])
    step = powers[-1] * x  # x^s
    acc = c[..., (blocks - 1) * s :] @ powers[: d - (blocks - 1) * s]
    for j in range(blocks - 2, -1, -1):
        acc *= step
        acc += c[..., j * s : (j + 1) * s] @ powers
    return acc
