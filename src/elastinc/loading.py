"""Far-field loading in the map-adapted polynomial basis and its boundary data.

A loading is a pair of polynomial displacement potentials expanded over the
Faber polynomials of the inclusion: mode m contributes

    kappa * A_m F_m(z) - z * conj(A_m F_m'(z)) + conj(B_m F_m(z)).

At points, the potentials and their derivatives are summed by one helper,
LoadingSeries, as value sums on the Faber recurrence of
geometry.faber_series, a derivative through the derivative matrix; the
field, the interface diagnostics and the reference solver all read the
loading through it. On the unit circle of the unit-radius problem the
loading and its traction potential become two-sided power series in w; their
coefficients on the window of powers -n..n are the two right-hand-side
windows of the block system. The term z conj(f') is Psi(w) times the
two-sided series of conj(f'), one product with GeometryBundle.psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import ConformalMap, GeometryBundle, faber_derivative_matrices, faber_series
from .materials import MaterialPair


class LoadingError(ValueError):
    """Inconsistent loading data."""


@dataclass(frozen=True, eq=False)
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


def unit_rhs_vectors(material: MaterialPair, bundle: GeometryBundle,
                     spec: LoadingSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (displacement, traction potential) windows of the unit-radius problem.

    Each is the loading's series on |w| = 1 over the powers -n..n, power k
    at index k + n. Mode m of f = sum_m A_m F_m is A_m (w^m + sum_k C[m, k]
    w^{-k}) on the circle, where conj(w^k) = w^{-k}; so conj(f') = sum_m
    conj(A_m F_m') has the series x = conj(A) conj(Dt) in the powers w^{-k}
    and x conj(C) in the powers w^k, and z conj(f') is that two-sided series
    times Psi. The traction potential is defined up to a constant: its
    power-0 entry is 0.
    """
    n = bundle.n
    A, B = spec.unit_radius(bundle.gamma).padded(n)
    C = bundle.grunsky
    Cb = np.conj(C)
    x = np.conj(A) @ np.conj(bundle.faber_deriv)
    X = np.concatenate([x[::-1], (x @ Cb)[1:]]) @ bundle.psi  # z conj(f')
    F = np.concatenate([(A @ C)[::-1], A[1:]])  # f
    G = np.concatenate([np.conj(B)[::-1], (np.conj(B) @ Cb)[1:]])  # -conj(g)
    trac = material.mu_ext * (F + X - G)
    trac[n] = 0.0
    return material.kappa * F - X + G, trac


class LoadingSeries:
    """The loading's potentials and their derivatives at points, for one map.

    The loading is kappa f - z conj(f') - conj(g), with f = sum_m A_m F_m and
    g = -sum_m B_m F_m. Every sum runs the Faber recurrence on the point
    values (geometry.faber_series) of the unit-radius map at z / gamma, with
    the unit-radius loading's coefficients (LoadingSpec.unit_radius). A
    derivative needs no recurrence of its own: F_m' = sum_j Dt[m, j] F_j
    exactly, so f' is the value sum of the row A Dt, and f'' that of
    A Dt Dt; each derivative returns to z by a factor 1/gamma, applied to its
    row. The rows are built once, so an evaluator that sums the loading at
    many point sets pays for them once.
    """

    def __init__(self, spec: LoadingSpec, cmap: ConformalMap):
        self.gamma = cmap.gamma
        self.unit = cmap.unit
        self.order = spec.order
        A, B = spec.unit_radius(self.gamma).padded(self.order)
        self.rows = np.stack([A, -B])  # (f, g) at unit radius

    @cached_property
    def slopes(self) -> np.ndarray:
        """Value rows (A Dt, -B Dt) / gamma of (f', g'), built on the first sum."""
        return self.rows @ faber_derivative_matrices(self.unit, self.order) / self.gamma

    def potentials(self, z):
        """(f, g, f') at points z, what the displacement needs."""
        zeta = np.asarray(z, dtype=complex) / self.gamma
        f, g, fp = faber_series(self.unit, zeta, np.vstack([self.rows, self.slopes[:1]]))
        return f, g, fp

    def derivatives(self, z):
        """(f', g', f'') at points z, what the traction needs."""
        Dt = faber_derivative_matrices(self.unit, self.order)
        rows = np.vstack([self.slopes, self.slopes[0] @ Dt / self.gamma])
        zeta = np.asarray(z, dtype=complex) / self.gamma
        fp, gp, fpp = faber_series(self.unit, zeta, rows)
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
    rows = np.broadcast_shapes(pos.shape[:-1], neg.shape[:-1])
    out = _power_sum(np.broadcast_to(neg, rows + neg.shape[-1:]), 1.0 / x)
    if pos.shape[-1] > 1:
        out += x * _power_sum(pos[..., 1:], x)
    return out.reshape(rows + w.shape)


def _power_sum(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[..., k] x^k at the points x (one axis), by Horner's rule in place.

    The result's own array carries the sum, one multiplication and one
    addition per coefficient, and nothing else is allocated: at many points
    a working set of powers costs more in fresh memory than the array
    operations it saves.
    """
    acc = np.empty(c.shape[:-1] + x.shape, dtype=complex)
    acc[...] = c[..., -1:]
    for k in range(c.shape[-1] - 2, -1, -1):
        acc *= x
        acc += c[..., k : k + 1]
    return acc
