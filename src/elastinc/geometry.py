"""Exterior conformal map and every map-derived matrix.

The inclusion boundary is the image of the circle |w| = gamma under

    Psi(w) = w + a0 + a1/w + a2/w^2 + ... + aK/w^K ,

a Laurent polynomial normalized to derivative 1 at infinity. From the map the
module builds, at a shared truncation order n:

* the derivative matrix expressing F_m' in the Faber basis,
* the Grunsky coefficient matrix (negative-power coefficients of the
  composition F_m(Psi(w))), via the Faber recurrence in the w-plane,
* the matrix of multiplication by Psi on the two-sided window of powers
  -n..n, one Toeplitz matrix of the map coefficients,

and evaluates Faber series at points by the same recurrence, run on the
point values. The Faber polynomials are never expanded into monomial
coefficients: those grow geometrically with the order on elongated
boundaries, and summing them cancels away digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GeometryError(ValueError):
    """Invalid map data or evaluation outside the allowed domain."""


EXTENSION_MARGIN = 0.1  # fraction of gamma eval_map may be evaluated inside
SINGULAR_DERIVATIVE_TOL = 1e-12
SIMPLE_CURVE_SAMPLES = 1024


@dataclass(frozen=True, eq=False)
class ConformalMap:
    """Exterior map data: conformal radius and coefficients (a0, a1, ..., aK)."""

    gamma: float
    a: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    validate: bool = True

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=complex).reshape(-1)
        object.__setattr__(self, "a", a)
        if not 0.0 < self.gamma < np.inf:
            raise GeometryError(f"conformal radius must be positive and finite, got {self.gamma}")
        if not np.all(np.isfinite(a)):
            raise GeometryError("map coefficients must be finite")
        if self.validate and not _certified_univalent(self):
            _validate_boundary(self)

    @property
    def depth(self) -> int:
        """Largest K with a_K retained (0 for a pure translation or identity)."""
        return max(self.a.size - 1, 0)

    @cached_property
    def unit(self) -> "ConformalMap":
        """The same boundary scaled by 1/gamma: Psi_1(w) = Psi(gamma w) / gamma.

        Its coefficients are a_k gamma^(-k-1) on |w| = 1. It is built once per
        map object, so the bundle, every FieldEvaluator and LoadingSeries of
        one map share one unit map and with it one kept Grunsky table.
        Validation is scale-invariant, so the rescaled map is not validated
        again. A zero coefficient stays zero where gamma^(-k-1) overflows; a
        nonzero one that overflows is refused as not finite.
        """
        return ConformalMap(1.0, _unit_coefficients(self), validate=False)

    def coeff(self, k: int) -> complex:
        """Laurent coefficient a_k with the conventions a_{-1}=1, a_{-m}=0 (m>=2)."""
        if k == -1:
            return 1.0 + 0.0j
        if 0 <= k < self.a.size:
            return complex(self.a[k])
        return 0.0 + 0.0j


def map_jet(cmap: ConformalMap, w, order: int) -> list[np.ndarray]:
    """[Psi(w), Psi'(w), Psi''(w)][: order + 1] from one Horner pass over u = 1/w.

    With P(u) = sum_k a_k u^k, Psi = w + P(u), Psi' = 1 - u^2 P'(u) and
    Psi'' = 2 u^3 (P'(u) + u P''(u) / 2); P, P' and P''/2 run through the
    coefficients together, in place. Powers of u are applied one factor at
    a time, never formed on their own, so that each product stays in the
    range of the result and nothing underflows at a huge radius. A
    vanishing Psi' is refused when order >= 1. No extension check: that is
    eval_map's.
    """
    w = np.asarray(w, dtype=complex)
    u = 1.0 / w
    jet = [np.zeros_like(w) for _ in range(order + 1)]  # P, P', P''/2
    for ak in cmap.a[::-1]:
        for j in range(order, 0, -1):
            jet[j] *= u
            jet[j] += jet[j - 1]
        jet[0] *= u
        jet[0] += ak
    jet[0] += w
    if order >= 2:
        jet[2] *= u
        jet[2] += jet[1]
        for _ in range(3):
            jet[2] *= u
        jet[2] *= 2.0
    if order >= 1:
        jet[1] *= u
        jet[1] *= u
        np.subtract(1.0, jet[1], out=jet[1])
        if np.any(np.abs(jet[1]) < SINGULAR_DERIVATIVE_TOL):
            raise GeometryError("map derivative vanishes at an evaluation point")
    return jet


def eval_map(cmap: ConformalMap, w):
    """Psi(w), allowed for |w| >= gamma (1 - EXTENSION_MARGIN); a scalar for a scalar w.

    The slack of 1e-15 is relative to gamma, so the refusal does not depend
    on the map's scale.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w) < cmap.gamma * (1.0 - EXTENSION_MARGIN - 1e-15)):
        raise GeometryError(
            "map evaluated below the analytic-extension radius "
            f"gamma*(1-{EXTENSION_MARGIN}) = {cmap.gamma * (1.0 - EXTENSION_MARGIN):g}"
        )
    return map_jet(cmap, w, 0)[0][()]


def pow2_floor(m: float) -> float:
    """The power of two at or below m > 0, 2^(e-1) for m = f 2^e, 1/2 <= f < 1.

    Dividing by it is exact, and it is finite for every finite m, so a set
    of values divided by the pow2_floor of their largest modulus lies in
    [0, 2) with its bits kept, and its squares neither overflow nor
    underflow.
    """
    return float(np.ldexp(1.0, np.frexp(m)[1] - 1))


def _unit_coefficients(cmap: ConformalMap) -> np.ndarray:
    """b_k = a_k gamma^(-k-1), zero where a_k is zero even if gamma^(-k-1) overflows."""
    k = np.arange(cmap.a.size)
    with np.errstate(over="ignore", invalid="ignore"):
        b = cmap.a * cmap.gamma ** -(k + 1.0)
    return np.where(cmap.a == 0, 0, b)


def _certified_univalent(cmap: ConformalMap) -> bool:
    """The coefficient certificate s = sum_{k>=1} k |a_k| gamma^(-k-1) <= 1 - 1e-12.

    For |w1|, |w2| >= gamma each difference quotient of w^-k is at most
    k gamma^(-k-1), so |Psi(w1) - Psi(w2)| >= |w1 - w2| (1 - s), the
    classical coefficient condition for class Sigma (Duren, Univalent
    Functions, 1983). A certified map is univalent outside the circle,
    |Psi'| >= 1 - s there, and the image of the circle is a simple,
    positively oriented curve: everything the sampled test checks, in O(K).
    A map that fails it may still be valid and goes to _validate_boundary,
    as does one whose nonzero a_k gamma^(-k-1) overflows (s is then inf).
    A zero coefficient counts as zero at every gamma.
    """
    b = _unit_coefficients(cmap)[1:]
    s = np.sum(np.arange(1, cmap.a.size) * np.abs(b))
    return bool(s <= 1.0 - SINGULAR_DERIVATIVE_TOL)


def _validate_boundary(cmap: ConformalMap) -> None:
    """Refuse a sampled boundary that is reversed or crosses itself.

    The tests run on the polyline divided by gamma, the boundary of
    cmap.unit, so its cross products neither underflow at a tiny radius nor
    overflow at a large one. Coefficients far outside the area theorem's
    bound (sum_k k |b_k|^2 <= 1) can still overflow them; the area is then
    NaN, and the map is refused as reversed.
    """
    w = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, SIMPLE_CURVE_SAMPLES, endpoint=False))
    # a vanishing Psi' is refused by the jet itself
    z, _ = map_jet(cmap.unit, w, 1)
    pts = np.column_stack([z.real, z.imag])
    nxt = np.roll(pts, -1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        signed_area = 0.5 * np.sum(pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0])
    if not signed_area > 0.0:
        raise GeometryError("boundary curve has reversed orientation (map folds)")
    if _polyline_self_intersects(pts):
        raise GeometryError("boundary curve is not simple (sampled self-intersection)")


def sweep_pairs(keys, lo, hi, closed: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with lo[i] <= keys[j] <= hi[i] (< hi[i] unless closed).

    The keys are sorted once; each interval then selects one contiguous run
    of them by searchsorted, so the cost is O((K + I) log K) plus the number
    of pairs returned, never the full I x K product. j indexes the original
    (unsorted) keys.
    """
    keys = np.asarray(keys, dtype=float)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    start = np.searchsorted(ranked, lo, side="left")
    stop = np.searchsorted(ranked, hi, side="right" if closed else "left")
    count = np.maximum(stop - start, 0)
    i = np.repeat(np.arange(count.size), count)
    offset = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    return i, order[start[i] + offset]


def _polyline_self_intersects(pts: np.ndarray) -> bool:
    """Proper intersection of any two non-adjacent closed-polyline segments.

    Two segments can cross only where their x-ranges overlap; sweep_pairs
    with each segment's own x-min as key yields every such pair (a pair
    appears at least once, ordered by x-min), and only those are tested.
    """
    m = pts.shape[0]
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    xlo = np.minimum(x1, x2)
    i, j = sweep_pairs(xlo, xlo, np.maximum(x1, x2))
    keep = (np.abs(i - j) % (m - 1)) > 1  # adjacent segments share an endpoint
    i, j = i[keep], j[keep]
    dx, dy = x2 - x1, y2 - y1
    # each endpoint coordinate gathered once; the orientation of q about
    # segment s is the z-component of d_s x (q - p1_s)
    xi, yi, x2i, y2i, dxi, dyi = (v[i] for v in (x1, y1, x2, y2, dx, dy))
    xj, yj, x2j, y2j, dxj, dyj = (v[j] for v in (x1, y1, x2, y2, dx, dy))
    d1 = dxi * (yj - yi) - dyi * (xj - xi)
    d2 = dxi * (y2j - yi) - dyi * (x2j - xi)
    d3 = dxj * (yi - yj) - dyj * (xi - xj)
    d4 = dxj * (y2i - yj) - dyj * (x2i - xj)
    return bool(np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0)))


# ---------------------------------------------------------------------------
# coefficient matrices


def faber_series(cmap: ConformalMap, z, coeffs) -> np.ndarray:
    """Sums sum_m c_m F_m(z), one per row of coeffs.

    The Faber recursion runs on the point values, so no monomial
    coefficients are formed: those grow geometrically with m on elongated
    boundaries, and summing them cancels away every digit at high order.
    Only the last K+1 values are needed, and the value before them holds
    the next one, so the recurrence runs in place. A derivative sum
    sum_m d_m F_m'(z) is the value sum of the row d Dt
    (faber_derivative_matrices), since F_m' = sum_j Dt[m, j] F_j exactly.
    """
    z = np.asarray(z, dtype=complex)
    coeffs = np.asarray(coeffs, dtype=complex)
    a = cmap.a
    keep = max(a.size, 1)
    F = [np.ones_like(z)]  # newest F_k(z); F[-1] is F_m
    sums = np.multiply.outer(coeffs[:, 0], F[0])
    term, spare = np.empty_like(sums), np.empty_like(z)
    for m in range(coeffs.shape[1] - 1):
        f = np.multiply(z, F[-1], out=F[0] if len(F) == keep + 1 else None)
        if m < a.size:
            f -= m * a[m]
        for k in range(max(0, m - a.size + 1), m + 1):
            f -= np.multiply(a[m - k], F[k - m - 1], out=spare)
        F = (F + [f])[-keep - 1 :]
        sums += np.multiply.outer(coeffs[:, m + 1], f, out=term)
    return sums


def reciprocal_derivative_coefficients(cmap: ConformalMap, n: int) -> np.ndarray:
    """Coefficients r_s of the expansion 1/Psi'(w) = sum_{s>=0} r_s w^{-s}."""
    a = cmap.a
    r = np.zeros(n + 1, dtype=complex)
    r[0] = 1.0
    for s in range(1, n + 1):
        acc = 0.0 + 0.0j
        for k in range(1, a.size):
            if k + 1 <= s:
                acc += k * a[k] * r[s - k - 1]
        r[s] = acc
    return r


def faber_derivative_matrices(cmap: ConformalMap, n: int) -> np.ndarray:
    """Matrix Dt expressing Faber derivatives in the Faber basis.

    Row m of Dt holds the coefficients of F_m' = sum_j Dt[m,j] F_j.
    Composing with the map, F_m'(Psi(w)) = m w^{m-1}/Psi'(w) plus strictly
    negative powers, while each F_j(Psi(w)) contributes w^j as its only
    nonnegative power; matching nonnegative powers gives
    Dt[m, j] = m r_{m-1-j} with r the reciprocal-derivative coefficients.
    The same matrix equals P T P^{-1} (T the monomial-derivative shift);
    the recurrence form avoids the triangular inverse's roundoff.
    """
    r = reciprocal_derivative_coefficients(cmap, n)
    Dt = np.zeros((n + 1, n + 1), dtype=complex)
    for m in range(1, n + 1):
        Dt[m, :m] = m * r[m - 1 :: -1]
    return Dt


def grunsky_rows(cmap: ConformalMap, rows: int, kmax: int) -> np.ndarray:
    """Grunsky coefficients c_{mk} for m = 0..rows, k = 0..kmax (column 0 zero).

    c_{mk} is the coefficient of w^{-k} in G_m(w) = F_m(Psi(w)); the table
    belongs to the map alone. It is kept on the map object, and a request
    within the kept table returns a read-only view of it; only a larger
    request runs the recurrence again (_grunsky_recurrence), at the larger
    of the two shapes. Every entry of a larger table equals the entry of a
    smaller one bit for bit, so a view never depends on which request came
    first. Equal maps held in distinct objects keep distinct tables.
    """
    kept = cmap.__dict__.get("_grunsky", np.zeros((0, 0)))
    if rows >= kept.shape[0] or kmax >= kept.shape[1]:
        kept = _grunsky_recurrence(cmap, max(rows, kept.shape[0] - 1), max(kmax, kept.shape[1] - 1))
        kept.flags.writeable = False
        object.__setattr__(cmap, "_grunsky", kept)
    return kept[: rows + 1, : kmax + 1]


def _grunsky_recurrence(cmap: ConformalMap, rows: int, kmax: int) -> np.ndarray:
    """The table of grunsky_rows, computed afresh.

    Composing the Faber recursion with the map gives

        G_{m+1} = Psi G_m - m a_m - sum_{k=max(0,m-K)}^{m} a_{m-k} G_k,

    run here for the unit-radius map (coefficients a_k gamma^{-k-1},
    _unit_coefficients) on the powers -(rows + kmax)..rows; the radius
    returns as c_{mk}(gamma) = gamma^{m+k} c_{mk}(1), a zero entry staying
    zero where the power overflows. Powers dropped below the window
    climb at most one power per multiplication by Psi, so after rows steps
    every power down to -kmax is exact.
    """
    b = _unit_coefficients(cmap)
    b = b if b.size else np.zeros(1)  # Psi(w) = w, written with a0 = 0
    psi = np.append(b[::-1], 1.0)  # Psi's coefficients, powers -K..1
    zero = rows + kmax  # column of w^0
    G = np.zeros((rows + 1, zero + rows + 1), dtype=complex)
    G[0, zero] = 1.0
    for m in range(rows):
        g = np.convolve(G[m], psi)[b.size - 1 : b.size - 1 + G.shape[1]]  # Psi G_m
        if m < b.size:
            g[zero] -= m * b[m]
        lo = max(0, m - b.size + 1)
        g -= b[m - lo :: -1] @ G[lo : m + 1]  # sum_k b_{m-k} G_k
        G[m + 1] = g
    C = G[:, zero - kmax : zero + 1][:, ::-1].copy()
    C[:, 0] = 0.0
    # a zero entry stays zero where gamma^(m+k) overflows
    with np.errstate(over="ignore"):
        scale = cmap.gamma ** np.add.outer(np.arange(rows + 1), np.arange(kmax + 1))
        np.multiply(C, scale, out=C, where=C != 0)
    return C


def psi_matrix(cmap: ConformalMap, n: int) -> np.ndarray:
    """Multiplication by Psi on the two-sided window of powers -n..n.

    Index i stands for the power i - n. A row vector s of coefficients
    maps to the coefficients s @ P of Psi(w) s(w), truncated to the window:
    P[i, t] = a_{i-t}, with a_{-1} = 1 (the w of Psi) and a_j = 0 outside
    -1..K. Gathered from one zero-padded copy of (a_{-2n-1}, ..., a_{2n}),
    with a_j stored at position j + 2n + 1.
    """
    span = 2 * n + 1
    padded = np.zeros(2 * span, dtype=complex)
    padded[span - 1] = 1.0
    top = min(cmap.a.size, span)
    padded[span : span + top] = cmap.a[:top]
    idx = np.arange(span)
    return padded[np.subtract.outer(idx, idx) + span]


@dataclass(frozen=True, eq=False)
class GeometryBundle:
    """The map-derived matrices at one shared truncation order, built for
    cmap.unit, the unit-radius problem the block system is posed on."""

    cmap: ConformalMap
    n: int
    faber_deriv: np.ndarray  # F_m' in the Faber basis, (n+1, n+1)
    grunsky: np.ndarray      # c_mk, m, k = 0..n
    psi: np.ndarray          # multiplication by Psi on powers -n..n, (2n+1, 2n+1)

    @property
    def gamma(self) -> float:
        return self.cmap.gamma


def exterior_series_orders(cmap: ConformalMap, n: int) -> tuple[int, int]:
    """(n + K, max(n + 2, (n + K) K)) for a map of depth K at truncation n.

    The first is the Faber order of the exterior layer terms, the second
    the last power of 1/w in their Laurent series: c_mk = 0 for k > mK, so
    the series is exact, not truncated (FieldEvaluator.tail).
    """
    order = max(n + cmap.depth, 1)
    return order, max(n + 2, order * cmap.depth)


def grunsky_table_entries(cmap: ConformalMap, n: int) -> int:
    """Complex entries of the table _grunsky_recurrence allocates for build_geometry(cmap, n).

    Its working table has rows + 1 rows over the powers -(rows + kmax)..rows,
    with (rows, kmax) = exterior_series_orders; a deep map makes it large at
    a small n. Computed without building anything.
    """
    rows, kmax = exterior_series_orders(cmap, n)
    return (rows + 1) * (2 * rows + kmax + 1)


def build_geometry(cmap: ConformalMap, n: int) -> GeometryBundle:
    """Construct every matrix of the bundle at truncation order n, at unit radius.

    The Grunsky table is requested at the shape the exterior layer series of
    the same truncation read (exterior_series_orders), so one recurrence
    serves the system and the field; the bundle keeps its (n + 1, n + 1)
    block.
    """
    unit = cmap.unit
    table = grunsky_rows(unit, *exterior_series_orders(unit, n))
    return GeometryBundle(
        cmap=cmap,
        n=n,
        faber_deriv=faber_derivative_matrices(unit, n),
        grunsky=table[: n + 1, : n + 1],
        psi=psi_matrix(unit, n),
    )
