"""Reference implementations the tests compare the package against.

FieldEvaluator sums combined coefficient series by the Faber recurrence
inside and by one Laurent series in 1/w outside; these straightforward
per-mode sums over the monomial Faber coefficients, the per-mode Grunsky
form of the exterior series, and the per-entry dict form of the
conjugate-coordinate shift, are the routes the tests compare it against.
The package sums every Faber series by the recurrence on point values
(geometry.faber_series); the monomial Faber matrices, their inverse, the
monomial derivative shift and the loading's monomial polynomial pair live
here only, as references. loading_by_grunsky is the reference for the
loading and its derivatives on and outside the boundary. The row-wise grid
evaluation and field.csv writer at the end are the references for
grid_field's columns and the CLI's column-wise writer.
"""

import csv

import numpy as np

from elastinc.field import FieldEvaluator, FieldSample, classify_points, invert_map
from elastinc.geometry import (
    ConformalMap,
    GeometryError,
    eval_map,
    eval_map_derivative,
    eval_map_second_derivative,
    grunsky_rows,
)
from elastinc.loading import LoadingSpec, boundary_series


# -- the monomial Faber substrate -----------------------------------------------


def faber_matrix(cmap: ConformalMap, n: int) -> np.ndarray:
    """Rows 0..n of Faber polynomial coefficients (row m: F_m, ascending powers).

    Built from the recursion
        F_{m+1}(z) = z F_m(z) - m a_m - sum_{k=0}^{m} a_{m-k} F_k(z),
    which yields a unit-lower-triangular matrix.
    """
    if n < 0:
        raise GeometryError("truncation order must be nonnegative")
    P = np.zeros((n + 1, n + 1), dtype=complex)
    P[0, 0] = 1.0
    for m in range(n):
        row = np.zeros(n + 1, dtype=complex)
        row[1 : m + 2] = P[m, : m + 1]  # z * F_m
        row[0] -= m * cmap.coeff(m)
        for k in range(m + 1):
            ak = cmap.coeff(m - k)
            if ak != 0.0:
                row[: k + 1] -= ak * P[k, : k + 1]
        P[m + 1] = row
    return P


def faber_inverse(P: np.ndarray) -> np.ndarray:
    """Exact inverse of the unit-lower-triangular Faber coefficient matrix.

    Forward substitution on P X = I: row i of X is e_i - sum_{j<i} P[i,j] X[j].
    """
    X = np.eye(P.shape[0], dtype=complex)
    for i in range(1, P.shape[0]):
        X[i] -= P[i, :i] @ X[:i]
    return X


def monomial_derivative_matrix(n: int) -> np.ndarray:
    """Subdiagonal (1, 2, ..., n): the d/dz action on monomial coefficients."""
    T = np.zeros((n + 1, n + 1), dtype=complex)
    for m in range(1, n + 1):
        T[m, m - 1] = m
    return T


def poly_eval(coeffs_ascending: np.ndarray, z):
    """Evaluate a polynomial given ascending coefficients (vectorized in z)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in np.asarray(coeffs_ascending)[::-1]:
        out = out * z + c
    return out


def polyder(coeffs: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the derivative of a polynomial."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, coeffs.size)


def loading_pair(spec: LoadingSpec, cmap: ConformalMap) -> tuple[np.ndarray, np.ndarray]:
    """Ascending-coefficient polynomials (f, g) with loading = kappa f - z conj(f') - conj(g)."""
    M = spec.order
    A, B = spec.padded(M)
    P = faber_matrix(cmap, M)
    f = A @ P
    g = -(B @ P)
    return f, g


# -- the loading by its Grunsky series --------------------------------------------


def loading_by_grunsky(spec: LoadingSpec, cmap: ConformalMap, w):
    """(f, g, f', g', f'') of the loading at Psi(w), |w| >= gamma, from the Grunsky series.

    F_m(Psi(w)) = w^m + sum_k c_mk w^-k is finite (k <= mK) for a
    Laurent-polynomial map of depth K, so the potentials f = sum A_m F_m and
    g = -sum B_m F_m are two-sided power series S(w), summed by
    boundary_series. Their z-derivatives follow from the chain rule,
    f' = dS/dw / Psi' and f'' = (d^2S/dw^2 - f' Psi'') / Psi'^2, with
    w dS/dw and w^2 d^2S/dw^2 summed as series of their own.
    """
    w = np.asarray(w, dtype=complex)
    M = spec.order
    A, B = spec.padded(M)
    kmax = max(M * cmap.depth, 1)
    pos = np.stack([A, -B])
    neg = pos @ grunsky_rows(cmap, M, kmax)
    kp, kn = np.arange(M + 1), np.arange(kmax + 1)
    S = boundary_series(pos, neg, w)
    dS = boundary_series(kp * pos, -kn * neg, w) / w
    d2S = boundary_series(kp * (kp - 1) * pos, kn * (kn + 1) * neg, w) / w**2
    dpsi = eval_map_derivative(cmap, w)
    d2psi = eval_map_second_derivative(cmap, w)
    first = dS / dpsi
    fpp = (d2S[0] - first[0] * d2psi) / dpsi**2
    return S[0], S[1], first[0], first[1], fpp


# -- the layer transforms ---------------------------------------------------------


def _shifted_coefficients(cmap: ConformalMap, full: dict) -> dict:
    """Mode coefficients of the conjugate-coordinate multiple of a density.

    full maps mode index k to its coefficient; the returned dict maps j to
    sum_l conj(a_l) gamma^{-l} full[j - l] over the map coefficients
    (a_{-1} = 1).
    """
    gamma = cmap.gamma
    depth = cmap.a.size - 1
    out: dict[int, complex] = {}
    for k, xk in full.items():
        if xk == 0.0:
            continue
        for l in range(-1, depth + 1):
            al = cmap.coeff(l)
            if al == 0.0:
                continue
            j = k + l
            out[j] = out.get(j, 0.0) + np.conj(al) * gamma ** (-l) * xk
    return out


def exterior_tail(cmap: ConformalMap, solution, kmax: int) -> np.ndarray:
    """The exterior series rows (f, fbar, C, q) of FieldEvaluator.tail, mode by mode.

    Column k multiplies w^-k on the unit-radius map cmap, up to k = kmax.
    With the Grunsky coefficients c_mk of F_m(Psi(w)) = w^m + sum_k c_mk w^-k
    and y the dict-shifted density:
        f_k = sum_m (-x_m / m) c_mk - x_-k / k,  fbar likewise for the
        conjugate density, C_k = -k f_k with C_0 = x_0, and
        q_k = sum_{j >= 1} y_j (k / j) c_jk + y_-k.
    """
    n = solution.n
    xp, xm = solution.xe_plus, solution.xe_minus
    full = {m: xp[m] for m in range(1, n + 1)}
    full.update({-k: xm[k] for k in range(1, n + 1)})
    full[0] = xm[0]
    y = _shifted_coefficients(cmap, full)
    c = grunsky_rows(cmap, max([j for j in y if j >= 1] + [n, 1]), kmax)
    ks = np.arange(kmax + 1)
    rows = np.zeros((4, kmax + 1), dtype=complex)
    for m in range(1, n + 1):
        rows[0] += -xp[m] / m * c[m]
        rows[1] += -np.conj(xm[m]) / m * c[m]
        if m <= kmax:
            rows[0, m] -= xm[m] / m
            rows[1, m] -= np.conj(xp[m]) / m
    rows[2] = -ks * rows[0]
    rows[2, 0] = xm[0]
    for j, yj in y.items():
        if j >= 1:
            rows[3] += yj * (ks / j) * c[j]
        elif -j <= kmax:
            rows[3, -j] += yj
    return rows


def log_layer_exterior(cmap: ConformalMap, plus: np.ndarray, minus: np.ndarray, w):
    """The log-kernel layer transform of a density, evaluated outside.

    plus[m] multiplies the mode-m basis density (m >= 1), minus[k] the
    mode-(-k) one, minus[0] the mode-0 one. Straightforward per-mode sum;
    the evaluator reproduces this with precomputed combined series.
    """
    w = np.asarray(w, dtype=complex)
    gamma = cmap.gamma
    z = eval_map(cmap, w)
    P = faber_matrix(cmap, max(plus.size - 1, 1))
    out = minus[0] * np.log(w)
    for m in range(1, plus.size):
        if plus[m] != 0.0:
            out = out + plus[m] * (-1.0 / m) * gamma ** (-m) * (poly_eval(P[m], z) - w**m)
    for k in range(1, minus.size):
        if minus[k] != 0.0:
            out = out + minus[k] * (-1.0 / k) * gamma**k * w ** (-k)
    return out


def log_layer_interior(cmap: ConformalMap, plus: np.ndarray, minus: np.ndarray, z):
    """Interior branch of the log-kernel layer transform at physical points."""
    z = np.asarray(z, dtype=complex)
    gamma = cmap.gamma
    P = faber_matrix(cmap, max(plus.size - 1, 1))
    out = minus[0] * np.log(gamma) * np.ones_like(z)
    for m in range(1, plus.size):
        if plus[m] != 0.0:
            out = out + plus[m] * (-1.0 / m) * gamma ** (-m) * poly_eval(P[m], z)
    return out


def deriv_layer_exterior(cmap: ConformalMap, plus: np.ndarray, minus: np.ndarray, w):
    """z-derivative of the log-kernel layer transform, exterior branch."""
    w = np.asarray(w, dtype=complex)
    gamma = cmap.gamma
    z = eval_map(cmap, w)
    dpsi = eval_map_derivative(cmap, w)
    order = max(plus.size - 1, 1)
    P = faber_matrix(cmap, order)
    dP = P @ monomial_derivative_matrix(order)
    out = minus[0] / (w * dpsi)
    for m in range(1, plus.size):
        if plus[m] != 0.0:
            out = out + plus[m] * (
                (-1.0 / m) * gamma ** (-m) * poly_eval(dP[m], z)
                + gamma ** (-m) * w ** (m - 1) / dpsi
            )
    for k in range(1, minus.size):
        if minus[k] != 0.0:
            out = out + minus[k] * gamma**k * w ** (-k - 1) / dpsi
    return out


def deriv_layer_interior(cmap: ConformalMap, plus: np.ndarray, minus: np.ndarray, z):
    """z-derivative of the log-kernel layer transform, interior branch."""
    z = np.asarray(z, dtype=complex)
    gamma = cmap.gamma
    order = max(plus.size - 1, 1)
    P = faber_matrix(cmap, order)
    dP = P @ monomial_derivative_matrix(order)
    out = np.zeros_like(z)
    for m in range(1, plus.size):
        if plus[m] != 0.0:
            out = out + plus[m] * (-1.0 / m) * gamma ** (-m) * poly_eval(dP[m], z)
    return out


def _samples(arrays: dict, w, region: str, near) -> list[FieldSample]:
    """One FieldSample per evaluated point, converting each array column once."""
    columns = [np.asarray(arrays[key], dtype=complex).tolist()
               for key in ("z", "u", "f", "fprime", "g",
                           "load_part", "f_part", "fprime_part", "g_part")]
    return [
        FieldSample(wi, z, u, region, f, fp, g,
                    {"load_part": lp, "f_part": fpart, "fprime_part": fppart, "g_part": gpart},
                    nb)
        for wi, nb, z, u, f, fp, g, lp, fpart, fppart, gpart in zip(w, near, *columns)
    ]


def grid_rows(solution, loading, cmap: ConformalMap, material, grid) -> list[FieldSample]:
    """grid_field built row by row: one FieldSample per grid point."""
    ev = FieldEvaluator(solution, loading, cmap, material)
    pts = grid.points()
    regions, near = classify_points(cmap, pts, band=grid.band)
    ext = np.flatnonzero(regions == "exterior")
    inner = np.flatnonzero(regions == "interior")
    samples = np.empty(pts.size, dtype=object)
    if ext.size:
        w_ext = invert_map(cmap, pts[ext])
        w_ext = np.where(
            np.abs(w_ext) <= cmap.gamma, cmap.gamma * (1.0 + 1e-9) * w_ext / np.abs(w_ext), w_ext
        )
        samples[ext] = _samples(ev.exterior_arrays(w_ext), w_ext.tolist(), "exterior",
                                near[ext].tolist())
    nanval = complex(np.nan, np.nan)
    if inner.size and solution.mode == "transmission":
        samples[inner] = _samples(ev.interior_arrays_z(pts[inner]), [nanval] * inner.size,
                                  "interior", near[inner].tolist())
    elif inner.size:
        samples[inner] = [
            FieldSample(w=nanval, z=zi, u=nanval, region="interior", f=nanval, fprime=nanval,
                        g=nanval, parts={}, near_boundary=nb)
            for zi, nb in zip(pts[inner].tolist(), near[inner].tolist())
        ]
    return samples.tolist()


def write_field_rows(path, header, samples) -> None:
    """field.csv written one FieldSample at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for s in samples:
            writer.writerow(
                [
                    repr(float(np.real(s.w))),
                    repr(float(np.imag(s.w))),
                    repr(float(np.real(s.z))),
                    repr(float(np.imag(s.z))),
                    s.region,
                    repr(float(np.real(s.u))),
                    repr(float(np.imag(s.u))),
                ]
            )
