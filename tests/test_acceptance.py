"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from flock_coeffs.coeffs import (
    beta_quadratic_form,
    c_relation_residuals,
    compute_coefficients,
    profile_moment_residuals,
    run_pipeline,
)
from flock_coeffs.elliptic import solve_gci
from flock_coeffs.fields import (
    R2_TERM_TAGS,
    decompose_gradients,
    deriv,
    evaluate_r1,
    evaluate_r2,
    make_field,
    r2_terms,
)
from flock_coeffs.kernel import constant_kernel, even_poly_kernel, registry_kernels
from flock_coeffs.oracle import compare_spectral_fd, mode_residuals

D_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)


def criterion(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def pipeline(kernel, n=64, kappa=0.1):
    p = run_pipeline(kernel, n, kappa)
    return p.eq, p.c, p.profiles


def test_criterion_1_mass_diffusion_positive():
    t0 = time.perf_counter()
    betas = {}
    for d in D_GRID:
        hydro = compute_coefficients(constant_kernel(1.0, d=d), n=64)
        betas[d] = hydro.beta
    elapsed = time.perf_counter() - t0
    ok = all(b > 1e-12 for b in betas.values()) and elapsed < 5.0
    criterion(1, "beta > 1e-12 for constant rate across the noise grid", ok,
              f"min beta = {min(betas.values()):.3e}, {elapsed:.2f}s")


def test_criterion_2_consistency_certificates():
    worst = 0.0
    for kernel in (constant_kernel(1.0, d=1.0), even_poly_kernel([1.0, 0.5], d=1.0)):
        eq, c, profiles = pipeline(kernel)
        worst = max(worst, max(c_relation_residuals(kernel, profiles["gci"], c, eq).values()))
        worst = max(worst, max(profile_moment_residuals(profiles, eq).values()))
    criterion(2, "integral-form and moment certificates < 1e-9 at n=64",
              worst < 1e-9, f"worst residual = {worst:.3e}")


def test_criterion_3_closed_form_constants():
    worst_c1 = 0.0
    worst_c3 = 0.0
    for d in D_GRID:
        hydro = compute_coefficients(constant_kernel(1.0, d=d), n=64)
        kappa = 1.0 / d
        worst_c1 = max(worst_c1, abs(hydro.c1 - (1.0 / np.tanh(kappa) - 1.0 / kappa)))
        worst_c3 = max(worst_c3, abs(hydro.c3 - d))
    ok = worst_c1 < 1e-10 and worst_c3 < 1e-12
    criterion(3, "c1 matches the closed form to 1e-10 and c3 = d to 1e-12", ok,
              f"c1 err = {worst_c1:.2e}, c3 err = {worst_c3:.2e}")


def test_criterion_4_maximum_principle():
    worst = -np.inf
    for n in (48, 64):
        for d in (0.1, 0.5, 1.0, 2.0):
            for kernel in registry_kernels(d=d):
                worst = max(worst, float(solve_gci(kernel, n).values.max()))
    criterion(4, "invariant profile h <= 1e-10 for every registry kernel at n = 48, 64",
              worst <= 1e-10, f"max h = {worst:.3e}")


def test_criterion_5_oracle_equivalence():
    worst_fd = 0.0
    worst_mode = 0.0
    for kernel in (constant_kernel(1.0, d=1.0), even_poly_kernel([1.0, 0.5], d=1.0)):
        eq, c, profiles = pipeline(kernel)
        worst_fd = max(worst_fd,
                       max(compare_spectral_fd(kernel, c, profiles, m=20000).values()))
        worst_mode = max(worst_mode, max(mode_residuals(kernel, c, profiles).values()))
    ok = worst_fd <= 1e-4 and worst_mode < 1e-8
    criterion(5, "dense FD (m=20000) within 1e-4 and operator substitution "
                 "within 1e-8 for all six problems", ok,
              f"fd = {worst_fd:.3e}, mode = {worst_mode:.3e}")


def test_criterion_6_beta_quadratic_form_identity():
    worst = 0.0
    for kernel in (constant_kernel(1.0, d=1.0), even_poly_kernel([1.0, 0.5], d=1.0)):
        eq, c, profiles = pipeline(kernel)
        x = eq.rule.nodes
        beta = eq.average(profiles["a_par"](x) * x)
        worst = max(worst, abs(beta_quadratic_form(kernel, profiles, eq) - beta))
    criterion(6, "bracket and dissipation-form routes to beta agree to 1e-8",
              worst < 1e-8, f"gap = {worst:.3e}")


def test_criterion_7_structure_and_orthogonality():
    state = make_field("random-smooth", (16, 16, 16), seed=21)
    bundle = decompose_gradients(state)
    terms = r2_terms(state, bundle)
    tags = [R2_TERM_TAGS[s] for s in terms]
    count_ok = (len(terms) == 13 and tags.count("quadratic") == 8
                and tags.count("derivative") == 5)

    rng = np.random.default_rng(22)
    zeta = rng.standard_normal(13)
    r2 = evaluate_r2(state, bundle, zeta)
    dots = np.abs(np.sum(r2 * state.omega, axis=-1))
    scale = np.linalg.norm(r2, axis=-1) + np.finfo(float).eps
    ortho = float((dots / scale).max())

    z2 = rng.standard_normal(13)
    lin = evaluate_r2(state, bundle, zeta + 2.0 * z2) \
        - r2 - 2.0 * evaluate_r2(state, bundle, z2)
    lin_gap = float(np.abs(lin).max())

    ok = count_ok and ortho < 1e-9 and lin_gap < 1e-12
    criterion(7, "8 quadratic + 5 derivative structures, transverse and "
                 "coefficient-linear", ok,
              f"orthogonality = {ortho:.2e}, linearity = {lin_gap:.2e}")


def test_criterion_8_geometric_identities():
    def curl_of(state):
        o, g = state.omega, state.grid
        c = np.empty_like(o)
        c[..., 0] = deriv(o[..., 2], 1, g.spacing[1]) - deriv(o[..., 1], 2, g.spacing[2])
        c[..., 1] = deriv(o[..., 0], 2, g.spacing[2]) - deriv(o[..., 2], 0, g.spacing[0])
        c[..., 2] = deriv(o[..., 1], 0, g.spacing[0]) - deriv(o[..., 0], 1, g.spacing[1])
        return c

    tilt_errs = []
    for n in (24, 48):
        state = make_field("random-smooth", (n, n, n), seed=23)
        bundle = decompose_gradients(state)
        gap = bundle.omega_tilt - np.cross(curl_of(state), state.omega)
        tilt_errs.append(float(np.sqrt(np.mean(gap**2))))
    tilt_ratio = tilt_errs[0] / tilt_errs[1]

    state = make_field("random-smooth", (24, 24, 24), seed=24)
    bundle = decompose_gradients(state)
    swirl = np.sum(curl_of(state) * state.omega, axis=-1)
    X = np.random.default_rng(25).standard_normal(3)
    swirl_gap = float(np.abs(
        np.einsum("...jk,k->...j", bundle.gamma_omega, X)
        - swirl[..., None] * np.cross(X, state.omega)).max())

    r1_errs = []
    beta = 0.37
    for n in (32, 64):
        st = make_field("axial-sine", (4, 4, n))
        b = decompose_gradients(st)
        r1 = evaluate_r1(st, b, beta, 0.9)
        z = st.grid.coordinates()[2]
        r1_errs.append(float(np.abs(r1 + beta * np.sin(z)).max()))
    r1_ratio = r1_errs[0] / r1_errs[1]

    ok = (3.5 <= tilt_ratio <= 4.5 and swirl_gap < 1e-12
          and 3.5 <= r1_ratio <= 4.5 and r1_errs[1] < 5e-3)
    criterion(8, "tilt/swirl identities and closed-form mass correction at "
                 "scheme order", ok,
              f"tilt ratio = {tilt_ratio:.2f}, swirl gap = {swirl_gap:.1e} "
              f"(exact algebra), r1 ratio = {r1_ratio:.2f}")


def test_criterion_9_determinism_and_convergence():
    kernel = even_poly_kernel([1.0, 0.5], d=1.0)
    vals = []
    for _ in range(2):
        h = compute_coefficients(kernel, n=64, kappa=0.1)
        vals.append(np.concatenate([[h.c1, h.c2, h.c3, h.beta, h.gamma], h.zeta]))
    bitwise = vals[0].tobytes() == vals[1].tobytes()

    # pinned at degree 128: an adaptive run could stop where the n = 64 run did
    h128 = run_pipeline(kernel, 128, 0.1).hydro
    v128 = np.concatenate([[h128.c1, h128.c2, h128.c3, h128.beta, h128.gamma],
                           h128.zeta])
    drift = float(np.max(np.abs(vals[0] - v128)))

    t0 = time.perf_counter()
    for d in np.linspace(0.1, 2.0, 20):
        compute_coefficients(constant_kernel(1.0, d=float(d)), n=64)
    sweep_time = time.perf_counter() - t0

    ok = bitwise and drift < 1e-9 and sweep_time < 10.0
    criterion(9, "bitwise-reproducible, degree-doubling drift < 1e-9, "
                 "20-point sweep under 10 s", ok,
              f"drift = {drift:.2e}, sweep = {sweep_time:.2f}s")
