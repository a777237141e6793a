import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import flock_coeffs.coeffs as coeffs_mod
import flock_coeffs.elliptic as elliptic_mod
import flock_coeffs.fields as fields_mod
import flock_coeffs.quad as quad_mod
import flock_coeffs.verify as verify_mod
from flock_coeffs.coeffs import (
    FIRST_TRIAL_DEGREE,
    beta_quadratic_form,
    c_relation_residuals,
    compute_coefficients,
    compute_r1_coeffs,
    profile_moment_residuals,
    run_pipeline,
    solve_profiles,
)
from flock_coeffs.elliptic import elliptic_problem_data
from flock_coeffs.errors import DomainError, NumericError, PreconditionError, SolverError
from flock_coeffs.kernel import (
    affine_kernel,
    constant_kernel,
    even_poly_kernel,
    registry_kernels,
)
from flock_coeffs.quad import build_rule, quadrature_size


def langevin(kappa):
    return 1.0 / np.tanh(kappa) - 1.0 / kappa


def all_values(h):
    return np.concatenate([[h.c1, h.c2, h.c3, h.beta, h.gamma], h.zeta])


D_SWEEP = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)


@pytest.mark.parametrize("d", D_SWEEP)
def test_drift_constant_matches_langevin(d):
    hydro = compute_coefficients(constant_kernel(1.0, d=d), n=64)
    assert abs(hydro.c1 - langevin(1.0 / d)) < 1e-10


@pytest.mark.parametrize("d", (0.1, 1.0, 3.0))
def test_pressure_constant_for_constant_rate(d):
    # 1/nu is constant, so it pulls out of the bracket: c3 = d / nu
    hydro = compute_coefficients(constant_kernel(1.0, d=d), n=64)
    assert abs(hydro.c3 - d) < 1e-12
    hydro2 = compute_coefficients(constant_kernel(2.0, d=d), n=64)
    assert abs(hydro2.c3 - d / 2.0) < 1e-12


@pytest.mark.parametrize("d, n", [(0.01, 64), (0.007, 64), (0.005, 128), (0.002, 128),
                                  (0.0015, 192), (0.001, 256), (0.0005, 512)])
def test_small_noise_closed_forms(d, n):
    # the weight exp(mu/d) spans up to 4000 e-folds; it underflows at the
    # nodes for d <= 0.002, yet every solve must record a finite residual
    hydro = compute_coefficients(constant_kernel(1.0, d=d), n=n)
    assert abs(hydro.c1 - langevin(1.0 / d)) < 1e-10
    assert abs(hydro.c3 - d) < 1e-10 * d
    solves = {k: v for k, v in hydro.residuals.items() if k.endswith("_solve")}
    assert len(solves) == 6
    assert all(np.isfinite(v) for v in solves.values()), solves


@pytest.mark.parametrize("n", [2.5, 64.5, float("nan"), float("inf")])
def test_fractional_degree_is_a_domain_error_naming_n(n):
    kernel = constant_kernel(1.0, d=0.5)
    with pytest.raises(DomainError, match=r"degree n must be an integer, got"):
        compute_coefficients(kernel, n=n)
    with pytest.raises(DomainError, match=r"degree n must be an integer, got"):
        run_pipeline(kernel, n, 0.0)


@pytest.mark.parametrize("n", [4, 7])
def test_degree_below_the_floor_is_a_domain_error_naming_n(n):
    # below MIN_DEGREE the b2 solvability check failed (n = 4, a numeric
    # failure) or the set came back unresolved (n = 7, tail 2.2e-5)
    kernel = constant_kernel(1.0, d=0.5)
    message = re.escape(f"degree n must be >= {coeffs_mod.MIN_DEGREE}, got {n}")
    for run in (lambda: compute_coefficients(kernel, n=n), lambda: run_pipeline(kernel, n, 0.0),
                lambda: verify_mod.run_verification(n=n, quick=True)):
        with pytest.raises(DomainError, match=message):
            run()


def test_whole_float_degree_is_that_degree():
    kernel = constant_kernel(1.0, d=0.5)
    hydro = compute_coefficients(kernel, n=64.0)
    assert type(hydro.n) is int and hydro.n == hydro.degree == 64
    assert all_values(hydro).tobytes() == all_values(compute_coefficients(kernel, n=64)).tobytes()


@pytest.mark.parametrize("d", [25.0, 50.0, 1e3, 1e6])
def test_large_noise_drift_limit(d):
    # the weight tends to uniform, exp(sigma/d) = 1 + sigma/d + O(d^-2), so
    # c1 = <mu> = int mu sigma dmu / (2d) = int (1-mu^2) nu dmu / (4d) to
    # leading order; the next term is O(1/d) relative, with a coefficient
    # below 0.04 for these rates
    rule = build_rule(16)
    x = rule.nodes
    for kernel in registry_kernels(d=d):
        limit = float(rule.weights @ ((1.0 - x * x) * kernel.nu(x))) / (4.0 * d)
        c1 = run_pipeline(kernel, 32, 0.1).hydro.c1
        assert abs(c1 / limit - 1.0) <= 0.1 / d, kernel.model


def test_weight_spread_bound_ends_the_range_at_6e7():
    # for a unit constant rate the weight's spread 2/d falls below
    # MIN_WEIGHT_SPREAD, where rounding of the weights costs c1 its C1_RTOL,
    # between d = 6e7 and 7e7
    assert 2.0 / 7e7 < coeffs_mod.MIN_WEIGHT_SPREAD < 2.0 / 6e7
    run_pipeline(constant_kernel(1.0, d=6e7), 32, 0.1)
    with pytest.raises(NumericError, match=re.escape("d = 7e+07 is above the supported range")):
        run_pipeline(constant_kernel(1.0, d=7e7), 32, 0.1)


def test_profiles_follow_the_problem_table(pipeline_even):
    # one name-keyed dict in the order of elliptic_problem_data, and one
    # recorded strong residual per solved problem, in the same order
    p = pipeline_even
    table = elliptic_problem_data(p["kernel"], p["c"], b1=p["profiles"]["b1"])
    assert list(p["profiles"]) == list(table)
    solves = [key for key in p["hydro"].residuals if key.endswith("_solve")]
    assert solves == [f"{name}_solve" for name in table]


@pytest.mark.parametrize("d, n", [(0.001, 256), (0.0007, 384)])
def test_b2_solvability_integral_at_rounding_level(d, n):
    # the b2 data 2 b1 - c1/d integrate to zero against the weight; with one
    # refinement step per solve the discrete integral sits near 1e-12, far
    # under the 1e-10 bound of the solvability check (unrefined: 1e-10 to 1e-9)
    kernel = constant_kernel(1.0, d=d)
    p = run_pipeline(kernel, n, 0.1)
    f = 2.0 * p.profiles["b1"].values - p.c[0] / d
    assert abs(float(p.eq.rule.weights @ (f * p.eq.weight))) < 1e-11


def test_c_relation_certificates(pipeline_const, pipeline_even):
    for p in (pipeline_const, pipeline_even):
        res = c_relation_residuals(p["kernel"], p["profiles"]["gci"], p["c"], p["eq"])
        assert max(res.values()) < 1e-9


def test_a_par_data_has_zero_mean(pipeline_even):
    # the conservative problem for a_par is solvable because c1 is defined by
    # exactly the vanishing first moment
    # checked on the table's a_par ratio f/w times the shifted weight, the
    # data the solver receives
    p = pipeline_even
    kernel = p["kernel"]
    rule = p["eq"].rule
    lw = kernel.log_weight(rule.nodes)
    f = elliptic_problem_data(kernel, p["c"])["a_par"]["f"](rule.nodes)
    assert abs(float(rule.weights @ (f * np.exp(lw - lw.max())))) < 1e-14


def test_profile_moment_relations(pipeline_const, pipeline_even):
    for p in (pipeline_const, pipeline_even):
        res = profile_moment_residuals(p["profiles"], p["eq"])
        assert max(res.values()) < 1e-9


def test_inconsistent_constants_rejected(pipeline_even):
    # corrupting c1 breaks the solvability of the conservative solve
    p = pipeline_even
    bad_c = (p["c"][0] + 0.05, p["c"][1], p["c"][2])
    with pytest.raises(PreconditionError):
        solve_profiles(p["kernel"], bad_c, p["n"], p["eq"])


@pytest.mark.parametrize("d", D_SWEEP)
def test_mass_diffusion_positive_all_kernels(d):
    # positivity is structural and holds at every noise level; the c ordering
    # is a moderate-noise regime property, so run_pipeline (which does not
    # check it) is used here
    for kernel in registry_kernels(d=d):
        hydro = run_pipeline(kernel, 48, 0.0).hydro
        assert hydro.beta > 1e-12


def test_beta_continuous_in_noise():
    # beta grows steeply (~d^2-ish) at small d: sample log-spaced and bound
    # the per-step change of log beta
    ds = np.geomspace(0.1, 2.0, 40)
    betas = np.array([compute_coefficients(constant_kernel(1.0, d=d), n=48).beta
                      for d in ds])
    assert np.all(betas > 0)
    assert np.abs(np.diff(np.log(betas))).max() < 0.5


def test_beta_dirichlet_route(pipeline_const, pipeline_even):
    for p in (pipeline_const, pipeline_even):
        beta, _ = compute_r1_coeffs(p["profiles"], p["eq"])
        assert abs(beta_quadratic_form(p["kernel"], p["profiles"], p["eq"]) - beta) < 1e-8


def test_zeta_assembly_identity(pipeline_even):
    h = pipeline_even["hydro"]
    rebuilt = h.prefactor * (np.asarray(h.lam["double_prime"])
                             + np.asarray(h.eta["prime"])
                             + np.asarray(h.xi["slots"]))
    assert np.max(np.abs(h.zeta - rebuilt)) == 0.0


def test_nonlocal_slot_relations(pipeline_even):
    h = pipeline_even["hydro"]  # built with kappa = 0.1
    xs = np.asarray(h.xi["slots"])
    xi = h.xi["xi"]
    assert xi != 0.0
    assert xs[3] == pytest.approx(-xs[0], rel=1e-14)
    assert xs[1] == pytest.approx(0.5 * xs[0], rel=1e-14)
    assert xs[11] == pytest.approx(0.5 * xs[0], rel=1e-14)
    assert xs[12] == pytest.approx(0.5 * xs[0], rel=1e-14)
    assert xs[5] == pytest.approx(2.0 * xs[0], rel=1e-14)
    for j in (4, 6, 8, 9):  # slots with no nonlocal contribution
        assert xs[j] == 0.0


def test_local_interaction_kills_nonlocal_slots(even_kernel):
    hydro = compute_coefficients(even_kernel, n=48, kappa=0.0)
    assert np.max(np.abs(np.asarray(hydro.xi["slots"]))) == 0.0
    assert hydro.zeta[12] == 0.0  # the slot fed only by the nonlocal route


def test_time_route_table_consistency(pipeline_even):
    # lambda'_5 = -l1_12/2 and lambda''_10 = -lambda'_5 c2, rebuilt from the
    # raw bracket independently of the stored prime tables
    p = pipeline_even
    h, eq = p["hydro"], p["eq"]
    x = eq.rule.nodes
    pr = p["profiles"]
    l1_12 = eq.average(0.5 * (1 - x * x) * pr["b_par"](x) * pr["gci"](x))
    assert h.lam["l1_12"] == pytest.approx(l1_12, abs=1e-15)
    lp5 = -0.5 * l1_12
    assert h.lam["prime"][4] == pytest.approx(lp5, abs=1e-15)
    assert h.lam["double_prime"][9] == pytest.approx(-lp5 * h.c2, abs=1e-15)


def test_prefactor_uses_probability_average(pipeline_even):
    p = pipeline_even
    eq, h = p["eq"], p["hydro"]
    x = eq.rule.nodes
    bracket = eq.average((1 - x * x) * np.asarray(p["kernel"].nu(x)) * p["profiles"]["gci"](x))
    assert h.prefactor == pytest.approx(2.0 * p["kernel"].d / bracket, rel=1e-14)


def test_pipeline_determinism_bitwise(even_kernel):
    h1 = compute_coefficients(even_kernel, n=48, kappa=0.1)
    h2 = compute_coefficients(even_kernel, n=48, kappa=0.1)
    assert all_values(h1).tobytes() == all_values(h2).tobytes()


def test_self_convergence_degree_doubling(even_kernel):
    h64 = compute_coefficients(even_kernel, n=64, kappa=0.1)
    # pinned at degree 128: an adaptive run could stop where the n = 64 run did
    h128 = run_pipeline(even_kernel, 128, 0.1).hydro
    assert np.max(np.abs(all_values(h64) - all_values(h128))) < 1e-9


def test_sigma_shift_changes_nothing(even_kernel, with_sigma_shift):
    h = compute_coefficients(even_kernel, n=48, kappa=0.1)
    h_shift = compute_coefficients(with_sigma_shift(even_kernel, 5.0), n=48, kappa=0.1)
    assert np.max(np.abs(all_values(h) - all_values(h_shift))) < 1e-12


def test_constant_ordering_invariants():
    for d in (0.2, 1.0, 2.0):
        for kernel in registry_kernels(d=d):
            h = compute_coefficients(kernel, n=48)
            assert 0.0 < h.c2 < h.c1 < 1.0
            assert h.c3 > 0.0


def test_theorem_coefficient_mapping(pipeline_even):
    h = pipeline_even["hydro"]
    z = h.zeta
    rho = 2.3
    q = h.q_coeffs(rho)
    dd = h.d_coeffs(rho)
    assert q == pytest.approx([z[6] / rho, z[0], z[2], z[3], z[5],
                               rho * z[7], rho * z[8], rho * z[9]], abs=0)
    assert dd == pytest.approx([z[4], rho * z[10], rho * z[1], rho * z[11],
                                rho * z[12]], abs=0)


def test_json_payload_schema(pipeline_even):
    payload = pipeline_even["hydro"].to_json_dict()
    assert set(payload) == {"kernel", "d", "kappa", "n", "degree", "c", "beta", "gamma",
                            "zeta", "intermediates", "residuals"}
    assert len(payload["zeta"]) == 13
    assert len(payload["c"]) == 3
    assert set(payload["intermediates"]) == {"lambda", "eta", "xi", "prefactor"}


def test_corruption_hook_changes_assembly(even_kernel, flip_time_route_slot):
    clean = compute_coefficients(even_kernel, n=48, kappa=0.1)
    flip_time_route_slot(3)
    bad = compute_coefficients(even_kernel, n=48, kappa=0.1)
    assert bad.zeta[2] != clean.zeta[2]
    rebuilt = bad.prefactor * (np.asarray(bad.lam["double_prime"])
                               + np.asarray(bad.eta["prime"])
                               + np.asarray(bad.xi["slots"]))
    assert np.max(np.abs(bad.zeta - rebuilt)) > 1e-6


def test_parallel_sweep_matches_serial(const_kernel):
    ds = [0.3, 0.7, 1.3, 2.1]
    serial = [compute_coefficients(replace(const_kernel, d=d), n=32) for d in ds]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(
            lambda d: compute_coefficients(replace(const_kernel, d=d), n=32), ds))
    for a, b in zip(serial, parallel):
        assert all_values(a).tobytes() == all_values(b).tobytes()


def test_residuals_recorded(pipeline_even):
    res = pipeline_even["hydro"].residuals
    for key in ("c1_relation", "c2_relation", "c3_relation", "a_perp_moment",
                "b_par_moment", "gci_solve", "b2_solve", "h_max", "tail",
                "beta_dirichlet_diff"):
        assert key in res
    assert res["h_max"] <= 1e-10
    # the six profiles' last Legendre coefficients, relative to their largest
    assert 0.0 <= res["tail"] < 1e-15


@pytest.mark.parametrize("kernel", [constant_kernel(1.0, d=0.5),
                                    even_poly_kernel([1.0, 0.5], d=0.5)],
                         ids=["const", "evenpoly"])
def test_run_pipeline_hydro_matches_compute_coefficients(kernel):
    a = run_pipeline(kernel, 48, 0.1).hydro
    b = compute_coefficients(kernel, n=48, kappa=0.1)
    assert a.zeta.tobytes() == b.zeta.tobytes()
    assert list(a.residuals.items()) == list(b.residuals.items())
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


@pytest.mark.parametrize("kappa", [0.1, 0.0])
def test_full_verify_solves_three_profile_sets(monkeypatch, kappa):
    # the base run, the determinism rerun and the 2n run; the other checks
    # reuse the base run's stages
    original = coeffs_mod.solve_profiles
    degrees = []

    def counted(*args, **kwargs):
        degrees.append(args[2])
        return original(*args, **kwargs)

    # every binding of solve_profiles, so that a direct call from verify counts too
    for mod in (coeffs_mod, verify_mod):
        if getattr(mod, "solve_profiles", None) is original:
            monkeypatch.setattr(mod, "solve_profiles", counted)
    report = verify_mod.run_verification(kappa=kappa, n=32, oracle_m=2000)
    assert report.passed
    assert sorted(degrees) == [32, 32, 64]


def test_max_principle_check_reads_the_given_kernel():
    # verify reports the kernel under test's max h from its n and 2n runs,
    # right after the self-convergence check that makes the 2n run
    kernel, n, kappa = affine_kernel(1.0, 0.3, d=0.5), 32, 0.1
    report = verify_mod.run_verification(kernel=kernel, kappa=kappa, n=n, oracle_m=2000)
    names = [c.name for c in report.checks]
    check = report.checks[names.index("gci_max_principle")]
    assert names[names.index("gci_max_principle") - 1] == "self_convergence"
    assert check.value == max(run_pipeline(kernel, n, kappa).hydro.residuals["h_max"],
                              run_pipeline(kernel, 2 * n, kappa).hydro.residuals["h_max"])
    assert check.passed and check.tolerance == 1e-10
    assert f"n={n}" in check.detail and f"{2 * n}" in check.detail


def test_projection_check_reads_the_field_projection(monkeypatch):
    # the quick tier checks the field path's own projection: a map that is
    # not idempotent (a half-strength projection) must fail it
    def half(omega, vec, out):
        along = vec[0] * omega[0] + vec[1] * omega[1] + vec[2] * omega[2]
        for k in range(3):
            out[k][...] = vec[k] - 0.5 * along * omega[k]
        return out

    def check():
        report = verify_mod.run_verification(quick=True)
        return next(c for c in report.checks if c.name == "projection_idempotence")

    assert check().passed
    monkeypatch.setattr(fields_mod, "_project_perp", half)
    assert not check().passed


def test_structure_sum_check_reads_the_r2_terms(monkeypatch):
    # the full tier sums the 13 structures it counts against the r2 whose
    # orthogonality it checks: a structure off by a factor must fail it
    def check():
        report = verify_mod.run_verification(n=32, oracle_m=2000)
        return next(c for c in report.checks if c.name == "r2_structure_sum")

    base = check()
    assert base.passed and base.tolerance == 1e-12
    terms = verify_mod.r2_terms

    def doubled_slot_5(state, bundle):
        out = terms(state, bundle)
        out[5] = 2.0 * out[5]
        return out

    monkeypatch.setattr(verify_mod, "r2_terms", doubled_slot_5)
    assert not check().passed


# --- adaptive degree: compute_coefficients treats n as a cap ---------------------


def test_plateau_test_on_known_series():
    j = np.arange(80)
    assert coeffs_mod._plateau(0.5 ** j)  # falls below eps with room to spare
    assert not coeffs_mod._plateau(0.5 ** j[:40])  # still decaying at 1e-12
    # decay to 1e-13, then a flat stretch of rounding noise
    noisy = np.where(j < 40, 10.0 ** (-j / 3.0), 1e-13 * (1.0 + 0.1 * np.cos(j)))
    assert coeffs_mod._plateau(noisy)
    assert not coeffs_mod._plateau(np.ones(80))
    assert coeffs_mod._plateau(np.zeros(40))
    assert not coeffs_mod._plateau(0.5 ** j[:16])  # too short to judge


@pytest.mark.parametrize("d", [0.5, 0.1, 0.02, 0.005])
def test_adaptive_degree_matches_the_cap(d):
    for kernel in registry_kernels(d=d):
        hydro = compute_coefficients(kernel, n=256, kappa=0.1)
        cap = run_pipeline(kernel, 256, 0.1).hydro
        assert hydro.n == 256 and FIRST_TRIAL_DEGREE <= hydro.degree <= 256
        ref = all_values(cap)
        gap = np.max(np.abs(all_values(hydro) - ref)) / np.max(np.abs(ref))
        assert gap < 1e-12, (kernel.model, d, hydro.degree, gap)
        assert hydro.to_json_dict()["degree"] == hydro.degree


@pytest.mark.parametrize("kernel, n", [
    *((k, n) for k in registry_kernels(d=0.1) for n in (32, 64)),
    (constant_kernel(1.0, d=0.02), 64)],
    ids=lambda v: f"{v.model}-{v.d:g}" if hasattr(v, "model") else str(v))
def test_adaptive_degree_at_most_first_trial_is_the_pinned_run(kernel, n):
    hydro = compute_coefficients(kernel, n=n, kappa=0.1)
    pinned = run_pipeline(kernel, n, 0.1).hydro
    assert hydro.n == hydro.degree == n
    assert all_values(hydro).tobytes() == all_values(pinned).tobytes()
    assert json.dumps(hydro.to_json_dict()) == json.dumps(pinned.to_json_dict())


@pytest.mark.parametrize("kernel", [*registry_kernels(d=0.1), constant_kernel(1.0, d=0.02)],
                         ids=lambda k: f"{k.model}-{k.d:g}")
def test_adaptive_degree_is_run_pipeline_at_its_degree(kernel):
    # each trial solves on its own degree's rules, so a set kept below the
    # cap is run_pipeline's at that degree to the bit, apart from n (the
    # degree-64 gate fails for const:1 at d = 0.02)
    hydro = compute_coefficients(kernel, n=256, kappa=0.1)
    assert hydro.n == 256 and FIRST_TRIAL_DEGREE <= hydro.degree < 256
    ref = run_pipeline(kernel, hydro.degree, 0.1).hydro
    assert all_values(hydro).tobytes() == all_values(ref).tobytes()
    assert list(hydro.residuals.items()) == list(ref.residuals.items())
    assert json.dumps({**hydro.to_json_dict(), "n": ref.n}) == json.dumps(ref.to_json_dict())


def test_adaptive_degree_gate_builds_only_its_operator_rule(monkeypatch):
    # h does not plateau at degree 64 for d = 0.001: that trial builds its
    # 67-node operator rule and nothing sized for the weight (2314 nodes);
    # the run at the cap then builds its weight rule and operator rule
    kernel = constant_kernel(1.0, d=0.001)
    sizes = []
    build_rule_once = quad_mod.build_rule

    def counted(n):
        sizes.append(n)
        return build_rule_once(n)

    monkeypatch.setattr(quad_mod, "build_rule", counted)
    monkeypatch.setattr(elliptic_mod, "build_rule", counted)
    assert compute_coefficients(kernel, n=256, kappa=0.1).degree == 256
    assert sizes == [64 + 3, quadrature_size(kernel, 256 + 10), 256 + 3]


def test_adaptive_degree_at_first_trial_raises_as_the_pinned_run():
    # degree 64 cannot resolve d = 0.005: b2's data miss their zero mean
    kernel = constant_kernel(1.0, d=0.005)
    for run in (lambda: run_pipeline(kernel, 64, 0.1), lambda: compute_coefficients(kernel, 64)):
        with pytest.raises(PreconditionError, match="b2 solve: type-2 data must have zero mean"):
            run()


def test_adaptive_degree_unresolved_below_cap_is_the_cap_run():
    # at d = 0.001 no degree below 256 plateaus: the run is the cap's, bit for bit
    kernel = constant_kernel(1.0, d=0.001)
    hydro = compute_coefficients(kernel, n=256, kappa=0.1)
    cap = run_pipeline(kernel, 256, 0.1).hydro
    assert hydro.n == hydro.degree == 256
    assert all_values(hydro).tobytes() == all_values(cap).tobytes()
    assert json.dumps(hydro.to_json_dict()) == json.dumps(cap.to_json_dict())


def test_adaptive_degree_h_gates_each_trial(monkeypatch):
    # h does not plateau at degree 64 for d = 0.005, so that trial stops
    # before the other five solves (whose b2 data would miss their zero mean)
    original = coeffs_mod.solve_profiles
    degrees = []

    def counted(*args, **kwargs):
        degrees.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(coeffs_mod, "solve_profiles", counted)
    hydro = compute_coefficients(constant_kernel(1.0, d=0.005), n=256, kappa=0.1)
    assert degrees == [hydro.degree] and FIRST_TRIAL_DEGREE < hydro.degree < 256


def test_adaptive_degree_trial_error_falls_through_to_the_cap(monkeypatch):
    kernel = even_poly_kernel([1.0, 0.5], d=0.1)
    cap = run_pipeline(kernel, 128, 0.1).hydro
    assert compute_coefficients(kernel, n=128, kappa=0.1).degree < 128
    original = coeffs_mod.solve_profiles
    degrees = []

    def failing_below_cap(kernel, c, n, eq, rule):
        degrees.append(n)
        if n < 128:
            raise SolverError("injected failure below the cap")
        return original(kernel, c, n, eq, rule)

    monkeypatch.setattr(coeffs_mod, "solve_profiles", failing_below_cap)
    hydro = compute_coefficients(kernel, n=128, kappa=0.1)
    assert degrees == [FIRST_TRIAL_DEGREE, 128]
    assert hydro.degree == 128
    assert all_values(hydro).tobytes() == all_values(cap).tobytes()

    # at the cap, the error propagates as it does from run_pipeline
    def failing(kernel, c, n, eq, rule):
        raise SolverError("injected failure")

    monkeypatch.setattr(coeffs_mod, "solve_profiles", failing)
    with pytest.raises(SolverError, match="injected failure"):
        compute_coefficients(kernel, n=128, kappa=0.1)
