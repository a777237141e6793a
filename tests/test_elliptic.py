import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from flock_coeffs import elliptic
from flock_coeffs.elliptic import (
    MuProfile,
    _basis,
    elliptic_problem_data,
    solve_gci,
    solve_type1,
    solve_type2,
)
from flock_coeffs.errors import PreconditionError, SolverError
from flock_coeffs.kernel import registry_kernels
from flock_coeffs.oracle import assemble_type1_form, solve_type1_weighted
from flock_coeffs.quad import build_rule


def apply_type1_operator(kernel, alpha, u_coefs, k):
    """Analytic image of g = (1-mu^2)^(k/2) * u under the coercive operator.

    Manufactured-solutions oracle: polynomial differentiation of the reduced
    factor, independent of the solver's assembly.  Like the solvers, it takes
    and returns the weight-free ratios alpha/w and f/w.
    """
    up = nppoly.polyder(u_coefs)
    upp = nppoly.polyder(u_coefs, 2)

    def f(mu):
        mu = np.asarray(mu, dtype=float)
        s2 = 1.0 - mu * mu
        sp = s2 ** (k / 2.0)
        nod = np.asarray(kernel.nu(mu), dtype=float) / kernel.d
        u = nppoly.polyval(mu, u_coefs)
        bracket = (
            s2 * s2 * nppoly.polyval(mu, upp)
            + s2 * (nod * s2 - 2.0 * (k + 1) * mu) * nppoly.polyval(mu, up)
            - k * (nod * mu * s2 + 1.0 - (k + 1) * mu * mu) * u
        )
        return -sp * bracket + np.asarray(alpha(mu), dtype=float) * sp * u

    return f


def ones(mu):
    return np.ones_like(np.asarray(mu, dtype=float))


def test_type1_zero_data_gives_zero(legendre_kernel):
    u = solve_type1(legendre_kernel, ones, lambda mu: 0.0 * mu, 12, sing_order=1)
    assert np.max(np.abs(u.values)) < 1e-12


def test_type1_manufactured_flat_solution(legendre_kernel):
    # g* = 1 - mu^2, i.e. reduced factor 1 at sing_order 2;
    # data computed analytically: f = (1-mu^2)(3-6mu^2)
    f = apply_type1_operator(legendre_kernel, ones, [1.0], 2)
    x = np.linspace(-0.9, 0.9, 5)
    assert np.max(np.abs(f(x) - (1 - x * x) * (3 - 6 * x * x))) < 1e-14
    u = solve_type1(legendre_kernel, ones, f, 12, sing_order=2)
    assert np.max(np.abs(u.values - 1.0)) < 1e-10


def test_type1_manufactured_mode1(legendre_kernel):
    ustar = [0.3, -0.5, 1.0]  # reduced factor 0.3 - 0.5 mu + mu^2
    f = apply_type1_operator(legendre_kernel, ones, ustar, 1)
    u = solve_type1(legendre_kernel, ones, f, 16, sing_order=1)
    x = u.rule.nodes
    assert np.max(np.abs(u.values - nppoly.polyval(x, ustar))) < 1e-10


def test_type1_manufactured_with_weight(even_kernel):
    # alpha = w, i.e. alpha/w = 1
    ustar = [1.0, 0.25, 0.0, -0.125]
    f = apply_type1_operator(even_kernel, ones, ustar, 1)
    u = solve_type1(even_kernel, ones, f, 24, sing_order=1)
    x = u.rule.nodes
    assert np.max(np.abs(u.values - nppoly.polyval(x, ustar))) < 1e-10


def test_type1_maximum_principle(legendre_kernel):
    u = solve_type1(legendre_kernel, ones,
                    lambda mu: -((1 - mu * mu) ** 1.5), 48, sing_order=1)
    assert u.values.max() <= 1e-10


def test_type1_requires_positive_alpha(legendre_kernel):
    with pytest.raises(PreconditionError):
        solve_type1(legendre_kernel, lambda mu: mu, lambda mu: 0 * mu, 8)


def test_solver_errors_name_the_problem(legendre_kernel):
    bad = lambda mu: np.where(np.asarray(mu) > 0.5, np.nan, 0.0)
    with pytest.raises(SolverError, match="probe"):
        solve_type1(legendre_kernel, ones, bad, 8, name="probe")
    # NaN data fail the type-2 solvability check, which names problem and d
    with pytest.raises(PreconditionError, match=r"probe solve: .* at d = "):
        solve_type2(legendre_kernel, bad, 8, name="probe")


def test_type1_requires_endpoint_factor(legendre_kernel):
    with pytest.raises(PreconditionError):
        solve_type1(legendre_kernel, ones, lambda mu: 0 * mu, 8, sing_order=0)


@pytest.mark.parametrize("k", [1, 2])
def test_type1_discrete_form_is_spd(even_kernel, k):
    A, _ = assemble_type1_form(even_kernel, ones, 24, sing_order=k)
    assert np.max(np.abs(A - A.T)) < 1e-12 * np.max(np.abs(A))
    assert np.linalg.eigvalsh(A).min() > 0


def test_type2_zero_data(legendre_kernel):
    g = solve_type2(legendre_kernel, lambda mu: 0.0 * mu, 12)
    assert np.max(np.abs(g.values)) < 1e-12


def test_type2_first_eigenfunction(legendre_kernel):
    # -d/dmu((1-mu^2) dP1/dmu) = 2 P1
    g = solve_type2(legendre_kernel, lambda mu: 2.0 * mu, 16)
    assert np.max(np.abs(g.values - g.rule.nodes)) < 1e-10


def test_type2_second_eigenfunction(legendre_kernel):
    # P2 has eigenvalue l(l+1) = 6 and zero mean
    p2 = lambda mu: (3.0 * mu * mu - 1.0) / 2.0
    g = solve_type2(legendre_kernel, lambda mu: 6.0 * p2(mu), 16)
    assert np.max(np.abs(g.values - p2(g.rule.nodes))) < 1e-10


def test_type2_rejects_nonzero_mean(legendre_kernel):
    with pytest.raises(PreconditionError, match="zero mean"):
        solve_type2(legendre_kernel, lambda mu: 1.0 + mu, 12)


def test_type2_zero_mean_gauge(even_kernel):
    # f = w mu - <w mu>, passed as the ratio f/w
    g = solve_type2(even_kernel,
                    lambda mu: mu - _wmean(even_kernel, mu) / _weight(even_kernel, mu),
                    24)
    # canonical gauge: the Legendre constant coefficient vanishes
    assert abs(g.coef[0]) < 1e-12


def _weight(kernel, mu):
    return np.exp(kernel.log_weight(mu))


def _wmean(kernel, mu):
    rule = build_rule(200)
    avg = float(rule.weights @ (_weight(kernel, rule.nodes) * rule.nodes)) / 2.0
    return avg * np.ones_like(np.asarray(mu, dtype=float))


def test_type2_annihilates_constants(even_kernel):
    # column/row of the constant mode must vanish in the stiffness form
    rule = build_rule(120)
    V = npleg.legvander(rule.nodes, 16)
    Vd = npleg.legval(rule.nodes, npleg.legder(np.eye(17), axis=0)).T
    w = _weight(even_kernel, rule.nodes) * (1 - rule.nodes**2)
    A = Vd.T @ (Vd * (rule.weights * w)[:, None])
    assert np.max(np.abs(A[0])) < 1e-13 * np.max(np.abs(A))
    # restricted to nonconstant modes the operator is definite
    assert np.linalg.eigvalsh(A[1:, 1:]).min() > 0


def test_solver_linear_residuals_are_small(pipeline_even):
    p = pipeline_even
    for prof in (p["gci"].h, p["profiles"].a_perp, p["profiles"].a_par,
                 p["profiles"].b1, p["profiles"].b2, p["profiles"].b_par):
        assert prof.meta["linear_residual"] < 1e-10


def test_gci_nonpositive_across_registry():
    for d in (0.1, 0.5, 1.0, 2.0):
        for kernel in registry_kernels(d=d):
            gci = solve_gci(kernel, 48)
            assert gci.h.values.max() <= 1e-10


def test_gci_residual_small(pipeline_const):
    assert pipeline_const["gci"].h.meta["residual"] < 1e-8


def test_gci_self_convergence(const_kernel):
    g64 = solve_gci(const_kernel, 64)
    g128 = solve_gci(const_kernel, 128)
    xs = np.linspace(-1.0, 1.0, 2001)
    assert np.max(np.abs(g64.g(xs) - g128.g(xs))) < 1e-11


def test_gci_formulations_agree(const_kernel):
    # production (weight-divided) against the oracle's weighted form
    for kernel in (const_kernel, *registry_kernels(d=0.5)):
        row = elliptic_problem_data(kernel)["gci"]
        ud = solve_type1(kernel, row["alpha"], row["f"], 64)
        uw = solve_type1_weighted(kernel, row["alpha"], row["f"], 64, rule=ud.rule)
        assert ud.meta["formulation"] == "divided"
        assert np.max(np.abs(uw.values - ud.values)) < 1e-9


def test_factored_profile_evaluation(pipeline_const):
    gci = pipeline_const["gci"]
    mu = np.linspace(-0.99, 0.99, 11)
    assert gci.g(mu) == pytest.approx(np.sqrt(1 - mu * mu) * gci.h(mu), abs=1e-14)
    assert gci.g.sing_order == 1


def test_profile_modal_nodal_agreement(pipeline_even):
    prof = pipeline_even["profiles"].b2
    assert np.max(np.abs(prof(prof.rule.nodes) - prof.values)) < 1e-12


def test_profile_derivative_antiderivative_roundtrip(pipeline_even):
    prof = pipeline_even["profiles"].a_par
    back = prof.derivative().antiderivative()
    offset = prof(0.0) - back(0.0)
    xs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(back(xs) + offset - prof(xs))) < 1e-10


def test_h_prime_matches_finite_differences(pipeline_even):
    gci = pipeline_even["gci"]
    xs = np.linspace(-0.95, 0.95, 41)
    eps = 1e-5
    fd = (gci.h(xs + eps) - gci.h(xs - eps)) / (2 * eps)
    assert np.max(np.abs(fd - gci.h_prime(xs))) < 1e-6


def test_azimuthal_harmonic_integral_shortcut():
    # any profile times a mean-zero azimuthal harmonic integrates to zero on
    # the sphere; this is what makes the vector invariant average-free
    rng = np.random.default_rng(9)
    rule = build_rule(64)
    prof = rng.standard_normal(rule.n)
    phi = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    wphi = 2 * np.pi / len(phi)
    for k in (1, 2, 3):
        for trig in (np.sin, np.cos):
            total = float((rule.weights @ prof) * wphi * trig(k * phi).sum())
            assert abs(total) < 1e-12


@pytest.mark.parametrize("nq", [64, 414])
@pytest.mark.parametrize("degree", [1, 2, 16, 64, 256])
def test_basis_recurrence_matches_clenshaw(nq, degree):
    # reference: each derivative column evaluated by Clenshaw from legder
    rule = build_rule(nq)
    eye = np.eye(degree + 1)
    refs = [npleg.legval(rule.nodes, npleg.legder(eye, m, axis=0)).T for m in (0, 1, 2)]
    for got, ref in zip(_basis(rule, degree), refs):
        assert got.shape == (nq, degree + 1)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("nq", [64, 414])
@pytest.mark.parametrize("degree", [16, 256])
def test_nodal_values_match_legval(nq, degree):
    rule = build_rule(nq)
    rng = np.random.default_rng(degree)
    coef = rng.standard_normal(degree + 1) * 0.9 ** np.arange(degree + 1)
    ref = npleg.legval(rule.nodes, coef)
    prof = MuProfile.from_coef(rule, coef)
    assert np.max(np.abs(prof.values - ref)) <= 1e-13 * np.max(np.abs(ref))
    dref = npleg.legval(rule.nodes, npleg.legder(coef))
    assert np.max(np.abs(prof.derivative().values - dref)) <= 1e-13 * np.max(np.abs(dref))


def test_basis_built_once_per_rule_and_read_only():
    rule = build_rule(64)
    first = _basis(rule, 16)
    second = _basis(rule, 16)
    assert all(a is b for a, b in zip(first, second))
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    # another rule of the same size keeps its own basis
    assert _basis(build_rule(64), 16)[0] is not first[0]


def test_basis_memo_under_concurrent_first_use():
    # racing first builds on one rule must all hand back the stored basis
    rule = build_rule(414)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [f.result(timeout=60) for f in
                   [pool.submit(_basis, rule, 128) for _ in range(16)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(b is rule.bases[128] for b in got)


def test_divided_solver_error_propagates(monkeypatch, even_kernel):
    def fail(A, F, what):
        raise SolverError(f"{what}: forced failure", 1e18)

    monkeypatch.setattr(elliptic, "_solve_checked", fail)
    row = elliptic_problem_data(even_kernel)["gci"]
    with pytest.raises(SolverError, match="forced failure"):
        solve_type1(even_kernel, row["alpha"], row["f"], 24)
    # f/w = mu - <mu>_w has zero weighted mean, so the solvability check passes
    rule = build_rule(200)
    w = _weight(even_kernel, rule.nodes)
    c1 = float(rule.weights @ (w * rule.nodes) / (rule.weights @ w))
    with pytest.raises(SolverError, match="forced failure"):
        solve_type2(even_kernel, lambda mu: mu - c1, 24)
