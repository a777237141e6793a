import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly
from scipy.linalg.lapack import dgecon

from flock_coeffs import elliptic
from flock_coeffs.coeffs import compute_coefficients, run_pipeline
from flock_coeffs.elliptic import (
    MuProfile,
    _basis,
    elliptic_problem_data,
    solve_gci,
    solve_type1,
    solve_type2,
)
from flock_coeffs.errors import PreconditionError, SolverError
from flock_coeffs.kernel import constant_kernel, registry_kernels, tabulated_kernel
from flock_coeffs.quad import QuadratureRule, build_equilibrium, build_rule, quadrature_size


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


# --- symmetric weighted Galerkin form of the coercive problem --------------------
# A second spectral discretization beside the weight-divided one the solvers
# use, kept here as the reference the production formulation is compared with.

def assemble_type1_form(kernel, alpha, n, sing_order=1, rule=None):
    """Discrete weighted bilinear form of the coercive problem (SPD matrix).

    The weak form a(g, v) = int w (1-mu^2) g' v' + int alpha g v / (1-mu^2)
    with g = (1-mu^2)^(k/2) u and v = (1-mu^2)^(k/2) p, assembled in the
    reduced variable with the equilibrium weight rescaled by its maximum.
    `alpha` is the weight-free ratio alpha/w, multiplied here by that
    rescaled weight.  Returns (A, shift) with shift the log of that maximum.
    """
    k = int(sing_order)
    if rule is None:
        rule = build_rule(quadrature_size(kernel, n + k + 2))
    x, qw = rule.nodes, rule.weights
    s2 = 1.0 - x * x
    lw = kernel.log_weight(x)
    shift = float(lw.max())
    w = np.exp(lw - shift)
    alpha_vals = np.asarray(alpha(x), dtype=float) * w

    # derivative columns by Clenshaw from legder, not the solvers' recurrence
    V = npleg.legvander(x, n)
    Vd = npleg.legval(x, npleg.legder(np.eye(n + 1), axis=0)).T
    w_dd = qw * w * s2 ** (k + 1)
    w_dm = qw * w * x * s2**k
    w_mm = qw * w * (k * x) ** 2 * s2 ** (k - 1)
    w_al = qw * alpha_vals * s2 ** (k - 1)
    A = (
        Vd.T @ (Vd * w_dd[:, None])
        - k * (Vd.T @ (V * w_dm[:, None]) + V.T @ (Vd * w_dm[:, None]))
        + V.T @ (V * w_mm[:, None])
        + V.T @ (V * w_al[:, None])
    )
    return A, shift


def solve_type1_weighted(kernel, alpha, f, n, rule, sing_order=1):
    """Reduced factor u of the coercive problem from the weighted form.

    Same problem, data ratios and return convention as `solve_type1`, solved
    on `rule` through `assemble_type1_form` instead of the weight-divided
    system.  The weighted data underflow where the weight is sharply peaked,
    so this is a reference for moderate d only.
    """
    k = int(sing_order)
    x, qw = rule.nodes, rule.weights
    A, shift = assemble_type1_form(kernel, alpha, n, k, rule)
    f_vals = np.asarray(f(x), dtype=float) * np.exp(kernel.log_weight(x) - shift)
    F = npleg.legvander(x, n).T @ (qw * f_vals * (1.0 - x * x) ** (k / 2.0 - 1.0))
    u = np.linalg.solve(A, F)
    assert np.all(np.isfinite(u)), "weighted type-1 solve produced non-finite values"
    return MuProfile.from_coef(rule, u, {"formulation": "weighted"})


# --- bordered form of the conservative problem -----------------------------------
# The zero-mean gauge imposed by an extra Lagrange row and column, beside the
# square system the solver builds by putting the multiplier on P0 in place of
# the operator's null P0 column.  The border keeps the weight-moment column,
# a different gauge from the solver's constant one: the two solutions differ
# only through what the multiplier absorbs, the data's rounding-level mean,
# and the comparison's bound holds that gap.

def solve_type2_bordered(kernel, f, n, rule):
    """Zero-mean solution of the conservative problem from a bordered system.

    Same divided equation, data ratio f/w and return convention as
    `solve_type2`, solved on `rule` with the Galerkin matrix bordered by the
    column of weight moments int w P_j dmu and the gauge row int g dmu = 0:
    an (n+2)-square system whose last unknown is the multiplier.  The defect
    of the first solution, formed from nodal values as in the solver, is
    back-substituted once.
    """
    x, qw = rule.nodes, rule.weights
    s2 = 1.0 - x * x
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d
    lw = kernel.log_weight(x)
    w = np.exp(lw - lw.max())
    # derivative columns through legder's differentiation matrices, not the
    # solvers' recurrence
    eye = np.eye(n + 1)
    V = npleg.legvander(x, n)
    Vd, Vdd = (V[:, :n + 1 - m] @ npleg.legder(eye, m, axis=0) for m in (1, 2))
    ops = -s2[:, None] * Vdd + (2.0 * x - nu_over_d * s2)[:, None] * Vd
    K = np.zeros((n + 2, n + 2))
    K[:-1, :-1] = V.T @ (ops * qw[:, None])
    K[:-1, -1] = V.T @ (qw * w)
    K[-1, 0] = 2.0  # int P_j dmu
    F = V.T @ (qw * np.asarray(f(x), dtype=float))

    def defect(sol):
        image = ops @ sol[:-1] + sol[-1] * w
        return np.append(V.T @ (qw * image) - F, 2.0 * sol[0])

    sol = np.linalg.solve(K, np.append(F, 0.0))
    sol -= np.linalg.solve(K, defect(sol))
    assert np.all(np.isfinite(sol)), "bordered type-2 solve produced non-finite values"
    return MuProfile.from_coef(rule, sol[:-1])


# --- the divided scheme assembled on the weight's rule ---------------------------
# The production system with every integral summed over the equilibrium's
# rule, sized for the weight, instead of the weight-free operator rule.  Its
# type-2 multiplier column keeps the weight sampled at those nodes, a
# different gauge from the solver's constant one, which the comparison's
# bounds (1e-13, 1e-12 at d = 1e-3) include.

def solve_on_weight_rule(kernel, problem, n, eq):
    """One row of elliptic_problem_data solved by the divided Petrov-Galerkin
    scheme assembled on eq's rule, with one refinement step from the nodal
    defect; returns the profile on eq's rule, for type 2 with its P0
    coefficient (the multiplier's slot) set to zero."""
    x, qw = eq.rule.nodes, eq.rule.weights
    s2 = 1.0 - x * x
    k = problem["sing_order"]
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d
    # derivative columns through legder's differentiation matrices, not the
    # solvers' recurrence
    eye = np.eye(n + 1)
    V = npleg.legvander(x, n)
    Vd, Vdd = (V[:, :n + 1 - m] @ npleg.legder(eye, m, axis=0) for m in (1, 2))
    f = np.broadcast_to(np.asarray(problem["f"](x), dtype=float), x.shape)
    if problem["ptype"] == 1:
        alpha = np.broadcast_to(np.asarray(problem["alpha"](x), dtype=float), x.shape)
        ops = (-(s2 * s2)[:, None] * Vdd
               - (s2 * (nu_over_d * s2 - 2.0 * (k + 1) * x))[:, None] * Vd
               + (k * (nu_over_d * x * s2 + 1.0 - (k + 1) * x * x) + alpha)[:, None] * V)
        rhs = f / s2 ** (k / 2.0)
    else:
        ops = -s2[:, None] * Vdd + (2.0 * x - nu_over_d * s2)[:, None] * Vd
        ops[:, 0] = eq.weight
        rhs = f
    A = V.T @ (ops * qw[:, None])
    F = V.T @ (qw * rhs)
    sol = np.linalg.solve(A, F)
    sol -= np.linalg.solve(A, V.T @ (qw * (ops @ sol)) - F)
    assert np.all(np.isfinite(sol)), "weight-rule solve produced non-finite values"
    if problem["ptype"] == 2:
        sol[0] = 0.0
    return MuProfile.from_coef(eq.rule, sol)


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
    # canonical gauge: the Legendre constant coefficient is the fixed zero
    # of the multiplier's slot
    assert g.coef[0] == 0.0


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
    # the solver's own basis carries the constant mode's derivatives as
    # exact zeros, so the operator's P0 column is free for the multiplier,
    # whose column is P0's own values
    for degree in (1, 16, 64):
        _, Vd, Vdd = _basis(rule, degree)
        assert not Vd[:, 0].any() and not Vdd[:, 0].any()


@pytest.mark.parametrize("kernels,n", [
    pytest.param(lambda: registry_kernels(d=0.02), 64, id="registry-d0.02"),
    pytest.param(lambda: registry_kernels(d=0.5), 64, id="registry-d0.5"),
    pytest.param(lambda: registry_kernels(d=25.0), 64, id="registry-d25"),
    pytest.param(lambda: [constant_kernel(1.0, d=1e-3)], 256, id="const-d0.001-n256"),
])
def test_type2_square_system_matches_bordered(kernels, n):
    # a_par and b2 on the pipeline's rule, from the square system with the
    # multiplier on P0 in slot 0 and from the bordered reference above, whose
    # multiplier column is the weight's moments: a different gauge, which
    # the 1e-13 bound compares against
    for kernel in kernels():
        p = run_pipeline(kernel, n, 0.1)
        rows = elliptic_problem_data(kernel, c=p.c, b1=p.profiles["b1"])
        for name in ("a_par", "b2"):
            got = solve_type2(kernel, rows[name]["f"], n, rule=p.eq.rule, name=name)
            ref = solve_type2_bordered(kernel, rows[name]["f"], n, p.eq.rule)
            scale = np.max(np.abs(ref.values))
            assert np.max(np.abs(got.values - ref.values)) <= 1e-13 * scale, (name, kernel.d)
            assert got.coef[0] == 0.0


@pytest.mark.parametrize("kernels,n,rtol", [
    pytest.param(lambda: registry_kernels(d=0.02), 64, 1e-13, id="registry-d0.02"),
    pytest.param(lambda: registry_kernels(d=0.5), 64, 1e-13, id="registry-d0.5"),
    pytest.param(lambda: registry_kernels(d=25.0), 64, 1e-13, id="registry-d25"),
    pytest.param(lambda: [constant_kernel(1.0, d=1e-3)], 256, 1e-12, id="const-d0.001-n256"),
])
def test_operator_rule_matches_weight_rule_assembly(kernels, n, rtol):
    # every problem of the pipeline, solved on its operator rule and by the
    # same scheme assembled on the pipeline's weight rule (reference above,
    # with the weight-moment multiplier column for type 2);
    # at d = 1e-3 the systems' condition estimates reach 1e5 (for const:1,
    # a_perp's data, and so both solutions, are exactly zero)
    for kernel in kernels():
        p = run_pipeline(kernel, n, 0.1)
        rows = elliptic_problem_data(kernel, c=p.c, b1=p.profiles["b1"])
        rule = elliptic.operator_rule(kernel, n)
        for name, row in rows.items():
            got = elliptic.solve_problem(kernel, name, row, n, rule, p.eq)
            assert got.rule is rule and got.meta["nodes"] == n + (kernel.nu_degree + 1) // 2 + 3
            ref = solve_on_weight_rule(kernel, row, n, p.eq)
            scale = np.max(np.abs(ref.coef))
            gap = np.max(np.abs(got.coef - ref.coef))
            assert gap <= rtol * scale, (name, kernel.model, kernel.d)


@pytest.mark.parametrize("kernel", [
    *registry_kernels(d=0.1),
    tabulated_kernel(np.linspace(-1, 1, 33), 1.0 + 0.25 * np.linspace(-1, 1, 33) ** 2, d=0.1),
], ids=lambda k: f"{k.model}-p{k.nu_degree}")
@pytest.mark.parametrize("n", [24, 64])
def test_operator_rule_is_exact(kernel, n):
    # the system and data of every problem on the n + ceil(p/2) + 3 rule
    # against a rule of 2n + p + 8 nodes: both compute them exactly
    p = run_pipeline(kernel, n, 0.1)
    rows = elliptic_problem_data(kernel, c=p.c, b1=p.profiles["b1"])
    small = elliptic.operator_rule(kernel, n)
    big = build_rule(2 * n + kernel.nu_degree + 8)
    assert small.n == n + (kernel.nu_degree + 1) // 2 + 3
    assert {(row["ptype"], row["sing_order"]) for row in rows.values()} == {(1, 1), (1, 2), (2, 0)}
    for name, row in rows.items():
        k = row["sing_order"]
        systems = []
        for rule in (small, big):
            x = rule.nodes
            alpha = None if row["ptype"] == 2 else elliptic._sampled(row["alpha"], x)
            c2, c1, c0 = elliptic._operator_coefs(kernel, x, k, alpha)
            V, Vd, Vdd = _basis(rule, n)
            nodal = Vdd * c2[:, None] + Vd * c1[:, None]
            if c0 is not None:
                nodal += V * c0[:, None]
            data = elliptic._sampled(row["f"], x) / (1.0 - x * x) ** (k / 2.0)
            systems.append((V.T @ (nodal * rule.weights[:, None]), V.T @ (rule.weights * data)))
        (A, F), (A_ref, F_ref) = systems
        assert np.max(np.abs(A - A_ref)) <= 1e-13 * np.max(np.abs(A_ref)), name
        assert np.max(np.abs(F - F_ref)) <= 1e-13 * np.max(np.abs(F_ref)), name


def test_solver_linear_residuals_are_small(pipeline_even):
    p = pipeline_even
    assert len(p["profiles"]) == 6
    for prof in p["profiles"].values():
        assert prof.meta["linear_residual"] < 1e-10


def test_gci_residual_small(pipeline_const):
    assert pipeline_const["profiles"]["gci"].meta["residual"] < 1e-8


@pytest.mark.parametrize("d,bound", [(1e6, 1e-8), (6e7, 1e-7)])
def test_type2_residual_counts_the_multiplier(d, bound):
    # at large d, b2's data 2 b1 - c1/d cancel, so c1's rounding leaves them
    # a mean of order 1e-5 of their size (0.23 at d = 6e7), which the
    # multiplier on P0 absorbs; the strong residual is that of
    # L u + multiplier = data and so measures the solve, not the rounding
    p = run_pipeline(constant_kernel(1.0, d=d), 64, 0.1)
    assert p.hydro.residuals["b2_solve"] <= bound
    assert p.profiles["b2"].meta["multiplier"] != 0.0


def test_gci_self_convergence(const_kernel):
    g64 = solve_gci(const_kernel, 64)
    g128 = solve_gci(const_kernel, 128)
    xs = np.linspace(-1.0, 1.0, 2001)
    s = np.sqrt(1.0 - xs * xs)
    assert np.max(np.abs(s * g64(xs) - s * g128(xs))) < 1e-11


def test_gci_formulations_agree(const_kernel):
    # production (weight-divided) against the weighted form above
    for kernel in (const_kernel, *registry_kernels(d=0.5)):
        row = elliptic_problem_data(kernel)["gci"]
        ud = solve_type1(kernel, row["alpha"], row["f"], 64)
        uw = solve_type1_weighted(kernel, row["alpha"], row["f"], 64, ud.rule)
        assert ud.meta["formulation"] == "divided"
        assert np.max(np.abs(uw.values - ud.values)) < 1e-9


def test_profile_modal_nodal_agreement(pipeline_even):
    prof = pipeline_even["profiles"]["b2"]
    assert np.max(np.abs(prof(prof.rule.nodes) - prof.values)) < 1e-12


def test_profile_derivative_antiderivative_roundtrip(pipeline_even):
    prof = pipeline_even["profiles"]["a_par"]
    back = prof.derivative().antiderivative()
    offset = prof(0.0) - back(0.0)
    xs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(back(xs) + offset - prof(xs))) < 1e-10


def test_h_prime_matches_finite_differences(pipeline_even):
    h = pipeline_even["profiles"]["gci"]
    xs = np.linspace(-0.95, 0.95, 41)
    eps = 1e-5
    fd = (h(xs + eps) - h(xs - eps)) / (2 * eps)
    assert np.max(np.abs(fd - h.derivative()(xs))) < 1e-6


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
        assert got.shape == (nq, degree + 1) and got.flags.f_contiguous  # legvander's layout
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("nq, degree", [(3, 0), (3, 1), (5, 2), (67, 64), (259, 256)])
def test_basis_cumsums_are_the_recurrences(nq, degree):
    # the derivative columns, running sums per parity, equal the recurrences
    # P'_{j+1} = P'_{j-1} + (2j+1) P_j and P''_{j+1} = P''_{j-1} + (2j+1) P'_j
    # run column by column, to the bit
    rule = build_rule(nq)
    V, Vd, Vdd = _basis(rule, degree)
    ref_d, ref_dd = np.zeros_like(V), np.zeros_like(V)
    if degree >= 1:
        ref_d[:, 1] = 1.0
    for j in range(1, degree):
        ref_d[:, j + 1] = ref_d[:, j - 1] + (2 * j + 1) * V[:, j]
        ref_dd[:, j + 1] = ref_dd[:, j - 1] + (2 * j + 1) * ref_d[:, j]
    assert np.array_equal(Vd, ref_d) and np.array_equal(Vdd, ref_dd)
    assert _basis(rule, degree, 0)[0] is V


def test_legder_is_numpys_to_the_bit():
    # the cumsum form of MuProfile.derivative's coefficient map against
    # numpy's loop at every degree to 300, signed zeros of degree 0 included
    rng = np.random.default_rng(5)
    for degree in range(301):
        for coef in (rng.standard_normal(degree + 1),
                     -1e3 * rng.standard_normal(degree + 1) * 0.8 ** np.arange(degree + 1),
                     np.zeros(degree + 1), -np.ones(degree + 1)):
            got, ref = elliptic._legder(coef), npleg.legder(coef)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), degree
    for degree in (0, 1, 2, 64):
        prof = MuProfile.from_coef(build_rule(degree + 3), rng.standard_normal(degree + 1))
        assert prof.derivative().coef.tobytes() == npleg.legder(prof.coef).tobytes()


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
    assert all(b is rule.bases[128, 2] for b in got)


def test_divided_solver_error_propagates(monkeypatch, even_kernel):
    def fail(*args):
        raise SolverError(f"{args[-1]}: forced failure", 1e18)

    monkeypatch.setattr(elliptic, "_solve", fail)
    row = elliptic_problem_data(even_kernel)["gci"]
    with pytest.raises(SolverError, match="forced failure"):
        solve_type1(even_kernel, row["alpha"], row["f"], 24)
    # f/w = mu - <mu>_w has zero weighted mean, so the solvability check passes
    rule = build_rule(200)
    w = _weight(even_kernel, rule.nodes)
    c1 = float(rule.weights @ (w * rule.nodes) / (rule.weights @ w))
    with pytest.raises(SolverError, match="forced failure"):
        solve_type2(even_kernel, lambda mu: mu - c1, 24)


def _factored_rules(monkeypatch):
    """The rules elliptic._factor is called with from here on, in first-use order."""
    rules = []
    factor = elliptic._factor

    def spy(rule, *args):
        if not any(r is rule for r in rules):
            rules.append(rule)
        return factor(rule, *args)

    monkeypatch.setattr(elliptic, "_factor", spy)
    return rules


def test_pipeline_factors_one_lu_per_operator(monkeypatch, even_kernel):
    # six solves, three operators: type 1 with k=1 (gci, a_perp, b_par),
    # type 1 with k=2 (b1) and type 2 (a_par, b2), all on one operator rule
    # of n + ceil(p/2) + 3 nodes; the weight's rule keeps no factors
    calls = {"solves": 0, "lu": 0}
    rules = _factored_rules(monkeypatch)

    def counted(fn, key):
        def spy(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(elliptic, "solve_type1", counted(elliptic.solve_type1, "solves"))
    monkeypatch.setattr(elliptic, "solve_type2", counted(elliptic.solve_type2, "solves"))
    monkeypatch.setattr(elliptic, "dgetrf", counted(elliptic.dgetrf, "lu"))
    p = run_pipeline(even_kernel, 64, 0.0)
    assert calls == {"solves": 6, "lu": 3}
    assert len(rules) == 1 and rules[0].n == 64 + 1 + 3
    assert len(rules[0].factors) == 3
    assert p.eq.rule.factors == {}


def test_cached_factors_match_a_fresh_rule(even_kernel):
    n, nq = 48, 160
    rule = build_rule(nq)
    solve_gci(even_kernel, n, rule=rule)  # factors the k=1 operator
    row = elliptic_problem_data(even_kernel, c=(0.3, 0.2, 0.4))["a_perp"]
    hit = solve_type1(even_kernel, row["alpha"], row["f"], n, rule=rule, name="a_perp")
    fresh = solve_type1(even_kernel, row["alpha"], row["f"], n, rule=build_rule(nq),
                        name="a_perp")
    assert len(rule.factors) == 1
    scale = np.max(np.abs(fresh.coef))
    assert np.max(np.abs(hit.coef - fresh.coef)) <= 1e-13 * scale
    assert hit.condition == fresh.condition
    assert 1.0 < hit.condition < 1e12
    assert hit.meta["linear_residual"] < 1e-12


def test_kernels_on_one_rule_keep_their_own_factors():
    n, rule = 32, build_rule(120)
    kernels = [constant_kernel(1.0, d=0.5), constant_kernel(1.0, d=0.25)]
    shared = [solve_gci(k, n, rule=rule) for k in kernels]
    assert len(rule.factors) == 2
    for k, h in zip(kernels, shared):
        own = solve_gci(k, n, rule=build_rule(120))
        assert np.max(np.abs(h.coef - own.coef)) <= 1e-13 * np.max(np.abs(own.coef))
    assert np.max(np.abs(shared[0].coef - shared[1].coef)) > 1e-3


def test_type2_factors_do_not_depend_on_the_weight_rule(pipeline_even):
    # the multiplier's column is P0, so the type-2 system reads no weight:
    # a_par with its data checked on two equilibria of different sizes is
    # one factorization on the shared operator rule, and the same solve
    kernel, n = pipeline_even["kernel"], pipeline_even["n"]
    row = elliptic_problem_data(kernel, c=pipeline_even["c"])["a_par"]
    rule = elliptic.operator_rule(kernel, n)
    sizes = (quadrature_size(kernel, n + 2), n + 40)
    assert sizes[0] != sizes[1]
    got = [solve_type2(kernel, row["f"], n, rule=rule, eq=build_equilibrium(kernel, size),
                       name="a_par") for size in sizes]
    assert got[0].coef.tobytes() == got[1].coef.tobytes()
    assert got[0].meta == got[1].meta
    assert got[0].condition == got[1].condition
    assert [key[0] for key in rule.factors] == ["type2"]


def test_singular_operator_raises_without_warning(even_kernel):
    # zero quadrature weights make every assembled matrix exactly zero
    base = build_rule(40)
    rule = QuadratureRule(nodes=base.nodes, weights=np.zeros(base.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="gci solve: singular discrete system"):
            solve_type1(even_kernel, ones, lambda mu: (1.0 - mu * mu) ** 1.5, 16,
                        rule=rule, name="gci")
        with pytest.raises(SolverError, match="b2 solve: singular discrete system"):
            solve_type2(even_kernel, lambda mu: 0.0 * mu, 16, rule=rule, name="b2")
    assert rule.factors == {}


def test_factors_under_concurrent_first_use(even_kernel):
    # racing first factorizations on one rule store one entry, and every
    # solve gives the bits of a solve on its own rule
    rule = build_rule(200)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [f.result(timeout=60) for f in
                   [pool.submit(solve_gci, even_kernel, 96, rule) for _ in range(16)]]
    finally:
        sys.setswitchinterval(interval)
    assert len(rule.factors) == 1
    alone = solve_gci(even_kernel, 96, build_rule(200)).coef
    assert all(np.array_equal(g.coef, alone) for g in got)


def test_solves_pass_getrs_their_own_pivots(monkeypatch, even_kernel):
    # scipy's getrs shifts its pivot argument in place around the LAPACK call
    # with the GIL released; concurrent solves that handed it the cached
    # pivots could corrupt the heap (the test above then failed or crashed)
    rule = build_rule(120)
    solve_gci(even_kernel, 64, rule=rule)
    cached = [factors.piv for factors in rule.factors.values()]
    passed = []
    getrs = elliptic.dgetrs

    def spy(lu, piv, b, **kwargs):
        passed.append(piv)
        return getrs(lu, piv, b, **kwargs)

    monkeypatch.setattr(elliptic, "dgetrs", spy)
    profile = solve_gci(even_kernel, 64, rule=rule)
    assert len(passed) == 2
    # the estimate is formed on factors already published on the rule
    assert 1.0 < profile.condition < np.inf
    assert len(passed) > 2
    assert not any(np.shares_memory(p, c) for p in passed for c in cached)


def test_singular_operator_errors_name_d(even_kernel):
    base = build_rule(40)
    rule = QuadratureRule(nodes=base.nodes, weights=np.zeros(base.n))
    d = f"at d = {even_kernel.d:g}"
    with pytest.raises(SolverError, match=f"singular discrete system {d}"):
        solve_type1(even_kernel, ones, lambda mu: (1.0 - mu * mu) ** 1.5, 16,
                    rule=rule, name="gci")
    with pytest.raises(SolverError, match=f"singular discrete system {d}"):
        solve_type2(even_kernel, lambda mu: 0.0 * mu, 16, rule=rule, name="b2")
    with pytest.raises(PreconditionError, match=f"alpha must be positive .* {d}"):
        solve_type1(even_kernel, lambda mu: mu, lambda mu: 0 * mu, 8)


def test_condition_estimate_is_reproducible():
    # LAPACK gecon's last bits move with the allocation state of the process;
    # the estimate recorded in meta must not
    kernel = constant_kernel(1.0, d=1.0)
    rule = build_rule(300)
    seen, junk = set(), []
    for i in range(12):
        rule.factors.clear()
        seen.add(solve_gci(kernel, 256, rule=rule).condition)
        junk.append(np.ones(1000 * (i % 5) + 7))
        junk.extend(np.ones(13 * i + 1) for _ in range(i))
    assert len(seen) == 1


def _estimates(monkeypatch):
    """Sizes of the systems elliptic._inverse_norm1 estimates from here on."""
    sizes, estimate = [], elliptic._inverse_norm1

    def spy(lu, piv):
        sizes.append(len(lu))
        return estimate(lu, piv)

    monkeypatch.setattr(elliptic, "_inverse_norm1", spy)
    return sizes


def test_condition_estimate_is_formed_only_when_read(monkeypatch):
    sizes = _estimates(monkeypatch)
    for kernel in registry_kernels(d=0.1):
        compute_coefficients(kernel, n=64, kappa=0.1)
    compute_coefficients(constant_kernel(1.0, d=0.02), n=256)  # past the degree-64 gate
    assert sizes == []
    # the six profiles of a pipeline share three factorizations, each
    # estimated once, and the gauge shift and carry to the weight rule keep them
    profiles = run_pipeline(registry_kernels(d=0.5)[0], 64, 0.1).profiles
    assert sizes == []
    got = {name: p.condition for name, p in profiles.items()}
    assert len(sizes) == 3 and len(set(got.values())) == 3
    assert got["gci"] == got["a_perp"] == got["b_par"] and got["a_par"] == got["b2"]
    assert all(1.0 < c < 1e12 for c in got.values())
    assert [p.condition for p in profiles.values()] == list(got.values())
    assert len(sizes) == 3  # read again, not formed again
    assert "condition" not in profiles["gci"].meta
    assert profiles["gci"].derivative().condition is None


def test_solver_error_carries_the_estimate(monkeypatch, legendre_kernel):
    sizes = _estimates(monkeypatch)
    bad = lambda mu: np.where(np.asarray(mu) > 0.5, np.nan, 0.0)
    with pytest.raises(SolverError, match=r"probe solve: non-finite solution .*"
                                          r"\(condition estimate \d\.\d{3}e[+-]\d+\)") as err:
        solve_type1(legendre_kernel, ones, bad, 8, name="probe")
    assert sizes == [9] and 1.0 < err.value.condition < np.inf


@pytest.mark.parametrize("d", [0.02, 1.0])
def test_condition_estimate_matches_gecon(monkeypatch, d):
    # the same Hager-Higham iteration as LAPACK's, on the cached factors:
    # gecon with unit norm returns 1 / (its estimate of ||A^-1||_1)
    rules = _factored_rules(monkeypatch)
    for kernel in registry_kernels(d=d):
        run_pipeline(kernel, 64, 0.1)
    assert len(rules) == 4
    for rule in rules:
        assert len(rule.factors) == 3
        for factors in rule.factors.values():
            rcond = dgecon(factors.lu, 1.0)[0]
            estimate = elliptic._inverse_norm1(factors.lu, factors.piv)
            assert abs(estimate * rcond - 1.0) <= 1e-12
