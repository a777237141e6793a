import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from flock_coeffs.coeffs import run_pipeline
from flock_coeffs.elliptic import MuProfile, _basis, elliptic_problem_data, solve_type2
from flock_coeffs.errors import DomainError, PreconditionError, SolverError
from flock_coeffs.kernel import constant_kernel, even_poly_kernel, registry_kernels
from flock_coeffs.oracle import (
    compare_spectral_fd,
    fd_solve,
    gci_orthogonality,
    mode_apply,
    mode_residuals,
    project_trial_k1,
    source_orthogonality,
    trial_norm,
)
from flock_coeffs.quad import build_rule, quadrature_size


def test_dense_grid_strictly_interior(legendre_kernel):
    nodes, _ = fd_solve(legendre_kernel, 2, None, lambda mu: 0.0 * mu, 500)
    assert nodes.min() > -1.0
    assert nodes.max() < 1.0
    assert np.allclose(np.diff(nodes), 2.0 / 500)


def test_fd_zero_data(legendre_kernel):
    _, values = fd_solve(legendre_kernel, 2, None, lambda mu: 0.0 * mu, 200)
    assert np.abs(values).max() < 1e-14


def test_fd_first_eigenfunction_exact_fluxes(legendre_kernel):
    # linear solution, quadratic conductance: the flux stencil is exact
    nodes, values = fd_solve(legendre_kernel, 2, None, lambda mu: 2.0 * mu, 300)
    assert np.abs(values - nodes).max() < 1e-10


def test_fd_second_order_convergence(legendre_kernel):
    p2 = lambda mu: (3.0 * mu * mu - 1.0) / 2.0
    errs = []
    for m in (400, 800, 1600):
        nodes, values = fd_solve(legendre_kernel, 2, None, lambda mu: 6.0 * p2(mu), m)
        errs.append(np.abs(values - p2(nodes)).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_fd_type1_against_manufactured(legendre_kernel):
    # reduced factor 1 at order 2: full solution g = 1 - mu^2,
    # data (1-mu^2)(3-6mu^2)
    errs = []
    for m in (400, 800):
        x, values = fd_solve(legendre_kernel, 1, lambda mu: np.ones_like(mu),
                             lambda mu: (1 - mu**2) * (3 - 6 * mu**2), m)
        errs.append(np.abs(values - (1 - x * x)).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_fd_reduced_variable_matches_spectral(pipeline_even):
    p = pipeline_even
    kernel = p["kernel"]
    row = elliptic_problem_data(kernel)["gci"]
    errs = []
    for m in (2500, 5000):
        x, values = fd_solve(kernel, 1, row["alpha"], row["f"], m, reduced_order=1)
        ref = np.sqrt(1 - x * x) * p["profiles"]["gci"](x)
        errs.append(np.linalg.norm(values - ref) / np.linalg.norm(ref))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("which", ["legendre", "evenpoly"])
def test_fd_type2_recursion_solves_bordered_system(which, legendre_kernel):
    # the flux recursion against a dense solve of the bordered system it
    # stands for: conductance matrix A, weighted border column w dx,
    # uniform gauge row dx 1^T
    kernel = legendre_kernel if which == "legendre" else even_poly_kernel([1.0, 0.5], d=0.5)
    m = 300
    dx = 2.0 / m
    x = -1.0 + (np.arange(m) + 0.5) * dx
    faces = -1.0 + np.arange(m + 1) * dx
    lw_cell, lw_face = kernel.log_weight(x), kernel.log_weight(faces)
    shift = max(lw_cell.max(), lw_face.max())
    w_cell, w_face = np.exp(lw_cell - shift), np.exp(lw_face - shift)
    # zero weighted mean: mu minus its weighted average
    rule = build_rule(quadrature_size(kernel, 96))
    w_rule = np.exp(kernel.log_weight(rule.nodes))
    c1 = (rule.weights @ (rule.nodes * w_rule)) / (rule.weights @ w_rule)
    data = lambda mu: np.asarray(mu) - c1

    cond = w_face * (1.0 - faces**2) / dx**2
    K = np.zeros((m + 1, m + 1))
    K[np.arange(m), np.arange(m)] = cond[:-1] + cond[1:]
    K[np.arange(m - 1), np.arange(1, m)] = -cond[1:-1]
    K[np.arange(1, m), np.arange(m - 1)] = -cond[1:-1]
    K[:m, m] = w_cell * dx
    K[m, :m] = dx
    ref = np.linalg.solve(K, np.concatenate([data(x) * w_cell, [0.0]]))[:m]

    nodes, values = fd_solve(kernel, 2, None, data, m)
    assert np.array_equal(nodes, x)
    assert np.abs(values - ref).max() <= 1e-10 * np.abs(ref).max()


def test_fd_type2_weight_underflow_names_d():
    # a sigma/d spread of 1000 underflows the weight at the faces near mu = -1
    with pytest.raises(SolverError, match=r"conductance .* at d = 0\.002"):
        fd_solve(constant_kernel(1.0, d=0.002), 2, None, lambda mu: 0.0 * mu, 1000)


def test_fd_precondition_messages_name_d(legendre_kernel):
    with pytest.raises(PreconditionError, match=r"alpha must be positive .* at d = 0\.002"):
        fd_solve(constant_kernel(1.0, d=0.002), 1, lambda mu: np.ones_like(mu),
                 lambda mu: 0.0 * mu, 1000)
    with pytest.raises(PreconditionError, match=r"zero mean; .* at d = 1$"):
        fd_solve(legendre_kernel, 2, None, lambda mu: 1.0 + 0 * mu, 200)


def test_fd_preconditions(legendre_kernel):
    with pytest.raises(DomainError, match="oracle resolution m must be >= 100"):
        fd_solve(legendre_kernel, 2, None, lambda mu: 0 * mu, 50)
    with pytest.raises(PreconditionError, match="zero mean"):
        fd_solve(legendre_kernel, 2, None, lambda mu: 1.0 + 0 * mu, 200)
    with pytest.raises(PreconditionError):
        fd_solve(legendre_kernel, 3, None, lambda mu: 0 * mu, 200)


def test_fd_type2_rejects_non_finite_data(legendre_kernel):
    bad = lambda mu: np.where(np.asarray(mu) > 0.5, np.nan, 0.0)
    with pytest.raises(PreconditionError, match="zero mean"):
        fd_solve(legendre_kernel, 2, None, bad, 200)


@pytest.mark.parametrize("solve", [
    lambda kernel, f: solve_type2(kernel, f, 12),
    lambda kernel, f: fd_solve(kernel, 2, None, f, 200),
], ids=["solve_type2", "fd_solve"])
def test_both_type2_solvers_reject_the_same_data(legendre_kernel, solve):
    # the spectral and the dense solver share one solvability check
    with pytest.raises(PreconditionError, match=r"solve: type-2 data must have zero mean; "
                                                r"int f dmu = \S+ at d = 1$"):
        solve(legendre_kernel, lambda mu: 1.0 + mu)


def test_mode_null_space(pipeline_even):
    # constants span the kernel of the axisymmetric mode
    eq = pipeline_even["eq"]
    const = MuProfile.from_coef(eq.rule, [2.5])
    image = mode_apply(pipeline_even["kernel"], 0, const)
    assert np.abs(image.values).max() < 1e-12


def test_mode_image_of_invariant_profile(pipeline_const, pipeline_even):
    # substituting the solved invariant profile recovers its constant data -d
    for p in (pipeline_const, pipeline_even):
        image = mode_apply(p["kernel"], 1, p["profiles"]["gci"])
        assert np.abs(image.values + p["kernel"].d).max() < 1e-8


def test_mode_image_of_b1(pipeline_even):
    p = pipeline_even
    image = mode_apply(p["kernel"], 2, p["profiles"]["b1"])
    expected = np.asarray(p["kernel"].nu(image.rule.nodes)) / p["kernel"].d
    assert np.abs(image.values - expected).max() < 1e-8


def test_all_profile_mode_identities(pipeline_const, pipeline_even):
    for p in (pipeline_const, pipeline_even):
        res = mode_residuals(p["kernel"], p["c"], p["profiles"])
        assert max(res.values()) < 1e-8


def _six_profiles(p):
    # (mode index, reduced profile) of each solved problem; the mode index is
    # the endpoint order the problem table states
    table = elliptic_problem_data(p.eq.kernel, p.c, b1=p.profiles["b1"])
    return [(table[name]["sing_order"], prof) for name, prof in p.profiles.items()]


def _clenshaw_image(kernel, k, profile):
    # mode_apply's nodal image with the derivatives by Clenshaw on legder
    x = profile.rule.nodes
    s2 = 1.0 - x * x
    nu_over_d = np.asarray(kernel.nu(x)) / kernel.d
    up = npleg.legval(x, npleg.legder(profile.coef))
    upp = npleg.legval(x, npleg.legder(profile.coef, 2))
    return kernel.d * (-s2 * upp + ((2.0 * k + 2.0) * x - nu_over_d * s2) * up
                       + (k * (k + 1) + k * x * nu_over_d) * profile.values)


@pytest.mark.parametrize("kernel", [constant_kernel(1.0, d=1.0),
                                    even_poly_kernel([1.0, 0.5], d=0.5)],
                         ids=["const", "evenpoly"])
def test_mode_apply_derivatives_from_the_rule_basis(kernel):
    p = run_pipeline(kernel, 64, 0.1)
    for k, prof in _six_profiles(p):
        x = prof.rule.nodes
        _, Vd, Vdd = _basis(prof.rule, prof.degree)
        for m, cached in ((1, Vd), (2, Vdd)):
            clenshaw = npleg.legval(x, npleg.legder(prof.coef, m))
            assert np.abs(cached @ prof.coef - clenshaw).max() <= 1e-12 * np.abs(clenshaw).max()
        # the projection onto degree + 28 rounds to about 6e-13 at the ends
        image = mode_apply(kernel, k, prof)
        reference = _clenshaw_image(kernel, k, prof)
        assert np.abs(image.values - reference).max() <= 1e-11 * np.abs(reference).max()
    assert max(mode_residuals(kernel, p.c, p.profiles).values()) <= 1e-8


def test_nodal_reads_reject_another_rule(pipeline_even):
    p = pipeline_even
    eq = p["eq"]
    other = MuProfile.from_coef(build_rule(eq.rule.n), [1.0, 0.5])
    with pytest.raises(PreconditionError, match="rule"):
        trial_norm(other, 1, eq)


def test_mode_quadratic_form_properties(pipeline_even):
    # -int L(phi) phi / M is symmetric and nonnegative; strictly positive
    # off the null space and for k >= 1
    p = pipeline_even
    eq = p["eq"]
    x = eq.rule.nodes
    rng = np.random.default_rng(6)

    def pairing(k, u1, u2):
        img = mode_apply(p["kernel"], k, u1)(x)
        s2k = (1 - x * x) ** k
        return eq.average(s2k * img * u2(x))

    for k in (0, 1, 2):
        u1 = MuProfile.from_coef(eq.rule, rng.standard_normal(6))
        u2 = MuProfile.from_coef(eq.rule, rng.standard_normal(6))
        sym_gap = pairing(k, u1, u2) - pairing(k, u2, u1)
        assert abs(sym_gap) < 1e-10 * max(1.0, abs(pairing(k, u1, u1)))
        q = pairing(k, u1, u1)
        assert q > -1e-12
        if k >= 1:
            assert q > 1e-10


def test_orthogonality_automatic_modes(pipeline_even):
    p = pipeline_even
    eq = p["eq"]
    rng = np.random.default_rng(7)
    for k, parity in ((0, "cos"), (2, "cos"), (2, "sin")):
        trial = MuProfile.from_coef(eq.rule, rng.standard_normal(7))
        defect = gci_orthogonality(p["kernel"], p["profiles"]["gci"], trial, k, parity, eq)
        assert defect < 1e-8 * trial_norm(trial, k, eq)


def test_orthogonality_equilibrium_trial(pipeline_even):
    # the equilibrium itself is annihilated by the linearized operator
    p = pipeline_even
    eq = p["eq"]
    trial = MuProfile.from_coef(eq.rule, [1.0])
    assert gci_orthogonality(p["kernel"], p["profiles"]["gci"], trial, 0, "cos", eq) < 1e-14


def test_orthogonality_mode1_requires_projection(pipeline_even):
    p = pipeline_even
    eq = p["eq"]
    rng = np.random.default_rng(8)
    trial = MuProfile.from_coef(eq.rule, rng.standard_normal(7))
    h = p["profiles"]["gci"]
    raw = gci_orthogonality(p["kernel"], h, trial, 1, "cos", eq)
    assert raw > 1e-4 * trial_norm(trial, 1, eq)  # flux-carrying
    projected = project_trial_k1(h, trial, eq)
    fixed = gci_orthogonality(p["kernel"], h, projected, 1, "cos", eq)
    assert fixed < 1e-8 * trial_norm(projected, 1, eq)


def test_source_admissibility(pipeline_const, pipeline_even):
    for p in (pipeline_const, pipeline_even):
        defects = source_orthogonality(p["kernel"], p["profiles"]["gci"], p["c"], p["eq"])
        assert set(defects) == {"a_perp", "a_par", "b_bb", "b_pb"}
        assert max(defects.values()) < 1e-8


@pytest.mark.parametrize("n", [64, 96, 128])
@pytest.mark.parametrize("d", [0.7, 1.0, 2.0, 3.0])
def test_a_perp_admissibility_for_constant_rate(d, n):
    # 1 - c3 nu/d vanishes identically for a constant rate; the defect is
    # relative to the mass of the two terms, not of their rounded difference
    kernel = constant_kernel(1.0, d=d)
    p = run_pipeline(kernel, n, 0.1)
    assert source_orthogonality(kernel, p.profiles["gci"], p.c, p.eq)["a_perp"] <= 1e-12


@pytest.mark.parametrize("kernel", [constant_kernel(1.0, d=0.5), *registry_kernels(d=0.5)],
                         ids=lambda k: k.model)
def test_a_perp_admissibility_detects_perturbed_c3(kernel):
    p = run_pipeline(kernel, 64, 0.1)
    c1, c2, c3 = p.c
    defects = source_orthogonality(kernel, p.profiles["gci"], (c1, c2, c3 * (1.0 + 1e-6)),
                                   p.eq)
    assert defects["a_perp"] > 1e-7


def test_spectral_fd_cross_check_moderate(pipeline_even):
    p = pipeline_even
    out = compare_spectral_fd(p["kernel"], p["c"], p["profiles"], m=5000)
    assert set(out) == {"gci", "a_perp", "a_par", "b1", "b2", "b_par"}
    # second-order floor at this resolution
    assert max(out.values()) < 1e-4 * (20000 / 5000) ** 2


@pytest.mark.parametrize("d", [0.1, 0.05])
def test_spectral_fd_type2_at_small_d(d):
    # the weighted border keeps the type-2 check sharp where the weight
    # spans many decades (the uniform border read 2e-2 and 9e4 here)
    kernel = constant_kernel(1.0, d=d)
    p = run_pipeline(kernel, 64, 0.1)
    out = compare_spectral_fd(kernel, p.c, p.profiles, m=20000)
    assert out["a_par"] <= 1e-6
    assert out["b2"] <= 1e-6


def compare_by_public_solves(kernel, c, profiles, m):
    """compare_spectral_fd from six public fd_solve calls, each building its
    own grid, with b2's data read through elliptic_problem_data (b1 by its
    Clenshaw sum) and the profiles evaluated as compare_spectral_fd does."""
    probs = elliptic_problem_data(kernel, c, b1=profiles["b1"])
    dense = {name: fd_solve(kernel, spec["ptype"], spec["alpha"], spec["f"], m,
                            reduced_order=spec["sing_order"])
             for name, spec in probs.items()}
    x = dense["gci"][0]
    coefs = np.zeros((max(len(profiles[name].coef) for name in probs), len(probs)))
    for j, name in enumerate(probs):
        coefs[:len(profiles[name].coef), j] = profiles[name].coef
    reduced = npleg.legvander(x, coefs.shape[0] - 1) @ coefs
    out = {}
    for j, (name, spec) in enumerate(probs.items()):
        assert dense[name][0].tobytes() == x.tobytes()
        g_spec = (1.0 - x * x) ** (spec["sing_order"] / 2.0) * reduced[:, j]
        g_dense = dense[name][1]
        if spec["ptype"] == 2:
            g_spec = g_spec - g_spec.mean()
            g_dense = g_dense - g_dense.mean()
        out[name] = float(np.linalg.norm(g_spec - g_dense) / (np.linalg.norm(g_spec) + 1e-300))
    return out


@pytest.mark.parametrize("d", [0.5, 0.1])
def test_shared_dense_grid_matches_public_solves(d):
    # the six solves on one shared grid are fd_solve's to the bit; b2's
    # data read b1 from its dense column, not by Clenshaw, which may round
    # differently
    for kernel in registry_kernels(d=d):
        p = run_pipeline(kernel, 64, 0.1)
        got = compare_spectral_fd(kernel, p.c, p.profiles, m=20000)
        ref = compare_by_public_solves(kernel, p.c, p.profiles, m=20000)
        assert list(got) == list(ref)
        for name in ref:
            if name == "b2":
                assert abs(got[name] - ref[name]) <= 1e-14, (kernel.model, got[name], ref[name])
            else:
                assert got[name] == ref[name], (kernel.model, name)


def test_negative_mode_index_rejected(pipeline_even):
    profile = pipeline_even["profiles"]["gci"]
    with pytest.raises(PreconditionError):
        mode_apply(pipeline_even["kernel"], -1, profile)
