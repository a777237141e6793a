import numpy as np
import pytest

from flock_coeffs.elliptic import MuProfile, elliptic_problem_data
from flock_coeffs.errors import PreconditionError
from flock_coeffs.oracle import (
    ModeOperator,
    build_dense_grid,
    compare_spectral_fd,
    fd_solve,
    gci_orthogonality,
    mode_apply,
    mode_residuals,
    project_trial_k1,
    source_orthogonality,
    trial_norm,
)


def test_dense_grid_strictly_interior():
    grid = build_dense_grid(500)
    assert grid.nodes.min() > -1.0
    assert grid.nodes.max() < 1.0
    assert np.allclose(np.diff(grid.nodes), grid.spacing)


def test_fd_zero_data(legendre_kernel):
    sol = fd_solve(legendre_kernel, 2, None, lambda mu: 0.0 * mu, 200)
    assert np.abs(sol.values).max() < 1e-14


def test_fd_first_eigenfunction_exact_fluxes(legendre_kernel):
    # linear solution, quadratic conductance: the flux stencil is exact
    sol = fd_solve(legendre_kernel, 2, None, lambda mu: 2.0 * mu, 300)
    assert np.abs(sol.values - sol.grid.nodes).max() < 1e-10


def test_fd_second_order_convergence(legendre_kernel):
    p2 = lambda mu: (3.0 * mu * mu - 1.0) / 2.0
    errs = []
    for m in (400, 800, 1600):
        sol = fd_solve(legendre_kernel, 2, None, lambda mu: 6.0 * p2(mu), m)
        errs.append(np.abs(sol.values - p2(sol.grid.nodes)).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_fd_type1_against_manufactured(legendre_kernel):
    # reduced factor 1 at order 2: full solution g = 1 - mu^2,
    # data (1-mu^2)(3-6mu^2)
    errs = []
    for m in (400, 800):
        sol = fd_solve(legendre_kernel, 1, lambda mu: np.ones_like(mu),
                       lambda mu: (1 - mu**2) * (3 - 6 * mu**2), m)
        x = sol.grid.nodes
        errs.append(np.abs(sol.values - (1 - x * x)).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_fd_reduced_variable_matches_spectral(pipeline_even):
    p = pipeline_even
    kernel = p["kernel"]
    row = elliptic_problem_data(kernel)["gci"]
    errs = []
    for m in (2500, 5000):
        sol = fd_solve(kernel, 1, row["alpha"], row["f"], m, reduced_order=1)
        x = sol.grid.nodes
        ref = np.sqrt(1 - x * x) * p["gci"].h(x)
        errs.append(np.linalg.norm(sol.values - ref) / np.linalg.norm(ref))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_fd_preconditions(legendre_kernel):
    with pytest.raises(PreconditionError):
        fd_solve(legendre_kernel, 2, None, lambda mu: 0 * mu, 50)
    with pytest.raises(PreconditionError, match="zero mean"):
        fd_solve(legendre_kernel, 2, None, lambda mu: 1.0 + 0 * mu, 200)
    with pytest.raises(PreconditionError):
        fd_solve(legendre_kernel, 3, None, lambda mu: 0 * mu, 200)


def test_fd_type2_rejects_non_finite_data(legendre_kernel):
    bad = lambda mu: np.where(np.asarray(mu) > 0.5, np.nan, 0.0)
    with pytest.raises(PreconditionError, match="zero mean"):
        fd_solve(legendre_kernel, 2, None, bad, 200)


def test_mode_null_space(pipeline_even):
    # constants span the kernel of the axisymmetric mode
    eq = pipeline_even["eq"]
    const = MuProfile.from_coef(eq.rule, [2.5])
    image = mode_apply(ModeOperator(pipeline_even["kernel"], 0), const)
    assert np.abs(image.values).max() < 1e-12


def test_mode_image_of_invariant_profile(pipeline_const, pipeline_even):
    # substituting the solved invariant profile recovers its constant data -d
    for p in (pipeline_const, pipeline_even):
        image = mode_apply(ModeOperator(p["kernel"], 1), p["gci"].h)
        assert np.abs(image.values + p["kernel"].d).max() < 1e-8


def test_mode_image_of_b1(pipeline_even):
    p = pipeline_even
    image = mode_apply(ModeOperator(p["kernel"], 2), p["profiles"].b1)
    expected = np.asarray(p["kernel"].nu(image.rule.nodes)) / p["kernel"].d
    assert np.abs(image.values - expected).max() < 1e-8


def test_all_profile_mode_identities(pipeline_const, pipeline_even):
    for p in (pipeline_const, pipeline_even):
        res = mode_residuals(p["kernel"], p["c"], p["gci"], p["profiles"])
        assert max(res.values()) < 1e-8


def test_mode_quadratic_form_properties(pipeline_even):
    # -int L(phi) phi / M is symmetric and nonnegative; strictly positive
    # off the null space and for k >= 1
    p = pipeline_even
    eq = p["eq"]
    x = eq.rule.nodes
    rng = np.random.default_rng(6)

    def pairing(k, u1, u2):
        img = mode_apply(ModeOperator(p["kernel"], k), u1)(x)
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
        defect = gci_orthogonality(p["kernel"], p["gci"], trial, k, parity, eq)
        assert defect < 1e-8 * trial_norm(p["kernel"], trial, k, eq)


def test_orthogonality_equilibrium_trial(pipeline_even):
    # the equilibrium itself is annihilated by the linearized operator
    p = pipeline_even
    eq = p["eq"]
    trial = MuProfile.from_coef(eq.rule, [1.0])
    assert gci_orthogonality(p["kernel"], p["gci"], trial, 0, "cos", eq) < 1e-14


def test_orthogonality_mode1_requires_projection(pipeline_even):
    p = pipeline_even
    eq = p["eq"]
    rng = np.random.default_rng(8)
    trial = MuProfile.from_coef(eq.rule, rng.standard_normal(7))
    raw = gci_orthogonality(p["kernel"], p["gci"], trial, 1, "cos", eq)
    assert raw > 1e-4 * trial_norm(p["kernel"], trial, 1, eq)  # flux-carrying
    projected = project_trial_k1(p["kernel"], p["gci"], trial, eq)
    fixed = gci_orthogonality(p["kernel"], p["gci"], projected, 1, "cos", eq)
    assert fixed < 1e-8 * trial_norm(p["kernel"], projected, 1, eq)


def test_source_admissibility(pipeline_const, pipeline_even):
    for p in (pipeline_const, pipeline_even):
        defects = source_orthogonality(p["kernel"], p["gci"], p["c"], p["eq"])
        assert set(defects) == {"a_perp", "a_par", "b_bb", "b_pb"}
        assert max(defects.values()) < 1e-8


def test_spectral_fd_cross_check_moderate(pipeline_even):
    p = pipeline_even
    out = compare_spectral_fd(p["kernel"], p["c"], p["gci"], p["profiles"], m=5000)
    assert set(out) == {"gci", "a_perp", "a_par", "b1", "b2", "b_par"}
    # second-order floor at this resolution
    assert max(out.values()) < 1e-4 * (20000 / 5000) ** 2


def test_negative_mode_index_rejected(pipeline_even):
    with pytest.raises(PreconditionError):
        ModeOperator(pipeline_even["kernel"], -1)
