import re

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from scipy.special import roots_legendre

import flock_coeffs.quad as quad
from flock_coeffs.errors import DegenerateWeightError, DomainError, NumericError
from flock_coeffs.kernel import constant_kernel
from flock_coeffs.quad import (
    average_weighted,
    build_equilibrium,
    build_rule,
    integrate,
)


def langevin(kappa):
    return 1.0 / np.tanh(kappa) - 1.0 / kappa


def test_single_point_rule_is_midpoint():
    rule = build_rule(1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], abs=1e-15)


def test_two_point_rule_integrates_mu_squared():
    rule = build_rule(2)
    assert integrate(rule, lambda mu: mu**2) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_odd_moment_vanishes():
    rule = build_rule(8)
    assert abs(integrate(rule, lambda mu: mu**15)) < 1e-14


def test_weights_sum_to_two():
    for n in (4, 16, 64, 200):
        assert abs(build_rule(n).weights.sum() - 2.0) < 1e-14


def test_polynomial_exactness_to_declared_degree():
    rng = np.random.default_rng(3)
    for n in (3, 8, 20):
        rule = build_rule(n)
        deg = rule.exactness_degree
        coefs = rng.standard_normal(deg + 1)
        exact = sum(c * ((1 - (-1) ** (p + 1)) / (p + 1)) for p, c in enumerate(coefs))
        got = integrate(rule, lambda mu: np.polynomial.polynomial.polyval(mu, coefs))
        assert got == pytest.approx(exact, abs=1e-13)


def test_zero_size_rule_rejected():
    with pytest.raises(DomainError):
        build_rule(0)


@pytest.mark.parametrize("n", [*range(1, 41), 64, 124, 125, 222, 414])
def test_rule_agrees_with_golub_welsch(n):
    # scipy's eigenvalue construction, as an independent reference; its end
    # weights carry rounding of the order of 1e-9 at these sizes
    nodes, weights = roots_legendre(n)
    rule = build_rule(n)
    assert np.abs(rule.nodes - nodes).max() <= 4.5e-16
    assert (np.abs(rule.weights - weights) / weights).max() <= 2e-9


@pytest.mark.parametrize("n", [1, 2, 7, 64, 125, 2314])
def test_rule_is_exactly_symmetric(n):
    rule = build_rule(n)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert np.all(np.diff(rule.nodes) > 0)
    if n % 2:
        middle = rule.nodes[n // 2]
        assert middle == 0.0 and not np.signbit(middle)


@pytest.mark.parametrize("n", [64, 200])
def test_rule_integrates_legendre_polynomials_exactly(n):
    rule = build_rule(n)
    moments = npleg.legvander(rule.nodes, 2 * n - 1).T @ rule.weights
    expected = np.zeros(2 * n)
    expected[0] = 2.0
    assert np.abs(moments - expected).max() <= 1e-13


@pytest.mark.parametrize("n", [2314, 4100])
def test_large_rules_converge(n):
    # 2314 nodes: constant rate at d = 1e-3, n = 256, the edge of the range
    rule = build_rule(n)
    assert rule.n == n
    assert -1.0 < rule.nodes[0] and rule.nodes[-1] < 1.0
    assert np.all(np.diff(rule.nodes) > 0)
    assert abs(rule.weights.sum() - 2.0) < 1e-13
    assert abs(float(rule.weights @ rule.nodes**2) - 2.0 / 3.0) < 1e-13


def test_rule_size_must_be_integral():
    assert np.array_equal(build_rule(64.0).nodes, build_rule(64).nodes)
    assert np.array_equal(build_rule(64.0).weights, build_rule(64).weights)
    assert np.array_equal(build_rule(np.int64(64)).nodes, build_rule(64).nodes)
    with pytest.raises(DomainError, match="integer"):
        build_rule(2.5)
    with pytest.raises(DomainError):
        build_rule(float("nan"))


def test_rule_reports_newton_failure(monkeypatch):
    quad._gauss.cache_clear()  # a memoised size would skip Newton's method
    monkeypatch.setattr(quad, "_NEWTON_ITERATIONS", 1)
    with pytest.raises(NumericError, match="size 64"):
        build_rule(64)


def test_memoised_rules_are_cold_builds():
    # sizes of the coefficient pipeline (1 to 300) and the 2314 nodes of the
    # small-d edge of the range: the memo's nodes and weights are, to the
    # bit, those of a build with an empty memo
    for n in [*range(1, 301), 2314]:
        build_rule(n)
        memo = build_rule(n)
        quad._gauss.cache_clear()
        cold = build_rule(n)
        assert cold.nodes is not memo.nodes
        assert cold.nodes.tobytes() == memo.nodes.tobytes()
        assert cold.weights.tobytes() == memo.weights.tobytes()


def test_memoised_rule_arrays_are_read_only():
    rule = build_rule(68)
    assert build_rule(68).nodes is rule.nodes
    for a in (rule.nodes, rule.weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_each_rule_has_its_own_bases_and_factors():
    a, b = build_rule(68), build_rule(68)
    assert a.nodes is b.nodes and a.weights is b.weights
    assert a.bases is not b.bases and a.factors is not b.factors
    a.bases["probe"] = a.factors["probe"] = None
    assert b.bases == {} and b.factors == {}


def test_rule_memo_stays_within_its_bound():
    quad._gauss.cache_clear()
    for n in range(1, 3 * 64):
        build_rule(n)
    info = quad._gauss.cache_info()
    assert info.maxsize == info.currsize == 64
    # the oldest sizes were dropped: a rebuild of size 1 is a miss
    build_rule(1)
    assert quad._gauss.cache_info().misses == info.misses + 1


def test_average_of_one_is_one(const_kernel):
    eq = build_equilibrium(const_kernel)
    assert eq.average(lambda mu: np.ones_like(mu)) == pytest.approx(1.0, abs=1e-14)


def test_normalization_constant_makes_unit_mass(even_kernel):
    # 2 pi C int exp(sigma/d) dmu = 1
    eq = build_equilibrium(even_kernel)
    raw = integrate(eq.rule, lambda mu: np.exp(even_kernel.log_weight(mu)))
    assert 2 * np.pi * eq.normalization_constant * raw == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("d", [0.05, 0.2, 1.0, 5.0])
def test_mean_direction_cosine_matches_langevin(d):
    eq = build_equilibrium(constant_kernel(1.0, d=d))
    assert eq.average(lambda mu: mu) == pytest.approx(langevin(1.0 / d), abs=1e-13)


def test_weak_alignment_limit_is_symmetric():
    eq = build_equilibrium(constant_kernel(1.0, d=1e8))
    assert abs(eq.average(lambda mu: mu)) < 1e-7


def test_average_weighted_normalization():
    rule = build_rule(64)
    rng = np.random.default_rng(0)
    weight = 0.5 + rng.random(rule.n)
    assert average_weighted(rule, np.ones(rule.n), weight) == pytest.approx(1.0, abs=1e-14)


def test_average_weighted_uniform_symmetry():
    rule = build_rule(64)
    assert abs(average_weighted(rule, rule.nodes, np.ones(rule.n))) < 1e-15


def test_average_weighted_reproduces_convection_constant(pipeline_const):
    # <cos theta> against the sin^2 nu h M weight equals c2 from the pipeline
    p = pipeline_const
    eq, h = p["eq"], p["profiles"]["gci"]
    x = eq.rule.nodes
    weight = (1 - x * x) * np.asarray(p["kernel"].nu(x)) * h(x) * eq.weight
    assert average_weighted(eq.rule, x, weight) == pytest.approx(p["c"][1], abs=1e-13)


def test_degenerate_weight_rejected():
    rule = build_rule(32)
    with pytest.raises(DegenerateWeightError):
        average_weighted(rule, rule.nodes, rule.nodes)  # odd weight integrates to 0


def test_nonfinite_integrand_reports_location():
    eq = build_equilibrium(constant_kernel(1.0))
    bad = np.ones(eq.rule.n)
    bad[eq.rule.n // 2] = np.nan
    with pytest.raises(NumericError, match="mu="):
        eq.average(bad)


def test_wrong_shaped_integrand_is_a_domain_error():
    # arrays and the values of callables go through one shape check
    eq = build_equilibrium(constant_kernel(1.0))
    n = eq.rule.n
    for shape, bad in (((3,), np.ones(3)),
                       ((3,), lambda mu: np.ones(3)),
                       ((n, 1), lambda mu: mu[:, None])):
        with pytest.raises(DomainError, match=re.escape(f"shape {shape}, rule has {n} nodes")):
            eq.average(bad)


def test_bracket_self_convergence_on_doubling(even_kernel):
    # spectral convergence: past the resolution threshold doubling the rule
    # changes smooth bracket averages below 1e-12
    v = {}
    for n in (160, 320):
        eq = build_equilibrium(even_kernel, n)
        v[n] = eq.average(lambda mu: np.cos(3 * mu) * (1 + mu**4))
    assert abs(v[160] - v[320]) < 1e-12


def test_average_invariant_under_sigma_shift(even_kernel, with_sigma_shift):
    eq = build_equilibrium(even_kernel, 200)
    eq_shift = build_equilibrium(with_sigma_shift(even_kernel, 7.0), 200)
    g = lambda mu: mu**3 - 0.2 * mu
    assert eq.average(g) == pytest.approx(eq_shift.average(g), abs=1e-13)
