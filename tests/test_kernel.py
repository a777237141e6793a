import warnings

import numpy as np
import pytest
from numpy.polynomial import Legendre, Polynomial
from numpy.polynomial import legendre as npleg

from flock_coeffs.errors import ConfigError, DomainError
from flock_coeffs.kernel import (
    SpatialKernel,
    affine_kernel,
    ball_kernel,
    compute_kappa,
    constant_kernel,
    evaluate_kernel,
    even_poly_kernel,
    gaussian_kernel,
    kernel_from_config,
    make_kernel,
    parse_config,
    registry_kernels,
    tabulated_kernel,
)
from flock_coeffs.quad import build_rule


def test_constant_kernel_examples():
    k = constant_kernel(1.0, d=1.0)
    assert evaluate_kernel(k, 0.5) == pytest.approx((1.0, 0.0, 0.5), abs=1e-15)
    # anchoring convention sigma(0) = 0
    assert evaluate_kernel(k, 0.0) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


def test_even_poly_kernel_antiderivative():
    # nu = 1 + mu^2/2: sigma = mu + mu^3/6 term by term
    k = even_poly_kernel([1.0, 0.5], d=1.0)
    nu, nup, sig = evaluate_kernel(k, 1.0)
    assert nu == pytest.approx(1.5, abs=1e-15)
    assert nup == pytest.approx(1.0, abs=1e-15)
    assert sig == pytest.approx(7.0 / 6.0, abs=1e-15)


def test_registry_kernels_are_hashable():
    kernels = registry_kernels(d=0.5)
    index = {kernel: i for i, kernel in enumerate(kernels)}
    for i, kernel in enumerate(kernels):
        assert kernel == kernel
        assert index[kernel] == i


def test_out_of_range_mu_rejected():
    k = constant_kernel(1.0)
    with pytest.raises(DomainError):
        evaluate_kernel(k, 1.0 + 1e-9)
    with pytest.raises(DomainError):
        evaluate_kernel(k, np.array([0.0, -1.5]))
    for mu in (np.nan, np.inf, np.array([0.0, np.nan])):
        with pytest.raises(DomainError):
            evaluate_kernel(k, mu)
    # a NaN sample point is rejected before the Legendre fit reaches LAPACK
    with pytest.raises(DomainError):
        tabulated_kernel(np.array([-1.0, np.nan, 1.0]), np.ones(3))


def test_sigma_is_antiderivative_of_nu():
    # |sigma(b) - sigma(a) - int_a^b nu| < 1e-12 on random subintervals
    rule = build_rule(48)
    rng = np.random.default_rng(11)
    for kernel in registry_kernels(d=0.8):
        for _ in range(5):
            a, b = np.sort(rng.uniform(-1, 1, size=2))
            nodes = 0.5 * (b - a) * rule.nodes + 0.5 * (a + b)
            integral = 0.5 * (b - a) * float(rule.weights @ np.asarray(kernel.nu(nodes)))
            gap = float(kernel.sigma(b) - kernel.sigma(a)) - integral
            assert abs(gap) < 1e-12


def test_nu_prime_matches_finite_differences():
    mu = np.linspace(-0.95, 0.95, 9)
    eps = 1e-6
    for kernel in registry_kernels(d=1.0):
        fd = (np.asarray(kernel.nu(mu + eps)) - np.asarray(kernel.nu(mu - eps))) / (2 * eps)
        assert np.max(np.abs(fd - np.asarray(kernel.nu_prime(mu)))) < 1e-8


def test_nu_lower_bound_declared():
    for kernel in registry_kernels(d=1.0):
        mu = np.linspace(-1, 1, 501)
        assert kernel.nu_min > 0
        assert np.min(kernel.nu(mu)) >= kernel.nu_min - 1e-12


def test_nonpositive_nu_rejected():
    with pytest.raises(ConfigError):
        affine_kernel(1.0, 1.5)
    with pytest.raises(ConfigError):
        constant_kernel(0.0)


def test_kernel_evaluations_are_the_series_own():
    # nu, nu' and sigma evaluate the series' coefficients without its domain
    # map: to the bit its bound __call__, on random points, both ends, a
    # signed zero and two Gauss rules, for arrays and scalars alike
    mu33 = np.linspace(-1, 1, 33)
    mu21 = np.linspace(-1, 1, 21)
    cases = [(constant_kernel(1.0), Polynomial([1.0])),
             (affine_kernel(1.0, 0.3), Polynomial([1.0, 0.3])),
             (even_poly_kernel([1.0, 0.5]), Polynomial([1.0, 0.0, 0.5])),
             (registry_kernels()[3], Legendre(npleg.legfit(
                 mu33, 1.0 + 0.25 * mu33**2 + 0.1 * mu33**4, 8))),
             (tabulated_kernel(mu21, 2.0 + np.sin(3 * mu21)),
              Legendre(npleg.legfit(mu21, 2.0 + np.sin(3 * mu21), 20)))]
    points = [np.random.default_rng(3).uniform(-1, 1, 10_000),
              np.array([-1.0, -0.0, 0.0, 1.0]), build_rule(67).nodes, build_rule(2314).nodes]
    for kernel, series in cases:
        refs = (series, series.deriv(), series.integ(lbnd=0))
        for fn, ref in zip((kernel.nu, kernel.nu_prime, kernel.sigma), refs):
            for x in points:
                assert fn(x).tobytes() == ref(x).tobytes(), kernel.model
            for x in (-1.0, -0.0, 0.3, 1.0):
                assert np.float64(fn(x)).tobytes() == np.float64(ref(x)).tobytes()


@pytest.mark.parametrize("build", [
    lambda: constant_kernel(np.nan),
    lambda: constant_kernel(np.inf),
    lambda: affine_kernel(1.0, np.nan),
    lambda: even_poly_kernel([1.0, np.inf]),
    lambda: tabulated_kernel(np.linspace(-1, 1, 9), [1.0] * 4 + [np.nan] + [1.0] * 4),
], ids=["nan-const", "inf-const", "nan-affine", "inf-evenpoly", "nan-tabulated-value"])
def test_non_finite_rate_parameters_are_config_errors(build):
    # rejected before the rate is sampled: no numpy warning, no NaN nu_min
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="model .*non-finite"):
            build()


def test_tabulated_kernel_reproduces_samples():
    mu = np.linspace(-1, 1, 21)
    vals = 1.0 + 0.3 * mu**2
    k = tabulated_kernel(mu, vals, d=1.0, degree=6)
    assert np.max(np.abs(np.asarray(k.nu(mu)) - vals)) < 1e-10
    assert abs(float(k.sigma(0.0))) < 1e-14


def test_sigma_shift_helper(with_sigma_shift):
    k = constant_kernel(1.0)
    ks = with_sigma_shift(k, 3.0)
    assert float(ks.sigma(0.25)) == pytest.approx(float(k.sigma(0.25)) + 3.0)
    assert float(ks.nu(0.25)) == float(k.nu(0.25))


def test_kappa_ball_closed_form():
    # K_p = 4 pi R^(p+3)/(p+3) gives K2/(6 K0) = R^2/10
    assert compute_kappa(ball_kernel(1.0)) == pytest.approx(0.1, abs=1e-14)
    assert compute_kappa(ball_kernel(2.0)) == pytest.approx(0.4, abs=1e-14)


def test_kappa_passthrough():
    assert compute_kappa(0.37) == 0.37


def test_kappa_scaling_invariance():
    # kappa is a ratio of moments: scaling K leaves it unchanged
    base = SpatialKernel(k_radial=lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0),
                         support_radius=1.0)
    scaled = SpatialKernel(k_radial=lambda r: 7.5 * np.where(np.asarray(r) <= 1.0, 1.0, 0.0),
                           support_radius=1.0)
    assert compute_kappa(base) == pytest.approx(compute_kappa(scaled), rel=1e-12)
    assert compute_kappa(base) == pytest.approx(0.1, rel=1e-9)


def test_kappa_gaussian_quadrature_matches_closed_form():
    scale = 0.7
    closed = compute_kappa(gaussian_kernel(scale))
    numeric = compute_kappa(SpatialKernel(
        k_radial=lambda r, s=scale: np.exp(-np.asarray(r) ** 2 / (2 * s * s)),
        support_radius=None))
    assert closed == pytest.approx(scale**2 / 2.0, rel=1e-12)
    assert numeric == pytest.approx(closed, rel=1e-8)


def test_divergent_moment_rejected():
    # slow algebraic tail: K2 integrand grows like r, unbounded moment
    heavy = SpatialKernel(k_radial=lambda r: 1.0 / (1.0 + np.asarray(r)) ** 3,
                          support_radius=None)
    with pytest.raises(ConfigError):
        compute_kappa(heavy)


def test_parse_config_and_build():
    cfg = parse_config("""
# alignment configuration
nu.model = evenpoly
nu.params = 1, 0.5
d = 0.5
spatial.model = ball
spatial.radius = 2
""")
    kernel, kappa = kernel_from_config(cfg)
    assert kernel.model == "evenpoly"
    assert kernel.d == 0.5
    assert kappa == pytest.approx(0.4)
    # explicit kappa wins over the spatial kernel
    cfg["kappa"] = "0.05"
    _, kappa2 = kernel_from_config(cfg)
    assert kappa2 == 0.05


def test_config_errors():
    with pytest.raises(ConfigError):
        parse_config("not a key value line")
    with pytest.raises(ConfigError):
        make_kernel("nope", (1.0,), 1.0)
    with pytest.raises(ConfigError):
        kernel_from_config({"nu.model": "const", "nu.params": "1", "d": "abc"})
    with pytest.raises(ConfigError):
        kernel_from_config({"spatial.model": "cube"})


def test_nu_params_default_only_for_const():
    kernel, _ = kernel_from_config({"nu.model": "const"})
    assert kernel.nu(np.array([0.3]))[0] == 1.0
    with pytest.raises(ConfigError, match=r"takes 2 parameter\(s\), got 0"):
        kernel_from_config({"nu.model": "affine"})
    with pytest.raises(ConfigError, match="got 0"):
        kernel_from_config({"nu.model": "evenpoly"})
