"""Microscopic interaction inputs.

The alignment rule is described by a rate nu(mu) of turning towards the mean
direction, where mu is the cosine of the angle to that direction, a noise
constant d, and (for the nonlocal correction) the radial weight K(r) used to
average neighbour headings.  Everything downstream consumes nu, its derivative,
its antiderivative sigma (anchored so sigma(0) = 0) and the single nonlocality
constant produced by `compute_kappa`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial import Legendre, Polynomial
from numpy.polynomial import legendre as npleg
from numpy.polynomial.polynomial import polyval

from .errors import ConfigError, DomainError

__all__ = [
    "CollisionKernel",
    "SpatialKernel",
    "evaluate_kernel",
    "compute_kappa",
    "constant_kernel",
    "affine_kernel",
    "even_poly_kernel",
    "tabulated_kernel",
    "make_kernel",
    "registry_kernels",
    "ball_kernel",
    "gaussian_kernel",
    "radial_moment",
    "parse_config",
    "kernel_from_config",
]


@dataclass(frozen=True)
class CollisionKernel:
    """Alignment rate nu(mu), its derivative and antiderivative, and noise d.

    Immutable after construction; safe to share between concurrent solves,
    and hashed and compared by the identity of its callables (for registry
    kernels, polyval or legval with a series' coefficients bound).
    `sigma` is the antiderivative of `nu` with sigma(0) = 0.  The additive
    constant of sigma is free (it cancels in every normalized average); the
    zero anchor is a convention.  `nu_degree` is the degree of nu as a
    polynomial: the elliptic solvers size the rule that computes their
    integrals exactly by it (elliptic.operator_rule).
    """

    nu: Callable[[np.ndarray], np.ndarray]
    nu_prime: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    d: float
    nu_min: float
    nu_degree: int
    model: str = "custom"
    params: tuple = ()

    def __post_init__(self):
        if not 0 < self.d < math.inf:  # also rejects NaN
            raise ConfigError(f"noise constant d must be positive and finite, got {self.d}")

    def log_weight(self, mu):
        """sigma(mu)/d, the log of the orientational equilibrium weight."""
        return np.asarray(self.sigma(mu)) / self.d


def _check_mu(mu):
    arr = np.asarray(mu, dtype=float)
    if not np.all((arr >= -1.0) & (arr <= 1.0)):  # also rejects NaN
        raise DomainError(f"mu must lie in [-1, 1], got {mu!r}")
    return arr


def evaluate_kernel(kernel: CollisionKernel, mu):
    """Return (nu, nu_prime, sigma) at mu, with mu validated against [-1, 1]."""
    arr = _check_mu(mu)
    nu = np.asarray(kernel.nu(arr), dtype=float)
    nup = np.asarray(kernel.nu_prime(arr), dtype=float)
    sig = np.asarray(kernel.sigma(arr), dtype=float)
    if np.isscalar(mu) or np.ndim(mu) == 0:
        return float(nu), float(nup), float(sig)
    return nu, nup, sig


# --- registry models ---------------------------------------------------------
#
# nu is only constrained to be positive and smooth; the closed registry keeps
# the admissible class explicit: constant, affine a + b*mu, even polynomial in
# mu, and a tabulated variant fitted by a polynomial.

def _series_kernel(series, d, model, params):
    """Kernel whose rate nu is a numpy series on the default domain [-1, 1]
    (a power series or a Legendre fit) of degree nu_degree: nu' is its
    derivative and sigma its antiderivative with sigma(0) = 0, each held as
    polyval or legval with its coefficients bound: the series' own
    evaluation to the bit, without its domain map.  Non-finite coefficients
    or a nu not positive and finite on [-1, 1] raise ConfigError."""
    if not np.all(np.isfinite(series.coef)):
        raise ConfigError(f"nu must have finite coefficients; model {model}{params} "
                          f"has non-finite ones")
    val = npleg.legval if isinstance(series, Legendre) else polyval
    nu = partial(val, c=series.coef)
    nu_min = float(nu(np.linspace(-1, 1, 4001)).min())
    if not 0 < nu_min < math.inf:
        raise ConfigError(
            f"nu must be positive and finite on [-1, 1]; model {model}{params} "
            f"attains {nu_min:.3e}"
        )
    return CollisionKernel(
        nu=nu,
        nu_prime=partial(val, c=series.deriv().coef),
        sigma=partial(val, c=series.integ(lbnd=0).coef),
        d=float(d),
        nu_min=nu_min,
        nu_degree=series.degree(),
        model=model,
        params=tuple(float(p) for p in params),
    )


def constant_kernel(value=1.0, d=1.0) -> CollisionKernel:
    """nu identically `value` (> 0); sigma(mu) = value * mu."""
    return _series_kernel(Polynomial([value]), d, "const", (value,))


def affine_kernel(a, b, d=1.0) -> CollisionKernel:
    """nu(mu) = a + b*mu, requires a > |b| for positivity."""
    return _series_kernel(Polynomial([a, b]), d, "affine", (a, b))


def even_poly_kernel(coeffs, d=1.0) -> CollisionKernel:
    """nu(mu) = sum_j coeffs[j] * mu^(2j), positivity checked by sampling."""
    c = np.zeros(2 * len(coeffs) - 1)
    c[::2] = coeffs
    return _series_kernel(Polynomial(c), d, "evenpoly", tuple(coeffs))


def tabulated_kernel(mu_points, nu_values, d=1.0, degree=None) -> CollisionKernel:
    """Kernel from sampled nu values, fitted by a Legendre polynomial.

    The fit degree defaults to min(len(points) - 1, 24).  nu_min is the
    minimum of the fitted polynomial on a dense grid.
    """
    mu_points = _check_mu(mu_points)
    if degree is None:
        degree = min(len(mu_points) - 1, 24)
    fit = Legendre(npleg.legfit(mu_points, nu_values, degree))
    return _series_kernel(fit, d, "tabulated", (len(mu_points), degree))


# model -> (parameter count, builder); a count of None takes one or more
KERNEL_MODELS = {
    "const": (1, lambda params, d: constant_kernel(*params, d=d)),
    "affine": (2, lambda params, d: affine_kernel(*params, d=d)),
    "evenpoly": (None, lambda params, d: even_poly_kernel(params, d=d)),
}


def make_kernel(model: str, params, d: float) -> CollisionKernel:
    """Build a registry kernel by name; raises ConfigError on an unknown model
    or a parameter count the model does not take."""
    try:
        count, builder = KERNEL_MODELS[model]
    except KeyError:
        raise ConfigError(
            f"unknown nu model {model!r}; known: {sorted(KERNEL_MODELS)} (+ tabulated via API)"
        ) from None
    params = tuple(params)
    if not params or count not in (None, len(params)):
        raise ConfigError(f"nu model {model!r} takes {count or 'one or more'} "
                          f"parameter(s), got {len(params)}: {params}")
    return builder(params, d)


def registry_kernels(d=1.0):
    """One representative kernel per registry model, used by verification sweeps."""
    mu = np.linspace(-1, 1, 33)
    return [
        constant_kernel(1.0, d=d),
        affine_kernel(1.0, 0.3, d=d),
        even_poly_kernel([1.0, 0.5], d=d),
        tabulated_kernel(mu, 1.0 + 0.25 * mu**2 + 0.1 * mu**4, d=d, degree=8),
    ]


# --- spatial kernel and the nonlocality constant ------------------------------

@dataclass(frozen=True)
class SpatialKernel:
    """Radial neighbour weight K(r) >= 0.

    support_radius is the cutoff beyond which K vanishes; None declares rapid
    decay and moments are integrated to infinity.
    """

    k_radial: Callable[[float], float]
    support_radius: float | None
    model: str = "custom"
    params: tuple = ()
    _moments: Callable[[int], float] | None = field(default=None, repr=False)


def ball_kernel(radius=1.0) -> SpatialKernel:
    """Indicator of the ball of given radius; moments in closed form."""
    if not 0 < radius < math.inf:  # also rejects NaN
        raise ConfigError(f"ball radius must be positive and finite, got {radius}")
    return SpatialKernel(
        k_radial=lambda r, R=radius: np.where(np.asarray(r) <= R, 1.0, 0.0),
        support_radius=float(radius),
        model="ball",
        params=(float(radius),),
        _moments=lambda p, R=radius: 4.0 * math.pi * R ** (p + 3) / (p + 3),
    )


def gaussian_kernel(scale=1.0) -> SpatialKernel:
    """K(r) = exp(-r^2 / (2 scale^2)); moments in closed form."""
    if not 0 < scale < math.inf:  # also rejects NaN
        raise ConfigError(f"gaussian scale must be positive and finite, got {scale}")
    return SpatialKernel(
        k_radial=lambda r, s=scale: np.exp(-np.asarray(r) ** 2 / (2 * s * s)),
        support_radius=None,
        model="gaussian",
        params=(float(scale),),
        _moments=lambda p, s=scale: 4.0
        * math.pi
        * 2 ** ((p + 1) / 2)
        * s ** (p + 3)
        * math.gamma((p + 3) / 2),
    )


def radial_moment(spatial: SpatialKernel, p: int) -> float:
    """K_p: the p-th moment of K over 3-space, 4*pi * int K(r) r^(p+2) dr."""
    if spatial._moments is not None:
        return float(spatial._moments(p))
    from scipy import integrate

    upper = spatial.support_radius if spatial.support_radius is not None else np.inf
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, err = integrate.quad(
                lambda r: spatial.k_radial(r) * r ** (p + 2), 0.0, upper, limit=200
            )
        except integrate.IntegrationWarning as exc:
            raise ConfigError(
                f"moment K_{p} of spatial kernel {spatial.model} diverges: {exc}"
            ) from None
    value *= 4.0 * math.pi
    err *= 4.0 * math.pi
    if not np.isfinite(value) or (value != 0 and err > 1e-6 * abs(value) + 1e-12):
        raise ConfigError(
            f"moment K_{p} of spatial kernel {spatial.model} did not converge "
            f"(value {value}, error estimate {err})"
        )
    return float(value)


def compute_kappa(spatial) -> float:
    """Nonlocality constant K_2 / (6 K_0); numbers pass through unchanged."""
    if isinstance(spatial, (int, float, np.floating)):
        return float(spatial)
    k0 = radial_moment(spatial, 0)
    k2 = radial_moment(spatial, 2)
    if not k0 > 0:
        raise ConfigError(f"K_0 must be positive, got {k0}")
    return k2 / (6.0 * k0)


# --- plain key=value configuration --------------------------------------------

def parse_config(text: str) -> dict:
    """Parse `key=value` lines; '#' starts a comment, blank lines ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _config_float(cfg, key, default):
    try:
        return float(cfg.get(key, default))
    except ValueError:
        raise ConfigError(f"bad {key} value {cfg[key]!r}") from None


def _parse_floats(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def kernel_from_config(cfg: dict):
    """Build (CollisionKernel, kappa) from a parsed key=value mapping.

    Recognized keys: nu.model, nu.params, d, kappa, spatial.model,
    spatial.radius, spatial.scale.  nu.params defaults to 1 for the const
    model only.  kappa takes precedence over the spatial kernel; absent both,
    kappa defaults to 0 (purely local interaction).
    """
    model = cfg.get("nu.model", "const")
    params = _parse_floats(cfg.get("nu.params", "1" if model == "const" else ""))
    kernel = make_kernel(model, params, _config_float(cfg, "d", "1"))

    if "kappa" in cfg:
        kappa = _config_float(cfg, "kappa", None)
    elif "spatial.model" in cfg:
        smodel = cfg["spatial.model"]
        if smodel == "ball":
            kappa = compute_kappa(ball_kernel(_config_float(cfg, "spatial.radius", "1")))
        elif smodel == "gaussian":
            kappa = compute_kappa(gaussian_kernel(_config_float(cfg, "spatial.scale", "1")))
        else:
            raise ConfigError(f"unknown spatial model {smodel!r}; known: ball, gaussian")
    else:
        kappa = 0.0
    return kernel, kappa
