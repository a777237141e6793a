"""Gauss-Legendre quadrature on [-1, 1] and orientational-equilibrium averages.

Every sphere integral in the pipeline reduces to a 1D integral in
mu = cos(theta) after averaging over the azimuth, so a single Gauss rule plus
the exponential equilibrium weight exp(sigma(mu)/d) covers all of them.  The
equilibrium weight is always handled with its maximum subtracted, which makes
the averages invariant under additive shifts of sigma and safe for small d.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, abc
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import eval_legendre

from .errors import DegenerateWeightError, DomainError, NumericError
from .kernel import CollisionKernel

__all__ = [
    "QuadratureRule",
    "build_rule",
    "integrate",
    "VonMisesEquilibrium",
    "build_equilibrium",
    "quadrature_size",
    "weight_spread",
    "average_weighted",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on (-1, 1); exact to degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray
    # nodes and weights are shared, read-only, by the rules of one size, and
    # so are build_rule's Legendre bases by degree and order (elliptic._basis,
    # _SizeBases; a rule built from its own arrays keeps its own); on an
    # operator rule, LU factors of the elliptic operators by a key of degree,
    # kernel and coefficients (elliptic._factor) live and die with the rule
    bases: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    factors: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def exactness_degree(self) -> int:
        return 2 * self.n - 1


# Newton's method stops once its largest step is this small; a rule that
# needs more than _NEWTON_ITERATIONS steps is reported, not returned
_NEWTON_STEP_TOL = 4e-16
_NEWTON_ITERATIONS = 10

_BASES, _BASES_LOCK, _BASES_BUDGET = OrderedDict(), threading.Lock(), 16 << 20  # see _SizeBases


def build_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method on the nonnegative half of the nodes, started from
    Tricomi's asymptotic estimate (Hale & Townsend, SIAM J. Sci. Comput. 35,
    2013), with P_n and P_{n-1} evaluated by scipy's three-term recurrence at
    an integer degree.  The weights are 2 (1-x^2) / (n (P_{n-1} - x P_n))^2,
    which is 2 (1-x^2) / (n P_{n-1})^2 at a root, rescaled to sum to 2.  The
    half rule is mirrored, so the nodes are exactly
    antisymmetric, the weights exactly symmetric, and the middle node of an
    odd rule is exactly 0.0.  O(n^2) in compiled loops, with no LAPACK call,
    so the bits do not depend on the BLAS build or its thread count.  Each
    call returns a fresh rule on its size's arrays (_gauss) and bases (_SizeBases).
    """
    # an integer degree keeps eval_legendre on its recurrence; a float one
    # would send it down its hypergeometric path
    n = _whole(n, "rule size", 1)
    rule = QuadratureRule(*_gauss(n))
    object.__setattr__(rule, "bases", _SizeBases(n))
    return rule


def _whole(value, what: str, least: int) -> int:
    """`value` as an int; a DomainError naming `what` unless it is whole and >= `least`."""
    if not float(value).is_integer():
        raise DomainError(f"{what} must be an integer, got {value}")
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {int(value)}")
    return int(value)


@lru_cache(maxsize=64)  # the 64 sizes used last: at most 4 MB at 4000 nodes each
def _gauss(n: int):
    """Read-only nodes and weights of build_rule's n-point rule (n >= 1)."""
    # Tricomi's estimate of the nodes x_1 > x_2 > ... >= 0
    theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # a root of every odd P_n, so its Newton step is exactly 0
    for _ in range(_NEWTON_ITERATIONS):
        p = eval_legendre(n, x)
        s2 = (1.0 - x) * (1.0 + x)
        flux = n * (eval_legendre(n - 1, x) - x * p)  # (1-x^2) P_n'(x)
        step = p * s2 / flux
        x = x - step
        if np.max(np.abs(step)) <= _NEWTON_STEP_TOL:
            break
    else:
        raise NumericError(f"Gauss-Legendre rule of size {n}: Newton's method did not "
                           f"converge in {_NEWTON_ITERATIONS} steps")
    # by Legendre's equation (1-x^2) P_n' is stationary at a root, where
    # P_{n-1} alone moves to first order: near the ends of a 2000-node rule
    # that first-order term is 1e-7 of the weight per rounding of the node
    w = 2.0 * s2 / flux**2
    half = n // 2
    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    weights *= 2.0 / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class _SizeBases(dict):
    """The bases a build_rule rule of n nodes has used, read from and stored in
    _BASES by (n, (degree, order)), which keeps those read or stored last within
    16 MiB (a V of orders 0 and 2 counts twice), valid for any n Gauss nodes."""

    def __init__(self, n: int):
        self.n = n  # dict.__new__ has made the empty dict

    get = abc.Mapping.get  # self[key], so that a miss goes to __missing__

    def __missing__(self, key):
        with _BASES_LOCK:
            _BASES.move_to_end((self.n, key))  # a KeyError unless stored
            return super().setdefault(key, _BASES[self.n, key])

    def setdefault(self, key, basis):
        with _BASES_LOCK:
            if sum(a.nbytes for a in basis) <= _BASES_BUDGET:  # else it would empty the store
                basis = _BASES.setdefault((self.n, key), basis)
            while sum(a.nbytes for b in _BASES.values() for a in b) > _BASES_BUDGET:
                _BASES.popitem(last=False)
        return super().setdefault(key, basis)


def _at_nodes(rule: QuadratureRule, g):
    """Values of g (callable, profile-like, array, or scalar) at the rule nodes:
    a scalar value is broadcast, any other must have the nodes' shape."""
    values = np.asarray(g(rule.nodes) if callable(g) else g, dtype=float)
    if values.ndim == 0:
        values = np.full(rule.n, float(values))
    elif values.shape != rule.nodes.shape:
        raise DomainError(
            f"integrand array has shape {values.shape}, rule has {rule.n} nodes"
        )
    return values


def _values_on(rule: QuadratureRule, g):
    """_at_nodes's values of g, which must be finite."""
    values = _at_nodes(rule, g)
    bad = ~np.isfinite(values)
    if bad.any():
        where = rule.nodes[bad][0]
        raise NumericError(f"integrand is not finite at node mu={where:.6f}")
    return values


def integrate(rule: QuadratureRule, g) -> float:
    """int_{-1}^{1} g(mu) dmu by the rule."""
    return float(rule.weights @ _values_on(rule, g))


@dataclass(frozen=True)
class VonMisesEquilibrium:
    """Normalized equilibrium on the sphere, exp(sigma(mu)/d) up to a constant.

    `weight` holds exp(sigma/d - shift) at the rule nodes with
    shift = max sigma/d, so averages are overflow-safe and independent of the
    free additive constant in sigma.  `mass` is int exp(sigma/d - shift) dmu;
    the sphere normalization constant is exp(-shift) / (2 pi mass).
    `measure` is rule.weights * weight, the product every average takes.
    """

    kernel: CollisionKernel
    rule: QuadratureRule
    weight: np.ndarray
    shift: float
    mass: float
    measure: np.ndarray

    @property
    def normalization_constant(self) -> float:
        """C with C exp(sigma/d) a probability density on the sphere.

        May underflow for strongly peaked weights; averages never form it.
        """
        return float(np.exp(-self.shift) / (2.0 * np.pi * self.mass))

    def average(self, g) -> float:
        """Probability average of g(cos theta) against the equilibrium."""
        return float(self.measure @ _values_on(self.rule, g) / self.mass)


def weight_spread(kernel: CollisionKernel) -> float:
    """Spread max - min of the log weight sigma/d over [-1, 1], sampled at 257 points."""
    lw = kernel.log_weight(np.linspace(-1.0, 1.0, 257))
    return float(lw.max() - lw.min())


def quadrature_size(kernel: CollisionKernel, degree: int) -> int:
    """Node count resolving polynomials of `degree` against the kernel weight.

    The exponential weight behaves like a polynomial of degree comparable to
    the spread of sigma/d over [-1, 1]; a fixed margin covers the tail.  A
    spread beyond ~4000 (noise constants below ~1e-3 for order-one rates) is
    not resolvable in double precision and is rejected.
    """
    return _spread_size(kernel, weight_spread(kernel), degree)


def _spread_size(kernel: CollisionKernel, spread: float, degree: int) -> int:
    """quadrature_size(kernel, degree) from the kernel's weight_spread."""
    if not np.isfinite(spread) or spread > 4000.0:
        raise NumericError(
            f"equilibrium weight spread {spread:.3g} is too large to resolve; "
            f"noise constant d = {kernel.d} is below the supported range"
        )
    return degree + 48 + int(np.ceil(spread))


def build_equilibrium(kernel: CollisionKernel, n_quad: int | None = None) -> VonMisesEquilibrium:
    if n_quad is None:
        n_quad = quadrature_size(kernel, 0)
    rule = build_rule(n_quad)
    lw = kernel.log_weight(rule.nodes)
    shift = float(lw.max())
    weight = np.exp(lw - shift)
    mass = float(rule.weights @ weight)
    return VonMisesEquilibrium(kernel=kernel, rule=rule, weight=weight, shift=shift, mass=mass,
                               measure=rule.weights * weight)


# a weight whose integral is at most this fraction of its absolute mass is
# treated as integrating to zero
DEGENERATE_WEIGHT_RTOL = 1e-13


def average_weighted(rule: QuadratureRule, g, h_weight) -> float:
    """<g>_h = int g h dmu / int h dmu for a one-signed weight h.

    The sign of h cancels in the ratio.  Raises DegenerateWeightError when the
    weight integrates to (numerical) zero relative to its absolute mass
    (DEGENERATE_WEIGHT_RTOL).
    """
    gv = _values_on(rule, g)
    hv = _values_on(rule, h_weight)
    denom = float(rule.weights @ hv)
    scale = float(rule.weights @ np.abs(hv))
    if scale == 0.0 or abs(denom) <= DEGENERATE_WEIGHT_RTOL * scale:
        raise DegenerateWeightError(
            f"weight integrates to {denom:.3e} against absolute mass {scale:.3e}"
        )
    return float((rule.weights * hv) @ gv / denom)
