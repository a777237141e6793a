from dataclasses import replace

import numpy as np
import pytest

import flock_coeffs.coeffs as coeffs_mod
from flock_coeffs.coeffs import run_pipeline
from flock_coeffs.kernel import CollisionKernel, constant_kernel, even_poly_kernel


def _zeros(mu):
    return np.zeros_like(np.asarray(mu, dtype=float))


@pytest.fixture(scope="session")
def const_kernel():
    return constant_kernel(1.0, d=1.0)


@pytest.fixture(scope="session")
def even_kernel():
    return even_poly_kernel([1.0, 0.5], d=1.0)


@pytest.fixture(scope="session")
def legendre_kernel():
    """Weightless kernel (sigma = 0) for operator-level solver tests."""
    return CollisionKernel(nu=_zeros, nu_prime=_zeros, sigma=_zeros,
                           d=1.0, nu_min=0.0, nu_degree=0, model="legendre-test")


@pytest.fixture(scope="session")
def with_sigma_shift():
    """`with_sigma_shift(kernel, delta)`: the same kernel with sigma + delta.

    The shift changes no downstream coefficient (it scales the equilibrium
    weight uniformly), which the invariance tests check.
    """
    def shift(kernel, delta):
        base = kernel.sigma
        return replace(kernel, sigma=lambda mu: np.asarray(base(mu)) + delta)

    return shift


def _pipeline(kernel, n=64, kappa=0.1):
    p = run_pipeline(kernel, n, kappa)
    return dict(kernel=kernel, n=n, eq=p.eq, c=p.c, profiles=p.profiles, hydro=p.hydro)


@pytest.fixture(scope="session")
def pipeline_const(const_kernel):
    return _pipeline(const_kernel)


@pytest.fixture(scope="session")
def pipeline_even(even_kernel):
    return _pipeline(even_kernel)


@pytest.fixture
def flip_time_route_slot(monkeypatch):
    """Flip the sign of one time-route slot (1-based) inside the zeta assembly.

    The recorded route tables keep their true values, so the assembled zeta
    no longer matches them; the verification suite must notice.
    """
    def flip(slot):
        route_tables = coeffs_mod._route_tables

        def corrupted(*args):
            lam, eta, xi, lpp, ep, xslots, prefactor = route_tables(*args)
            lpp = lpp.copy()
            lpp[slot] *= -1.0
            return lam, eta, xi, lpp, ep, xslots, prefactor

        monkeypatch.setattr(coeffs_mod, "_route_tables", corrupted)

    return flip
