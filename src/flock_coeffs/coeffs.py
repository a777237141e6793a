"""Transport-coefficient pipeline for the alignment hydrodynamics model.

Order of computation: the invariant profile h, the leading-order constants
(c1, c2, c3), the five response profiles describing how the kinetic state
reacts to density/orientation gradients, the mass-diffusion pair (beta,
gamma), and finally the thirteen assembled coefficients zeta_1..zeta_13 of the
velocity correction.  Each zeta combines three routes:

  * a "time" table (brackets of the response profiles against h and h'),
  * a "transport" table (same profiles under the free-streaming moments),
  * a "nonlocal" table proportional to the interaction-range constant kappa.

`run_pipeline` alone sizes the quadrature rule and chains these stages, and
returns them all as a `Pipeline`; `compute_coefficients` keeps only its
coefficient set, on which every intermediate table is retained so every line
of the assembly is independently checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import GciSolution, MuProfile, elliptic_problem_data, solve_gci, solve_problem
from .errors import InvariantError
from .kernel import CollisionKernel
from .quad import (
    VonMisesEquilibrium,
    average_weighted,
    build_equilibrium,
    quadrature_size,
)

__all__ = [
    "ProfileSet",
    "HydroCoefficients",
    "Pipeline",
    "compute_c123",
    "c_relation_residuals",
    "solve_profiles",
    "profile_moment_residuals",
    "compute_r1_coeffs",
    "beta_quadratic_form",
    "compute_r2_coeffs",
    "run_pipeline",
    "check_ordering",
    "compute_coefficients",
]

@dataclass
class ProfileSet:
    """The five response profiles, all smooth reduced factors.

    a_perp and b_par multiply sqrt(1-mu^2) in the full kinetic correction and
    b1 multiplies (1-mu^2); a_par and b2 appear as-is.  Gauges: a_par has zero
    equilibrium average, and the b pair satisfies <b1 sin^2/2 + b2> = 0.
    """

    a_perp: MuProfile
    a_par: MuProfile
    b1: MuProfile
    b2: MuProfile
    b_par: MuProfile


def compute_c123(kernel: CollisionKernel, gci: GciSolution, eq: VonMisesEquilibrium):
    """Leading-order constants: drift c1, convection c2, pressure c3.

    c1 is the plain equilibrium average of cos(theta); c2 and c3 average over
    the signed weight sin^2(theta) nu h M, which is one-signed because h <= 0.
    """
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    h = gci.h.values_on(eq.rule)
    nu = np.asarray(kernel.nu(x), dtype=float)

    c1 = eq.average(x)
    hw = s2 * nu * h * eq.weight
    c2 = average_weighted(eq.rule, x, hw)
    c3 = kernel.d * average_weighted(eq.rule, 1.0 / nu, hw)
    return c1, c2, c3


def c_relation_residuals(kernel: CollisionKernel, gci: GciSolution, c,
                         eq: VonMisesEquilibrium) -> dict:
    """The three equivalent integral forms of the c-definitions, as residuals.

    Each is normalized by the absolute mass of its weight so the values are
    scale-free; all should sit at rounding level.
    """
    c1, c2, c3 = c
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    h = gci.h.values_on(eq.rule)
    nu = np.asarray(kernel.nu(x), dtype=float)
    d = kernel.d
    qw = eq.rule.weights * eq.weight

    def _ratio(num_vals, scale_vals):
        return float(abs(qw @ num_vals) / ((qw @ np.abs(scale_vals)) + 1e-300))

    return {
        "c1_relation": _ratio((x - c1), np.ones_like(x)),
        "c2_relation": _ratio((nu / d) * (x - c2) * s2 * h, (nu / d) * s2 * h),
        "c3_relation": _ratio((1.0 - nu * c3 / d) * s2 * h, s2 * h),
    }


def solve_profiles(kernel: CollisionKernel, c, n: int,
                   eq: VonMisesEquilibrium) -> ProfileSet:
    """Solve the five response problems on eq's rule and apply the gauges.

    The two conservative problems are solvable only when the c constants are
    self-consistent (zero-mean data); an inconsistent c surfaces as a
    PreconditionError carrying the offending integral.
    """
    rule = eq.rule
    x = rule.nodes
    probs = elliptic_problem_data(kernel, c)
    solved = {name: solve_problem(kernel, name, probs[name], n, rule)
              for name in ("a_perp", "a_par", "b1", "b_par")}
    b1 = solved["b1"]
    b2_row = elliptic_problem_data(kernel, c, b1=b1)["b2"]
    b2 = solve_problem(kernel, "b2", b2_row, n, rule)
    # gauges: <a_par> = 0 and <b1 (1-mu^2)/2 + b2> = 0
    a_par = solved["a_par"]
    a_par = a_par.shifted(-eq.average(a_par.values_on(rule)))
    b2 = b2.shifted(-eq.average(0.5 * b1.values_on(rule) * (1.0 - x * x)
                                + b2.values_on(rule)))
    return ProfileSet(a_perp=solved["a_perp"], a_par=a_par, b1=b1, b2=b2,
                      b_par=solved["b_par"])


def profile_moment_residuals(profiles: ProfileSet, eq: VonMisesEquilibrium) -> dict:
    """Zero-mean relations tying the profiles to the flux constraints.

    The a_par and b relations are gauge conditions (zero by construction);
    the a_perp and b_par relations hold only when c3 and c2 are consistent
    with the solved invariant profile, so they certify the whole chain.
    """
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    ap, al, b1, b2, bp = (p.values_on(eq.rule) for p in (
        profiles.a_perp, profiles.a_par, profiles.b1, profiles.b2, profiles.b_par))
    return {
        "a_perp_moment": abs(eq.average(ap * s2)),
        "a_par_moment": abs(eq.average(al)),
        "b_moment": abs(eq.average(0.5 * b1 * s2 + b2)),
        "b_par_moment": abs(eq.average(bp * s2)),
    }


def compute_r1_coeffs(kernel: CollisionKernel, profiles: ProfileSet,
                      eq: VonMisesEquilibrium):
    """Mass-equation correction coefficients (beta, gamma).

    Same brackets as the gauge relations but with an extra cos(theta) factor.
    beta must be strictly positive; a nonpositive value after convergence
    indicates a solver bug, not a parameter regime.
    """
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    beta = eq.average(profiles.a_par.values_on(eq.rule) * x)
    gamma = eq.average((0.5 * profiles.b1.values_on(eq.rule) * s2
                        + profiles.b2.values_on(eq.rule)) * x)
    if not beta > 0:
        raise InvariantError(f"mass-diffusion coefficient beta = {beta:.6e} <= 0")
    return beta, gamma


def beta_quadratic_form(kernel: CollisionKernel, profiles: ProfileSet,
                        eq: VonMisesEquilibrium) -> float:
    """Independent route to beta through the dissipation quadratic form.

    beta equals d times the equilibrium average of sin^2(theta) (a_par')^2;
    positivity is manifest here.
    """
    x = eq.rule.nodes
    ap = profiles.a_par.derivative().values_on(eq.rule)
    return kernel.d * eq.average((1.0 - x * x) * ap * ap)


@dataclass(frozen=True)
class HydroCoefficients:
    """Complete macroscopic constant set plus every intermediate table.

    zeta[j-1] multiplies the j-th of the thirteen tensor structures of the
    velocity correction; the theorem-facing quadratic/derivative coefficients
    are density-dependent combinations exposed by q_coeffs/d_coeffs.
    """

    c1: float
    c2: float
    c3: float
    beta: float
    gamma: float
    zeta: np.ndarray
    kappa: float
    d: float
    n: int
    prefactor: float
    lam: dict
    eta: dict
    xi: dict
    residuals: dict
    kernel_model: str = "custom"
    kernel_params: tuple = ()

    def q_coeffs(self, rho: float) -> np.ndarray:
        """Quadratic-term coefficients Q1..Q8 at density rho."""
        z = self.zeta
        return np.array([z[6] / rho, z[0], z[2], z[3], z[5],
                         rho * z[7], rho * z[8], rho * z[9]])

    def d_coeffs(self, rho: float) -> np.ndarray:
        """Derivative-term coefficients D1..D5 at density rho."""
        z = self.zeta
        return np.array([z[4], rho * z[10], rho * z[1], rho * z[11], rho * z[12]])

    def to_json_dict(self) -> dict:
        return {
            "kernel": {"model": self.kernel_model,
                       "params": list(self.kernel_params),
                       "nu_min": self.residuals.get("nu_min")},
            "d": self.d,
            "kappa": self.kappa,
            "n": self.n,
            "c": [self.c1, self.c2, self.c3],
            "beta": self.beta,
            "gamma": self.gamma,
            "zeta": list(self.zeta),
            "intermediates": {
                "lambda": self.lam,
                "eta": self.eta,
                "xi": self.xi,
                "prefactor": self.prefactor,
            },
            "residuals": {k: v for k, v in self.residuals.items() if k != "nu_min"},
        }


def _route_tables(kernel, gci, profiles, c, kappa, eq):
    """All bracket tables of the three assembly routes, in dict form."""
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    d = kernel.d
    c1, c2, c3 = c
    nu = np.asarray(kernel.nu(x), dtype=float)
    nup = np.asarray(kernel.nu_prime(x), dtype=float)
    h = gci.h.values_on(eq.rule)
    hp = gci.h_prime.values_on(eq.rule)
    ap, al, b1, b2, bp = (p.values_on(eq.rule) for p in (
        profiles.a_perp, profiles.a_par, profiles.b1, profiles.b2, profiles.b_par))
    avg = eq.average

    lam = {
        "l1_11": avg(0.5 * s2 * ap * h),
        "l1_12": avg(0.5 * s2 * bp * h),
        "l2_11": avg(x * al * h),
        "l2_12": avg((0.5 * s2 * b1 + b2) * x * h),
        "l_21": avg(0.5 * s2 * al * hp),
        "l_22": avg((0.25 * s2 * s2 * b1 + 0.5 * s2 * b2) * hp),
        "l_23": avg(0.125 * s2 * s2 * b1 * hp),
    }
    lp = np.zeros(8)  # 1-based: lp[1..7]
    lp[1] = lam["l1_11"]
    lp[2] = -lam["l1_11"] + lam["l2_11"] - lam["l_21"]
    lp[3] = lam["l1_12"]
    lp[4] = 0.5 * lam["l1_12"] - lam["l_23"]
    lp[5] = -0.5 * lam["l1_12"]
    lp[6] = 0.5 * lam["l1_12"] + lam["l2_12"] - lam["l_22"]
    lp[7] = lam["l1_12"]
    lpp = np.zeros(14)  # 1-based: lpp[1..13], slots 12 and 13 stay zero
    lpp[1] = -lp[1] * 1.5 * c1 - lp[6] * c3
    lpp[2] = -lp[1] * c1
    lpp[3] = -lp[1] * 0.5 * c1 - lp[4] * c3
    lpp[4] = -lp[1] * 0.5 * c1 - lp[5] * c3
    lpp[5] = -lp[1] * c1 - lp[7] * c3
    lpp[6] = -lp[1] * c1 - lp[2] * c2 - lp[3] * c1
    lpp[7] = -lp[2] * c3 + lp[7] * c3
    lpp[8] = -lp[3] * c1 - lp[6] * c2
    lpp[9] = -lp[4] * c2
    lpp[10] = -lp[5] * c2
    lpp[11] = -lp[7] * c2
    lam["prime"] = lp[1:].tolist()
    lam["double_prime"] = lpp[1:].tolist()

    eta = {
        "e1_11": avg(0.5 * s2 * al * h),
        "e1_12": avg((0.25 * s2 * s2 * b1 + 0.5 * s2 * b2) * h),
        "e1_13": avg(0.125 * s2 * s2 * b1 * h),
        "e2_11": avg(0.5 * s2 * x * ap * h),
        "e2_12": avg(0.5 * s2 * x * bp * h),
        "e4_11": avg(x * x * al * h),
        "e4_12": avg((0.5 * s2 * b1 + b2) * x * x * h),
        "e1_21": avg(0.125 * s2 * s2 * ap * hp),
        "e1_22": avg(0.125 * s2 * s2 * bp * hp),
        "e2_21": avg(0.5 * s2 * x * al * hp),
        "e2_22": avg(0.125 * s2 * s2 * x * b1 * hp),
        "e2_23": avg((0.25 * s2 * s2 * b1 + 0.5 * s2 * b2) * x * hp),
    }
    ep = np.zeros(14)  # 1-based; slots 7, 10, 13 stay zero
    ep[1] = 0.5 * eta["e1_11"] + eta["e1_12"] + 1.5 * eta["e2_11"] - 2.0 * eta["e1_21"]
    ep[2] = eta["e1_12"]
    ep[3] = 0.5 * eta["e1_11"] + eta["e1_13"] + 0.5 * eta["e2_11"] - eta["e1_21"]
    ep[4] = 0.5 * eta["e1_11"] - 0.5 * eta["e2_11"]
    ep[5] = eta["e1_11"] + eta["e2_11"]
    ep[6] = eta["e4_11"] - eta["e2_21"]
    ep[8] = -eta["e1_12"] + eta["e2_12"] + eta["e4_12"] - 2.0 * eta["e1_22"] - eta["e2_23"]
    ep[9] = -eta["e1_22"] - eta["e2_22"]
    ep[11] = 2.0 * eta["e2_12"]
    ep[12] = eta["e1_13"]
    eta["prime"] = ep[1:].tolist()

    xi = {
        "x1_1": -avg(0.5 * s2 * x * nu * hp),
        "x1_2": avg(0.5 * s2 * s2 * nup * hp),
        "x2_1": avg((1.0 - 0.5 * s2) * nu * h),
        "x2_2": -avg(0.5 * s2 * x * nup * h),
    }
    xi_total = kappa * (xi["x1_1"] + xi["x1_2"] + xi["x2_1"] + xi["x2_2"])
    xslots = np.zeros(14)  # 1-based; slots 5, 7, 9, 10 stay zero
    xslots[1] = xi_total
    xslots[2] = 0.5 * xi_total
    xslots[3] = xi_total
    xslots[4] = -xi_total
    xslots[6] = 2.0 * xi_total
    xslots[8] = 0.5 * xi_total
    xslots[11] = xi_total
    xslots[12] = 0.5 * xi_total
    xslots[13] = 0.5 * xi_total
    xi["xi"] = xi_total
    xi["slots"] = xslots[1:].tolist()

    prefactor = 2.0 * d / avg(s2 * nu * h)
    return lam, eta, xi, lpp, ep, xslots, prefactor


def compute_r2_coeffs(kernel: CollisionKernel, gci: GciSolution,
                      profiles: ProfileSet, c, kappa: float,
                      eq: VonMisesEquilibrium, n: int,
                      residuals: dict) -> HydroCoefficients:
    """Assemble the thirteen velocity-correction coefficients.

    zeta_j = prefactor * (time_j + transport_j + nonlocal_j) with the missing
    route entries identically zero.  All tables are kept on the result, and
    `residuals` is kept as given.
    """
    lam, eta, xi, lpp, ep, xslots, prefactor = _route_tables(
        kernel, gci, profiles, c, kappa, eq)

    zeta = prefactor * (lpp[1:] + ep[1:] + xslots[1:])

    beta, gamma = compute_r1_coeffs(kernel, profiles, eq)
    return HydroCoefficients(
        c1=c[0], c2=c[1], c3=c[2], beta=beta, gamma=gamma, zeta=zeta,
        kappa=float(kappa), d=kernel.d, n=int(n),
        prefactor=prefactor, lam=lam, eta=eta, xi=xi, residuals=residuals,
        kernel_model=kernel.model, kernel_params=kernel.params,
    )


@dataclass(frozen=True)
class Pipeline:
    """Every stage of one run, from the equilibrium to the coefficient set."""

    eq: VonMisesEquilibrium
    gci: GciSolution
    c: tuple
    profiles: ProfileSet
    hydro: HydroCoefficients


def run_pipeline(kernel: CollisionKernel, n: int, kappa: float) -> Pipeline:
    """Invariant profile, constants, profiles and coefficient set at degree n.

    One shared quadrature rule (sized for the kernel's weight) is used for
    the solves and every bracket, so the consistency residuals recorded on
    the coefficient set sit at rounding level.  The ordering of the constants
    is not checked here (see check_ordering).
    """
    eq = build_equilibrium(kernel, quadrature_size(kernel, n + 10))
    gci = solve_gci(kernel, n, rule=eq.rule)
    c = compute_c123(kernel, gci, eq)
    profiles = solve_profiles(kernel, c, n, eq)

    residuals = {**c_relation_residuals(kernel, gci, c, eq),
                 **profile_moment_residuals(profiles, eq),
                 "gci_solve": gci.h.meta["residual"]}
    for name in ("a_perp", "a_par", "b1", "b2", "b_par"):
        residuals[f"{name}_solve"] = getattr(profiles, name).meta["residual"]
    residuals["h_max"] = float(gci.h.values.max())
    hydro = compute_r2_coeffs(kernel, gci, profiles, c, kappa, eq, n, residuals)
    # the Dirichlet route is compared with the assembled beta, so this entry
    # goes into hydro's residuals dict after assembly
    residuals["beta_dirichlet_diff"] = abs(
        beta_quadratic_form(kernel, profiles, eq) - hydro.beta)
    residuals["nu_min"] = kernel.nu_min
    return Pipeline(eq=eq, gci=gci, c=c, profiles=profiles, hydro=hydro)


def check_ordering(hydro: HydroCoefficients) -> None:
    """Raise InvariantError unless 0 < c2 < c1 < 1 and c3 > 0."""
    c1, c2, c3 = hydro.c1, hydro.c2, hydro.c3
    if not (0.0 < c2 < c1 < 1.0):
        raise InvariantError(f"expected 0 < c2 < c1 < 1, got c1={c1:.6f}, c2={c2:.6f}")
    if not c3 > 0:
        raise InvariantError(f"expected c3 > 0, got {c3:.6e}")


def compute_coefficients(kernel: CollisionKernel, n: int = 64, kappa: float = 0.0,
                         strict: bool = True) -> HydroCoefficients:
    """The coefficient set of run_pipeline, without the solved stages.

    `strict` checks the ordering 0 < c2 < c1 < 1 and c3 > 0.  beta > 0 is
    checked whether or not `strict` is set (compute_r1_coeffs).
    """
    hydro = run_pipeline(kernel, n, kappa).hydro
    if strict:
        check_ordering(hydro)
    return hydro
