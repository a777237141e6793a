"""Transport-coefficient pipeline for the alignment hydrodynamics model.

Order of computation: the invariant profile h, the leading-order constants
(c1, c2, c3), the five response profiles describing how the kinetic state
reacts to density/orientation gradients, the mass-diffusion pair (beta,
gamma), and finally the thirteen assembled coefficients zeta_1..zeta_13 of the
velocity correction.  Each zeta combines three routes:

  * a "time" table (brackets of the response profiles against h and h'),
  * a "transport" table (same profiles under the free-streaming moments),
  * a "nonlocal" table proportional to the interaction-range constant kappa.

`run_pipeline` chains these stages at one degree n and returns them all as a
`Pipeline`, the six solved profiles as one dict keyed like
`elliptic_problem_data` ("gci" is h).  `compute_coefficients` treats n as a
cap: it runs the same stages at trial degrees from FIRST_TRIAL_DEGREE up and
keeps the coefficient set of the first trial whose profiles' Legendre tails
plateau (`_plateau`).  Every intermediate table is retained on the
coefficient set, so every line of the assembly is independently checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elliptic import (
    MuProfile,
    elliptic_problem_data,
    operator_rule,
    solve_gci,
    solve_problem,
)
from .errors import DomainError, FlockError, InvariantError, NumericError
from .kernel import CollisionKernel
from .quad import (
    VonMisesEquilibrium,
    average_weighted,
    _spread_size,
    _whole,
    build_equilibrium,
    weight_spread,
)

__all__ = [
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

def compute_c123(kernel: CollisionKernel, h: MuProfile, eq: VonMisesEquilibrium):
    """Leading-order constants: drift c1, convection c2, pressure c3.

    c1 is the plain equilibrium average of cos(theta); c2 and c3 average over
    the signed weight sin^2(theta) nu h M, which is one-signed because h <= 0.
    """
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    nu = np.asarray(kernel.nu(x), dtype=float)

    c1 = eq.average(x)
    hw = s2 * nu * h.values * eq.weight
    c2 = average_weighted(eq.rule, x, hw)
    c3 = kernel.d * average_weighted(eq.rule, 1.0 / nu, hw)
    return c1, c2, c3


def c_relation_residuals(kernel: CollisionKernel, h: MuProfile, c,
                         eq: VonMisesEquilibrium) -> dict:
    """The three equivalent integral forms of the c-definitions, as residuals.

    Each is normalized by the absolute mass of its weight so the values are
    scale-free; all should sit at rounding level.
    """
    c1, c2, c3 = c
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    hv = h.values
    nu = np.asarray(kernel.nu(x), dtype=float)
    d = kernel.d
    qw = eq.measure

    def _ratio(num_vals, scale_vals):
        return float(abs(qw @ num_vals) / ((qw @ np.abs(scale_vals)) + 1e-300))

    return {
        "c1_relation": _ratio((x - c1), np.ones_like(x)),
        "c2_relation": _ratio((nu / d) * (x - c2) * s2 * hv, (nu / d) * s2 * hv),
        "c3_relation": _ratio((1.0 - nu * c3 / d) * s2 * hv, s2 * hv),
    }


def solve_profiles(kernel: CollisionKernel, c, n: int, eq: VonMisesEquilibrium,
                   rule=None) -> dict:
    """Solve the five response problems on the operator rule `rule` (by
    default elliptic.operator_rule(kernel, n)) and apply the gauges.

    Returns name -> reduced profile on eq's rule for the rows of
    elliptic_problem_data after gci, in order: a_perp and b_par multiply
    sqrt(1-mu^2) in the full kinetic correction, b1 multiplies (1-mu^2),
    a_par and b2 appear as-is.  Gauges: <a_par> = 0 and <b1 sin^2/2 + b2> = 0.

    The two conservative problems are solvable only when the c constants are
    self-consistent (zero-mean data); an inconsistent c surfaces as a
    PreconditionError carrying the offending integral.
    """
    if rule is None:
        rule = operator_rule(kernel, n)
    x = eq.rule.nodes
    rows = elliptic_problem_data(kernel, c)
    solved = {name: solve_problem(kernel, name, row, n, rule, eq)
              for name, row in rows.items() if name != "gci"}
    on_eq = {name: p.on(eq.rule) for name, p in solved.items()}
    b1 = on_eq["b1"]
    rows = elliptic_problem_data(kernel, c, b1=(solved["b1"], b1))
    b2 = solve_problem(kernel, "b2", rows["b2"], n, rule, eq)
    b2 = b2.on(eq.rule)
    a_par = on_eq["a_par"]
    on_eq["a_par"] = a_par.shifted(-eq.average(a_par.values))
    on_eq["b2"] = b2.shifted(-eq.average(0.5 * b1.values * (1.0 - x * x) + b2.values))
    return {name: on_eq[name] for name in rows if name != "gci"}


def profile_moment_residuals(profiles: dict, eq: VonMisesEquilibrium) -> dict:
    """Zero-mean relations tying the profiles to the flux constraints.

    The a_par and b relations are gauge conditions (zero by construction);
    the a_perp and b_par relations hold only when c3 and c2 are consistent
    with the solved invariant profile, so they certify the whole chain.
    """
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    b1 = profiles["b1"].values
    return {
        "a_perp_moment": abs(eq.average(profiles["a_perp"].values * s2)),
        "a_par_moment": abs(eq.average(profiles["a_par"].values)),
        "b_moment": abs(eq.average(0.5 * b1 * s2 + profiles["b2"].values)),
        "b_par_moment": abs(eq.average(profiles["b_par"].values * s2)),
    }


def compute_r1_coeffs(profiles: dict, eq: VonMisesEquilibrium):
    """Mass-equation correction coefficients (beta, gamma).

    Same brackets as the gauge relations but with an extra cos(theta) factor.
    beta must be strictly positive; a nonpositive value after convergence
    indicates a solver bug, not a parameter regime.
    """
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    beta = eq.average(profiles["a_par"].values * x)
    gamma = eq.average((0.5 * profiles["b1"].values * s2
                        + profiles["b2"].values) * x)
    if not beta > 0:
        raise InvariantError(f"mass-diffusion coefficient beta = {beta:.6e} <= 0")
    return beta, gamma


def beta_quadratic_form(kernel: CollisionKernel, profiles: dict,
                        eq: VonMisesEquilibrium) -> float:
    """Independent route to beta through the dissipation quadratic form.

    beta equals d times the equilibrium average of sin^2(theta) (a_par')^2;
    positivity is manifest here.
    """
    x = eq.rule.nodes
    ap = profiles["a_par"].derivative().values
    return kernel.d * eq.average((1.0 - x * x) * ap * ap)


@dataclass(frozen=True)
class HydroCoefficients:
    """Complete macroscopic constant set plus every intermediate table.

    zeta[j-1] multiplies the j-th of the thirteen tensor structures of the
    velocity correction; the theorem-facing quadratic/derivative coefficients
    are density-dependent combinations exposed by q_coeffs/d_coeffs.  `n` is
    the degree asked for and `degree` the one the profiles were solved at:
    they differ when compute_coefficients stopped below its cap.
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
    degree: int
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
            "degree": self.degree,
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


def _route_tables(kernel, profiles, c, kappa, eq):
    """All bracket tables of the three assembly routes, in dict form."""
    x = eq.rule.nodes
    s2 = 1.0 - x * x
    d = kernel.d
    c1, c2, c3 = c
    nu = np.asarray(kernel.nu(x), dtype=float)
    nup = np.asarray(kernel.nu_prime(x), dtype=float)
    h = profiles["gci"].values
    hp = profiles["gci"].derivative().values
    ap = profiles["a_perp"].values
    al = profiles["a_par"].values
    b1 = profiles["b1"].values
    b2 = profiles["b2"].values
    bp = profiles["b_par"].values
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


def compute_r2_coeffs(kernel: CollisionKernel, profiles: dict, c, kappa: float,
                      eq: VonMisesEquilibrium, n: int,
                      residuals: dict) -> HydroCoefficients:
    """Assemble the thirteen velocity-correction coefficients.

    zeta_j = prefactor * (time_j + transport_j + nonlocal_j) with the missing
    route entries identically zero.  All tables are kept on the result, and
    `residuals` is kept as given; the profiles' degree n is recorded as both
    `n` and `degree`.
    """
    lam, eta, xi, lpp, ep, xslots, prefactor = _route_tables(
        kernel, profiles, c, kappa, eq)

    zeta = prefactor * (lpp[1:] + ep[1:] + xslots[1:])

    beta, gamma = compute_r1_coeffs(profiles, eq)
    return HydroCoefficients(
        c1=c[0], c2=c[1], c3=c[2], beta=beta, gamma=gamma, zeta=zeta,
        kappa=float(kappa), d=kernel.d, n=int(n), degree=int(n),
        prefactor=prefactor, lam=lam, eta=eta, xi=xi, residuals=residuals,
        kernel_model=kernel.model, kernel_params=kernel.params,
    )


@dataclass(frozen=True)
class Pipeline:
    """Every stage of one run, from the equilibrium to the coefficient set.

    `profiles` maps each row name of elliptic_problem_data, in the table's
    order, to its solved reduced profile; profiles["gci"] is h.
    """

    eq: VonMisesEquilibrium
    c: tuple
    profiles: dict
    hydro: HydroCoefficients


# The large-d end of the range.  With the log weight sigma/d spreading by s
# over [-1, 1], each nodal weight exp(sigma/d - shift) lies in [e^-s, 1] and
# is rounded by up to eps/2 (eps the machine epsilon), while its variation,
# all that c1 = <mu> depends on, is of size s.  The rounding moves c1's
# numerator by up to (eps/2) int |mu| dmu = eps/2 against a mass near 2, so
# c1 by eps/4; for a constant rate c1 -> s/6, a relative error of up to
# 1.5 eps/s.  The accuracy target below thus asks for s >= 3.3e-8
# (d <= 6e7 for a unit constant rate).
C1_RTOL = 1e-8
MIN_WEIGHT_SPREAD = 1.5 * np.finfo(float).eps / C1_RTOL


def _equilibrium(kernel: CollisionKernel, n: int, kappa: float) -> VonMisesEquilibrium:
    """The equilibrium on the rule sized for degree n, after the range checks.

    kappa must be finite; a weight spread below MIN_WEIGHT_SPREAD (noise too
    large for c1 to hold C1_RTOL) raises NumericError naming d.
    """
    if not np.isfinite(kappa):
        raise DomainError(f"nonlocality constant kappa must be finite, got {kappa}")
    spread = weight_spread(kernel)
    if spread < MIN_WEIGHT_SPREAD:
        raise NumericError(
            f"equilibrium weight spread {spread:.3g} is below {MIN_WEIGHT_SPREAD:.3g}, "
            f"where c1 keeps a relative accuracy of {C1_RTOL:g}; noise constant "
            f"d = {kernel.d:g} is above the supported range")
    return build_equilibrium(kernel, _spread_size(kernel, spread, n + 10))


def _profiles(kernel: CollisionKernel, h: MuProfile, n: int, eq: VonMisesEquilibrium):
    """(c, the six profiles on eq's rule) from h solved on its operator rule."""
    h_eq = h.on(eq.rule)
    c = compute_c123(kernel, h_eq, eq)
    return c, {"gci": h_eq, **solve_profiles(kernel, c, n, eq, h.rule)}


def _stages(kernel: CollisionKernel, h: MuProfile, n: int, kappa: float,
            eq: VonMisesEquilibrium) -> Pipeline:
    """Every stage after h, solved at degree n on h's rule; brackets on eq's."""
    c, profiles = _profiles(kernel, h, n, eq)
    h = profiles["gci"]

    residuals = {**c_relation_residuals(kernel, h, c, eq),
                 **profile_moment_residuals(profiles, eq)}
    for name, profile in profiles.items():
        residuals[f"{name}_solve"] = profile.meta["residual"]
    residuals["h_max"] = float(h.values.max())
    residuals["tail"] = max(float(_envelope(p.coef)[-1]) for p in profiles.values())
    hydro = compute_r2_coeffs(kernel, profiles, c, kappa, eq, n, residuals)
    # the Dirichlet route is compared with the assembled beta, so this entry
    # goes into hydro's residuals dict after assembly
    residuals["beta_dirichlet_diff"] = abs(
        beta_quadratic_form(kernel, profiles, eq) - hydro.beta)
    residuals["nu_min"] = kernel.nu_min
    return Pipeline(eq=eq, c=c, profiles=profiles, hydro=hydro)


def run_pipeline(kernel: CollisionKernel, n: int, kappa: float) -> Pipeline:
    """Invariant profile, constants, profiles and coefficient set at degree n.

    The profiles are solved on the weight-free operator rule of degree n
    (elliptic.operator_rule); one rule sized for the kernel's weight takes
    every bracket, so the consistency residuals recorded on the coefficient
    set sit at rounding level.  `residuals["tail"]` is the largest |last
    Legendre coefficient| / max |coefficient| of the six profiles.  The
    ordering of the constants is not checked here (see check_ordering); the
    range checks are those of _equilibrium.
    """
    n = _whole(n, "degree n")
    eq = _equilibrium(kernel, n, kappa)
    return _stages(kernel, solve_gci(kernel, n), n, kappa, eq)


def check_ordering(hydro: HydroCoefficients) -> None:
    """Raise InvariantError unless 0 < c2 < c1 < 1 and c3 > 0."""
    c1, c2, c3 = hydro.c1, hydro.c2, hydro.c3
    if not (0.0 < c2 < c1 < 1.0):
        raise InvariantError(f"expected 0 < c2 < c1 < 1, got c1={c1:.6f}, c2={c2:.6f}")
    if not c3 > 0:
        raise InvariantError(f"expected c3 > 0, got {c3:.6e}")


# compute_coefficients' first trial degree; a cap at or below it is solved
# at exactly the cap
FIRST_TRIAL_DEGREE = 64
EPS = np.finfo(float).eps


def _envelope(coef) -> np.ndarray:
    """max |coef[j:]| for each j, divided by its first entry (unless all are 0)."""
    env = np.maximum.accumulate(np.abs(np.asarray(coef, dtype=float))[::-1])[::-1]
    return env / env[0] if env[0] > 0 else env


def _plateau(coef) -> bool:
    """Whether the Legendre series `coef` has reached a plateau at level eps.

    Step 2 of standardChop (Aurentz & Trefethen, "Chopping a Chebyshev
    series", ACM TOMS 43, 2017), whose cutoff is below the series length
    exactly when such a plateau exists.  On the normalized envelope e
    (1-based), a plateau starts at j when e(j) = 0 or e(j2) / e(j) > r for
    j2 = round(1.25 j + 5) within the series, with r = 3 (1 - log e(j) /
    log eps): a stretch starting at eps need not be flat at all, one at
    eps^(2/3) must be perfectly flat.  A series shorter than 17 never
    plateaus; an all-zero one does.
    """
    env = _envelope(coef)
    n = len(env)
    if n < 17:
        return False
    if env[0] == 0:
        return True
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)  # round half up, as standardChop
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = env[j - 1], env[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 3.0 * (1.0 - np.log(e1) / np.log(EPS))
        return bool(np.any((e1 == 0) | (e2 / e1 > r)))


def _next_degree(degree: int, cap: int, profiles) -> int:
    """The trial degree after `degree`, from the profiles that did not plateau.

    Fits a geometric decay to each envelope between degree/2 and 7 degree/8
    (the last coefficients of a truncated solve are not yet converged) and
    extrapolates it to eps.  The decay of these profiles steepens with the
    index, so that extrapolation comes out long for the profile it is fitted
    to; the factor 1.35 and the 5 cover the plateau stretch of 1.25 j + 5
    coefficients that _plateau needs past it, and the few percent more that
    a_par and b2 need than h (which gates the trials alone).  Measured on
    the registry kernels at d = 0.05, 0.02, 0.01, 0.005, 0.003 and 0.002
    with a cap of 256, the estimate from a degree-64 trial's h was never
    below the lowest degree at which all six profiles plateau (closest:
    85 against 82, const:1 at d = 0.02).  An estimate that does not exceed
    `degree`, or is not below `cap`, gives the cap.
    """
    a, b = degree // 2, (7 * degree) // 8
    worst = -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in profiles:
            lenv = np.log(_envelope(p.coef))
            rate = (lenv[a] - lenv[b]) / (b - a)
            worst = max(worst, b + (lenv[b] - np.log(EPS)) / rate)
    estimate = 1.35 * worst + 5.0
    return int(np.ceil(estimate)) if degree < estimate < cap else cap


def compute_coefficients(kernel: CollisionKernel, n: int = 64,
                         kappa: float = 0.0) -> HydroCoefficients:
    """The coefficient set of the first trial degree, at most n, at which all
    six profiles plateau (_plateau).

    Trials start at FIRST_TRIAL_DEGREE.  Each solves h on its own operator
    rule and stops there unless h plateaus; otherwise it builds its
    equilibrium and runs the other stages, so a set kept below n is
    run_pipeline(kernel, degree, kappa).hydro to the bit, apart from `n`.
    Each next degree comes from the envelopes of the profiles that did not
    plateau (_next_degree).  A trial below n that raises a FlockError counts
    as unresolved.  The last resort is run_pipeline at degree n, which
    raises as it does.  The result's `n` is the n asked for, its `degree`
    the one used.

    The ordering 0 < c2 < c1 < 1 and c3 > 0 is checked (check_ordering), as
    is beta > 0 (compute_r1_coeffs).
    """
    n = _whole(n, "degree n")
    degree = min(n, FIRST_TRIAL_DEGREE)
    while degree < n:
        try:
            h = solve_gci(kernel, degree)
            rough = [h]
            if _plateau(h.coef):
                pipe = _stages(kernel, h, degree, kappa, _equilibrium(kernel, degree, kappa))
                check_ordering(pipe.hydro)
                rough = [p for p in pipe.profiles.values() if not _plateau(p.coef)]
                if not rough:
                    return replace(pipe.hydro, n=n)
        except FlockError:
            break  # the run at n decides
        degree = _next_degree(degree, n, rough)
    hydro = run_pipeline(kernel, n, kappa).hydro
    check_ordering(hydro)
    return hydro
