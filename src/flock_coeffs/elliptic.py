"""Spectral solvers for the two degenerate elliptic problems on [-1, 1].

Both problems arise from reducing the linearized alignment operator on the
sphere to azimuthal Fourier modes in mu = cos(theta):

  type 1:  -(1-mu^2) d/dmu( w (1-mu^2) dg/dmu ) + alpha g = f,  alpha >= alpha_0 > 0
  type 2:  -d/dmu( w (1-mu^2) dg/dmu ) = f,                     with zero-mean f

where w = exp(sigma/d).  The operators degenerate at mu = +-1, so no boundary
conditions are imposed; well-posedness comes from the weighted weak form.  The
type-1 solution space forces g to vanish like (1-mu^2)^(k/2) at the endpoints
(k is the azimuthal mode), so the solver works in the smooth reduced factor
u = g / (1-mu^2)^(k/2), represented in a Legendre basis.  Type-2 solutions are
smooth and are solved directly, with the zero-mean gauge imposed through a
bordered Lagrange row.

Both problems are solved in one formulation: the strong equation divided
through by the weight w (for type 1 also by (1-mu^2)^(k/2+1)), tested against
unweighted Legendre polynomials.  The divided equation has smooth
coefficients and bounded data alpha/w and f/w, which the solvers take as
given (the six problems of the pipeline are stated once, in that form, by
`elliptic_problem_data`), so no unshifted exp(sigma/d) is formed and the
system stays well conditioned however sharply the equilibrium weight peaks.
The symmetric weighted Galerkin form lives in `oracle` as an independent
discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import InvariantError, PreconditionError, SolverError
from .kernel import CollisionKernel
from .quad import QuadratureRule, build_rule, quadrature_size

__all__ = [
    "MuProfile",
    "FactoredProfile",
    "GciSolution",
    "solve_type1",
    "solve_type2",
    "solve_gci",
    "solve_problem",
    "elliptic_problem_data",
]


@dataclass
class MuProfile:
    """Polynomial function on [-1, 1]: Legendre coefficients plus nodal values.

    The nodal values are the polynomial evaluated at the rule nodes, so the
    modal and nodal views agree to rounding.  `meta` carries solver
    diagnostics (residuals, condition estimates) for report sidecars.
    """

    rule: QuadratureRule
    coef: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_coef(cls, rule, coef, meta=None):
        coef = np.asarray(coef, dtype=float)
        return cls(rule, coef, _basis(rule, len(coef) - 1)[0] @ coef, meta or {})

    def __call__(self, mu):
        return npleg.legval(np.asarray(mu, dtype=float), self.coef)

    def values_on(self, rule: QuadratureRule) -> np.ndarray:
        """Values at the nodes of `rule`; the stored nodal values on its own rule."""
        return self.values if rule is self.rule else self(rule.nodes)

    @property
    def degree(self) -> int:
        return len(self.coef) - 1

    def derivative(self) -> "MuProfile":
        Vd = _basis(self.rule, self.degree)[1]
        return MuProfile(self.rule, npleg.legder(self.coef), Vd @ self.coef)

    def antiderivative(self, anchor: float = 0.0) -> "MuProfile":
        return MuProfile.from_coef(self.rule, npleg.legint(self.coef, lbnd=anchor))

    def shifted(self, constant: float) -> "MuProfile":
        """Profile plus a constant (Legendre P0 term)."""
        coef = self.coef.copy()
        coef[0] += constant
        return MuProfile.from_coef(self.rule, coef, dict(self.meta))


@dataclass
class FactoredProfile:
    """(1-mu^2)^(sing_order/2) times a polynomial.

    Exact representation for solutions that vanish algebraically at the
    endpoints; never forms the singular quotient numerically.
    """

    base: MuProfile
    sing_order: int

    def __call__(self, mu):
        mu = np.asarray(mu, dtype=float)
        return (1.0 - mu * mu) ** (self.sing_order / 2.0) * self.base(mu)

    @property
    def nodes(self):
        return self.base.rule.nodes

    @property
    def values(self):
        s2 = 1.0 - self.nodes**2
        return s2 ** (self.sing_order / 2.0) * self.base.values

    @property
    def meta(self):
        return self.base.meta


@dataclass
class GciSolution:
    """Orientational-invariant profile: g = sqrt(1-mu^2) h with h <= 0.

    h is the smooth factor (a true polynomial profile); h_prime its spectral
    derivative; g the factored full solution.
    """

    g: FactoredProfile
    h: MuProfile
    h_prime: MuProfile


def _basis(rule: QuadratureRule, degree: int):
    """Legendre values, first and second derivatives at the rule nodes.

    Three read-only arrays of shape (n_nodes, degree+1), built once per rule
    and degree and kept on the rule.  The derivative columns come from the
    recurrences P'_{j+1} = P'_{j-1} + (2j+1) P_j and
    P''_{j+1} = P''_{j-1} + (2j+1) P'_j, so the build is O(n_nodes * degree).
    """
    basis = rule.bases.get(degree)
    if basis is not None:
        return basis
    V = npleg.legvander(rule.nodes, degree)
    Vd = np.zeros_like(V)
    Vdd = np.zeros_like(V)
    if degree >= 1:
        Vd[:, 1] = 1.0
    for j in range(1, degree):
        Vd[:, j + 1] = Vd[:, j - 1] + (2 * j + 1) * V[:, j]
        Vdd[:, j + 1] = Vdd[:, j - 1] + (2 * j + 1) * Vd[:, j]
    for a in (V, Vd, Vdd):
        a.flags.writeable = False
    # a concurrent build of the same basis loses to the one stored first
    return rule.bases.setdefault(degree, (V, Vd, Vdd))


def _sampled(fn, x):
    """Values of a data callable at the nodes, broadcast to the node count."""
    vals = np.asarray(fn(x), dtype=float)
    return np.full(len(x), float(vals)) if vals.ndim == 0 else vals


def _solve_checked(A, F, what):
    try:
        u = np.linalg.solve(A, F)
    except np.linalg.LinAlgError:
        raise SolverError(f"{what}: singular discrete system", np.linalg.cond(A)) from None
    if not np.all(np.isfinite(u)):
        raise SolverError(f"{what}: non-finite solution", np.linalg.cond(A))
    denom = np.linalg.norm(F) + 1e-300
    linres = float(np.linalg.norm(A @ u - F) / denom)
    if linres > 1e-8:
        raise SolverError(f"{what}: ill-conditioned system, linear residual {linres:.3e}",
                          np.linalg.cond(A))
    return u, linres


def _strong_residual(defect, data, what, d):
    """Sup norm of the pointwise defect at the nodes, relative to the data.

    A non-finite value means the data overflowed or underflowed at the nodes,
    which no degree can repair, so it is raised rather than recorded.
    """
    scale = float(np.max(np.abs(data))) or 1.0
    residual = float(np.max(np.abs(defect)) / scale)
    if not np.isfinite(residual):
        raise SolverError(f"{what}: non-finite strong residual at d = {d:g}")
    return residual


def solve_type1(kernel: CollisionKernel, alpha, f, n: int, *, sing_order: int = 1,
                rule: QuadratureRule | None = None, name: str = "type-1") -> MuProfile:
    """Solve the coercive degenerate problem; returns the reduced factor u.

    The full solution is g(mu) = (1-mu^2)^(sing_order/2) * u(mu); u is the
    profile actually used in every downstream average.  `alpha` and `f` are
    the weight-free ratios alpha/w and f/w (see elliptic_problem_data):
    alpha/w must be bounded below by a positive constant (checked by
    sampling), and f/w must vanish at the endpoints at least like the
    (1-mu^2)^(k/2) carried by the solution space.  By the maximum principle,
    one-signed f gives a one-signed solution.  `name` labels the problem in
    error messages.

    The equation is divided through by w (1-mu^2)^(k/2+1), which leaves an
    ODE with smooth coefficients and exactly those ratios as data; no weight
    is formed.  It is tested against unweighted Legendre polynomials
    (Petrov-Galerkin), and the pointwise residual of the divided equation
    at the nodes is recorded in `meta["residual"]`.  The symmetric weighted
    Galerkin form is kept in `oracle` as an independent check.
    """
    k = int(sing_order)
    if k < 1:
        raise PreconditionError(
            "sing_order must be >= 1: the admissible space forces the solution "
            "to vanish at the endpoints"
        )
    if n < 1:
        raise PreconditionError(f"degree must be >= 1, got {n}")
    if rule is None:
        rule = build_rule(quadrature_size(kernel, n + k + 2))
    if rule.n < n + 2:
        raise PreconditionError(
            f"quadrature rule with {rule.n} nodes cannot assemble degree {n}"
        )
    x, qw = rule.nodes, rule.weights
    s2 = 1.0 - x * x
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d

    alpha_ratio = _sampled(alpha, x)
    a0 = float(alpha_ratio.min())
    if not a0 > 0:
        raise PreconditionError(
            f"{name} solve: alpha must be positive on [-1, 1]; min sampled {a0:.3e}")
    rhs = _sampled(f, x) / s2 ** (k / 2.0)

    # nodal image of each basis function under the divided operator
    V, Vd, Vdd = _basis(rule, n)
    c2_ = -s2 * s2
    c1_ = -s2 * (nu_over_d * s2 - 2.0 * (k + 1) * x)
    c0_ = k * (nu_over_d * x * s2 + 1.0 - (k + 1) * x * x) + alpha_ratio
    ops = Vdd * c2_[:, None] + Vd * c1_[:, None] + V * c0_[:, None]
    A = V.T @ (ops * qw[:, None])
    F = V.T @ (qw * rhs)
    what = f"{name} solve"
    u, linres = _solve_checked(A, F, what)
    # one more factor 1/(1-mu^2) so the metric is not flattered by the
    # endpoint degeneracy
    residual = _strong_residual((ops @ u - rhs) / s2, rhs / s2, what, kernel.d)

    meta = {
        "problem": "type1",
        "sing_order": k,
        "degree": n,
        "residual": residual,
        "linear_residual": linres,
        "weight_shift": float(kernel.log_weight(x).max()),
        "formulation": "divided",
    }
    return MuProfile.from_coef(rule, u, meta)


def _bordered_solve(A, F, column, what):
    """Square bordered system imposing the zero-mean gauge int g dmu = 0.

    `column` must have a component outside range(A) (the constraint
    multiplier absorbs any truncation-level inconsistency of the data).
    """
    n1 = len(F)
    m = np.zeros(n1)
    m[0] = 2.0  # int P_j dmu
    K = np.zeros((n1 + 1, n1 + 1))
    K[:-1, :-1] = A
    K[:-1, -1] = column
    K[-1, :-1] = m
    rhs = np.concatenate([F, [0.0]])
    sol, linres = _solve_checked(K, rhs, what)
    return sol[:-1], float(sol[-1]), linres


def solve_type2(kernel: CollisionKernel, f, n: int, *,
                rule: QuadratureRule | None = None, name: str = "type-2") -> MuProfile:
    """Solve the conservative degenerate problem in the zero-mean gauge.

    `f` is the weight-free ratio f/w (see elliptic_problem_data).
    Solvability requires int f dmu = 0, checked to 1e-10 as int (f/w) w dmu
    with the weight rescaled to O(1); the returned representative has
    int g dmu = 0, imposed through a bordered constraint row rather than
    post-shifting.  Callers re-gauge as needed.  `name` labels the problem
    in error messages.

    As for solve_type1, the equation divided through by w has f/w as its
    data and smooth coefficients, is tested against unweighted Legendre
    polynomials, and records its pointwise residual in `meta["residual"]`.
    The rescaled weight enters only the solvability integral and the
    bordered column.
    """
    if n < 1:
        raise PreconditionError(f"degree must be >= 1, got {n}")
    if rule is None:
        rule = build_rule(quadrature_size(kernel, n + 2))
    if rule.n < n + 2:
        raise PreconditionError(
            f"quadrature rule with {rule.n} nodes cannot assemble degree {n}"
        )
    x, qw = rule.nodes, rule.weights
    s2 = 1.0 - x * x
    lw = kernel.log_weight(x)
    shift = float(lw.max())
    w = np.exp(lw - shift)
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d

    rhs = _sampled(f, x)
    fmean = float(qw @ (rhs * w))
    if not abs(fmean) < 1e-10:  # also rejects non-finite data
        raise PreconditionError(
            f"{name} solve: type-2 data must have zero mean; "
            f"int f dmu = {fmean:.6e} at d = {kernel.d:g}"
        )

    V, Vd, Vdd = _basis(rule, n)
    ops = Vdd * (-s2)[:, None] + Vd * (2.0 * x - nu_over_d * s2)[:, None]
    A = V.T @ (ops * qw[:, None])
    F = V.T @ (qw * rhs)
    col = V.T @ (qw * w)  # spans the left-null complement of the operator
    what = f"{name} solve"
    u, mult, linres = _bordered_solve(A, F, col, what)
    residual = _strong_residual(ops @ u - rhs, rhs, what, kernel.d)

    meta = {
        "problem": "type2",
        "sing_order": 0,
        "degree": n,
        "residual": residual,
        "linear_residual": linres,
        "multiplier": mult,
        "weight_shift": shift,
        "formulation": "divided",
    }
    return MuProfile.from_coef(rule, u, meta)


def elliptic_problem_data(kernel: CollisionKernel, c=None, b1=None) -> dict:
    """The six elliptic problems of the pipeline, in weight-free form.

    Returns name -> dict(ptype, sing_order, alpha, f), where `alpha` and `f`
    are the bounded ratios alpha/w and f/w that solve_type1 and solve_type2
    take (w = exp(sigma/d); `alpha` is None for type 2):

      gci     type 1, k=1:  1,          -(1-mu^2)^(3/2)
      a_perp  type 1, k=1:  1,          (1/d)(1 - c3 nu/d)(1-mu^2)^(3/2)
      a_par   type 2:                   (1/d)(mu - c1)
      b1      type 1, k=2:  4,          (nu/d^2)(1-mu^2)^2
      b2      type 2:                   2 b1 - c1/d
      b_par   type 1, k=1:  1,          (nu/d^2)(mu - c2)(1-mu^2)^(3/2)

    Problems that need the leading-order constants appear once `c` is given;
    the b2 problem needs the solved b1 profile as data.
    """
    nu = kernel.nu
    d = kernel.d
    problems = {
        "gci": dict(ptype=1, sing_order=1, alpha=lambda mu: 1.0,
                    f=lambda mu: -((1.0 - mu * mu) ** 1.5)),
    }
    if c is not None:
        c1, c2, c3 = c
        problems["a_perp"] = dict(
            ptype=1, sing_order=1, alpha=lambda mu: 1.0,
            f=lambda mu: (1.0 / d) * (1.0 - c3 * np.asarray(nu(mu)) / d)
            * (1.0 - mu * mu) ** 1.5,
        )
        problems["a_par"] = dict(
            ptype=2, sing_order=0, alpha=None,
            f=lambda mu: (1.0 / d) * (mu - c1),
        )
        problems["b1"] = dict(
            ptype=1, sing_order=2, alpha=lambda mu: 4.0,
            f=lambda mu: (np.asarray(nu(mu)) / d**2) * (1.0 - mu * mu) ** 2,
        )
        problems["b_par"] = dict(
            ptype=1, sing_order=1, alpha=lambda mu: 1.0,
            f=lambda mu: (np.asarray(nu(mu)) / d**2) * (mu - c2)
            * (1.0 - mu * mu) ** 1.5,
        )
        if b1 is not None:
            problems["b2"] = dict(
                ptype=2, sing_order=0, alpha=None,
                f=lambda mu: 2.0 * b1(mu) - c1 / d,
            )
    return problems


def solve_problem(kernel: CollisionKernel, name: str, problem: dict, n: int,
                  rule: QuadratureRule | None = None) -> MuProfile:
    """Solve one row of elliptic_problem_data with the solver its type names."""
    if problem["ptype"] == 1:
        return solve_type1(kernel, problem["alpha"], problem["f"], n,
                           sing_order=problem["sing_order"], rule=rule, name=name)
    return solve_type2(kernel, problem["f"], n, rule=rule, name=name)


def solve_gci(kernel: CollisionKernel, n: int,
              rule: QuadratureRule | None = None) -> GciSolution:
    """Orientational collision-invariant profile for the given kernel.

    Solves the gci row of elliptic_problem_data, the mode-1 problem with
    alpha/w = 1 and f/w = -(1-mu^2)^(3/2); the reduced factor is h itself,
    and the maximum principle gives h <= 0 (validated here as a solver
    sanity check).
    """
    h = solve_problem(kernel, "gci", elliptic_problem_data(kernel)["gci"], n, rule)
    hmax = float(h.values.max())
    if hmax > 1e-8:
        raise InvariantError(
            f"maximum principle violated: invariant profile reaches {hmax:.3e} > 0"
        )
    return GciSolution(g=FactoredProfile(h, 1), h=h, h_prime=h.derivative())
