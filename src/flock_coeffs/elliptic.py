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


def _type1_strong_residual(kernel, w, alpha_vals, f_vals, u_coef, k, rule):
    """Pointwise residual of the type-1 equation in the substituted form.

    The equation is divided through by w (1-mu^2)^(k/2+1), the form in which
    the solution is substituted back into the reduced operator downstream, so
    this metric is not flattered by the weight or the endpoint degeneracy.
    No negative power of (1-mu^2) is formed against the data (f carries the
    (1-mu^2)^(k/2) factor of the solution space).
    """
    x = rule.nodes
    s2 = 1.0 - x * x
    sp = s2 ** (k / 2.0)
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d

    V, Vd, Vdd = _basis(rule, len(u_coef) - 1)
    u, up, upp = V @ u_coef, Vd @ u_coef, Vdd @ u_coef

    bracket = (
        s2 * s2 * upp
        + s2 * (nu_over_d * s2 - 2.0 * (k + 1) * x) * up
        - k * (nu_over_d * x * s2 + 1.0 - (k + 1) * x * x) * u
    )
    lhs = (-bracket + (alpha_vals / w) * u) / s2
    rhs = f_vals / (w * sp * s2)
    scale = float(np.max(np.abs(rhs)))
    if scale == 0.0:
        scale = float(np.max(np.abs(lhs))) or 1.0
    return float(np.max(np.abs(lhs - rhs)) / scale)


def assemble_type1_form(kernel: CollisionKernel, alpha, n: int, sing_order: int = 1,
                        rule: QuadratureRule | None = None):
    """Discrete weighted bilinear form of the coercive problem (SPD matrix).

    Assembled in the reduced variable with the equilibrium weight rescaled by
    its maximum; exposed separately so its coercivity is testable.
    """
    k = int(sing_order)
    if rule is None:
        rule = build_rule(quadrature_size(kernel, n + k + 2))
    x, qw = rule.nodes, rule.weights
    s2 = 1.0 - x * x
    lw = kernel.log_weight(x)
    shift = float(lw.max())
    w = np.exp(lw - shift)
    alpha_vals = np.asarray(alpha(x), dtype=float) * np.exp(-shift)
    if alpha_vals.ndim == 0:
        alpha_vals = np.full(rule.n, float(alpha_vals))

    V, Vd, _ = _basis(rule, n)
    # weak form a(g, v) = int w (1-mu^2) g' v' + int alpha g v / (1-mu^2)
    # with g = s^k u, v = s^k p
    w_dd = qw * w * s2 ** (k + 1)
    w_dm = qw * w * x * s2**k
    w_mm = qw * w * (k * x) ** 2 * s2 ** (k - 1)
    w_al = qw * alpha_vals * s2 ** (k - 1)
    A = (
        Vd.T @ (Vd * w_dd[:, None])
        - k * (Vd.T @ (V * w_dm[:, None]) + V.T @ (Vd * w_dm[:, None]))
        + V.T @ (V * w_mm[:, None])
        + V.T @ (V * w_al[:, None])
    )
    return A, shift


def _divided_type1_system(kernel, alpha_vals, f_vals, k, rule, n):
    """Petrov-Galerkin system for the weight-divided (regular) equation.

    Dividing the strong equation by w (1-mu^2)^(k/2+1) leaves an ODE with
    smooth coefficients; testing against unweighted Legendre polynomials keeps
    the system well conditioned when the equilibrium weight is sharply peaked
    and the data carry the weight (alpha/w, f/w bounded).
    """
    x, qw = rule.nodes, rule.weights
    s2 = 1.0 - x * x
    sp = s2 ** (k / 2.0)
    lw = kernel.log_weight(x)
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d

    V, Vd, Vdd = _basis(rule, n)
    c2_ = -s2 * s2
    c1_ = -s2 * (nu_over_d * s2 - 2.0 * (k + 1) * x)
    c0_ = k * (nu_over_d * x * s2 + 1.0 - (k + 1) * x * x) + alpha_vals * np.exp(-lw)
    ops = Vdd * c2_[:, None] + Vd * c1_[:, None] + V * c0_[:, None]
    A = V.T @ (ops * qw[:, None])
    F = V.T @ (qw * f_vals * np.exp(-lw) / sp)
    return A, F


def _run_formulation(formulation, weighted, divided):
    """Run the requested formulation; returns (result, name of the form used).

    `weighted` and `divided` are attempts returning tuples whose last entry
    is the strong residual.  "auto" runs the weighted form and falls back to
    the divided one when the weighted solve fails or its residual exceeds
    1e-9, keeping the smaller residual; when both solves fail, the divided
    form's error is raised.
    """
    if formulation == "weighted":
        return weighted(), "weighted"
    if formulation == "divided":
        return divided(), "divided"
    if formulation != "auto":
        raise PreconditionError(f"unknown formulation {formulation!r}")
    try:
        first = weighted()
    except SolverError:
        return divided(), "divided"
    if first[-1] <= 1e-9:
        return first, "weighted"
    second = divided()
    return (second, "divided") if second[-1] < first[-1] else (first, "weighted")


def solve_type1(kernel: CollisionKernel, alpha, f, n: int, *, sing_order: int = 1,
                rule: QuadratureRule | None = None,
                formulation: str = "auto") -> MuProfile:
    """Solve the coercive degenerate problem; returns the reduced factor u.

    The full solution is g(mu) = (1-mu^2)^(sing_order/2) * u(mu); u is the
    profile actually used in every downstream average.  `alpha` must be
    bounded below by a positive constant (checked by sampling); `f` must
    vanish at the endpoints at least like the (1-mu^2)^(k/2) carried by the
    solution space.  By the maximum principle, one-signed f gives a
    one-signed solution.

    The default path is the symmetric weighted Galerkin form.  For sharply
    peaked equilibrium weights that form exhausts double precision, so when
    its solve fails or its pointwise residual is poor the solver reassembles
    the weight-divided regular equation and keeps the better of the two
    (`formulation` forces either path).
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
    lw = kernel.log_weight(x)
    shift = float(lw.max())
    w = np.exp(lw - shift)

    alpha_vals = np.asarray(alpha(x), dtype=float)
    if alpha_vals.ndim == 0:
        alpha_vals = np.full(rule.n, float(alpha_vals))
    a0 = float(alpha_vals.min())
    if not a0 > 0:
        raise PreconditionError(f"alpha must be positive on [-1, 1]; min sampled {a0:.3e}")
    f_vals = np.asarray(f(x), dtype=float)
    if f_vals.ndim == 0:
        f_vals = np.full(rule.n, float(f_vals))

    def _weighted():
        A, _ = assemble_type1_form(kernel, alpha, n, k, rule)
        F = _basis(rule, n)[0].T @ (qw * f_vals * np.exp(-shift) * s2 ** (k / 2.0 - 1.0))
        u, linres = _solve_checked(A, F, "type-1 solve (weighted form)")
        res = _type1_strong_residual(kernel, w, alpha_vals * np.exp(-shift),
                                     f_vals * np.exp(-shift), u, k, rule)
        return u, linres, res

    def _divided():
        A, F = _divided_type1_system(kernel, alpha_vals, f_vals, k, rule, n)
        u, linres = _solve_checked(A, F, "type-1 solve (divided form)")
        res = _type1_strong_residual(kernel, w, alpha_vals * np.exp(-shift),
                                     f_vals * np.exp(-shift), u, k, rule)
        return u, linres, res

    (u, linres, residual), used = _run_formulation(formulation, _weighted, _divided)

    meta = {
        "problem": "type1",
        "sing_order": k,
        "degree": n,
        "residual": residual,
        "linear_residual": linres,
        "weight_shift": shift,
        "formulation": used,
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
                rule: QuadratureRule | None = None,
                formulation: str = "auto") -> MuProfile:
    """Solve the conservative degenerate problem in the zero-mean gauge.

    Solvability requires int f dmu = 0 (checked to 1e-10 on the data with the
    weight rescaled to O(1)); the returned representative has int g dmu = 0,
    imposed through a bordered constraint row rather than post-shifting.
    Callers re-gauge as needed.  The weighted/divided formulation choice
    mirrors solve_type1.
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

    f_vals = np.asarray(f(x), dtype=float)
    if f_vals.ndim == 0:
        f_vals = np.full(rule.n, float(f_vals))
    fs_vals = f_vals * np.exp(-shift)
    fmean = float(qw @ fs_vals)
    if abs(fmean) >= 1e-10:
        raise PreconditionError(
            f"type-2 data must have zero mean; int f dmu = {fmean:.6e}"
        )

    V, Vd, Vdd = _basis(rule, n)

    def _strong_residual(u):
        # substituted (weight-divided) form, matching the reduced-operator
        # metric used for type 1
        up, upp = Vd @ u, Vdd @ u
        r = -(nu_over_d * s2 * up + s2 * upp - 2.0 * x * up) - fs_vals / w
        scale = float(np.max(np.abs(fs_vals / w))) or 1.0
        return float(np.max(np.abs(r)) / scale)

    def _weighted():
        A = Vd.T @ (Vd * (qw * w * s2)[:, None])
        F = V.T @ (qw * fs_vals)
        m = np.zeros(n + 1)
        m[0] = 2.0
        u, mult, linres = _bordered_solve(A, F, m, "type-2 solve (weighted form)")
        return u, mult, linres, _strong_residual(u)

    def _divided():
        ops = (Vdd * (-s2)[:, None] + Vd * (2.0 * x - nu_over_d * s2)[:, None])
        A = V.T @ (ops * qw[:, None])
        F = V.T @ (qw * f_vals * np.exp(-lw))
        col = V.T @ (qw * w)  # spans the left-null complement of the operator
        u, mult, linres = _bordered_solve(A, F, col, "type-2 solve (divided form)")
        return u, mult, linres, _strong_residual(u)

    (u, mult, linres, residual), used = _run_formulation(formulation, _weighted, _divided)

    meta = {
        "problem": "type2",
        "sing_order": 0,
        "degree": n,
        "residual": residual,
        "linear_residual": linres,
        "multiplier": mult,
        "weight_shift": shift,
        "formulation": used,
    }
    return MuProfile.from_coef(rule, u, meta)


def solve_gci(kernel: CollisionKernel, n: int,
              rule: QuadratureRule | None = None) -> GciSolution:
    """Orientational collision-invariant profile for the given kernel.

    Solves the mode-1 problem with alpha = exp(sigma/d) and data
    -(1-mu^2)^(3/2) exp(sigma/d); the reduced factor is h itself, and the
    maximum principle gives h <= 0 (validated here as a solver sanity check).
    """
    w = kernel.weight
    h = solve_type1(
        kernel,
        alpha=w,
        f=lambda mu: -((1.0 - mu * mu) ** 1.5) * w(mu),
        n=n,
        sing_order=1,
        rule=rule,
    )
    hmax = float(h.values.max())
    if hmax > 1e-8:
        raise InvariantError(
            f"maximum principle violated: invariant profile reaches {hmax:.3e} > 0"
        )
    return GciSolution(g=FactoredProfile(h, 1), h=h, h_prime=h.derivative())
