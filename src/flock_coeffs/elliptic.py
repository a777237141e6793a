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
smooth and are solved directly in the zero-mean gauge: the operator
annihilates the Legendre P0 term, so the unknown in that slot is replaced by
a Lagrange multiplier and the system stays square.

Both problems are solved in one formulation: the strong equation divided
through by the weight w (for type 1 also by (1-mu^2)^(k/2+1)), tested against
unweighted Legendre polynomials.  The divided equation has smooth
coefficients and bounded data alpha/w and f/w, which the solvers take as
given (the six problems of the pipeline are stated once, in that form, by
`elliptic_problem_data`), so no unshifted exp(sigma/d) is formed and the
system stays well conditioned however sharply the equilibrium weight peaks.
The symmetric weighted Galerkin form lives in `tests/test_elliptic.py` as an
independent discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import InvariantError, PreconditionError, SolverError
from .kernel import CollisionKernel
from .quad import QuadratureRule, build_rule, quadrature_size

__all__ = [
    "MuProfile",
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


@dataclass(frozen=True)
class _Factors:
    """LU factors of one discrete operator, kept on the rule (rule.factors).

    `nodal` maps the unknowns to the operator's values at the rule nodes
    (for type 2 its column 0 is the gauge column, see _factor); `condition`
    is the 1-norm estimate of the factored system's condition number.
    """

    nodal: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    condition: float


def _inverse_norm1(lu, piv) -> float:
    """Estimate of ||A^-1||_1 from the LU factors of A, in O(n^2).

    Hager's estimator as refined by Higham (ACM TOMS 14, 1988), step for
    step the iteration of LAPACK's dlacn2 that gecon runs: at most five
    sign-vector iterations, then the alternating-sign test vector.  Every
    product with A^-1 or A^-T is a getrs back-substitution on the given
    factors, and the sums are numpy reductions of fixed order, so the
    estimate repeats bitwise; gecon's last bits move with where its work
    arrays happen to be allocated.
    """
    n = len(lu)
    y = dgetrs(lu, piv, np.full(n, 1.0 / n))[0]
    if n == 1:
        return float(abs(y[0]))
    est = float(np.abs(y).sum())
    signs = np.where(y >= 0, 1.0, -1.0)
    j = int(np.abs(dgetrs(lu, piv, signs, trans=1)[0]).argmax())
    for _ in range(4):
        e = np.zeros(n)
        e[j] = 1.0
        y = dgetrs(lu, piv, e)[0]
        est_old, est = est, float(np.abs(y).sum())
        new = np.where(y >= 0, 1.0, -1.0)
        if (new == signs).all() or est <= est_old:
            break  # converged, or cycling
        signs = new
        z = dgetrs(lu, piv, signs, trans=1)[0]
        j_last, j = j, int(np.abs(z).argmax())
        if z[j_last] == abs(z[j]):
            break
    alt = 1.0 + np.arange(n) / (n - 1)
    alt[1::2] *= -1.0
    return max(est, 2.0 * float(np.abs(dgetrs(lu, piv, alt)[0]).sum()) / (3 * n))


def _factor(rule, key, basis, coefs, what, d, gauge=None) -> _Factors:
    """Factors of the operator c2 u'' + c1 u' + c0 u tested against the
    Legendre basis, for the nodal coefficients `coefs` = (c2, c1, c0); c0 is
    None when the operator has no zero-order term.

    Assembled and factored once per rule and `key`; the key is built from
    the sampled coefficients, so only identical discrete systems share
    factors.  With nodal weights `gauge` (type 2, no zero-order term), the
    operator's column 0 is identically zero, since P0' = P0'' = 0; it is
    replaced by `gauge`, whose moments int gauge P_j dmu then fill the
    system's column 0.  The unknown in slot 0 becomes a Lagrange multiplier
    and the P0 coefficient is fixed at zero, which is the zero-mean gauge
    int g dmu = 0 (the column must have a component outside the range of
    the operator; the multiplier absorbs any truncation-level inconsistency
    of the data).  The nodal operator matrix is kept with the factors: the
    solves form their images and defects from it (_defect).
    """
    factors = rule.factors.get(key)
    if factors is not None:
        return factors
    V, Vd, Vdd = basis
    c2, c1, c0 = coefs
    ops = Vdd * c2[:, None] + Vd * c1[:, None]
    if c0 is not None:
        ops += V * c0[:, None]
    if gauge is not None:
        ops[:, 0] = gauge
    A = V.T @ (ops * rule.weights[:, None])
    anorm = float(np.linalg.norm(A, 1))
    lu, piv, info = dgetrf(A, overwrite_a=True)
    if info > 0:  # exactly zero pivot
        raise SolverError(f"{what}: singular discrete system at d = {d:g}", np.inf)
    factors = _Factors(ops, lu, piv, anorm * _inverse_norm1(lu, piv))
    # a concurrent factorization of the same operator loses to the one stored first
    return rule.factors.setdefault(key, factors)


def _defect(factors, V, qw, F, sol):
    """Nodal image of `sol` under the operator of _factor, and its defect
    in the Galerkin system, formed from that image rather than from the
    assembled matrix, which is not kept."""
    image = factors.nodal @ sol
    return image, V.T @ (qw * image) - F


def _solve(factors, V, qw, F, d, what):
    """Solve with the factors of _factor; checked like a direct solve.

    Returns the solution (for type 2 its slot 0 holds the multiplier), its
    nodal image and the linear residual (_defect).  One step of iterative
    refinement back-substitutes the defect of the first solution.  The defect, formed from nodal values, is more accurate than
    the rounded Galerkin sums of the assembled matrix: at the small-d end of
    the range the refinement takes b2's solvability integral from rounding
    noise of 1e-10 to 1e-9 down to 1e-12.
    """
    # scipy's getrs shifts the pivots in place around the LAPACK call, with
    # the GIL released: solves sharing the cached factors each take a copy
    piv = factors.piv.copy()
    sol = dgetrs(factors.lu, piv, F)[0]
    sol -= dgetrs(factors.lu, piv, _defect(factors, V, qw, F, sol)[1])[0]
    if not np.all(np.isfinite(sol)):
        raise SolverError(f"{what}: non-finite solution at d = {d:g}", factors.condition)
    image, defect = _defect(factors, V, qw, F, sol)
    linres = float(np.linalg.norm(defect) / (np.linalg.norm(F) + 1e-300))
    if linres > 1e-8:
        raise SolverError(f"{what}: ill-conditioned system, linear residual {linres:.3e} "
                          f"at d = {d:g}", factors.condition)
    return sol, image, linres


def _sampled_rule(kernel, n, k, rule):
    """The checked rule of a degree-n solve whose solution vanishes like
    (1-mu^2)^(k/2) (by default one sized for the kernel's weight), with
    1-mu^2, nu/d and the log weight sampled at its nodes."""
    if n < 1:
        raise PreconditionError(f"degree must be >= 1, got {n}")
    if rule is None:
        rule = build_rule(quadrature_size(kernel, n + k + 2))
    if rule.n < n + 2:
        raise PreconditionError(
            f"quadrature rule with {rule.n} nodes cannot assemble degree {n}")
    x = rule.nodes
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d
    return rule, 1.0 - x * x, nu_over_d, kernel.log_weight(x)


def _checked_solve(kernel, rule, n, k, key, coefs, rhs, shift, name, gauge=None,
                   divisor=1.0) -> MuProfile:
    """The solve both problem types share, on the divided equation with
    nodal coefficients `coefs` and nodal data `rhs`.

    The operator is factored once per rule under `key`, whose first entry
    ("type1" or "type2") is recorded as `meta["problem"]`, and the data
    tested against the Legendre basis are back-substituted.  The pointwise defect at the nodes,
    divided by `divisor` like the data, is recorded relative to the data in
    `meta["residual"]`; a non-finite value means the data overflowed or
    underflowed at the nodes, which no degree can repair, so it is raised.
    With a gauge column the defect is that of the equation the system
    solves, L u + multiplier * gauge = data, so data whose mean is not
    exactly zero (rounding in the constants they are built from) count
    against the solve only through what the multiplier does not absorb; the
    multiplier is taken out of slot 0, whose Legendre coefficient is zero.
    `meta` also carries the linear residual, the 1-norm condition estimate
    of the factored system (_inverse_norm1, reproducible to the bit) and,
    with a gauge column, the multiplier.
    """
    what, d, qw = f"{name} solve", kernel.d, rule.weights
    basis = _basis(rule, n)
    factors = _factor(rule, key, basis, coefs, what, d, gauge)
    V = basis[0]
    sol, image, linres = _solve(factors, V, qw, V.T @ (qw * rhs), d, what)
    scale = float(np.max(np.abs(rhs / divisor))) or 1.0
    residual = float(np.max(np.abs((image - rhs) / divisor)) / scale)
    if not np.isfinite(residual):
        raise SolverError(f"{what}: non-finite strong residual at d = {d:g}")
    meta = {"problem": key[0], "sing_order": k, "degree": n, "residual": residual,
            "linear_residual": linres, "condition": factors.condition}
    if gauge is not None:
        meta["multiplier"] = float(sol[0])
        sol[0] = 0.0
    meta.update(weight_shift=shift, formulation="divided")
    return MuProfile.from_coef(rule, sol, meta)


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
    (Petrov-Galerkin), and the pointwise residual of the divided equation,
    with one more factor 1/(1-mu^2) so that the endpoint degeneracy does not
    flatter it, is recorded in `meta["residual"]`.  The symmetric weighted
    Galerkin form is kept in `tests/test_elliptic.py` as an independent check.

    The operator depends only on (n, k, alpha/w, nu/d), so it is assembled
    and LU-factored once per rule and kept in `rule.factors`, keyed by those
    sampled values: every later solve with the same operator on the same
    rule (gci, a_perp and b_par share one) only back-substitutes.  The other
    `meta` entries are those of _checked_solve.
    """
    k = int(sing_order)
    if k < 1:
        raise PreconditionError(
            "sing_order must be >= 1: the admissible space forces the solution "
            "to vanish at the endpoints"
        )
    rule, s2, nu_over_d, lw = _sampled_rule(kernel, n, k, rule)
    x = rule.nodes
    alpha_ratio = _sampled(alpha, x)
    a0 = float(alpha_ratio.min())
    if not a0 > 0:
        raise PreconditionError(f"{name} solve: alpha must be positive on [-1, 1]; "
                                f"min sampled {a0:.3e} at d = {kernel.d:g}")
    coefs = (-s2 * s2,
             -s2 * (nu_over_d * s2 - 2.0 * (k + 1) * x),
             k * (nu_over_d * x * s2 + 1.0 - (k + 1) * x * x) + alpha_ratio)
    return _checked_solve(kernel, rule, n, k,
                          ("type1", n, k, alpha_ratio.tobytes(), nu_over_d.tobytes()),
                          coefs, _sampled(f, x) / s2 ** (k / 2.0), float(lw.max()), name,
                          divisor=s2)


def solve_type2(kernel: CollisionKernel, f, n: int, *,
                rule: QuadratureRule | None = None, name: str = "type-2") -> MuProfile:
    """Solve the conservative degenerate problem in the zero-mean gauge.

    `f` is the weight-free ratio f/w (see elliptic_problem_data).
    Solvability requires int f dmu = 0, checked to 1e-10 as int (f/w) w dmu
    with the weight rescaled to O(1); the returned representative has
    int g dmu = 0, imposed by the system itself rather than by
    post-shifting: its Legendre P0 coefficient is exactly zero.  Callers
    re-gauge as needed.  `name` labels the problem in error messages.

    As for solve_type1, the equation divided through by w has f/w as its
    data and smooth coefficients, and is tested against unweighted Legendre
    polynomials.  The rescaled weight enters only the solvability integral
    and the gauge column, which takes the place of the operator's null P0
    column (_factor).  The system depends only on (n, nu/d, w), so it is
    factored once per rule (a_par and b2 share it); its multiplier and the
    other `meta` entries are those of _checked_solve.
    """
    rule, s2, nu_over_d, lw = _sampled_rule(kernel, n, 0, rule)
    x, qw = rule.nodes, rule.weights
    shift = float(lw.max())
    w = np.exp(lw - shift)
    rhs = _sampled(f, x)
    fmean = float(qw @ (rhs * w))
    if not abs(fmean) < 1e-10:  # also rejects non-finite data
        raise PreconditionError(
            f"{name} solve: type-2 data must have zero mean; "
            f"int f dmu = {fmean:.6e} at d = {kernel.d:g}"
        )
    # the moments of w span the left-null complement of the operator
    return _checked_solve(kernel, rule, n, 0, ("type2", n, nu_over_d.tobytes(), w.tobytes()),
                          (-s2, 2.0 * x - nu_over_d * s2, None), rhs, shift, name, gauge=w)


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
    the b2 problem needs the solved b1 profile as data, read from its stored
    values at b1's own rule nodes and evaluated anywhere else.  The rows
    come in the order listed, which is the order of the pipeline's profiles.
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
        if b1 is not None:
            problems["b2"] = dict(
                ptype=2, sing_order=0, alpha=None,
                f=lambda mu: 2.0 * (b1.values if mu is b1.rule.nodes else b1(mu)) - c1 / d,
            )
        problems["b_par"] = dict(
            ptype=1, sing_order=1, alpha=lambda mu: 1.0,
            f=lambda mu: (np.asarray(nu(mu)) / d**2) * (mu - c2)
            * (1.0 - mu * mu) ** 1.5,
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
              rule: QuadratureRule | None = None) -> MuProfile:
    """Orientational collision-invariant profile h for the given kernel.

    Solves the gci row of elliptic_problem_data, the mode-1 problem with
    alpha/w = 1 and f/w = -(1-mu^2)^(3/2).  The reduced factor is h itself
    (the full invariant is g = sqrt(1-mu^2) h, never stored), and the
    maximum principle gives h <= 0 (validated here as a solver sanity check).
    """
    h = solve_problem(kernel, "gci", elliptic_problem_data(kernel)["gci"], n, rule)
    hmax = float(h.values.max())
    if hmax > 1e-8:
        raise InvariantError(
            f"maximum principle violated: invariant profile reaches {hmax:.3e} > 0"
        )
    return h
