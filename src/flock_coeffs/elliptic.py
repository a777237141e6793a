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
a Lagrange multiplier on P0 itself, L u + lambda = f/w, and the system stays
square.

Both problems are solved in one formulation: the strong equation divided
through by the weight w (for type 1 also by (1-mu^2)^(k/2)), tested against
unweighted Legendre polynomials.  Its data are the bounded ratios alpha/w
and f/w (the six problems of the pipeline are stated once, in that form, by
`elliptic_problem_data`), so no unshifted exp(sigma/d) is formed.  With nu
a polynomial of degree p, the coefficients and the pipeline's data are
polynomials: the scheme is Lanczos's tau method (J. Math. Phys. 17, 1938),
assembled exactly on a weight-free rule of n + ceil(p/2) + 3 nodes
(operator_rule).  Only the type-2 solvability integral needs the weight's
rule.  The weighted Galerkin form and the scheme assembled on the weight's
rule live in `tests/test_elliptic.py` as references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.special import legendre_p_all

from .errors import InvariantError, PreconditionError, SolverError
from .kernel import CollisionKernel
from .quad import (QuadratureRule, VonMisesEquilibrium, _at_nodes, build_equilibrium,
                   build_rule, quadrature_size)

__all__ = [
    "MuProfile",
    "operator_rule",
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
    diagnostics for report sidecars; a solved profile keeps its factors.
    """

    rule: QuadratureRule
    coef: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    _factors: "_Factors | None" = field(default=None, repr=False, compare=False)

    @classmethod
    def from_coef(cls, rule, coef, meta=None, factors=None):
        coef = np.asarray(coef, dtype=float)
        return cls(rule, coef, _basis(rule, len(coef) - 1, 0)[0] @ coef, meta or {}, factors)

    @property
    def condition(self) -> float | None:
        """Its solve's _Factors.condition, formed on first read; None if unsolved."""
        return None if self._factors is None else self._factors.condition

    def __call__(self, mu):
        return npleg.legval(np.asarray(mu, dtype=float), self.coef)

    @property
    def degree(self) -> int:
        return len(self.coef) - 1

    def derivative(self) -> "MuProfile":
        dcoef = _legder(self.coef)
        V = _basis(self.rule, self.degree, 0)[0]  # no derivative basis is built
        return MuProfile(self.rule, dcoef, V[:, :len(dcoef)] @ dcoef)

    def antiderivative(self, anchor: float = 0.0) -> "MuProfile":
        return MuProfile.from_coef(self.rule, npleg.legint(self.coef, lbnd=anchor))

    def shifted(self, constant: float) -> "MuProfile":
        """Profile plus a constant (Legendre P0 term)."""
        coef = self.coef.copy()
        coef[0] += constant
        return MuProfile.from_coef(self.rule, coef, dict(self.meta), self._factors)

    def on(self, rule: QuadratureRule) -> "MuProfile":
        """The same polynomial, meta and factors at the nodes of `rule`."""
        return MuProfile.from_coef(rule, self.coef, self.meta, self._factors)


def _legder(coef):
    """npleg.legder(coef) to the bit without its loop: legder adds each
    coefficient into the one two below it, top down, and scales the sums
    by 2j+1, which is one reversed cumsum per parity."""
    if len(coef) == 1:
        return coef * 0  # legder's degree-0 case, signed zero included
    sums = np.empty(len(coef) - 1)
    for p in (0, 1):
        sums[p::2] = np.cumsum(coef[1 + p::2][::-1])[::-1]
    return sums * (2.0 * np.arange(len(sums)) + 1.0)


def _basis(rule: QuadratureRule, degree: int, order: int = 2):
    """Legendre values at the rule nodes (legendre_p_all's compiled
    recurrence), (V,) for order 0, with their first and second derivatives
    for order 2: read-only (n_nodes, degree+1) arrays in legvander's
    column-major layout, kept in rule.bases, which build_rule's rules of a
    size share (quad._SizeBases).  The recurrences P'_{j+1} = P'_{j-1} +
    (2j+1) P_j and P''_{j+1} = P''_{j-1} + (2j+1) P'_j are running sums
    over every other column: one cumsum per parity, in the recurrences' order.
    """
    basis = rule.bases.get((degree, order))
    if basis is not None:
        return basis
    if order == 0:
        basis = (legendre_p_all(degree, rule.nodes)[0].T,)
    else:
        basis = _basis(rule, degree, 0)
        odd = 2.0 * np.arange(degree) + 1.0
        for _ in range(2):
            terms = basis[-1][:, :-1] * odd
            deriv = np.empty_like(basis[0])
            deriv[:, 0] = 0.0  # every other column is written by a cumsum
            np.cumsum(terms[:, 0::2], axis=1, out=deriv[:, 1::2])
            np.cumsum(terms[:, 1::2], axis=1, out=deriv[:, 2::2])
            basis += (deriv,)
    for a in basis:
        a.flags.writeable = False
    # a concurrent build of the same basis loses to the one stored first
    return rule.bases.setdefault((degree, order), basis)


def operator_rule(kernel: CollisionKernel, n: int, rule: QuadratureRule | None = None):
    """The rule a degree-n solve is assembled on: `rule`, checked, or the
    Gauss rule of n + ceil(p/2) + 3 nodes, p = kernel.nu_degree.  The
    coefficients have degree at most p + 4 (_operator_coefs), the pipeline's
    data p + 3 (n for b2), so every integral against P_j, j <= n, is of a
    polynomial of degree at most 2n + p + 3, which it computes exactly."""
    if n < 1:
        raise PreconditionError(f"degree must be >= 1, got {n}")
    size = n + (kernel.nu_degree + 1) // 2 + 3
    if rule is None:
        return build_rule(size)
    if rule.n < size:
        raise PreconditionError(f"quadrature rule with {rule.n} nodes cannot assemble "
                                f"degree {n} exactly; it needs {size}")
    return rule


def _operator_coefs(kernel, x, k, alpha_ratio=None):
    """Nodal coefficients (c2, c1, c0) of the divided operator
    c2 u'' + c1 u' + c0 u: type 1 of mode k with alpha/w sampled as
    `alpha_ratio`, or type 2 (no alpha, no zero-order term: c0 None)."""
    s2 = 1.0 - x * x
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d
    if alpha_ratio is None:
        return -s2, 2.0 * x - nu_over_d * s2, None
    return (-s2 * s2,
            -s2 * (nu_over_d * s2 - 2.0 * (k + 1) * x),
            k * (nu_over_d * x * s2 + 1.0 - (k + 1) * x * x) + alpha_ratio)


@dataclass(frozen=True)
class _Factors:
    """LU factors of one discrete operator, kept on its rule (rule.factors).

    `nodal` maps the unknowns to the operator's values at the rule nodes;
    `anorm` is the 1-norm of the assembled matrix.
    """

    nodal: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    anorm: float

    @cached_property
    def condition(self) -> float:
        """1-norm condition estimate, formed on first read; getrs gets its own pivots."""
        return self.anorm * _inverse_norm1(self.lu, self.piv.copy())


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


def _factor(rule, key, n, coefs, what, d) -> _Factors:
    """Factors of the degree-n operator with nodal coefficients `coefs()`
    tested against the Legendre basis, once per rule and `key`.

    Without a zero-order term (type 2) the operator's column 0 is
    identically zero, since P0' = P0'' = 0; P0's own values fill it instead.
    The unknown in slot 0 becomes a Lagrange multiplier lambda, the system
    is L u + lambda = f/w, and the P0 coefficient is fixed at zero, which is
    the zero-mean gauge int g dmu = 0 (the constant is outside the range of
    the divided operator, whose left null vector is w > 0; the multiplier
    absorbs any truncation-level inconsistency of the data).  The nodal
    matrix, multiplier column included, is kept with the factors: the
    solves form their images and defects from it (_defect).
    """
    factors = rule.factors.get(key)
    if factors is not None:
        return factors
    V, Vd, Vdd = _basis(rule, n)
    c2, c1, c0 = coefs()
    nodal = Vdd * c2[:, None] + Vd * c1[:, None]
    if c0 is None:
        nodal[:, 0] = 1.0
    else:
        nodal += V * c0[:, None]
    A = V.T @ (nodal * rule.weights[:, None])
    anorm = float(np.linalg.norm(A, 1))
    lu, piv, info = dgetrf(A, overwrite_a=True)
    if info > 0:  # exactly zero pivot
        raise SolverError(f"{what}: singular discrete system at d = {d:g}", np.inf)
    factors = _Factors(nodal, lu, piv, anorm)
    # a concurrent factorization of the same operator loses to the one stored first
    return rule.factors.setdefault(key, factors)


def _defect(factors, V, qw, F, sol):
    """Nodal image of `sol` under the operator of _factor and its defect in
    the system, formed from that image rather than from the assembled
    matrix, which is not kept."""
    image = factors.nodal @ sol
    return image, V.T @ (qw * image) - F


def _solve(factors, V, qw, F, d, what):
    """Solve with the factors of _factor; checked like a direct solve.

    Returns the solution (for type 2 its slot 0 holds the multiplier), its
    nodal image and the linear residual (_defect).  One step of iterative
    refinement back-substitutes the defect of the first solution.  The
    defect, formed from nodal values, is more accurate than the rounded
    Galerkin sums of the assembled matrix: at the small-d end of the range
    the refinement takes b2's solvability integral from rounding noise of
    1e-10 to 1e-9, on either side of its 1e-10 bound, down to 1e-13.
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


def _checked_solve(kernel, rule, n, k, key, coefs, rhs, name, divisor=1.0) -> MuProfile:
    """The solve both problem types share, on the divided equation with
    nodal data `rhs` at the nodes of the operator rule `rule`.

    The operator is factored once per rule under `key`, whose first entry
    ("type1" or "type2") is recorded as `meta["problem"]`, and the data
    tested against the Legendre basis are back-substituted.  The strong
    residual, the pointwise defect at the rule's nodes divided by `divisor`
    like the data, is recorded relative to the data in `meta["residual"]`;
    a non-finite value means the data overflowed or underflowed at the
    nodes, which no degree can repair, so it is raised.  For type 2 (k = 0)
    it is the defect of L u + multiplier = data, so data whose mean is not
    exactly zero (rounding in the constants they are built from) count
    against the solve only through what the multiplier does not absorb; the
    multiplier is taken out of slot 0, whose Legendre coefficient is zero.
    `meta` also carries the node count, the linear residual and the
    multiplier; the profile keeps the factors, whose 1-norm condition
    estimate (_inverse_norm1, reproducible to the bit) is formed only when
    read.
    """
    what, d, qw = f"{name} solve", kernel.d, rule.weights
    factors = _factor(rule, key, n, coefs, what, d)
    V = _basis(rule, n, 0)[0]
    sol, image, linres = _solve(factors, V, qw, V.T @ (qw * rhs), d, what)
    scale = float(np.max(np.abs(rhs / divisor))) or 1.0
    residual = float(np.max(np.abs((image - rhs) / divisor)) / scale)
    if not np.isfinite(residual):
        raise SolverError(f"{what}: non-finite strong residual at d = {d:g}")
    meta = {"problem": key[0], "sing_order": k, "degree": n, "nodes": rule.n,
            "residual": residual, "linear_residual": linres}
    if k == 0:
        meta["multiplier"] = float(sol[0])
        sol[0] = 0.0
    meta["formulation"] = "divided"
    return MuProfile.from_coef(rule, sol, meta, factors)


def solve_type1(kernel: CollisionKernel, alpha, f, n: int, *, sing_order: int = 1,
                rule: QuadratureRule | None = None, name: str = "type-1") -> MuProfile:
    """Solve the coercive degenerate problem; returns the reduced factor u.

    The full solution is g(mu) = (1-mu^2)^(sing_order/2) * u(mu); u is the
    profile actually used in every downstream average.  `alpha` and `f` are
    the weight-free ratios alpha/w and f/w (see elliptic_problem_data):
    alpha/w must be bounded below by a positive constant (checked by
    sampling), and f/w must vanish at the endpoints at least like the
    (1-mu^2)^(k/2) carried by the solution space; both are taken at the
    nodes like quad's integrands (_at_nodes).  By the maximum principle,
    one-signed f gives a one-signed solution.  `name` labels the problem in
    error messages.

    The equation is divided through by w (1-mu^2)^(k/2), which leaves an ODE
    with polynomial coefficients and exactly those ratios as data.  It is
    tested against unweighted Legendre polynomials on operator_rule(kernel,
    n, rule), where u is returned, and the pointwise residual of the divided
    equation at its nodes, with one more factor 1/(1-mu^2) so that the
    endpoint degeneracy does not flatter it, is recorded in
    `meta["residual"]`.  The operator is LU-factored once per rule, keyed by
    n, k, the rate callable, d and alpha/w at the nodes: gci, a_perp and
    b_par share one.  The other `meta` entries are those of _checked_solve.
    """
    k = int(sing_order)
    if k < 1:
        raise PreconditionError(
            "sing_order must be >= 1: the admissible space forces the solution "
            "to vanish at the endpoints"
        )
    rule = operator_rule(kernel, n, rule)
    x = rule.nodes
    s2 = 1.0 - x * x
    alpha_ratio = _at_nodes(rule, alpha)
    a0 = float(alpha_ratio.min())
    if not a0 > 0:
        raise PreconditionError(f"{name} solve: alpha must be positive on [-1, 1]; "
                                f"min sampled {a0:.3e} at d = {kernel.d:g}")
    return _checked_solve(kernel, rule, n, k,
                          ("type1", n, k, kernel.nu, kernel.d, alpha_ratio.tobytes()),
                          lambda: _operator_coefs(kernel, x, k, alpha_ratio),
                          _at_nodes(rule, f) / s2 ** (k / 2.0), name, divisor=s2)


def _check_zero_mean(f, rule: QuadratureRule, weight, d: float, name: str) -> None:
    """PreconditionError, naming the stage `name` and d, unless the type-2
    data f/w (a callable) satisfy |int (f/w) w dmu| < 1e-10 on `rule`, with
    `weight` the weight w at its nodes."""
    fmean = float(rule.weights @ (_at_nodes(rule, f) * weight))
    if not abs(fmean) < 1e-10:  # also rejects non-finite data
        raise PreconditionError(
            f"{name} solve: type-2 data must have zero mean; "
            f"int f dmu = {fmean:.6e} at d = {d:g}"
        )


def solve_type2(kernel: CollisionKernel, f, n: int, *,
                rule: QuadratureRule | None = None, eq: VonMisesEquilibrium | None = None,
                name: str = "type-2") -> MuProfile:
    """Solve the conservative degenerate problem in the zero-mean gauge.

    `f` is the weight-free ratio f/w (see elliptic_problem_data), taken at
    the nodes like solve_type1's data.
    Solvability requires int f dmu = 0, checked to 1e-10 as int (f/w) w dmu
    on the rule of the equilibrium `eq` (by default one sized for degree
    n + 2), whose weight is rescaled to O(1).  The returned representative
    has int g dmu = 0, imposed by the system itself rather than by
    post-shifting: its Legendre P0 coefficient is exactly zero.  Callers
    re-gauge as needed.  `name` labels the problem in error messages.

    As for solve_type1, the divided equation, with f/w as its data, is
    tested against unweighted Legendre polynomials on operator_rule(kernel,
    n, rule), where the profile is returned; a multiplier on P0 takes the
    operator's null P0 column (_factor), so the system is
    L u + multiplier = f/w.  The weight enters only the solvability integral.
    The system is factored once per rule, keyed by n, the rate callable and
    d (a_par and b2 share it, whatever `eq`); the multiplier and the other
    `meta` entries are those of _checked_solve.
    """
    rule = operator_rule(kernel, n, rule)
    if eq is None:
        eq = build_equilibrium(kernel, quadrature_size(kernel, n + 2))
    _check_zero_mean(f, eq.rule, eq.weight, kernel.d, name)
    return _checked_solve(kernel, rule, n, 0, ("type2", n, kernel.nu, kernel.d),
                          lambda: _operator_coefs(kernel, rule.nodes, 0), _at_nodes(rule, f), name)


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
    the b2 problem needs the solved b1 (a profile, or a tuple of it on
    several rules) as data, read from its stored values at its rules' nodes
    and evaluated anywhere else.  The rows come in the order listed, which
    is the order of the pipeline's profiles.
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
            stored = b1 if isinstance(b1, tuple) else (b1,)

            def b1_at(mu):
                for p in stored:
                    if mu is p.rule.nodes:
                        return p.values
                return stored[0](mu)

            problems["b2"] = dict(
                ptype=2, sing_order=0, alpha=None,
                f=lambda mu: 2.0 * b1_at(mu) - c1 / d,
            )
        problems["b_par"] = dict(
            ptype=1, sing_order=1, alpha=lambda mu: 1.0,
            f=lambda mu: (np.asarray(nu(mu)) / d**2) * (mu - c2)
            * (1.0 - mu * mu) ** 1.5,
        )
    return problems


def solve_problem(kernel: CollisionKernel, name: str, problem: dict, n: int,
                  rule: QuadratureRule | None = None,
                  eq: VonMisesEquilibrium | None = None) -> MuProfile:
    """Solve one row of elliptic_problem_data with the solver its type names."""
    if problem["ptype"] == 1:
        return solve_type1(kernel, problem["alpha"], problem["f"], n,
                           sing_order=problem["sing_order"], rule=rule, name=name)
    return solve_type2(kernel, problem["f"], n, rule=rule, eq=eq, name=name)


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
