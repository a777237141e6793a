"""Independent brute-force checks for the spectral pipeline.

Three tools, each deliberately on a different discretization than the thing
it checks:

  * fd_solve       second-order conservative finite differences on a dense
                   cell-centered grid, for both degenerate problems;
  * assemble_type1_form / solve_type1_weighted
                   the symmetric weighted Galerkin form of the coercive
                   problem, a second spectral discretization beside the
                   weight-divided one the pipeline solves;
  * mode_apply     exact application of the azimuthally reduced linearized
                   operator to a polynomial profile (the image of every solved
                   profile must reproduce its defining data);
  * gci_orthogonality / source_orthogonality
                   direct 2D sphere quadrature of the invariance property
                   that defines the orientational collision invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg import solve_banded
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from .coeffs import ProfileSet
from .elliptic import GciSolution, MuProfile, elliptic_problem_data
from .errors import PreconditionError, SolverError
from .kernel import CollisionKernel
from .quad import VonMisesEquilibrium, build_rule, quadrature_size

__all__ = [
    "DenseGrid1D",
    "DenseSolution",
    "build_dense_grid",
    "fd_solve",
    "assemble_type1_form",
    "solve_type1_weighted",
    "ModeOperator",
    "mode_apply",
    "mode_residuals",
    "gci_orthogonality",
    "project_trial_k1",
    "trial_norm",
    "source_orthogonality",
    "compare_spectral_fd",
]


@dataclass(frozen=True)
class DenseGrid1D:
    """Cell-centered uniform grid strictly inside (-1, 1)."""

    m: int
    nodes: np.ndarray
    spacing: float


@dataclass
class DenseSolution:
    grid: DenseGrid1D
    values: np.ndarray
    meta: dict


def build_dense_grid(m: int) -> DenseGrid1D:
    if m < 2:
        raise PreconditionError(f"dense grid needs m >= 2, got {m}")
    spacing = 2.0 / m
    nodes = -1.0 + (np.arange(m) + 0.5) * spacing
    return DenseGrid1D(m=m, nodes=nodes, spacing=spacing)


def fd_solve(kernel: CollisionKernel, problem_type: int, alpha, f, m: int,
             reduced_order: int = 0) -> DenseSolution:
    """Conservative second-order solve of either degenerate problem.

    `alpha` and `f` are the weight-free ratios alpha/w and f/w that the
    spectral solvers take (`alpha` is unused for type 2); this weighted
    scheme multiplies them by the weight itself, rescaled by its maximum
    exactly as in the spectral solvers.  Fluxes live at half-nodes where the
    coefficient w (1-mu^2) is evaluated directly, so the endpoint degeneracy
    closes the boundary fluxes naturally and no boundary condition is
    needed.  Type 2 imposes the zero-mean gauge through a bordered row.

    For type-1 problems whose solution carries a (1-mu^2)^(k/2) factor, pass
    reduced_order=k to run the same conservative flux-form scheme in the
    substituted smooth variable (flux coefficient w (1-mu^2)^(k+1), plus the
    exact zero-order term the substitution induces).  The returned values are
    the full solution either way.  The substituted path restores clean
    second-order accuracy that the raw variable loses at the endpoints.
    """
    if m < 100:
        raise PreconditionError(f"oracle resolution m must be >= 100, got {m}")
    grid = build_dense_grid(m)
    x = grid.nodes
    dx = grid.spacing
    faces = -1.0 + np.arange(m + 1) * dx
    s2_face = 1.0 - faces * faces
    s2 = 1.0 - x * x

    lw_cell = kernel.log_weight(x)
    lw_face = kernel.log_weight(faces)
    shift = float(max(lw_cell.max(), lw_face.max()))
    w_face = np.exp(lw_face - shift)
    w_cell = np.exp(lw_cell - shift)
    cond = w_face * s2_face / dx**2  # conductances; zero at the domain ends

    f_vals = np.asarray(f(x), dtype=float) * w_cell

    if problem_type == 1:
        alpha_vals = np.asarray(alpha(x), dtype=float) * w_cell
        if not (alpha_vals.min() > 0):
            raise PreconditionError("alpha must be positive for the coercive problem")
        k = int(reduced_order)
        if k == 0:
            # symmetric scaled form: divide the equation by (1-mu^2)
            diag = cond[:-1] + cond[1:] + alpha_vals / s2
            rhs = f_vals / s2
            cvals = cond
            post = None
        else:
            # substituted variable u = g / (1-mu^2)^(k/2): conservative form
            #   -d/dmu( w (1-mu^2)^(k+1) du/dmu ) + V u = f (1-mu^2)^(k/2-1)
            # with V = (1-mu^2)^(k-1) (k w [s2 + (nu/d) mu s2 - k mu^2] + alpha)
            nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d
            cvals = w_face * s2_face ** (k + 1) / dx**2
            V = s2 ** (k - 1) * (
                k * w_cell * (s2 + nu_over_d * x * s2 - k * x * x) + alpha_vals)
            diag = cvals[:-1] + cvals[1:] + V
            rhs = f_vals * s2 ** (k / 2.0 - 1.0)
            post = s2 ** (k / 2.0)
        ab = np.zeros((3, m))
        ab[0, 1:] = -cvals[1:-1]
        ab[1] = diag
        ab[2, :-1] = -cvals[1:-1]
        g = solve_banded((1, 1), ab, rhs)
        if post is not None:
            g = post * g
        if not np.all(np.isfinite(g)):
            raise SolverError("finite-difference solve produced non-finite values")
        return DenseSolution(grid=grid, values=g,
                             meta={"problem": "type1", "weight_shift": shift,
                                   "reduced_order": k})

    if problem_type == 2:
        # high-order check of the solvability condition (midpoint sums are
        # only O(dx^2) and would mask genuinely admissible data)
        rule = build_rule(quadrature_size(kernel, 96))
        fmean = float(rule.weights @ (np.asarray(f(rule.nodes), dtype=float)
                                      * np.exp(kernel.log_weight(rule.nodes) - shift)))
        if not abs(fmean) < 1e-10:  # also rejects non-finite data
            raise PreconditionError(
                f"type-2 data must have zero mean; int f dmu = {fmean:.6e}")
        from scipy.sparse import bmat

        A = diags(
            [-cond[1:-1], cond[:-1] + cond[1:], -cond[1:-1]],
            offsets=[-1, 0, 1], format="csr")
        col = csc_matrix(np.full((m, 1), dx))
        K = bmat([[A, col], [col.T, None]], format="csc")
        sol = splu(K).solve(np.concatenate([f_vals, [0.0]]))
        g = sol[:m]
        if not np.all(np.isfinite(g)):
            raise SolverError("finite-difference solve produced non-finite values")
        return DenseSolution(grid=grid, values=g,
                             meta={"problem": "type2", "weight_shift": shift,
                                   "multiplier": float(sol[m])})

    raise PreconditionError(f"problem_type must be 1 or 2, got {problem_type}")


# --- symmetric weighted Galerkin form of the coercive problem --------------------

def assemble_type1_form(kernel: CollisionKernel, alpha, n: int, sing_order: int = 1,
                        rule=None):
    """Discrete weighted bilinear form of the coercive problem (SPD matrix).

    The weak form a(g, v) = int w (1-mu^2) g' v' + int alpha g v / (1-mu^2)
    with g = (1-mu^2)^(k/2) u and v = (1-mu^2)^(k/2) p, assembled in the
    reduced variable with the equilibrium weight rescaled by its maximum.
    `alpha` is the weight-free ratio alpha/w, multiplied here by that
    rescaled weight.  Returns (A, shift) with shift the log of that maximum.
    """
    k = int(sing_order)
    if rule is None:
        rule = build_rule(quadrature_size(kernel, n + k + 2))
    x, qw = rule.nodes, rule.weights
    s2 = 1.0 - x * x
    lw = kernel.log_weight(x)
    shift = float(lw.max())
    w = np.exp(lw - shift)
    alpha_vals = np.asarray(alpha(x), dtype=float) * w

    # derivative columns by Clenshaw from legder, not the solvers' recurrence
    V = npleg.legvander(x, n)
    Vd = npleg.legval(x, npleg.legder(np.eye(n + 1), axis=0)).T
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


def solve_type1_weighted(kernel: CollisionKernel, alpha, f, n: int, sing_order: int = 1,
                         rule=None) -> MuProfile:
    """Reduced factor u of the coercive problem from the weighted form.

    Same problem, data ratios and return convention as
    `elliptic.solve_type1`, solved through `assemble_type1_form` instead of
    the weight-divided system.  The weighted data underflow where the weight
    is sharply peaked, so this is a reference for moderate d only.
    """
    k = int(sing_order)
    if rule is None:
        rule = build_rule(quadrature_size(kernel, n + k + 2))
    x, qw = rule.nodes, rule.weights
    A, shift = assemble_type1_form(kernel, alpha, n, k, rule)
    f_vals = np.asarray(f(x), dtype=float) * np.exp(kernel.log_weight(x) - shift)
    F = npleg.legvander(x, n).T @ (qw * f_vals * (1.0 - x * x) ** (k / 2.0 - 1.0))
    u = np.linalg.solve(A, F)
    if not np.all(np.isfinite(u)):
        raise SolverError("weighted type-1 solve produced non-finite values")
    linres = float(np.linalg.norm(A @ u - F) / (np.linalg.norm(F) + 1e-300))
    return MuProfile.from_coef(rule, u, {"problem": "type1", "sing_order": k,
                                         "degree": n, "linear_residual": linres,
                                         "formulation": "weighted"})


# --- azimuthally reduced operator application ----------------------------------

@dataclass(frozen=True)
class ModeOperator:
    """Linearized operator restricted to azimuthal mode k about the mean direction."""

    kernel: CollisionKernel
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise PreconditionError(f"mode index must be nonnegative, got {self.k}")


def mode_apply(op: ModeOperator, profile: MuProfile) -> MuProfile:
    """Image of the mode-k operator on M * (1-mu^2)^(k/2) u(mu) * exp(i k phi).

    `profile` is the reduced factor u.  The returned profile is the image
    with the common factor -M (1-mu^2)^(k/2) exp(i k phi) removed, i.e. the
    data the full solution would have to match:

        image = d [ -s2 u'' + ((2k+2) mu - (nu/d) s2) u'
                    + (k(k+1) + k mu nu/d) u ],   s2 = 1 - mu^2.

    The (1-mu^2)^(-1) prefactor of the raw reduction never appears: it is
    cancelled analytically against the factor carried by the profile.
    """
    k = op.k
    kernel = op.kernel
    rule = profile.rule
    x = rule.nodes
    s2 = 1.0 - x * x
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d

    u = profile.values
    up = npleg.legval(x, npleg.legder(profile.coef))
    upp = npleg.legval(x, npleg.legder(profile.coef, 2))
    image = kernel.d * (
        -s2 * upp
        + ((2.0 * k + 2.0) * x - nu_over_d * s2) * up
        + (k * (k + 1) + k * x * nu_over_d) * u
    )
    if not np.all(np.isfinite(image)):
        bad = x[~np.isfinite(image)][0]
        raise SolverError(f"mode image overflowed near mu = {bad:.6f}")
    degree = min(profile.degree + 28, rule.n - 2)
    return _project_values(rule, image, degree, meta={"mode": k})


def _project_values(rule, values, degree, meta=None):
    V = npleg.legvander(rule.nodes, degree)
    scale = (2 * np.arange(degree + 1) + 1) / 2.0
    coef = scale * (V.T @ (rule.weights * values))
    return MuProfile.from_coef(rule, coef, meta or {})


def mode_residuals(kernel: CollisionKernel, c, gci: GciSolution,
                   profiles: ProfileSet) -> dict:
    """Each solved profile substituted back into its defining operator identity.

    Relative sup-norm mismatch between the mode image and the data the
    profile was solved against; all six should sit near rounding.
    """
    c1, c2, c3 = c
    d = kernel.d
    nu = kernel.nu

    def expected_gci(x):
        return -d * np.ones_like(x)

    def expected_a_perp(x):
        return 1.0 - c3 * np.asarray(nu(x)) / d

    def expected_a_par(x):
        return x - c1

    def expected_b1(x):
        return np.asarray(nu(x)) / d

    def expected_b2(x):
        return 2.0 * d * profiles.b1(x) - c1

    def expected_b_par(x):
        return (np.asarray(nu(x)) / d) * (x - c2)

    cases = [
        ("gci", 1, gci.h, expected_gci),
        ("a_perp", 1, profiles.a_perp, expected_a_perp),
        ("a_par", 0, profiles.a_par, expected_a_par),
        ("b1", 2, profiles.b1, expected_b1),
        ("b2", 0, profiles.b2, expected_b2),
        ("b_par", 1, profiles.b_par, expected_b_par),
    ]
    out = {}
    for name, k, prof, expected in cases:
        image = mode_apply(ModeOperator(kernel, k), prof)
        want = expected(prof.rule.nodes)
        scale = float(np.max(np.abs(want))) or 1.0
        out[name] = float(np.max(np.abs(image.values - want)) / scale)
    return out


# --- direct sphere quadrature of the invariance property ------------------------

def _sphere_grid(eq: VonMisesEquilibrium, n_phi: int):
    """Tensor quadrature on the sphere: Gauss in mu, uniform in phi."""
    mu = eq.rule.nodes
    wmu = eq.rule.weights
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)
    return mu, wmu, phi, wphi


def gci_orthogonality(kernel: CollisionKernel, gci: GciSolution, trial: MuProfile,
                      k: int, parity: str, eq: VonMisesEquilibrium,
                      n_phi: int | None = None) -> float:
    """| int L(phi_trial) . psi domega | for a mode-k trial perturbation.

    The trial is the reduced factor u of M (1-mu^2)^(k/2) u(mu) trig(k phi).
    Zero-mass and flux-alignment hold automatically for k != 1; project k=1
    trials first (`project_trial_k1`).  The integral is evaluated by full 2D
    tensor quadrature, not by the azimuthal shortcut.
    """
    if n_phi is None:
        n_phi = max(16, 4 * (k + 2))
    mu, wmu, phi, wphi = _sphere_grid(eq, n_phi)
    s = np.sqrt(1.0 - mu * mu)
    m_norm = eq.weight / (2.0 * np.pi * eq.mass)  # probability-normalized weight

    trig = np.cos(k * phi) if parity == "cos" else np.sin(k * phi)
    image = mode_apply(ModeOperator(kernel, k), trial)(mu)
    # L(phi_trial)(mu, phi) = -M s^k image(mu) trig(k phi)
    lmu = -m_norm * s**k * image

    h = gci.h(mu)
    psi1_mu = -h * s  # times sin(phi)
    psi2_mu = h * s   # times cos(phi)

    int_sin = float((wphi * np.sin(phi)) @ trig)
    int_cos = float((wphi * np.cos(phi)) @ trig)
    comp1 = float((wmu * lmu * psi1_mu).sum()) * int_sin
    comp2 = float((wmu * lmu * psi2_mu).sum()) * int_cos
    return float(np.hypot(comp1, comp2))


def trial_norm(kernel: CollisionKernel, trial: MuProfile, k: int,
               eq: VonMisesEquilibrium) -> float:
    """Natural norm of the trial perturbation M (1-mu^2)^(k/2) u trig(k phi).

    Weighted L2 norm with weight 1/M, the space the linearized operator acts
    on; used to normalize orthogonality defects.
    """
    mu = eq.rule.nodes
    s2 = 1.0 - mu * mu
    m_norm = eq.weight / (2.0 * np.pi * eq.mass)
    phi_weight = np.pi if k >= 1 else 2.0 * np.pi
    vals = m_norm * s2**k * trial(mu) ** 2
    return float(np.sqrt(phi_weight * (eq.rule.weights @ vals)))


def project_trial_k1(kernel: CollisionKernel, gci: GciSolution, trial: MuProfile,
                     eq: VonMisesEquilibrium) -> MuProfile:
    """Remove the flux component from a mode-1 trial (reduced factor).

    Mode-1 perturbations carry a transverse flux; admissible ones must have
    it parallel to the mean direction, i.e. zero.  The invariant profile h
    itself carries nonzero flux, so subtracting the right multiple projects
    any trial into the admissible set.
    """
    mu = eq.rule.nodes
    s2 = 1.0 - mu * mu
    num = eq.average(s2 * trial(mu))
    den = eq.average(s2 * gci.h(mu))
    coef_t = trial.coef
    coef_h = gci.h.coef
    size = max(len(coef_t), len(coef_h))
    coef = np.zeros(size)
    coef[: len(coef_t)] += coef_t
    coef[: len(coef_h)] -= (num / den) * coef_h
    return MuProfile.from_coef(trial.rule, coef)


def source_orthogonality(kernel: CollisionKernel, gci: GciSolution, c,
                         eq: VonMisesEquilibrium, n_phi: int = 24) -> dict:
    """Direct quadrature of the admissibility of the four gradient sources.

    Every component of each source family must integrate to zero against the
    vector invariant; this re-verifies by brute force on the sphere what the
    pipeline uses analytically.  Returns name -> worst normalized defect.
    """
    c1, c2, c3 = c
    mu, wmu, phi, wphi = _sphere_grid(eq, n_phi)
    MU, PHI = np.meshgrid(mu, phi, indexing="ij")
    W2 = np.outer(wmu, wphi)
    S = np.sqrt(1.0 - MU * MU)
    m_norm = (eq.weight / (2.0 * np.pi * eq.mass))[:, None] * np.ones_like(PHI)

    # local frame: mean direction along e3
    operp = np.stack([S * np.cos(PHI), S * np.sin(PHI), np.zeros_like(PHI)], axis=-1)
    nu = np.asarray(kernel.nu(MU), dtype=float)
    d = kernel.d
    h = gci.h(MU)
    psi = np.stack([-h * S * np.sin(PHI), h * S * np.cos(PHI)], axis=-1)

    def defect(component):
        vals = [float((W2 * component * psi[..., i]).sum()) for i in range(2)]
        scale = float((W2 * np.abs(component) * np.abs(h) * S).sum()) + 1e-300
        return max(abs(v) for v in vals) / scale

    out = {}
    a_perp = m_norm * (1.0 - c3 * nu / d)
    out["a_perp"] = max(defect(a_perp * operp[..., i]) for i in range(3))
    out["a_par"] = defect(m_norm * (MU - c1))
    b_bb = m_norm * (nu / d)
    o_perp_mat = np.eye(3) - np.outer([0, 0, 1.0], [0, 0, 1.0])
    out["b_bb"] = max(
        defect(b_bb * operp[..., i] * operp[..., j] - m_norm * c1 * o_perp_mat[i, j])
        for i in range(3) for j in range(3))
    b_pb = m_norm * (nu / d) * (MU - c2)
    out["b_pb"] = max(defect(b_pb * operp[..., j]) for j in range(3))
    return out


# --- dense-vs-spectral comparison ------------------------------------------------

def compare_spectral_fd(kernel: CollisionKernel, c, gci: GciSolution,
                        profiles: ProfileSet, m: int = 20000) -> dict:
    """Relative L2 distance between spectral and dense FD solutions.

    All six problems are re-solved on the dense grid from the same data,
    in the substituted variable where the solution carries an endpoint
    factor; zero-mean gauges are aligned by subtracting the dense-grid mean
    from both solutions before comparing.
    """
    probs = elliptic_problem_data(kernel, c, b1=profiles.b1)
    spectral = {"gci": gci.h, "a_perp": profiles.a_perp, "a_par": profiles.a_par,
                "b1": profiles.b1, "b2": profiles.b2, "b_par": profiles.b_par}
    out = {}
    for name, spec in probs.items():
        k, reduced = spec["sing_order"], spectral[name]
        dense = fd_solve(kernel, spec["ptype"], spec["alpha"], spec["f"], m,
                         reduced_order=k)
        x = dense.grid.nodes
        g_spec = (1.0 - x * x) ** (k / 2.0) * reduced(x)
        g_dense = dense.values
        if spec["ptype"] == 2:
            g_spec = g_spec - g_spec.mean()
            g_dense = g_dense - g_dense.mean()
        num = np.linalg.norm(g_spec - g_dense)
        den = np.linalg.norm(g_spec) + 1e-300
        out[name] = float(num / den)
    return out
