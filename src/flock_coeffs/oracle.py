"""Independent brute-force checks for the spectral pipeline.

Three tools, each deliberately on a different discretization than the thing
it checks, each a plain function of the kernel and the values it checks:

  * fd_solve(kernel, problem_type, alpha, f, m)
                   second-order conservative finite differences on a dense
                   cell-centered grid of m cells strictly inside (-1, 1), for
                   both degenerate problems; returns (nodes, values);
  * mode_apply(kernel, k, profile)
                   exact application of the azimuthally reduced linearized
                   operator of mode k >= 0 to a polynomial profile (the image
                   of every solved profile must reproduce its defining data);
  * gci_orthogonality / source_orthogonality
                   direct 2D sphere quadrature of the invariance property
                   that defines the orientational collision invariant.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg import solve_banded

from .elliptic import MuProfile, _basis, _check_zero_mean, elliptic_problem_data
from .errors import DomainError, PreconditionError, SolverError
from .kernel import CollisionKernel
from .quad import VonMisesEquilibrium, build_rule, quadrature_size

__all__ = [
    "fd_solve",
    "mode_apply",
    "mode_residuals",
    "gci_orthogonality",
    "project_trial_k1",
    "trial_norm",
    "source_orthogonality",
    "compare_spectral_fd",
]


class _DenseGrid:
    """The m-cell cell-centered grid of fd_solve and what every solve on it
    reads: the cell and face nodes, the weight at both, shifted by its
    maximum over them, nu/d at the cells, and (built on first use) the
    weight at the nodes of the high-order rule of the type-2 solvability
    check."""

    def __init__(self, kernel: CollisionKernel, m: int):
        if m < 100:
            raise DomainError(f"oracle resolution m must be >= 100, got {m}")
        self.kernel = kernel
        self.m = m
        self.dx = dx = 2.0 / m
        self.x = x = -1.0 + (np.arange(m) + 0.5) * dx
        faces = -1.0 + np.arange(m + 1) * dx
        self.s2_face = 1.0 - faces * faces
        self.s2 = 1.0 - x * x
        lw_cell = kernel.log_weight(x)
        lw_face = kernel.log_weight(faces)
        self.shift = float(max(lw_cell.max(), lw_face.max()))
        self.w_face = np.exp(lw_face - self.shift)
        self.w_cell = np.exp(lw_cell - self.shift)
        self.nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d

    @cached_property
    def solvability_rule(self):
        """(rule, shifted weight at its nodes) of the type-2 data check."""
        rule = build_rule(quadrature_size(self.kernel, 96))
        return rule, np.exp(self.kernel.log_weight(rule.nodes) - self.shift)


def fd_solve(kernel: CollisionKernel, problem_type: int, alpha, f, m: int,
             reduced_order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Conservative second-order solve of either degenerate problem.

    Returns the nodes of the m-cell cell-centered grid strictly inside
    (-1, 1) and the solution values there.

    `alpha` and `f` are the weight-free ratios alpha/w and f/w that the
    spectral solvers take (`alpha` is unused for type 2); this weighted
    scheme multiplies them by the weight itself, rescaled by its maximum
    exactly as in the spectral solvers.  Fluxes live at half-nodes where the
    coefficient w (1-mu^2) is evaluated directly, so the endpoint degeneracy
    closes the boundary fluxes naturally and no boundary condition is
    needed.

    Type 2 solves the bordered system [A, w dx; dx 1^T, 0] exactly by its
    flux recursion, in O(m): the multiplier spreads the data's residual mean
    over the cells by their weight moments w dx, which divided through by w
    is the spectral solver's gauge, L g + lambda = f/w; the face fluxes are
    the running sums of the balanced data (both end faces close), the cell
    differences are the fluxes over the conductances, and the last row is
    the zero-mean gauge.

    Type 1 runs one conservative flux-form scheme in the substituted variable
    u = g / (1-mu^2)^(k/2), k = reduced_order (flux coefficient
    w (1-mu^2)^(k+1), plus the exact zero-order term the substitution
    induces); k = 0 is the raw variable.  For solutions that carry a
    (1-mu^2)^(k/2) factor, the substituted variable restores the clean
    second-order accuracy the raw one loses at the endpoints.  The returned
    values are the full solution either way.
    """
    grid = _DenseGrid(kernel, m)
    return grid.x, _fd_solve_on(grid, problem_type, alpha, f, reduced_order)


def _fd_solve_on(grid: _DenseGrid, problem_type, alpha, f, k, f_cells=None):
    """fd_solve's solution on `grid`; `f_cells`, when given, is f/w at the
    cells in place of f(grid.x), and f itself is read only by the type-2
    solvability check."""
    d = grid.kernel.d
    x, dx, s2, w_cell = grid.x, grid.dx, grid.s2, grid.w_cell
    f_vals = np.asarray(f(x) if f_cells is None else f_cells, dtype=float) * w_cell

    if problem_type == 1:
        alpha_vals = np.asarray(alpha(x), dtype=float) * w_cell
        if not (alpha_vals.min() > 0):
            raise PreconditionError(
                f"alpha must be positive for the coercive problem; min on the dense "
                f"grid {alpha_vals.min():.3e} at d = {d:g}")
        # substituted variable u = g / (1-mu^2)^(k/2): conservative form
        #   -d/dmu( w (1-mu^2)^(k+1) du/dmu ) + V u = f (1-mu^2)^(k/2-1)
        # with V = (1-mu^2)^(k-1) (k w [s2 + (nu/d) mu s2 - k mu^2] + alpha);
        # k = 0 is the raw variable, with the equation divided by (1-mu^2)
        k = int(k)
        nu_over_d = grid.nu_over_d
        cvals = grid.w_face * grid.s2_face ** (k + 1) / dx**2
        V = s2 ** (k - 1) * (k * w_cell * (s2 + nu_over_d * x * s2 - k * x * x) + alpha_vals)
        diag = cvals[:-1] + cvals[1:] + V
        rhs = f_vals * s2 ** (k / 2.0 - 1.0)
        ab = np.zeros((3, grid.m))
        ab[0, 1:] = -cvals[1:-1]
        ab[1] = diag
        ab[2, :-1] = -cvals[1:-1]
        g = s2 ** (k / 2.0) * solve_banded((1, 1), ab, rhs)
        if not np.all(np.isfinite(g)):
            raise SolverError(f"finite-difference solve produced non-finite values "
                              f"at d = {d:g}")
        return g

    if problem_type == 2:
        # high-order check of the solvability condition (midpoint sums are
        # only O(dx^2) and would mask genuinely admissible data)
        _check_zero_mean(f, *grid.solvability_rule, d, "finite-difference")
        cond = grid.w_face[1:-1] * grid.s2_face[1:-1] / dx**2  # interior faces
        if not cond.min() > 0:  # also rejects NaN
            raise SolverError(
                f"dense-grid conductance vanishes or is not finite (min {cond.min():.3e}): "
                f"the weight underflows across the grid at d = {d:g}")
        lam = f_vals.sum() / w_cell.sum()
        flux = -np.cumsum(f_vals - lam * w_cell)
        g = np.empty(grid.m)
        g[0] = 0.0
        np.cumsum(flux[:-1] / cond, out=g[1:])
        g -= g.mean()
        if not np.all(np.isfinite(g)):
            raise SolverError(f"finite-difference solve produced non-finite values "
                              f"at d = {d:g}")
        return g

    raise PreconditionError(f"problem_type must be 1 or 2, got {problem_type}")


# --- azimuthally reduced operator application ----------------------------------

def mode_apply(kernel: CollisionKernel, k: int, profile: MuProfile) -> MuProfile:
    """Image of the linearized operator restricted to azimuthal mode k >= 0
    about the mean direction, on M * (1-mu^2)^(k/2) u(mu) * exp(i k phi).

    `profile` is the reduced factor u.  The returned profile is the image
    with the common factor -M (1-mu^2)^(k/2) exp(i k phi) removed, i.e. the
    data the full solution would have to match:

        image = d [ -s2 u'' + ((2k+2) mu - (nu/d) s2) u'
                    + (k(k+1) + k mu nu/d) u ],   s2 = 1 - mu^2.

    The (1-mu^2)^(-1) prefactor of the raw reduction never appears: it is
    cancelled analytically against the factor carried by the profile.  The
    derivatives at the rule nodes come from the rule's Legendre basis.
    """
    if k < 0:
        raise PreconditionError(f"mode index must be nonnegative, got {k}")
    rule = profile.rule
    x = rule.nodes
    s2 = 1.0 - x * x
    nu_over_d = np.asarray(kernel.nu(x), dtype=float) / kernel.d

    _, Vd, Vdd = _basis(rule, profile.degree)
    u = profile.values
    up = Vd @ profile.coef
    upp = Vdd @ profile.coef
    image = kernel.d * (
        -s2 * upp
        + ((2.0 * k + 2.0) * x - nu_over_d * s2) * up
        + (k * (k + 1) + k * x * nu_over_d) * u
    )
    if not np.all(np.isfinite(image)):
        bad = x[~np.isfinite(image)][0]
        raise SolverError(f"mode image overflowed near mu = {bad:.6f}")
    degree = min(profile.degree + 28, rule.n - 2)
    return _project_values(rule, image, degree)


def _project_values(rule, values, degree):
    V = _basis(rule, degree, 0)[0]  # the values from_coef evaluates the result with
    scale = (2 * np.arange(degree + 1) + 1) / 2.0
    coef = scale * (V.T @ (rule.weights * values))
    return MuProfile.from_coef(rule, coef)


def mode_residuals(kernel: CollisionKernel, c, profiles: dict) -> dict:
    """Each solved profile substituted back into its defining operator identity.

    `profiles` is the pipeline's name -> profile dict.  Relative sup-norm
    mismatch between the mode image and the data the profile was solved
    against; all six should sit near rounding.  The mode index and the
    expected image of each problem are stated here, independently of
    elliptic_problem_data.
    """
    c1, c2, c3 = c
    d = kernel.d
    nu = kernel.nu
    # name -> (mode index, expected image at the profile's nodes x)
    cases = {
        "gci": (1, lambda x: -d * np.ones_like(x)),
        "a_perp": (1, lambda x: 1.0 - c3 * np.asarray(nu(x)) / d),
        "a_par": (0, lambda x: x - c1),
        "b1": (2, lambda x: np.asarray(nu(x)) / d),
        "b2": (0, lambda x: 2.0 * d * _nodal(profiles["b1"], profiles["b2"].rule) - c1),
        "b_par": (1, lambda x: (np.asarray(nu(x)) / d) * (x - c2)),
    }
    out = {}
    for name, (k, expected) in cases.items():
        prof = profiles[name]
        image = mode_apply(kernel, k, prof)
        want = expected(prof.rule.nodes)
        scale = float(np.max(np.abs(want))) or 1.0
        out[name] = float(np.max(np.abs(image.values - want)) / scale)
    return out


# --- direct sphere quadrature of the invariance property ------------------------

def _nodal(profile: MuProfile, rule) -> np.ndarray:
    """The stored values of a profile at the nodes of `rule`, its own."""
    if profile.rule is not rule:
        raise PreconditionError(
            f"profile lives on a {profile.rule.n}-node rule, not on the given "
            f"{rule.n}-node one")
    return profile.values


def _sphere_grid(eq: VonMisesEquilibrium, n_phi: int):
    """Tensor quadrature on the sphere: Gauss in mu, uniform in phi."""
    mu = eq.rule.nodes
    wmu = eq.rule.weights
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)
    return mu, wmu, phi, wphi


def gci_orthogonality(kernel: CollisionKernel, h: MuProfile, trial: MuProfile,
                      k: int, parity: str, eq: VonMisesEquilibrium) -> float:
    """| int L(phi_trial) . psi domega | for a mode-k trial perturbation.

    The trial is the reduced factor u of M (1-mu^2)^(k/2) u(mu) trig(k phi).
    Zero-mass and flux-alignment hold automatically for k != 1; project k=1
    trials first (`project_trial_k1`).  The integral is evaluated by full 2D
    tensor quadrature, not by the azimuthal shortcut.
    """
    mu, wmu, phi, wphi = _sphere_grid(eq, max(16, 4 * (k + 2)))
    s = np.sqrt(1.0 - mu * mu)
    m_norm = eq.weight / (2.0 * np.pi * eq.mass)  # probability-normalized weight

    trig = np.cos(k * phi) if parity == "cos" else np.sin(k * phi)
    image = _nodal(mode_apply(kernel, k, trial), eq.rule)
    # L(phi_trial)(mu, phi) = -M s^k image(mu) trig(k phi)
    lmu = -m_norm * s**k * image

    hv = _nodal(h, eq.rule)
    psi1_mu = -hv * s  # times sin(phi)
    psi2_mu = hv * s   # times cos(phi)

    int_sin = float((wphi * np.sin(phi)) @ trig)
    int_cos = float((wphi * np.cos(phi)) @ trig)
    comp1 = float((wmu * lmu * psi1_mu).sum()) * int_sin
    comp2 = float((wmu * lmu * psi2_mu).sum()) * int_cos
    return float(np.hypot(comp1, comp2))


def trial_norm(trial: MuProfile, k: int, eq: VonMisesEquilibrium) -> float:
    """Natural norm of the trial perturbation M (1-mu^2)^(k/2) u trig(k phi).

    Weighted L2 norm with weight 1/M, the space the linearized operator acts
    on; used to normalize orthogonality defects.
    """
    mu = eq.rule.nodes
    s2 = 1.0 - mu * mu
    m_norm = eq.weight / (2.0 * np.pi * eq.mass)
    phi_weight = np.pi if k >= 1 else 2.0 * np.pi
    vals = m_norm * s2**k * _nodal(trial, eq.rule) ** 2
    return float(np.sqrt(phi_weight * (eq.rule.weights @ vals)))


def project_trial_k1(h: MuProfile, trial: MuProfile,
                     eq: VonMisesEquilibrium) -> MuProfile:
    """Remove the flux component from a mode-1 trial (reduced factor).

    Mode-1 perturbations carry a transverse flux; admissible ones must have
    it parallel to the mean direction, i.e. zero.  The invariant profile h
    itself carries nonzero flux, so subtracting the right multiple projects
    any trial into the admissible set.
    """
    mu = eq.rule.nodes
    s2 = 1.0 - mu * mu
    num = eq.average(s2 * _nodal(trial, eq.rule))
    den = eq.average(s2 * _nodal(h, eq.rule))
    coef_t = trial.coef
    coef_h = h.coef
    size = max(len(coef_t), len(coef_h))
    coef = np.zeros(size)
    coef[: len(coef_t)] += coef_t
    coef[: len(coef_h)] -= (num / den) * coef_h
    return MuProfile.from_coef(trial.rule, coef)


def source_orthogonality(kernel: CollisionKernel, h: MuProfile, c,
                         eq: VonMisesEquilibrium) -> dict:
    """Direct quadrature of the admissibility of the four gradient sources.

    Every component of each source family must integrate to zero against the
    vector invariant; this re-verifies by brute force on the sphere what the
    pipeline uses analytically.  Returns name -> worst normalized defect.

    Each defect is relative to the absolute mass of the source's terms
    against |psi|.  For a_perp that is M (1 + |c3 nu/d|) |o_perp|: the
    difference 1 - c3 nu/d itself vanishes identically for a constant rate,
    where its mass would be rounding noise.
    """
    c1, c2, c3 = c
    mu, wmu, phi, wphi = _sphere_grid(eq, 24)
    MU, PHI = np.meshgrid(mu, phi, indexing="ij")
    W2 = np.outer(wmu, wphi)
    S = np.sqrt(1.0 - MU * MU)
    m_norm = (eq.weight / (2.0 * np.pi * eq.mass))[:, None] * np.ones_like(PHI)

    # local frame: mean direction along e3
    operp = np.stack([S * np.cos(PHI), S * np.sin(PHI), np.zeros_like(PHI)], axis=-1)
    nu = np.asarray(kernel.nu(MU), dtype=float)
    d = kernel.d
    hv = _nodal(h, eq.rule)[:, None]
    psi = np.stack([-hv * S * np.sin(PHI), hv * S * np.cos(PHI)], axis=-1)

    def defect(component, mass=None):
        vals = [float((W2 * component * psi[..., i]).sum()) for i in range(2)]
        mass = np.abs(component) if mass is None else mass
        scale = float((W2 * mass * np.abs(hv) * S).sum()) + 1e-300
        return max(abs(v) for v in vals) / scale

    out = {}
    a_perp = m_norm * (1.0 - c3 * nu / d)
    a_perp_mass = m_norm * (1.0 + np.abs(c3 * nu / d))
    out["a_perp"] = max(defect(a_perp * operp[..., i], a_perp_mass * np.abs(operp[..., i]))
                        for i in range(3))
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

def compare_spectral_fd(kernel: CollisionKernel, c, profiles: dict,
                        m: int = 20000) -> dict:
    """Relative L2 distance between spectral and dense FD solutions.

    All six problems of elliptic_problem_data are re-solved on the dense
    grid from the same data, in the substituted variable where the solution
    carries an endpoint factor, and compared with the pipeline's profile of
    the same name; zero-mean gauges are aligned by subtracting the dense-grid
    mean from both solutions before comparing.

    The grid, with the weight at its cells and faces, nu/d and the type-2
    solvability rule, is built once per call and shared by the six solves,
    each the solver fd_solve runs, so five distances are those of six
    fd_solve calls to the bit.  The six spectral profiles are evaluated on
    it first, together, in one Legendre-Vandermonde product, and b2's data
    2 b1 - c1/d read b1's column there.
    """
    grid = _DenseGrid(kernel, m)
    x = grid.x
    probs = elliptic_problem_data(kernel, c, b1=profiles["b1"])
    names = list(probs)
    coefs = np.zeros((max(len(profiles[name].coef) for name in names), len(names)))
    for j, name in enumerate(names):
        coefs[:len(profiles[name].coef), j] = profiles[name].coef
    reduced = npleg.legvander(x, coefs.shape[0] - 1) @ coefs
    dense_data = {"b2": 2.0 * reduced[:, names.index("b1")] - c[0] / kernel.d}
    out = {}
    for j, (name, spec) in enumerate(probs.items()):
        g_dense = _fd_solve_on(grid, spec["ptype"], spec["alpha"], spec["f"],
                               spec["sing_order"], f_cells=dense_data.get(name))
        g_spec = (1.0 - x * x) ** (spec["sing_order"] / 2.0) * reduced[:, j]
        if spec["ptype"] == 2:
            g_spec = g_spec - g_spec.mean()
            g_dense = g_dense - g_dense.mean()
        num = np.linalg.norm(g_spec - g_dense)
        den = np.linalg.norm(g_spec) + 1e-300
        out[name] = float(num / den)
    return out
