"""End-to-end verification suite with a machine-readable report.

Each check records its name, tier, tolerance, measured value and pass/fail.
The quick tier touches only closed-form facts and costs well under a second;
the full tier re-derives the pipeline's guarantees through the independent
oracle routes (dense finite differences, operator substitution, direct sphere
quadrature) and the field-level identities.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fields
from .coeffs import DEFAULT_DEGREE, _degree, check_ordering, compute_r2_coeffs, run_pipeline
from .elliptic import MuProfile
from .errors import DomainError
from .fields import (
    R2_TERM_TAGS,
    decompose_gradients,
    deriv,
    evaluate_r1,
    evaluate_r2,
    make_field,
    r2_terms,
)
from .kernel import (
    CollisionKernel,
    ball_kernel,
    compute_kappa,
    constant_kernel,
    registry_kernels,
)
from .oracle import (
    compare_spectral_fd,
    gci_orthogonality,
    mode_residuals,
    project_trial_k1,
    source_orthogonality,
    trial_norm,
)
from .quad import build_equilibrium, build_rule

__all__ = ["Check", "VerificationReport", "run_verification"]


@dataclass
class Check:
    name: str
    tier: str
    tolerance: float
    value: float
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    elapsed: float = 0.0

    def add(self, name, tier, tolerance, value, passed=None, detail=""):
        if passed is None:
            passed = bool(value <= tolerance)
        self.checks.append(Check(name, tier, float(tolerance), float(value),
                                 bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "counts": {
                "total": len(self.checks),
                "failed": sum(1 for c in self.checks if not c.passed),
            },
            "elapsed_seconds": self.elapsed,
            "checks": [asdict(c) for c in self.checks],
        }

    def summary_lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield (f"[{status}] {c.name:<28s} value={c.value:.3e} "
                   f"tol={c.tolerance:.1e} ({c.tier})" +
                   (f"  {c.detail}" if c.detail else ""))


def _trivial_checks(report: VerificationReport):
    r1 = build_rule(1)
    report.add("rule_midpoint", "trivial", 1e-15,
               max(abs(float(r1.nodes[0])), abs(float(r1.weights[0]) - 2.0)))
    r48 = build_rule(48)
    report.add("rule_weight_sum", "trivial", 1e-14, abs(float(r48.weights.sum()) - 2.0))
    r2 = build_rule(2)
    report.add("rule_exactness", "trivial", 1e-14,
               abs(float(r2.weights @ r2.nodes**2) - 2.0 / 3.0))
    r8 = build_rule(8)
    report.add("rule_odd_moment", "trivial", 1e-15, abs(float(r8.weights @ r8.nodes**15)))

    worst_anchor = 0.0
    worst_deriv = 0.0
    mu = np.linspace(-0.9, 0.9, 7)
    eps = 1e-5
    for k in registry_kernels(d=1.0):
        worst_anchor = max(worst_anchor, abs(float(k.sigma(0.0))))
        fd = (np.asarray(k.sigma(mu + eps)) - np.asarray(k.sigma(mu - eps))) / (2 * eps)
        worst_deriv = max(worst_deriv, float(np.max(np.abs(fd - np.asarray(k.nu(mu))))))
        eqk = build_equilibrium(k)
        report.add(f"equilibrium_normalization_{k.model}", "trivial", 1e-13,
                   abs(eqk.average(lambda m: np.ones_like(m)) - 1.0))
    report.add("sigma_anchor", "trivial", 1e-12, worst_anchor)
    report.add("sigma_derivative_fd", "trivial", 1e-8, worst_deriv)

    report.add("kappa_ball_closed_form", "trivial", 1e-12,
               max(abs(compute_kappa(ball_kernel(1.0)) - 0.1),
                   abs(compute_kappa(ball_kernel(2.0)) - 0.4)))
    report.add("kappa_passthrough", "trivial", 0.0,
               abs(compute_kappa(0.37) - 0.37), passed=compute_kappa(0.37) == 0.37)

    state = make_field("uniform", (6, 6, 6))
    bundle = decompose_gradients(state)
    r1f = evaluate_r1(state, bundle, 0.5, 0.25)
    r2f = evaluate_r2(state, bundle, np.ones(13))
    report.add("uniform_field_zero", "trivial", 1e-14,
               max(float(np.abs(r1f).max()), float(np.abs(r2f).max())))

    # the field path's transverse projection, on component-major (3, 64) data
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((3, 64))
    omega /= np.linalg.norm(omega, axis=0)
    once = fields._project_perp(omega, rng.standard_normal((3, 64)), np.empty((3, 64)))
    twice = fields._project_perp(omega, once, np.empty((3, 64)))
    report.add("projection_idempotence", "trivial", 1e-14, float(np.abs(twice - once).max()))


def _pipeline_checks(report, kernel, kappa, n, oracle_m, seed):
    pipe = run_pipeline(kernel, n, kappa)
    eq, c, profiles, hydro = pipe.eq, pipe.c, pipe.profiles, pipe.hydro
    h = profiles["gci"]
    check_ordering(hydro)
    res = hydro.residuals

    report.add("c_relations", "full", 1e-9,
               max(res[f"c{i}_relation"] for i in (1, 2, 3)))
    report.add("profile_moments", "full", 1e-9,
               max(res[f"{p}_moment"] for p in ("a_perp", "a_par", "b", "b_par")))
    report.add("beta_positive", "full", 0.0, hydro.beta,
               passed=hydro.beta > 1e-12, detail="pass when beta > 1e-12")
    report.add("beta_dirichlet_identity", "full", 1e-8, res["beta_dirichlet_diff"])
    report.add("mode_identities", "full", 1e-8,
               max(mode_residuals(kernel, c, profiles).values()))

    fd_tol = 1e-4 * (20000.0 / oracle_m) ** 2
    report.add("fd_agreement", "full", fd_tol,
               max(compare_spectral_fd(kernel, c, profiles, m=oracle_m).values()),
               detail=f"m={oracle_m}")

    rng = np.random.default_rng(seed)
    worst = 0.0
    for k_mode, parity in ((0, "cos"), (2, "cos"), (2, "sin")):
        trial = MuProfile.from_coef(eq.rule, rng.standard_normal(7))
        worst = max(worst, gci_orthogonality(kernel, h, trial, k_mode, parity, eq)
                    / trial_norm(trial, k_mode, eq))
    trial = project_trial_k1(h, MuProfile.from_coef(eq.rule, rng.standard_normal(7)), eq)
    worst = max(worst, gci_orthogonality(kernel, h, trial, 1, "cos", eq)
                / trial_norm(trial, 1, eq))
    report.add("gci_orthogonality", "full", 1e-8, worst)
    report.add("source_orthogonality", "full", 1e-8,
               max(source_orthogonality(kernel, h, c, eq).values()))

    # route-table consistency; catches any sign corruption in the assembly
    z = np.asarray(hydro.zeta)
    lpp = np.asarray(hydro.lam["double_prime"])
    ep = np.asarray(hydro.eta["prime"])
    xs = np.asarray(hydro.xi["slots"])
    rebuilt = hydro.prefactor * (lpp + ep + xs)
    scale = float(np.max(np.abs(z))) or 1.0
    report.add("zeta_assembly", "full", 1e-13, float(np.max(np.abs(z - rebuilt)) / scale))

    lam = hydro.lam
    lp5 = -0.5 * lam["l1_12"]
    report.add("lambda_table_consistency", "full", 1e-13,
               max(abs(lam["prime"][4] - lp5),
                   abs(lam["double_prime"][9] - (-lp5 * hydro.c2))))

    # nonlocal-route slot relations need kappa != 0 to be nontrivial
    hydro_nl = hydro if kappa != 0.0 else compute_r2_coeffs(
        kernel, profiles, c, 0.25, eq, n, res)
    x1 = np.asarray(hydro_nl.xi["slots"])
    xi = hydro_nl.xi["xi"]
    rel = np.array([x1[3] + x1[0], x1[1] - 0.5 * x1[0], x1[11] - 0.5 * x1[0],
                    x1[12] - 0.5 * x1[0], x1[5] - 2.0 * x1[0],
                    x1[4], x1[6], x1[8], x1[9]])
    report.add("xi_family_relations", "full", 1e-12,
               float(np.max(np.abs(rel)) / abs(xi)))
    if kappa == 0.0:
        report.add("xi_vanishes_local", "full", 1e-15,
                   float(np.max(np.abs(np.asarray(hydro.xi["slots"]))))
                   + abs(hydro.zeta[12]),
                   detail="kappa = 0: all nonlocal slots and zeta13 vanish")

    rho = 1.0 + rng.random()
    qd = np.concatenate([hydro.q_coeffs(rho), hydro.d_coeffs(rho)])
    direct = np.array([z[6] / rho, z[0], z[2], z[3], z[5], rho * z[7], rho * z[8],
                       rho * z[9], z[4], rho * z[10], rho * z[1], rho * z[11],
                       rho * z[12]])
    report.add("theorem_mapping", "full", 1e-13,
               float(np.max(np.abs(qd - direct)) / (scale + 1.0)))

    # determinism and self-convergence, both at pinned degrees: an adaptive
    # run (compute_coefficients) could stop at the same degree for n and 2n
    hydro_again = run_pipeline(kernel, n, kappa).hydro
    same = (hydro.zeta.tobytes() == hydro_again.zeta.tobytes()
            and hydro.beta == hydro_again.beta and hydro.c1 == hydro_again.c1)
    report.add("determinism", "full", 0.0, 0.0 if same else 1.0, passed=same)

    hydro2 = run_pipeline(kernel, 2 * n, kappa).hydro
    check_ordering(hydro2)
    vals1 = np.concatenate([[hydro.c1, hydro.c2, hydro.c3, hydro.beta, hydro.gamma],
                            hydro.zeta])
    vals2 = np.concatenate([[hydro2.c1, hydro2.c2, hydro2.c3, hydro2.beta,
                             hydro2.gamma], hydro2.zeta])
    report.add("self_convergence", "full", 1e-9, float(np.max(np.abs(vals1 - vals2))),
               detail=f"n={n} vs {2 * n}")
    report.add("gci_max_principle", "full", 1e-10,
               max(res["h_max"], hydro2.residuals["h_max"]),
               detail=f"max h at n={n} and {2 * n}")
    return hydro


def _field_checks(report, coeffs, seed):
    def curl(om, grid, order=2):
        """The curl of the component-major orientation om, per component."""
        def d(k, j):
            return deriv(om[k], j, grid.spacing[j], order)

        return [d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)]

    def tilt_gap(npts):
        state = make_field("random-smooth", (npts,) * 3, seed=seed + 1)
        tilt = decompose_gradients(state).omega_tilt.copy(order="K")  # frees the bundle
        om = fields._omega_components(state)
        cu = curl(om, state.grid)
        # omega_tilt - curl x omega, squared and summed one component at a
        # time in one grid scalar
        total = 0.0
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            diff = cu[i] * om[j]
            diff -= cu[j] * om[i]
            np.subtract(tilt[..., k], diff, out=diff)
            total += float(np.square(diff, out=diff).sum())
        return float(np.sqrt(total / (3 * state.rho.size)))

    e_coarse, e_fine = tilt_gap(24), tilt_gap(48)
    ratio = e_coarse / e_fine
    report.add("tilt_identity_order2", "full", 0.0, ratio,
               passed=3.5 <= ratio <= 4.5, detail="ratio per mesh halving in [3.5, 4.5]")

    state = make_field("random-smooth", (24,) * 3, seed=seed + 2)
    bundle = decompose_gradients(state)
    om = fields._omega_components(state)
    swirl = fields._dot(curl(om, state.grid), om)
    X = np.random.default_rng(seed).standard_normal(3)
    gap = np.einsum("...jk,k->...j", bundle.gamma_omega, X) \
        - swirl[..., None] * np.cross(X, state.omega)
    report.add("swirl_identity", "full", 1e-12, float(np.abs(gap).max()),
               detail="exact pointwise algebra")

    def axial_err(npts):
        st = make_field("axial-sine", (4, 4, npts))
        b = decompose_gradients(st)
        r1 = evaluate_r1(st, b, coeffs.beta, coeffs.gamma)
        z = st.grid.coordinates()[2]
        return float(np.abs(r1 + coeffs.beta * np.sin(z)).max())

    e1, e2 = axial_err(32), axial_err(64)
    report.add("r1_closed_form_order2", "full", 0.0, e1 / e2,
               passed=3.5 <= e1 / e2 <= 4.5 and e2 < 1e-2,
               detail="axial-sine mass correction")

    rng = np.random.default_rng(seed + 3)
    state = make_field("random-smooth", (12,) * 3, seed=seed + 4)
    bundle = decompose_gradients(state)
    z1, z2 = rng.standard_normal(13), rng.standard_normal(13)
    lin = evaluate_r2(state, bundle, z1 + 2.0 * z2) \
        - evaluate_r2(state, bundle, z1) - 2.0 * evaluate_r2(state, bundle, z2)
    report.add("r2_linearity", "full", 1e-12, float(np.abs(lin).max()))

    r2 = evaluate_r2(state, bundle, np.asarray(coeffs.zeta))
    dots = np.abs(np.sum(r2 * state.omega, axis=-1))
    scales = np.linalg.norm(r2, axis=-1) + np.finfo(float).eps
    report.add("r2_orthogonality", "full", 1e-9, float((dots / scales).max()))

    terms = r2_terms(state, bundle)
    nq = sum(1 for tag in R2_TERM_TAGS.values() if tag == "quadratic")
    nd = sum(1 for tag in R2_TERM_TAGS.values() if tag == "derivative")
    ok = (len(terms) == 13 and nq == 8 and nd == 5)
    report.add("r2_structure_count", "full", 0.0, float(len(terms)), passed=ok,
               detail=f"{nq} quadratic + {nd} derivative")

    # the 13 structures, weighted by zeta, sum to the r2 checked above
    zeta = np.asarray(coeffs.zeta)
    total = sum(zeta[s - 1] * terms[s] for s in R2_TERM_TAGS)
    scale = float(np.abs(r2).max()) or 1.0
    report.add("r2_structure_sum", "full", 1e-12, float(np.abs(total - r2).max()) / scale,
               detail="max |sum_s zeta_s T_s - r2| / max |r2|")


def run_verification(kernel: CollisionKernel | None = None, kappa: float = 0.1,
                     n: int = DEFAULT_DEGREE, quick: bool = False, oracle_m: int = 4000,
                     seed: int = 0) -> VerificationReport:
    """Run the suite at degree n (coeffs._degree); `quick` restricts to the closed-form tier."""
    n = _degree(n)
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    t0 = time.perf_counter()
    if kernel is None:
        kernel = constant_kernel(1.0, d=1.0)
    report = VerificationReport()
    _trivial_checks(report)
    if not quick:
        hydro = _pipeline_checks(report, kernel, kappa, n, oracle_m, seed)
        _field_checks(report, hydro, seed)
    report.elapsed = time.perf_counter() - t0
    return report
