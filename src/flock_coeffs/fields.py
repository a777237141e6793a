"""Discrete density/orientation fields and the first-order correction terms.

A field state is a nonnegative density rho and a unit orientation vector on a
uniform periodic lattice.  Gradients are centered finite differences (order 2
or 4); all tensor splitting (parallel/transverse projections, the shear/swirl
decomposition of the transverse orientation gradient) is exact pointwise
algebra applied to those differences, so the split identities hold by
construction and the only discretization error is in the raw derivatives.

The corrections:

  mass:     R1 = beta * div((Omega . grad rho) Omega)
                 + gamma * div(rho (div Omega) Omega)
  velocity: R2 = sum_j zeta_j * T_j, 8 quadratic structures and 5
                 second-derivative structures, every one orthogonal to Omega.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FieldStateError, GridShapeError

__all__ = [
    "Grid",
    "FieldState",
    "GradientBundle",
    "CorrectionFields",
    "deriv",
    "decompose_gradients",
    "evaluate_r1",
    "r2_terms",
    "R2_TERM_TAGS",
    "evaluate_r2",
    "evaluate_corrections",
    "make_field",
    "save_field_csv",
    "load_field_csv",
    "save_field_npz",
    "load_field_npz",
]

UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice; extents of 1 give degenerate (constant) axes."""

    shape: tuple
    spacing: tuple

    def __post_init__(self):
        if len(self.shape) != 3 or len(self.spacing) != 3:
            raise GridShapeError("grid is three-dimensional: shape and spacing of length 3")
        if any(s < 1 for s in self.shape):
            raise GridShapeError(f"bad grid shape {self.shape}")
        if any(h <= 0 for h in self.spacing):
            raise GridShapeError(f"grid spacing must be positive, got {self.spacing}")

    @property
    def lengths(self):
        return tuple(n * h for n, h in zip(self.shape, self.spacing))

    def coordinates(self):
        axes = [np.arange(n) * h for n, h in zip(self.shape, self.spacing)]
        return np.meshgrid(*axes, indexing="ij")


@dataclass
class FieldState:
    """Density rho >= 0 and unit orientation omega per cell (shape + (3,))."""

    grid: Grid
    rho: np.ndarray
    omega: np.ndarray

    def validate(self):
        if self.rho.shape != self.grid.shape:
            raise GridShapeError(
                f"rho shape {self.rho.shape} != grid shape {self.grid.shape}")
        if self.omega.shape != self.grid.shape + (3,):
            raise GridShapeError(
                f"omega shape {self.omega.shape} != grid shape {self.grid.shape} + (3,)")
        norms = np.linalg.norm(self.omega, axis=-1)
        dev = np.abs(norms - 1.0)
        if dev.max() > UNIT_NORM_TOL:
            idx = tuple(int(i) for i in np.unravel_index(int(dev.argmax()), dev.shape))
            raise FieldStateError(
                f"orientation not unit at cell {idx}: |omega| = {norms[idx]:.12f}")
        if self.rho.min() < 0:
            idx = tuple(int(i) for i in np.unravel_index(int(self.rho.argmin()),
                                                         self.rho.shape))
            raise FieldStateError(f"negative density at cell {idx}: {self.rho[idx]:.6e}")
        return self


@dataclass
class GradientBundle:
    """First derivatives of (rho, omega) split along/normal to omega.

    scheme_order  : finite-difference order (2 or 4) the bundle was built
                    with; evaluate_r1, evaluate_r2 and r2_terms differentiate
                    bundle entries with the same stencil
    grad_perp_rho : transverse density gradient (3-vector per cell)
    par_grad_rho  : omega . grad rho (scalar)
    omega_tilt    : (omega . grad) omega, projected transverse (3-vector)
    div_omega     : trace of the transverse-transverse orientation gradient
    sigma_omega   : symmetric traceless shear block (3x3, transverse plane)
    gamma_omega   : antisymmetric swirl block (3x3, transverse plane)

    decompose_gradients stores the vector and tensor fields component-major,
    as contiguous (3, ...) and (3, 3, ...) arrays, and exposes them here as
    np.moveaxis views: they have the shapes grid + (3,) and grid + (3, 3)
    but are not C-contiguous.
    """

    scheme_order: int
    grad_perp_rho: np.ndarray
    par_grad_rho: np.ndarray
    omega_tilt: np.ndarray
    div_omega: np.ndarray
    sigma_omega: np.ndarray
    gamma_omega: np.ndarray


@dataclass
class CorrectionFields:
    """Pointwise corrections: scalar r1 and vector r2 with omega . r2 = 0.

    r2 has the shape grid + (3,); evaluate_r2 builds it component-major, so
    it is a view of (3, ...) storage and not C-contiguous.
    """

    r1: np.ndarray
    r2: np.ndarray


def deriv(values: np.ndarray, axis: int, h: float, order: int = 2) -> np.ndarray:
    """Centered periodic finite difference along `axis` (order 2 or 4).

    Each stencil tap is a slice of one wrap-padded copy of `values`; an axis
    of extent 1 is constant and has a zero derivative.
    """
    if order not in (2, 4):
        raise DomainError(f"scheme order must be 2 or 4, got {order}")
    n = values.shape[axis]
    if n == 1:
        return np.zeros(values.shape)
    w = order // 2
    padded = np.take(values, np.arange(-w, n + w) % n, axis=axis)

    def tap(s):
        """values shifted by s cells: tap(s)[i] = values[i + s]."""
        return padded[(slice(None),) * axis + (slice(w + s, w + s + n),)]

    if order == 2:
        out = tap(1) - tap(-1)
        out /= 2.0 * h
    else:
        out = -tap(2)
        out += 8.0 * tap(1)
        out -= 8.0 * tap(-1)
        out += tap(-2)
        out /= 12.0 * h
    return out


def _vector_components(vec):
    """Component-major (3, ...) view of a grid + (3,) field."""
    return np.moveaxis(vec, -1, 0)


def _tensor_components(tens):
    """Component-major (3, 3, ...) view of a grid + (3, 3) field."""
    return np.moveaxis(tens, (-2, -1), (0, 1))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _omega_components(state):
    """The orientation as a contiguous component-major (3, ...) array."""
    return np.ascontiguousarray(_vector_components(state.omega))


def _project_perp(omega, vec):
    """(Id - omega otimes omega) vec on components, exact pointwise algebra."""
    along = _dot(vec, omega)
    return [vec[k] - along * omega[k] for k in range(3)]


def decompose_gradients(state: FieldState, scheme_order: int = 2) -> GradientBundle:
    """Finite-difference gradients followed by exact tensor projections.

    The transverse-transverse orientation block is projected on both sides,
    its trace defines div_omega, and the shear/swirl split is taken as the
    definition (so the reassembly identities hold exactly).
    """
    state.validate()
    if scheme_order == 4 and any(1 < n < 5 for n in state.grid.shape):
        raise DomainError("order-4 stencil needs periodic extents of >= 5 cells (or 1)")
    grid, shape = state.grid, state.grid.shape
    om = _omega_components(state)

    def d(values, j):
        return deriv(values, j, grid.spacing[j], scheme_order)

    grad_rho = [d(state.rho, j) for j in range(3)]
    par_grad_rho = _dot(grad_rho, om)
    grad_perp_rho = np.empty((3,) + shape)
    for k in range(3):
        np.subtract(grad_rho[k], par_grad_rho * om[k], out=grad_perp_rho[k])
    del grad_rho

    # g[j, k] = d_j omega_k; a = omega^T g is (omega . grad) omega, b = g omega
    g = np.empty((3, 3) + shape)
    for j in range(3):
        for k in range(3):
            g[j, k] = d(om[k], j)
    a = [_dot(om, g[:, k]) for k in range(3)]
    b = [_dot(g[j], om) for j in range(3)]
    c = _dot(om, b)
    omega_tilt = np.stack(_project_perp(om, a))

    # transverse-transverse block P g P = g - omega a^T - b omega^T
    # + c omega omega^T, written over g entry by entry
    u = [c * om[k] - a[k] for k in range(3)]
    del a
    for j in range(3):
        for k in range(3):
            g[j, k] += om[j] * u[k]
            g[j, k] -= b[j] * om[k]
    del b, c, u
    div_omega = g[0, 0] + g[1, 1] + g[2, 2]

    sigma = np.empty((3, 3) + shape)
    gamma = np.empty((3, 3) + shape)
    for j in range(3):
        np.multiply(g[j, j], 2.0, out=sigma[j, j])
        sigma[j, j] -= div_omega * (1.0 - om[j] * om[j])
        gamma[j, j] = 0.0
        for k in range(j + 1, 3):
            np.add(g[j, k], g[k, j], out=sigma[j, k])
            sigma[j, k] += div_omega * (om[j] * om[k])
            sigma[k, j] = sigma[j, k]
            np.subtract(g[j, k], g[k, j], out=gamma[j, k])
            np.negative(gamma[j, k], out=gamma[k, j])

    return GradientBundle(
        scheme_order=scheme_order,
        grad_perp_rho=np.moveaxis(grad_perp_rho, 0, -1),
        par_grad_rho=par_grad_rho,
        omega_tilt=np.moveaxis(omega_tilt, 0, -1),
        div_omega=div_omega,
        sigma_omega=np.moveaxis(sigma, (0, 1), (-2, -1)),
        gamma_omega=np.moveaxis(gamma, (0, 1), (-2, -1)),
    )


def evaluate_r1(state: FieldState, bundle: GradientBundle, beta: float,
                gamma: float) -> np.ndarray:
    """Mass-equation correction field, at the bundle's scheme order."""
    _check_bundle(state, bundle)
    grid, order = state.grid, bundle.scheme_order
    om = _omega_components(state)
    rho_div = state.rho * bundle.div_omega

    def divergence(scalar):
        """div(scalar * omega)."""
        return sum(deriv(scalar * om[ax], ax, grid.spacing[ax], order) for ax in range(3))

    return beta * divergence(bundle.par_grad_rho) + gamma * divergence(rho_div)


# slot tags: which of the 13 structures are quadratic in first derivatives
# and which carry a second derivative
R2_TERM_TAGS = {
    1: "quadratic", 2: "derivative", 3: "quadratic", 4: "quadratic",
    5: "derivative", 6: "quadratic", 7: "quadratic", 8: "quadratic",
    9: "quadratic", 10: "quadratic", 11: "derivative", 12: "derivative",
    13: "derivative",
}


def _check_bundle(state, bundle):
    if bundle.par_grad_rho.shape != state.grid.shape:
        raise GridShapeError(
            f"bundle shape {bundle.par_grad_rho.shape} does not match grid {state.grid.shape}")


def _r2_slots(state, bundle):
    """Yield (slot, [x, y, z]) for the 13 structures of R2, one slot at a time.

    Each slot is three scalar component arrays, so only one slot is alive at
    a time.  Second-derivative structures differentiate stored bundle entries
    with the bundle's scheme and are projected transverse; quadratic
    structures are pointwise products of transverse bundle entries.
    """
    _check_bundle(state, bundle)
    if state.rho.min() <= 0:
        raise FieldStateError("velocity correction needs strictly positive density")
    grid, rho, order = state.grid, state.rho, bundle.scheme_order
    om = _omega_components(state)
    gperp = _vector_components(bundle.grad_perp_rho)
    tilt = _vector_components(bundle.omega_tilt)
    sig = _tensor_components(bundle.sigma_omega)
    gam = _tensor_components(bundle.gamma_omega)
    dpar, divo = bundle.par_grad_rho, bundle.div_omega

    def d(values, j):
        return deriv(values, j, grid.spacing[j], order)

    def scaled(s, vec):
        return [s * vec[k] for k in range(3)]

    def contract(tens, vec):
        """(T vec)_j = T_jk vec_k."""
        return [_dot(tens[j], vec) for j in range(3)]

    def par_deriv_vec(vec):
        """(omega . grad) vec, projected transverse."""
        return _project_perp(om, [
            om[0] * d(vec[k], 0) + om[1] * d(vec[k], 1) + om[2] * d(vec[k], 2)
            for k in range(3)])

    def div_tensor(tens, zero_diagonal=False):
        """(div T)_k = d_j T_jk, projected transverse.

        With `zero_diagonal` the terms d_k T_kk are not formed: the diagonal
        of the swirl tensor is stored as exact zeros, so they add nothing.
        """
        cols = []
        for k in range(3):
            js = [j for j in range(3) if j != k or not zero_diagonal]
            col = d(tens[js[0], k], js[0])
            for j in js[1:]:
                col = col + d(tens[j, k], j)
            cols.append(col)
        return _project_perp(om, cols)

    yield 1, scaled(divo, gperp)
    yield 2, scaled(rho, _project_perp(om, [d(divo, j) for j in range(3)]))
    yield 3, contract(sig, gperp)
    yield 4, contract(gam, gperp)
    yield 5, par_deriv_vec(gperp)
    yield 6, scaled(dpar, tilt)
    yield 7, scaled(dpar / rho, gperp)
    yield 8, scaled(rho * divo, tilt)
    yield 9, scaled(rho, contract(sig, tilt))
    yield 10, scaled(rho, contract(gam, tilt))
    yield 11, scaled(rho, par_deriv_vec(tilt))
    yield 12, scaled(rho, div_tensor(sig))
    yield 13, scaled(rho, div_tensor(gam, zero_diagonal=True))


def r2_terms(state: FieldState, bundle: GradientBundle) -> dict:
    """The 13 tensor structures of the velocity correction, slot -> field.

    Second-derivative structures differentiate stored bundle entries with the
    bundle's scheme order and project transverse; quadratic structures are
    pointwise products of bundle entries.  Every returned field is orthogonal
    to omega and has the shape grid + (3,), as a view of (3, ...) storage.
    """
    return {slot: np.moveaxis(np.stack(comps), 0, -1)
            for slot, comps in _r2_slots(state, bundle)}


def evaluate_r2(state: FieldState, bundle: GradientBundle, coeffs) -> np.ndarray:
    """Velocity-equation correction field: sum of zeta_j times structure j.

    `coeffs` is either a coefficient-set object exposing `.zeta` or a plain
    13-vector.  Linear in the zeta vector by construction.  The structures
    are accumulated one slot at a time; second derivatives use the bundle's
    scheme order.
    """
    zeta = np.asarray(getattr(coeffs, "zeta", coeffs), dtype=float)
    if zeta.shape != (13,):
        raise DomainError(f"expected 13 coefficients, got shape {zeta.shape}")
    out = np.zeros((3,) + state.grid.shape)
    for slot, comps in _r2_slots(state, bundle):
        for k in range(3):
            out[k] += zeta[slot - 1] * comps[k]
    return np.moveaxis(out, 0, -1)


def evaluate_corrections(state: FieldState, coeffs, scheme_order: int = 2,
                         eps: float = 1.0) -> CorrectionFields:
    """Both corrections, scaled by the scale-ratio eps used for reporting."""
    bundle = decompose_gradients(state, scheme_order)
    r1 = evaluate_r1(state, bundle, coeffs.beta, coeffs.gamma)
    r2 = evaluate_r2(state, bundle, coeffs)
    return CorrectionFields(r1=eps * r1, r2=eps * r2)


# --- analytic test fields ------------------------------------------------------

def _unit(vec):
    return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def make_field(name: str, shape=(16, 16, 16), lengths=None, params=None,
               seed: int = 0) -> FieldState:
    """Named analytic field states on a periodic box.

    uniform       constant rho and omega
    axial-sine    omega = z-hat, rho = 2 + sin z         (params: amplitude)
    tilt-sine     omega tilts in the x-z plane with z, rho = 1
                  (params: alpha0, default 0.7)
    random-smooth seeded band-limited unit field, rho bounded away from 0
    """
    if lengths is None:
        lengths = (2 * np.pi,) * 3
    shape = tuple(int(n) for n in shape)
    grid = Grid(shape=shape, spacing=tuple(L / n for L, n in zip(lengths, shape)))
    x, y, z = grid.coordinates()
    params = params or {}

    if name == "uniform":
        rho = np.full(shape, float(params.get("rho", 1.0)))
        omega = np.zeros(shape + (3,))
        omega[..., 2] = 1.0
    elif name == "axial-sine":
        amp = float(params.get("amplitude", 1.0))
        rho = 2.0 + amp * np.sin(2 * np.pi * z / lengths[2])
        omega = np.zeros(shape + (3,))
        omega[..., 2] = 1.0
    elif name == "tilt-sine":
        alpha0 = float(params.get("alpha0", 0.7))
        alpha = alpha0 * np.sin(2 * np.pi * z / lengths[2])
        rho = np.ones(shape)
        omega = np.stack([np.sin(alpha), np.zeros_like(alpha), np.cos(alpha)], axis=-1)
    elif name == "random-smooth":
        rng = np.random.default_rng(seed)
        kx, ky, kz = (2 * np.pi / L for L in lengths)
        base = np.zeros(shape + (3,))
        base[..., 2] = 2.0
        for _ in range(4):
            amp = 0.25 * rng.standard_normal(3)
            kv = rng.integers(1, 3, size=3)
            ph = rng.uniform(0, 2 * np.pi, size=3)
            mode = np.cos(kv[0] * kx * x + ph[0]) * np.cos(kv[1] * ky * y + ph[1]) \
                * np.sin(kv[2] * kz * z + ph[2])
            base += amp * mode[..., None]
        omega = _unit(base)
        rho = 1.5 + 0.4 * np.cos(kx * x) * np.sin(kz * z) + 0.2 * np.cos(ky * y)
    else:
        raise DomainError(
            f"unknown field {name!r}; known: uniform, axial-sine, tilt-sine, random-smooth")
    return FieldState(grid=grid, rho=rho, omega=omega).validate()


# --- field I/O -----------------------------------------------------------------

FIELD_CSV_HEADER = "x,y,z,rho,ox,oy,oz"


def save_field_csv(state: FieldState, path):
    x, y, z = state.grid.coordinates()
    cols = np.column_stack([
        x.ravel(), y.ravel(), z.ravel(), state.rho.ravel(),
        state.omega[..., 0].ravel(), state.omega[..., 1].ravel(),
        state.omega[..., 2].ravel(),
    ])
    np.savetxt(path, cols, delimiter=",", header=FIELD_CSV_HEADER, comments="",
               fmt="%.17g")


def load_field_csv(path) -> FieldState:
    """Read a field state back; the lattice is reconstructed from coordinates."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 7:
        raise FieldStateError(f"expected 7 columns ({FIELD_CSV_HEADER}), got {data.shape[1]}")
    axes = []
    for col in range(3):
        vals = np.unique(np.round(data[:, col], 12))
        axes.append(vals)
    shape = tuple(len(a) for a in axes)
    if int(np.prod(shape)) != data.shape[0]:
        raise FieldStateError(
            f"rows ({data.shape[0]}) do not fill a {shape} lattice")
    spacing = tuple(
        float(a[1] - a[0]) if len(a) > 1 else 1.0 for a in axes)
    order = np.lexsort((data[:, 2], data[:, 1], data[:, 0]))
    data = data[order]
    grid = Grid(shape=shape, spacing=spacing)
    rho = data[:, 3].reshape(shape)
    omega = data[:, 4:7].reshape(shape + (3,))
    return FieldState(grid=grid, rho=rho, omega=omega).validate()


def save_field_npz(state: FieldState, path):
    np.savez(path, shape=np.array(state.grid.shape),
             spacing=np.array(state.grid.spacing), rho=state.rho, omega=state.omega)


def load_field_npz(path) -> FieldState:
    with np.load(path) as data:
        grid = Grid(shape=tuple(int(v) for v in data["shape"]),
                    spacing=tuple(float(v) for v in data["spacing"]))
        return FieldState(grid=grid, rho=data["rho"], omega=data["omega"]).validate()
