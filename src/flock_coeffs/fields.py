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

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
        if not all(0 < h < math.inf for h in self.spacing):  # also rejects NaN
            raise GridShapeError(f"grid spacing must be positive and finite, got {self.spacing}")

    @property
    def lengths(self):
        return tuple(n * h for n, h in zip(self.shape, self.spacing))

    def coordinates(self):
        axes = [np.arange(n) * h for n, h in zip(self.shape, self.spacing)]
        return np.meshgrid(*axes, indexing="ij")

    def axes(self):
        """The coordinates of `coordinates()` on one axis each, shaped
        (n0, 1, 1), (1, n1, 1) and (1, 1, n2) to broadcast against the grid."""
        return [(np.arange(n) * h).reshape([n if i == ax else 1 for i in range(3)])
                for ax, (n, h) in enumerate(zip(self.shape, self.spacing))]


@dataclass
class FieldState:
    """Density rho >= 0 and unit orientation omega per cell (shape + (3,))."""

    grid: Grid
    rho: np.ndarray
    omega: np.ndarray

    def validate(self):
        self._validated_min_density()
        return self

    def _validated_min_density(self) -> float:
        """Run the checks of validate; returns min rho, so callers that need
        a stricter density bound reduce the grid only once."""
        if self.rho.shape != self.grid.shape:
            raise GridShapeError(
                f"rho shape {self.rho.shape} != grid shape {self.grid.shape}")
        if self.omega.shape != self.grid.shape + (3,):
            raise GridShapeError(
                f"omega shape {self.omega.shape} != grid shape {self.grid.shape} + (3,)")
        # | |omega| - 1 | and the range of rho in one pass over slabs of whole
        # planes, so that no grid-sized temporary is allocated; the checks
        # are written so that NaN fails them
        step = _slab_planes(self.grid)
        rho_min = math.inf
        for i0 in range(0, self.grid.shape[0], step):
            slab = self.omega[i0:i0 + step]
            dev = np.einsum("...i,...i->...", slab, slab, dtype=float)
            np.sqrt(dev, out=dev)
            np.subtract(dev, 1.0, out=dev)
            np.abs(dev, out=dev)
            if not dev.max() <= UNIT_NORM_TOL:
                idx = _cell(i0, dev, int(dev.argmax()))
                raise FieldStateError(
                    f"orientation not unit at cell {idx}: "
                    f"|omega| = {np.linalg.norm(self.omega[idx]):.12f}")
            rho = self.rho[i0:i0 + step]
            lo, hi = float(rho.min()), float(rho.max())
            if not (lo >= 0 and hi < math.inf):
                finite = np.isfinite(rho)
                if finite.all():
                    what, flat = "negative", int(rho.argmin())
                else:
                    what, flat = "non-finite", int(finite.argmin())
                idx = _cell(i0, rho, flat)
                raise FieldStateError(f"{what} density at cell {idx}: {self.rho[idx]:.6e}")
            rho_min = min(rho_min, lo)
        return rho_min


def _cell(i0, slab, flat):
    """The grid cell of the flat index `flat` into a slab starting at plane i0."""
    i, j, k = (int(c) for c in np.unravel_index(flat, slab.shape))
    return (i0 + i, j, k)


@dataclass
class GradientBundle:
    """First derivatives of (rho, omega) split along/normal to omega.

    scheme_order  : finite-difference order (2 or 4) the bundle was built
                    with; evaluate_r1, evaluate_r2 and r2_terms differentiate
                    bundle entries with the same stencil
    rows          : the 17 packed scalar rows, shape (17,) + grid, that
                    decompose_gradients writes: grad_perp_rho (3),
                    par_grad_rho, omega_tilt (3), div_omega, sigma_omega's
                    six unique entries and gamma_omega's three above the
                    diagonal

    The entries are read as properties:

    grad_perp_rho : transverse density gradient (3-vector per cell)
    par_grad_rho  : omega . grad rho (scalar)
    omega_tilt    : (omega . grad) omega, projected transverse (3-vector)
    div_omega     : trace of the transverse-transverse orientation gradient
    sigma_omega   : symmetric traceless shear block (3x3, transverse plane)
    gamma_omega   : antisymmetric swirl block (3x3, transverse plane)

    The vectors and scalars are views of `rows`: np.moveaxis views with the
    shape grid + (3,), not C-contiguous, and C-contiguous grid arrays.  The
    two tensors are not stored: each access builds a new grid + (3, 3)
    array (a view of (3, 3, ...) storage) from the packed rows, sigma's
    lower triangle by copy and gamma's by negation, with gamma's diagonal
    exact zeros.  evaluate_r1, evaluate_r2 and r2_terms read the packed
    rows themselves.
    """

    scheme_order: int
    rows: np.ndarray

    grad_perp_rho = property(lambda self: np.moveaxis(_bundle_rows(self.rows).gperp, 0, -1))
    par_grad_rho = property(lambda self: _bundle_rows(self.rows).dpar)
    omega_tilt = property(lambda self: np.moveaxis(_bundle_rows(self.rows).tilt, 0, -1))
    div_omega = property(lambda self: _bundle_rows(self.rows).divo)
    sigma_omega = property(lambda self: self._tensor(antisymmetric=False))
    gamma_omega = property(lambda self: self._tensor(antisymmetric=True))

    def _tensor(self, antisymmetric):
        packed = _bundle_rows(self.rows)
        stored = packed.gam if antisymmetric else packed.sig
        out = np.empty((3, 3) + self.rows.shape[1:])
        for j in range(3):
            for k in range(3):
                row, sign = _packed(j, k)
                if not antisymmetric or sign > 0:
                    out[j, k] = stored[row]
                elif sign < 0:
                    np.negative(stored[row], out=out[j, k])
                else:
                    out[j, k] = 0.0
        return np.moveaxis(out, (0, 1), (-2, -1))


@dataclass
class CorrectionFields:
    """Pointwise corrections: scalar r1 and vector r2 with omega . r2 = 0.

    r2 has the shape grid + (3,); evaluate_r2 builds it component-major, so
    it is a view of (3, ...) storage and not C-contiguous.
    """

    r1: np.ndarray
    r2: np.ndarray


# Cells per slab when make_field, FieldState.validate, decompose_gradients
# and evaluate_corrections stream the grid along axis 0: a slab is this many
# cells' worth of whole planes (at least one).  A scalar over 2**15 cells is
# 256 KiB, so the operands of the pointwise operations stay in a core's L2
# cache instead of the whole grid streaming through memory once per numpy
# operation.
SLAB_CELLS = 2 ** 15


def _slab_planes(grid):
    """Whole axis-0 planes per slab: SLAB_CELLS cells' worth, at least one."""
    return max(1, SLAB_CELLS // (grid.shape[1] * grid.shape[2]))


def _stencil(tap, h, order, out=None):
    """The centered difference of order 2 or 4 from tap(s), the values s
    cells along the axis, written into `out` when one is given."""
    if order == 2:
        out = np.subtract(tap(1), tap(-1), out=out)
    else:
        # 8 tap(1) - tap(2) is -tap(2) + 8 tap(1) to the bit, and np.negative is
        # avoided: numpy 2.4 gets it wrong when input and output have a 64-byte stride
        out = np.multiply(tap(1), 8.0, out=out)
        out -= tap(2)
        out -= 8.0 * tap(-1)
        out += tap(-2)
    out /= (2.0 if order == 2 else 12.0) * h
    return out


def _difference(padded, h, order, out=None, stride=1):
    """Centered difference along axis 0 of values that carry order // 2
    stencil steps of `stride` cells at each end of that axis; the result
    leaves those cells out: tap(s)[i] = values[i + s * stride]."""
    n = len(padded) - order * stride
    return _stencil(lambda s: padded[(order // 2 + s) * stride:][:n], h, order, out)


def _periodic_difference(values, axis, h, order, out=None):
    """deriv, written into `out` (C-contiguous) when one is given.

    The stencil runs once over the flattened array, shifted by the axis's
    stride, so every numpy operation is one contiguous pass; that is right
    except in the order // 2 cells at each end of the axis, which are then
    redone one at a time from views of the cells their taps wrap to.  An
    axis of at most `order` cells is done cell by cell throughout.
    """
    n = values.shape[axis]
    if out is None:
        out = np.empty(values.shape)
    if n == 1:
        out[...] = 0.0
        return out
    w, cells = order // 2, range(n)
    if n > 2 * w:
        stride = math.prod(values.shape[axis + 1:])
        flat = out.reshape(-1)
        _difference(values.reshape(-1), h, order, stride=stride,
                    out=flat[w * stride:flat.size - w * stride])
        cells = (*range(w), *range(n - w, n))
    lead = (slice(None),) * axis  # a[lead + (k, None)]: the cell k, a view keeping the axis
    for i in cells:
        _stencil(lambda s, i=i: values[lead + ((i + s) % n, None)], h, order,
                 out=out[lead + (i, None)])
    return out


def deriv(values: np.ndarray, axis: int, h: float, order: int = 2) -> np.ndarray:
    """Centered periodic finite difference along `axis` (order 2 or 4, a
    negative axis counting from the end): to the bit (v[i+1] - v[i-1]) / (2h)
    or (-v[i+2] + 8 v[i+1] - 8 v[i-1] + v[i-2]) / (12h) on np.roll shifts v,
    on every extent.  An axis of extent 1 is constant and has a zero derivative.
    """
    _check_order(order)
    return _periodic_difference(values, range(values.ndim)[axis], h, order)


def _check_order(order):
    if order not in (2, 4):
        raise DomainError(f"scheme order must be 2 or 4, got {order}")


@dataclass(frozen=True)
class _Stencil:
    """Derivatives on a slab of whole planes along grid axis 0.

    With halo 0 the slab is the whole periodic grid and every axis wraps.
    With halo w = order // 2 the slab carries w planes on each side of axis 0
    for every derivative level still to come: an axis-0 derivative consumes
    them, and derivatives along axes 1 and 2 are taken on the inner planes
    only.  Either way d(values, j) lies on the planes of inner(values).
    """

    spacing: tuple
    order: int
    halo: int

    def inner(self, values):
        """The planes of `values` one level in (grid axis 0 is array axis -3)."""
        t = self.halo
        return values[..., t:values.shape[-3] - t, :, :]

    def reads(self, values, j):
        """The planes of `values` that d(values, j) reads: all of them for
        an axis-0 derivative with a halo, the inner ones otherwise.  A
        product that is only differentiated need only be formed there."""
        return values if j == 0 and self.halo else self.inner(values)

    def d(self, values, j, out=None):
        if j == 0 and self.halo:
            return _difference(values, self.spacing[0], self.order, out=out)
        return _periodic_difference(self.inner(values), j, self.spacing[j], self.order,
                                    out=out)


# The pointwise algebra below keeps the operation order of the plain
# expressions in its comments, so every cell gets the same bits; it writes
# into temporaries it owns to save allocations and memory traffic.

def _vector_components(vec):
    """Component-major (3, ...) view of a grid + (3,) field."""
    return np.moveaxis(vec, -1, 0)


def _dot(u, v, out=None, tmp=None):
    """u[0] * v[0] + u[1] * v[1] + u[2] * v[2], written into `out` when one is
    given; `tmp`, when given, is scratch of the same shape."""
    out = np.multiply(u[0], v[0], out=out)
    tmp = np.multiply(u[1], v[1], out=tmp)
    out += tmp
    out += np.multiply(u[2], v[2], out=tmp)
    return out


def _omega_components(state):
    """The orientation as a contiguous component-major (3, ...) array."""
    return np.ascontiguousarray(_vector_components(state.omega))


def _project_perp(omega, vec, out):
    """(Id - omega otimes omega) vec on components, exact pointwise algebra:
    out[k] = vec[k] - (vec . omega) * omega[k]; `out` may be `vec`."""
    along = _dot(vec, omega)
    tmp = np.empty_like(along)
    for k in range(3):
        np.subtract(vec[k], np.multiply(along, omega[k], out=tmp), out=out[k])
    return out


def _check_state(state, scheme_order) -> float:
    """Validate the state and the scheme order; returns min rho."""
    rho_min = state._validated_min_density()
    _check_order(scheme_order)
    if scheme_order == 4 and any(1 < n < 5 for n in state.grid.shape):
        raise DomainError("order-4 stencil needs periodic extents of >= 5 cells (or 1)")
    return rho_min


def _check_positive_density(rho_min):
    if rho_min <= 0:
        raise FieldStateError("velocity correction needs strictly positive density")


class _Bundle(NamedTuple):
    """The bundle entries, component-major (see GradientBundle), with sigma
    and gamma by their unique entries: sig holds sigma's six rows and gam
    gamma's three, in the order of _UPPER (see _packed)."""

    gperp: np.ndarray
    dpar: np.ndarray
    tilt: np.ndarray
    divo: np.ndarray
    sig: np.ndarray
    gam: np.ndarray


# the entry (j, k) of each stored row of sigma; gamma stores the first three
_UPPER = ((0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2))


def _packed(j, k):
    """(row, sign) of the entry (j, k): sigma[j, k] = sig[row] and
    gamma[j, k] = sign * gam[row], where the sign is 1 above the diagonal,
    -1 below it and 0 on it (gamma's diagonal is zero and not stored)."""
    return _UPPER.index((min(j, k), max(j, k))), (k > j) - (j > k)


# the 17 scalar rows of a packed bundle: gperp, dpar, tilt, divo, sig, gam
_BUNDLE_ROWS = 17


def _bundle_rows(rows):
    """The _Bundle stored in the 17 rows (axis 0) of `rows`."""
    return _Bundle(rows[0:3], rows[3], rows[4:7], rows[7], rows[8:14], rows[14:17])


def _bundle_fields(rho, om, st, out):
    """Write the gradient bundle of decompose_gradients on the planes of
    st.inner(rho) into the _Bundle `out`, from rho and the component-major
    orientation om.  Every scalar of `out` is C-contiguous."""
    d = st.d
    om_halo, om = om, st.inner(om)
    tmp = np.empty(out.dpar.shape)
    # grad rho is formed in out.gperp and made transverse there
    grad_rho = out.gperp
    for j in range(3):
        d(rho, j, out=grad_rho[j])
    par_grad_rho = _dot(grad_rho, om, out=out.dpar, tmp=tmp)
    for k in range(3):
        grad_rho[k] -= np.multiply(par_grad_rho, om[k], out=tmp)

    # g[j][k] = d_j omega_k, formed in sigma's row of (j, k) for j <= k and
    # in gamma's row of (k, j) for j > k, and turned into the shear and the
    # swirl there.  a = omega^T g is (omega . grad) omega, formed in out.tilt
    # and made transverse there once g is done with it; b = g omega, and
    # c = omega . b lives in out.divo until div_omega replaces it
    g = [[(out.sig if j <= k else out.gam)[_packed(j, k)[0]] for k in range(3)]
         for j in range(3)]
    for j in range(3):
        for k in range(3):
            d(om_halo[k], j, out=g[j][k])
    del om_halo
    a = out.tilt
    for k in range(3):
        _dot(om, [g[0][k], g[1][k], g[2][k]], out=a[k], tmp=tmp)
    b = [_dot(g[j], om, tmp=tmp) for j in range(3)]
    c = _dot(om, b, out=out.divo, tmp=tmp)

    # transverse-transverse block P g P = g - omega a^T - b omega^T
    # + c omega omega^T, written over g one column k at a time, with
    # u = c omega_k - a_k
    u = np.empty_like(tmp)
    for k in range(3):
        np.subtract(np.multiply(c, om[k], out=tmp), a[k], out=u)
        for j in range(3):
            g[j][k] += np.multiply(om[j], u, out=tmp)
            g[j][k] -= np.multiply(b[j], om[k], out=tmp)
    del b, c
    _project_perp(om, a, out=a)
    div_omega = np.add(g[0][0], g[1][1], out=out.divo)
    div_omega += g[2][2]

    # sigma_jj = 2 g_jj - div_omega (1 - om_j om_j), and for j < k
    # s = g_jk + g_kj, gamma_jk = g_jk - g_kj over g_kj, then
    # sigma_jk = s + div_omega (om_j om_k) over g_jk; u's storage holds s
    s = u
    for j in range(3):
        np.multiply(g[j][j], 2.0, out=g[j][j])
        np.multiply(om[j], om[j], out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        g[j][j] -= np.multiply(div_omega, tmp, out=tmp)
        for k in range(j + 1, 3):
            np.add(g[j][k], g[k][j], out=s)
            np.subtract(g[j][k], g[k][j], out=g[k][j])
            np.multiply(om[j], om[k], out=tmp)
            np.add(s, np.multiply(div_omega, tmp, out=tmp), out=g[j][k])
    return out


def _r1_field(rho, om, bundle, beta, gamma, st):
    """R1 on the planes of st.inner(rho); rho, om and bundle share planes."""
    rho_div = rho * bundle.divo
    flux = np.empty(rho.shape)

    def divergence(scalar):
        """div(scalar * omega), summed onto the axis-0 term."""
        def term(ax):
            np.multiply(st.reads(scalar, ax), st.reads(om[ax], ax), out=st.reads(flux, ax))
            return st.d(flux, ax)

        div = term(0)
        div += term(1)
        div += term(2)
        return div

    return beta * divergence(bundle.dpar) + gamma * divergence(rho_div)


# R2 = D + Q.  Since zeta is constant, the structures are regrouped without
# changing their discretisation and the zeta (z_s = zeta[s - 1]) are folded
# into the factors:
#
#   D = P_perp(z5 (omega . grad) gperp + rho (z11 (omega . grad) tilt + div T)),
#       T = z12 sig + z13 gam + z2 divo Id
#   Q = (z1 divo + z7 dpar / rho) gperp + (z6 dpar + z8 rho divo) tilt
#       + sig (z3 gperp + z9 rho tilt) + gam (z4 gperp + z10 rho tilt)
#
# Both parts add into out[k] on the planes of st.inner(rho); rho, om and
# bundle share planes.  Q is transverse as it stands and D is projected once.

def _add_d(out, rho, om, bundle, st, zeta):
    """out += D: the second-derivative structures 2, 5, 11, 12 and 13, in 27
    derivatives and one transverse projection."""
    d = st.d
    z2, z5, z11, z12, z13 = (zeta[s - 1] for s in (2, 5, 11, 12, 13))
    rho_in, om_in = st.inner(rho), st.inner(om)
    tmp = np.empty(rho_in.shape)
    entry = np.empty(bundle.divo.shape)

    def along(zom, vec, k):
        """sum_j zom[j] d_j vec[k], with zom = z omega."""
        col = d(vec[k], 0)
        col *= zom[0]
        for j in (1, 2):
            x = d(vec[k], j, out=tmp)
            x *= zom[j]
            col += x
        return col

    def t_entry(j, k):
        """T_jk in entry, formed only on the planes that d(., j) reads; the
        swirl's diagonal is exact zeros and is left out, and its entry below
        the diagonal is subtracted as the stored one above it."""
        row, sign = _packed(j, k)
        t = np.multiply(st.reads(bundle.sig[row], j), z12, out=st.reads(entry, j))
        if sign == 0:
            t += st.reads(bundle.divo, j) * z2
        elif sign > 0:
            t += st.reads(bundle.gam[row], j) * z13
        else:
            t -= st.reads(bundle.gam[row], j) * z13
        return entry

    zom5, zom11 = ([om_in[j] * z for j in range(3)] for z in (z5, z11))
    cols = []
    for k in range(3):
        col = d(t_entry(0, k), 0)
        col += d(t_entry(1, k), 1)
        col += d(t_entry(2, k), 2)
        col += along(zom11, bundle.tilt, k)
        col *= rho_in
        cols.append(np.add(along(zom5, bundle.gperp, k), col, out=col))
    _project_perp(om_in, cols, out=cols)
    for k in range(3):
        out[k] += cols[k]


def _add_q(out, rho, om, bundle, st, zeta):
    """out += Q: the quadratic structures 1, 3, 4 and 6 to 10, pointwise
    products of bundle entries."""
    z1, z3, z4, z6, z7, z8, z9, z10 = (zeta[s - 1] for s in (1, 3, 4, 6, 7, 8, 9, 10))
    rho, gperp, tilt, dpar, divo = (st.inner(x) for x in (
        rho, bundle.gperp, bundle.tilt, bundle.dpar, bundle.divo))
    sig, gam = ([st.inner(x) for x in rows] for rows in (bundle.sig, bundle.gam))
    tmp = np.empty(dpar.shape)
    for vec, scale in ((gperp, divo * z1 + dpar / rho * z7),
                       (tilt, dpar * z6 + rho * divo * z8)):
        for k in range(3):
            out[k] += np.multiply(scale, vec[k], out=tmp)
    # sigma is symmetric; the swirl's diagonal is exact zeros and is left
    # out, and its entry below the diagonal is subtracted as the one above
    for tens, signed, z_gperp, z_tilt in ((sig, False, z3, z9), (gam, True, z4, z10)):
        vec = [gperp[k] * z_gperp + rho * tilt[k] * z_tilt for k in range(3)]
        for j in range(3):
            for k in range(3):
                row, sign = _packed(j, k)
                if not signed or sign > 0:
                    out[j] += np.multiply(tens[row], vec[k], out=tmp)
                elif sign < 0:
                    out[j] -= np.multiply(tens[row], vec[k], out=tmp)


def _add_r2(out, rho, om, bundle, st, zeta):
    """out += R2 = D + Q, sum_s zeta[s - 1] * T_s over the 13 structures."""
    _add_d(out, rho, om, bundle, st, zeta)
    _add_q(out, rho, om, bundle, st, zeta)


def _whole_grid(state, order):
    """The stencil of the whole grid taken as one periodic slab."""
    return _Stencil(state.grid.spacing, order, 0)


def decompose_gradients(state: FieldState, scheme_order: int = 2) -> GradientBundle:
    """Finite-difference gradients followed by exact tensor projections.

    The transverse-transverse orientation block is projected on both sides,
    its trace defines div_omega, and the shear/swirl split is taken as the
    definition (so the reassembly identities hold exactly).

    The bundle is formed slab by slab (_slabs, about SLAB_CELLS cells of
    whole axis-0 planes each) from rho and omega on the slab's planes plus
    one derivative level of halo, straight into the 17 packed rows the
    GradientBundle holds, as _bundle_fields forms them.  Every cell sees the
    same operations as on the whole grid, so the result does not depend on
    the slab size.
    """
    _check_state(state, scheme_order)
    rows = np.empty((_BUNDLE_ROWS,) + state.grid.shape)
    for i0, i1, rho, om, st in _slabs(state, scheme_order, 1):
        _bundle_fields(rho, om, st, _bundle_rows(rows[:, i0:i1]))
    return GradientBundle(scheme_order=scheme_order, rows=rows)


def evaluate_r1(state: FieldState, bundle: GradientBundle, beta: float,
                gamma: float) -> np.ndarray:
    """Mass-equation correction field, at the bundle's scheme order."""
    _check_bundle(state, bundle)
    return _r1_field(state.rho, _omega_components(state), _bundle_rows(bundle.rows),
                     beta, gamma, _whole_grid(state, bundle.scheme_order))


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


def _r2_on_grid(add, state, bundle, zeta):
    """add(out, ..., zeta), one of the R2 parts, on the whole grid into zeroed
    (3, ...) storage, returned as a grid + (3,) view."""
    _check_bundle(state, bundle)
    _check_positive_density(state.rho.min())
    out = np.zeros((3,) + state.grid.shape)
    add(out, state.rho, _omega_components(state), _bundle_rows(bundle.rows),
        _whole_grid(state, bundle.scheme_order), zeta)
    return np.moveaxis(out, 0, -1)


def r2_terms(state: FieldState, bundle: GradientBundle) -> dict:
    """The 13 tensor structures of the velocity correction, slot -> field.

    Structure s is the R2 part that its R2_TERM_TAGS tag names, run with the
    unit vector e_s as zeta: a second-derivative structure costs the 27
    derivatives and the transverse projection of the whole D part, a
    quadratic one the pointwise products of the Q part.  Every returned
    field is orthogonal to omega and has the shape grid + (3,), as a view of
    (3, ...) storage.
    """
    part = {"quadratic": _add_q, "derivative": _add_d}
    unit = np.eye(13)
    return {s: _r2_on_grid(part[tag], state, bundle, unit[s - 1])
            for s, tag in R2_TERM_TAGS.items()}


def _zeta_vector(coeffs):
    zeta = np.asarray(getattr(coeffs, "zeta", coeffs), dtype=float)
    if zeta.shape != (13,):
        raise DomainError(f"expected 13 coefficients, got shape {zeta.shape}")
    return zeta


def evaluate_r2(state: FieldState, bundle: GradientBundle, coeffs) -> np.ndarray:
    """Velocity-equation correction field: sum of zeta_j times structure j.

    `coeffs` is either a coefficient-set object exposing `.zeta` or a plain
    13-vector.  Linear in the zeta vector by construction.  The structures
    are formed in merged groups with the zeta folded into their factors
    (27 derivatives and one transverse projection, see _add_d); second
    derivatives use the bundle's scheme order.
    """
    return _r2_on_grid(_add_r2, state, bundle, _zeta_vector(coeffs))


def _gather_planes(src, start, out):
    """out[i] = src[(start + i) % n] for the planes i of out (axis 0), with
    n = len(src), copied run by run of consecutive planes."""
    n = len(src)
    i = 0
    while i < len(out):
        j = (start + i) % n
        run = min(len(out) - i, n - j)
        out[i:i + run] = src[j:j + run]
        i += run


def _slabs(state, order, levels):
    """Yield (i0, i1, rho, om, stencil) for the slabs [i0, i1) along axis 0.

    rho and the component-major om cover the slab's planes plus a halo of
    `levels` derivative levels, taken periodically; they are views of two
    buffers allocated once and refilled in one copy per slab, so each slab's
    pair is valid until the next is yielded.  A slab has _slab_planes planes,
    but at least the 2w, w = order // 2, that one halo level adds.  A grid of
    at most one slab's planes is one slab with no halo that wraps like the
    whole-grid path.
    """
    n0 = state.grid.shape[0]
    w = order // 2
    planes = max(_slab_planes(state.grid), 2 * w)
    if n0 <= planes:
        yield 0, n0, state.rho, _omega_components(state), _whole_grid(state, order)
        return
    st = _Stencil(state.grid.spacing, order, w)
    rho_buf = np.empty((planes + 2 * levels * w,) + state.grid.shape[1:])
    om_buf = np.empty((3,) + rho_buf.shape)
    for i0 in range(0, n0, planes):
        i1 = min(i0 + planes, n0)
        m = i1 - i0 + 2 * levels * w
        rho, om = rho_buf[:m], om_buf[:, :m]
        _gather_planes(state.rho, i0 - levels * w, rho)
        _gather_planes(state.omega, i0 - levels * w, np.moveaxis(om, 0, -1))
        yield i0, i1, rho, om, st


def evaluate_corrections(state: FieldState, coeffs, scheme_order: int = 2,
                         eps: float = 1.0) -> CorrectionFields:
    """Both corrections, scaled by the (finite) scale-ratio eps used for reporting.

    The state checks run once on the whole grid.  Then the grid is streamed
    in slabs of whole planes along axis 0, about SLAB_CELLS cells each,
    through one workspace allocated per call: a slab's bundle covers its
    planes plus one derivative level of halo, of which the 2w planes shared
    with the previous slab are moved to the front of the workspace rather
    than formed again, and its R1 and R2 are formed on its own planes and
    written once, scaled by eps, into the outputs (eps is folded into the
    zeta of R2).  Every cell sees the same operations in the same order as
    in decompose_gradients, evaluate_r1 and, for eps = 1, evaluate_r2, so
    the result does not depend on the slab size.
    """
    if not math.isfinite(eps):
        raise DomainError(f"eps must be finite, got {eps}")
    rho_min = _check_state(state, scheme_order)
    beta, gamma = coeffs.beta, coeffs.gamma
    zeta = _zeta_vector(coeffs) * eps
    _check_positive_density(rho_min)
    # r1 and r2 in one allocation: a separate grid-sized r1 landed on the
    # heap between r2 and the caller's temporaries, and over repeated calls
    # the holes it left raised the peak RSS by about one grid array
    block = np.zeros((4,) + state.grid.shape)
    r1, r2 = block[0], block[1:]
    rows = None
    for i0, i1, rho, om, st in _slabs(state, scheme_order, 2):
        t = 2 * st.halo
        m = len(rho) - t
        if rows is None:
            # the first slab is the largest
            rows = np.empty((_BUNDLE_ROWS, m) + state.grid.shape[1:])
            _bundle_fields(rho, om, st, _bundle_rows(rows))
        else:
            # the previous slab's last t bundle planes are this slab's first,
            # moved row by row: the source and target blocks of one
            # assignment over all rows would share a memory extent, and
            # numpy would copy the source through a temporary first
            for row in rows:
                row[:t] = row[last - t:last]
            _bundle_fields(rho[t:], om[:, t:], st, _bundle_rows(rows[:, t:m]))
        last = m
        bundle = _bundle_rows(rows[:, :m])
        rho, om = st.inner(rho), st.inner(om)
        np.multiply(_r1_field(rho, om, bundle, beta, gamma, st), eps, out=r1[i0:i1])
        _add_r2(r2[:, i0:i1], rho, om, bundle, st, zeta)
    return CorrectionFields(r1=r1, r2=np.moveaxis(r2, 0, -1))


# --- analytic test fields ------------------------------------------------------

def _random_smooth(grid, lengths, rng, rho, omega):
    """Write the random-smooth field into the grid array `rho` and the
    grid + (3,) array `omega`:

        rho = 1.5 + 0.4 cos(kx x) sin(kz z) + 0.2 cos(ky y),
        v = 2 z-hat + sum of four modes amp cos(kx' x + px) cos(ky' y + py)
            sin(kz' z + pz),   omega = v / |v|,

    with k = 2 pi / L on each axis and each mode's amp, integer wave
    multipliers (k' = multiplier * k) and phases drawn in that order from
    `rng`.  The field is built one slab of whole axis-0 planes at a time, v
    in three contiguous component slabs, and each output plane is written
    once; each cell gets the operations of the whole-grid expressions, |v|^2
    summed over the components in order, so the result does not depend on
    the slab size.
    """
    modes = [(0.25 * rng.standard_normal(3), rng.integers(1, 3, size=3),
              rng.uniform(0, 2 * np.pi, size=3)) for _ in range(4)]
    x, y, z = grid.axes()
    kx, ky, kz = (2 * np.pi / L for L in lengths)
    factors = [(amp, np.cos(kv[0] * kx * x + ph[0]), np.cos(kv[1] * ky * y + ph[1]),
                np.sin(kv[2] * kz * z + ph[2])) for amp, kv, ph in modes]
    rho_xz, rho_y = 1.5 + 0.4 * np.cos(kx * x) * np.sin(kz * z), 0.2 * np.cos(ky * y)
    step = _slab_planes(grid)
    work = np.empty((5, step) + grid.shape[1:])
    for i0 in range(0, grid.shape[0], step):
        i1 = min(i0 + step, grid.shape[0])
        np.add(rho_xz[i0:i1], rho_y, out=rho[i0:i1])
        v, mode, tmp = work[:3, :i1 - i0], work[3, :i1 - i0], work[4, :i1 - i0]
        v[:2] = 0.0
        v[2] = 2.0
        for amp, fx, fy, fz in factors:
            np.multiply(fx[i0:i1] * fy, fz, out=mode)
            for k in range(3):
                v[k] += np.multiply(amp[k], mode, out=tmp)
        norm = np.sqrt(_dot(v, v, out=mode, tmp=tmp), out=mode)
        for k in range(3):
            np.divide(v[k], norm, out=omega[i0:i1, ..., k])


# each field of make_field -> its parameters and their defaults
FIELD_PARAMS = {"uniform": {"rho": 1.0}, "axial-sine": {"amplitude": 1.0},
                "tilt-sine": {"alpha0": 0.7}, "random-smooth": {}}


def make_field(name: str, shape=(16, 16, 16), lengths=None, params=None,
               seed: int = 0) -> FieldState:
    """Named analytic field states on a periodic box.

    uniform       constant rho and omega
    axial-sine    omega = z-hat, rho = 2 + sin z         (params: amplitude)
    tilt-sine     omega tilts in the x-z plane with z, rho = 1
                  (params: alpha0, default 0.7)
    random-smooth seeded band-limited unit field, rho bounded away from 0

    FIELD_PARAMS holds each field's parameters and their defaults; an unknown
    name, or a parameter its field does not take, raises DomainError.
    """
    if lengths is None:
        lengths = (2 * np.pi,) * 3
    shape = tuple(int(n) for n in shape)
    if min(shape) < 1:
        raise GridShapeError(f"bad grid shape {shape}")
    grid = Grid(shape=shape, spacing=tuple(L / n for L, n in zip(lengths, shape)))
    x, y, z = grid.axes()
    if name not in FIELD_PARAMS:
        raise DomainError(f"unknown field {name!r}; known: {', '.join(FIELD_PARAMS)}")
    unknown = [key for key in params or {} if key not in FIELD_PARAMS[name]]
    if unknown:
        raise DomainError(f"field {name} takes no parameter {unknown[0]!r}; "
                          f"it takes {', '.join(FIELD_PARAMS[name]) or 'none'}")
    params = {key: float(v) for key, v in {**FIELD_PARAMS[name], **(params or {})}.items()}
    omega = np.zeros(shape + (3,))

    # every factor is evaluated on its own axis and broadcast; each cell gets
    # the same operations as on full coordinate arrays
    if name == "uniform":
        rho = np.full(shape, params["rho"])
        omega[..., 2] = 1.0
    elif name == "axial-sine":
        rho = np.empty(shape)
        rho[...] = 2.0 + params["amplitude"] * np.sin(2 * np.pi * z / lengths[2])
        omega[..., 2] = 1.0
    elif name == "tilt-sine":
        alpha = params["alpha0"] * np.sin(2 * np.pi * z / lengths[2])
        rho = np.ones(shape)
        omega[..., 0] = np.sin(alpha)
        omega[..., 2] = np.cos(alpha)
    else:  # random-smooth
        if seed < 0:
            raise DomainError(f"seed must be non-negative, got {seed}")
        rho = np.empty(shape)
        _random_smooth(grid, lengths, np.random.default_rng(seed), rho, omega)
    return FieldState(grid=grid, rho=rho, omega=omega).validate()


# --- field I/O -----------------------------------------------------------------

FIELD_CSV_HEADER = "x,y,z,rho,ox,oy,oz"


def _save_csv(path, header: str, columns):
    """Write the arrays `columns`, each raveled to one column, as a CSV table
    of %.17g numbers under the one-line `header`."""
    np.savetxt(path, np.column_stack([np.ravel(c) for c in columns]), delimiter=",",
               header=header, comments="", fmt="%.17g")


def save_field_csv(state: FieldState, path):
    _save_csv(path, FIELD_CSV_HEADER,
              (*state.grid.coordinates(), state.rho, *np.moveaxis(state.omega, -1, 0)))


def load_field_csv(path) -> FieldState:
    """Read a field state back; the lattice is reconstructed from coordinates."""
    try:
        rows = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FieldStateError(f"cannot read field CSV {path}: {exc}") from None
    if not any(row.strip() for row in rows[1:]):
        raise FieldStateError(f"field CSV {path} holds no data rows below its header")
    try:
        data = np.loadtxt(rows, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise FieldStateError(f"cannot read field CSV {path}: {exc}") from None
    if data.shape[1] != 7:
        raise FieldStateError(f"expected 7 columns ({FIELD_CSV_HEADER}), got {data.shape[1]}")
    axes, index, spacing = [], [], []
    for col, name in enumerate("xyz"):
        coord = data[:, col]
        bad = ~np.isfinite(coord)
        if bad.any():
            raise FieldStateError(f"field CSV {path}: coordinate {name} is not finite "
                                  f"in data row {int(bad.argmax()) + 1}")
        lo, extent = coord.min(), coord.max() - coord.min()
        # coordinates that agree to 1e-12 of the axis's extent are one
        # lattice plane, whatever the spacing's magnitude
        keys = np.round((coord - lo) / extent, 12) if extent > 0 else np.zeros_like(coord)
        _, first, idx = np.unique(keys, return_index=True, return_inverse=True)
        vals = coord[first]
        # coordinates i * spacing: the gaps agree up to the rounding above
        gaps = np.diff(vals)
        off = np.abs(gaps - gaps[:1])
        if off.size and off.max() > 1e-9 * gaps[0] + 3e-12 * extent:
            j = int(off.argmax())
            raise FieldStateError(
                f"field CSV {path}: axis {name} is not uniform: gap {gaps[j]:g} "
                f"after {name} = {vals[j]:g}, against spacing {gaps[0]:g}")
        axes.append(vals)
        index.append(idx)
        spacing.append(float(extent) / (len(vals) - 1) if len(vals) > 1 else 1.0)
    shape = tuple(len(a) for a in axes)
    size = int(np.prod(shape))
    if size != data.shape[0]:
        raise FieldStateError(
            f"rows ({data.shape[0]}) do not fill a {shape} lattice")
    cell = np.ravel_multi_index(index, shape)
    count = np.bincount(cell, minlength=size).reshape(shape)
    if (count != 1).any():  # as many rows as cells: a repeat leaves a gap
        twice, missing = int((count > 1).argmax()), int((count == 0).argmax())
        raise FieldStateError(
            f"field CSV {path}: cell {_cell(0, count, twice)} appears "
            f"{count.flat[twice]} times and cell {_cell(0, count, missing)} is missing")
    grid = Grid(shape=shape, spacing=tuple(spacing))
    ordered = np.empty_like(data)
    ordered[cell] = data
    rho = ordered[:, 3].reshape(shape)
    omega = ordered[:, 4:7].reshape(shape + (3,))
    return FieldState(grid=grid, rho=rho, omega=omega).validate()


def save_field_npz(state: FieldState, path):
    np.savez(path, shape=np.array(state.grid.shape),
             spacing=np.array(state.grid.spacing), rho=state.rho, omega=state.omega)


# the arrays save_field_npz writes
FIELD_NPZ_KEYS = ("shape", "spacing", "rho", "omega")


def load_field_npz(path) -> FieldState:
    """Read a field state written by save_field_npz.  A path that cannot be
    read, a file that is not an npz archive, an archive without one of
    FIELD_NPZ_KEYS and one whose arrays are not real numbers (the shape
    integers) raise FieldStateError naming the path."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise FieldStateError(f"cannot read field npz {path}: {exc}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise FieldStateError(f"field npz {path} is a single array, not an npz archive")
    with data:
        missing = [key for key in FIELD_NPZ_KEYS if key not in data.files]
        if missing:
            raise FieldStateError(f"field npz {path} has no {', '.join(missing)} "
                                  f"(expected {', '.join(FIELD_NPZ_KEYS)})")
        try:
            shape, spacing, rho, omega = (data[key] for key in FIELD_NPZ_KEYS)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise FieldStateError(f"cannot read field npz {path}: {exc}") from None
    for key, value in zip(FIELD_NPZ_KEYS, (shape, spacing, rho, omega)):
        if value.dtype.kind not in ("iu" if key == "shape" else "iuf"):
            raise FieldStateError(f"field npz {path}: {key} holds {value.dtype} values, "
                                  f"not {'integers' if key == 'shape' else 'real numbers'}")
    grid = Grid(shape=tuple(int(v) for v in shape), spacing=tuple(float(v) for v in spacing))
    return FieldState(grid=grid, rho=rho, omega=omega).validate()
