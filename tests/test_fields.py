import hashlib
import itertools
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from flock_coeffs import fields
from flock_coeffs.errors import DomainError, FieldStateError
from flock_coeffs.fields import (
    FIELD_CSV_HEADER,
    FieldState,
    Grid,
    R2_TERM_TAGS,
    decompose_gradients,
    deriv,
    evaluate_corrections,
    evaluate_r1,
    evaluate_r2,
    load_field_csv,
    load_field_npz,
    make_field,
    r2_terms,
    save_field_csv,
    save_field_npz,
)

TWO_PI = 2 * np.pi


def curl_of(state, order=2):
    o, g = state.omega, state.grid
    c = np.empty_like(o)
    c[..., 0] = deriv(o[..., 2], 1, g.spacing[1], order) - deriv(o[..., 1], 2, g.spacing[2], order)
    c[..., 1] = deriv(o[..., 0], 2, g.spacing[2], order) - deriv(o[..., 2], 0, g.spacing[0], order)
    c[..., 2] = deriv(o[..., 1], 0, g.spacing[0], order) - deriv(o[..., 0], 1, g.spacing[1], order)
    return c


def test_uniform_state_every_output_zero():
    state = make_field("uniform", (6, 6, 6))
    bundle = decompose_gradients(state)
    for arr in (bundle.grad_perp_rho, bundle.par_grad_rho, bundle.omega_tilt,
                bundle.div_omega, bundle.sigma_omega, bundle.gamma_omega):
        assert np.abs(arr).max() == 0.0
    assert np.abs(evaluate_r1(state, bundle, 1.0, 1.0)).max() == 0.0
    assert np.abs(evaluate_r2(state, bundle, np.ones(13))).max() == 0.0


def test_non_unit_orientation_rejected_with_cell():
    state = make_field("uniform", (4, 4, 4))
    state.omega[1, 2, 3] *= 1.001
    with pytest.raises(FieldStateError, match=r"\(1, 2, 3\)"):
        state.validate()


def test_negative_density_rejected():
    state = make_field("uniform", (4, 4, 4))
    state.rho[0, 0, 1] = -0.5
    with pytest.raises(FieldStateError, match="negative density"):
        state.validate()


def test_bundle_transversality_invariants():
    state = make_field("random-smooth", (12, 12, 12), seed=2)
    b = decompose_gradients(state)
    om = state.omega
    scale = np.abs(b.grad_perp_rho).max() + np.abs(b.omega_tilt).max() + 1e-30
    assert np.abs(np.sum(b.grad_perp_rho * om, axis=-1)).max() / scale < 1e-9
    assert np.abs(np.sum(b.omega_tilt * om, axis=-1)).max() / scale < 1e-9
    smax = np.abs(b.sigma_omega).max() + 1e-30
    assert np.abs(np.einsum("...jk,...k->...j", b.sigma_omega, om)).max() / smax < 1e-9
    assert np.abs(np.einsum("...jk,...k->...j", b.gamma_omega, om)).max() / smax < 1e-9
    assert np.abs(np.einsum("...jj->...", b.sigma_omega)).max() / smax < 1e-9
    # symmetric / antisymmetric split
    assert np.abs(b.sigma_omega - b.sigma_omega.swapaxes(-1, -2)).max() < 1e-12
    assert np.abs(b.gamma_omega + b.gamma_omega.swapaxes(-1, -2)).max() < 1e-12


def tilt_field_exact(state, alpha0=0.7):
    z = state.grid.coordinates()[2]
    alpha = alpha0 * np.sin(z)
    ap = alpha0 * np.cos(z)
    return np.stack([np.cos(alpha) * ap * np.cos(alpha), np.zeros_like(z),
                     -np.cos(alpha) * ap * np.sin(alpha)], axis=-1)


@pytest.mark.parametrize("order,band", [(2, (3.5, 4.5)), (4, (13.0, 19.0))])
def test_tilt_closed_form_convergence(order, band):
    errs = []
    for n in (32, 64):
        state = make_field("tilt-sine", (1, 1, n), params={"alpha0": 0.7})
        b = decompose_gradients(state, scheme_order=order)
        errs.append(np.abs(b.omega_tilt - tilt_field_exact(state)).max())
    ratio = errs[0] / errs[1]
    assert band[0] <= ratio <= band[1]


def test_tilt_equals_curl_cross_identity():
    errs = []
    for n in (24, 48):
        state = make_field("random-smooth", (n, n, n), seed=4)
        b = decompose_gradients(state)
        diff = b.omega_tilt - np.cross(curl_of(state), state.omega)
        errs.append(float(np.sqrt(np.mean(diff**2))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_swirl_identity_is_exact_algebra():
    state = make_field("random-smooth", (16, 16, 16), seed=5)
    b = decompose_gradients(state)
    swirl = np.sum(curl_of(state) * state.omega, axis=-1)
    X = np.random.default_rng(1).standard_normal(3)
    lhs = np.einsum("...jk,k->...j", b.gamma_omega, X)
    rhs = swirl[..., None] * np.cross(X, state.omega)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_orientation_gradient_row_contraction_small():
    # (grad omega) omega = 0 holds only to scheme order off the nodes
    gaps = []
    for n in (16, 32):
        state = make_field("random-smooth", (n, n, n), seed=6)
        g = state.grid
        grad = np.empty(state.omega.shape[:-1] + (3, 3))
        for j in range(3):
            for k in range(3):
                grad[..., j, k] = deriv(state.omega[..., k], j, g.spacing[j], 2)
        contraction = np.einsum("...jk,...k->...j", grad, state.omega)
        gaps.append(np.abs(contraction).max() / np.abs(grad).max())
    assert gaps[0] < 0.1
    assert 2.0 < gaps[0] / gaps[1] < 8.0


def test_r1_axial_sine_closed_form():
    beta, gamma = 0.37, 0.91
    errs = []
    for n in (32, 64):
        state = make_field("axial-sine", (4, 4, n))
        b = decompose_gradients(state)
        r1 = evaluate_r1(state, b, beta, gamma)
        z = state.grid.coordinates()[2]
        errs.append(np.abs(r1 + beta * np.sin(z)).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert errs[1] < 5e-3


def test_r1_tilt_sine_swirl_free_route():
    # rho = 1: only the div(rho (div omega) omega) route contributes;
    # exact value -gamma (cos(2 alpha) alpha'^2 + sin(2 alpha) alpha''/2)
    gamma = 0.8
    alpha0 = 0.5
    errs = []
    for n in (48, 96):
        state = make_field("tilt-sine", (4, 4, n), params={"alpha0": alpha0})
        b = decompose_gradients(state)
        r1 = evaluate_r1(state, b, 0.41, gamma)
        z = state.grid.coordinates()[2]
        alpha = alpha0 * np.sin(z)
        ap = alpha0 * np.cos(z)
        app = -alpha0 * np.sin(z)
        exact = -gamma * (np.cos(2 * alpha) * ap**2 + 0.5 * np.sin(2 * alpha) * app)
        errs.append(np.abs(r1 - exact).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_r2_separable_parallel_gradient_slot():
    # only slot 5 active: transverse derivative of the transverse density
    # gradient along the mean direction; rho = 2 + sin x sin z, omega = z-hat
    # gives zeta5 * cos x cos z in the x component
    errs = []
    for n in (32, 64):
        grid = Grid((n, 1, n), (TWO_PI / n, 1.0, TWO_PI / n))
        x, y, z = grid.coordinates()
        omega = np.zeros((n, 1, n, 3))
        omega[..., 2] = 1.0
        state = FieldState(grid, 2.0 + np.sin(x) * np.sin(z), omega).validate()
        b = decompose_gradients(state)
        zeta = np.zeros(13)
        zeta[4] = 0.8
        r2 = evaluate_r2(state, b, zeta)
        exact = np.zeros_like(r2)
        exact[..., 0] = 0.8 * np.cos(x) * np.cos(z)
        assert np.abs(r2[..., 1:]).max() < 1e-14
        errs.append(np.abs(r2 - exact).max())
    assert errs[1] < 5e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_r2_orthogonal_to_orientation():
    state = make_field("random-smooth", (12, 12, 12), seed=7)
    b = decompose_gradients(state)
    rng = np.random.default_rng(2)
    r2 = evaluate_r2(state, b, rng.standard_normal(13))
    dots = np.abs(np.sum(r2 * state.omega, axis=-1))
    scale = np.linalg.norm(r2, axis=-1) + np.finfo(float).eps
    assert (dots / scale).max() < 1e-9


def test_r2_linear_in_coefficients():
    state = make_field("random-smooth", (10, 10, 10), seed=8)
    b = decompose_gradients(state)
    rng = np.random.default_rng(3)
    z1, z2 = rng.standard_normal(13), rng.standard_normal(13)
    gap = evaluate_r2(state, b, z1 + 3.0 * z2) \
        - evaluate_r2(state, b, z1) - 3.0 * evaluate_r2(state, b, z2)
    assert np.abs(gap).max() < 1e-12


def test_r2_structure_counts():
    state = make_field("random-smooth", (8, 8, 8), seed=9)
    terms = r2_terms(state, decompose_gradients(state))
    assert len(terms) == 13
    tags = [R2_TERM_TAGS[slot] for slot in sorted(terms)]
    assert tags.count("quadratic") == 8
    assert tags.count("derivative") == 5


def test_r2_superposition_over_slots():
    state = make_field("random-smooth", (8, 8, 8), seed=10)
    b = decompose_gradients(state)
    rng = np.random.default_rng(4)
    zeta = rng.standard_normal(13)
    total = evaluate_r2(state, b, zeta)
    per_slot = sum(zeta[s - 1] * t for s, t in r2_terms(state, b).items())
    assert np.abs(total - per_slot).max() < 1e-13


def test_fourth_order_scheme_available():
    state = make_field("axial-sine", (8, 8, 32))
    b = decompose_gradients(state, scheme_order=4)
    r1 = evaluate_r1(state, b, 0.5, 0.5)
    z = state.grid.coordinates()[2]
    assert np.abs(r1 + 0.5 * np.sin(z)).max() < 1e-4


def test_bad_scheme_order_rejected():
    state = make_field("uniform", (4, 4, 4))
    with pytest.raises(DomainError):
        decompose_gradients(state, scheme_order=3)


def test_degenerate_extents_axial():
    # 1-cell transverse axes behave as a 1D column
    n = 64
    grid = Grid((1, 1, n), (1.0, 1.0, TWO_PI / n))
    z = grid.coordinates()[2]
    omega = np.zeros((1, 1, n, 3))
    omega[..., 2] = 1.0
    state = FieldState(grid, 2.0 + np.sin(z), omega).validate()
    b = decompose_gradients(state)
    r1 = evaluate_r1(state, b, 0.25, 1.0)
    assert np.abs(r1 + 0.25 * np.sin(z)).max() < 2e-3


def test_corrections_scaled_by_eps(pipeline_even):
    state = make_field("random-smooth", (8, 8, 8), seed=11)
    hydro = pipeline_even["hydro"]
    c1 = evaluate_corrections(state, hydro, eps=1.0)
    c2 = evaluate_corrections(state, hydro, eps=0.25)
    assert np.allclose(0.25 * c1.r1, c2.r1, atol=1e-15)
    assert np.allclose(0.25 * c1.r2, c2.r2, atol=1e-15)


def test_csv_roundtrip_exact(tmp_path):
    state = make_field("random-smooth", (6, 5, 4), seed=12)
    path = tmp_path / "state.csv"
    save_field_csv(state, path)
    assert path.read_text().splitlines()[0] == FIELD_CSV_HEADER
    back = load_field_csv(path)
    assert back.grid.shape == state.grid.shape
    assert np.array_equal(back.rho, state.rho)
    assert np.array_equal(back.omega, state.omega)


def test_csv_load_reads_spacing_from_the_extent(tmp_path):
    # the spacing is the axis's extent / (n - 1), not a rounded first gap
    state = make_field("random-smooth", (12, 10, 8), seed=12)
    path = tmp_path / "state.csv"
    save_field_csv(state, path)
    back = load_field_csv(path)
    assert back.grid.shape == (12, 10, 8)
    for got, want in zip(back.grid.spacing, state.grid.spacing):
        assert abs(got - want) <= 4 * np.spacing(want)
    assert abs(back.grid.spacing[0] - np.pi / 6) <= 4 * np.spacing(np.pi / 6)


def test_csv_load_keeps_tiny_spacings(tmp_path):
    # a lattice of spacing 1e-13 is resolved relative to its own extent
    state = make_field("tilt-sine", (3, 2, 2), lengths=(3e-13, 2e-13, 2e-13))
    path = tmp_path / "tiny.csv"
    save_field_csv(state, path)
    back = load_field_csv(path)
    assert back.grid.shape == (3, 2, 2)
    assert np.allclose(back.grid.spacing, 1e-13, rtol=1e-12, atol=0)
    assert np.array_equal(back.rho, state.rho)
    assert np.array_equal(back.omega, state.omega)


def test_csv_load_rejects_non_finite_coordinate(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text(f"{FIELD_CSV_HEADER}\n0,0,0,1,0,0,1\ninf,0,0,1,0,0,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldStateError, match="coordinate x is not finite in data row 2"):
            load_field_csv(path)


def test_csv_load_rejects_bad_norm(tmp_path):
    state = make_field("uniform", (3, 3, 3))
    state.omega[2, 1, 0] *= 1.01
    path = tmp_path / "bad.csv"
    save_field_csv(state, path)
    with pytest.raises(FieldStateError, match="cell"):
        load_field_csv(path)


def test_csv_load_rejects_nonuniform_axis(tmp_path):
    # x in {0, 1, 3}: the first gap must not pass for the spacing
    path = tmp_path / "nonuniform.csv"
    rows = [f"{x},{y},{z},1,0,0,1" for x in (0, 1, 3) for y in (0, 1) for z in (0, 1)]
    path.write_text("\n".join([FIELD_CSV_HEADER, *rows]) + "\n")
    with pytest.raises(FieldStateError, match="axis x is not uniform: gap 2 after x = 1"):
        load_field_csv(path)


def test_csv_load_rejects_repeated_cell(tmp_path):
    # as many rows as cells, but cell (1, 1, 0) is replaced by a second (0, 0, 0)
    path = tmp_path / "repeat.csv"
    path.write_text("\n".join([FIELD_CSV_HEADER, "0,0,0,1,0,0,1", "0,1,0,2,0,0,1",
                               "1,0,0,3,0,0,1", "0,0,0,8,0,0,1"]) + "\n")
    with pytest.raises(FieldStateError,
                       match=r"cell \(0, 0, 0\) appears 2 times and cell \(1, 1, 0\) is missing"):
        load_field_csv(path)


def test_csv_load_rejects_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(FIELD_CSV_HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldStateError, match="no data rows"):
            load_field_csv(path)


def test_npz_roundtrip(tmp_path):
    state = make_field("random-smooth", (5, 6, 7), seed=13)
    path = tmp_path / "state.npz"
    save_field_npz(state, path)
    back = load_field_npz(path)
    assert back.grid.spacing == state.grid.spacing
    assert np.array_equal(back.rho, state.rho)
    assert np.array_equal(back.omega, state.omega)


def test_npz_load_rejects_unreadable_input(tmp_path):
    # a missing path, a file that is not an npz archive, an archive without
    # omega, a single saved array, a string or complex rho and a fractional
    # shape are each a FieldStateError naming the path (and the key)
    state = make_field("uniform", (3, 3, 3))
    missing = tmp_path / "missing.npz"
    text = tmp_path / "text.npz"
    text.write_text(FIELD_CSV_HEADER + "\n0,0,0,1,0,0,1\n")
    arrays = dict(shape=np.array(state.grid.shape), spacing=np.array(state.grid.spacing),
                  rho=state.rho, omega=state.omega)
    no_omega = tmp_path / "no-omega.npz"
    np.savez(no_omega, **{k: v for k, v in arrays.items() if k != "omega"})
    single = tmp_path / "single.npy"
    np.save(single, state.rho)
    string_rho = tmp_path / "string-rho.npz"
    np.savez(string_rho, **{**arrays, "rho": np.full(state.rho.shape, "1")})
    complex_rho = tmp_path / "complex-rho.npz"
    np.savez(complex_rho, **{**arrays, "rho": state.rho + 1j})
    fractional = tmp_path / "fractional-shape.npz"
    np.savez(fractional, **{**arrays, "shape": np.array([2.5, 3, 3])})
    for path, match in ((missing, "cannot read"), (text, "cannot read"),
                        (no_omega, "has no omega"), (single, "not an npz archive"),
                        (string_rho, "rho holds <U1 values"),
                        (complex_rho, "rho holds complex128 values"),
                        (fractional, "shape holds float64 values, not integers")):
        with pytest.raises(FieldStateError, match=match) as err:
            load_field_npz(path)
        assert str(path) in str(err.value)


def test_unknown_field_name():
    with pytest.raises(DomainError):
        make_field("vortex-soup", (4, 4, 4))


# --- reference field path -----------------------------------------------------
# The np.roll stencils, the einsum projections and the all-at-once R2 dict,
# kept as the reference the component-major path is checked against.

def ref_deriv(values, axis, h, order):
    if order == 2:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    return (
        -np.roll(values, -2, axis=axis)
        + 8.0 * np.roll(values, -1, axis=axis)
        - 8.0 * np.roll(values, 1, axis=axis)
        + np.roll(values, 2, axis=axis)
    ) / (12.0 * h)


def ref_grad_scalar(grid, values, order):
    return np.stack([ref_deriv(values, ax, grid.spacing[ax], order) for ax in range(3)],
                    axis=-1)


def ref_grad_vector_jk(grid, vec, order):
    out = np.empty(vec.shape[:-1] + (3, 3))
    for j in range(3):
        for k in range(3):
            out[..., j, k] = ref_deriv(vec[..., k], j, grid.spacing[j], order)
    return out


def ref_project_perp(omega, vec):
    return vec - np.sum(vec * omega, axis=-1, keepdims=True) * omega


def ref_decompose(state, order):
    omega = state.omega
    grad_rho = ref_grad_scalar(state.grid, state.rho, order)
    grad_omega = ref_grad_vector_jk(state.grid, omega, order)
    par_grad_rho = np.sum(grad_rho * omega, axis=-1)
    grad_perp_rho = grad_rho - par_grad_rho[..., None] * omega
    omega_tilt = ref_project_perp(omega, np.einsum("...jk,...j->...k", grad_omega, omega))
    proj = np.eye(3) - omega[..., :, None] * omega[..., None, :]
    bb = np.einsum("...ij,...jk,...kl->...il", proj, grad_omega, proj)
    div_omega = np.einsum("...ii->...", bb)
    bb_t = bb.swapaxes(-1, -2)
    return {
        "grad_perp_rho": grad_perp_rho,
        "par_grad_rho": par_grad_rho,
        "omega_tilt": omega_tilt,
        "div_omega": div_omega,
        "sigma_omega": bb + bb_t - div_omega[..., None, None] * proj,
        "gamma_omega": bb - bb_t,
    }


def ref_r1(state, ref, beta, gamma, order):
    def divergence(vec):
        return sum(ref_deriv(vec[..., ax], ax, state.grid.spacing[ax], order)
                   for ax in range(3))

    v1 = ref["par_grad_rho"][..., None] * state.omega
    v2 = (state.rho * ref["div_omega"])[..., None] * state.omega
    return beta * divergence(v1) + gamma * divergence(v2)


def ref_r2_terms(state, ref, order):
    grid, omega, rho = state.grid, state.omega, state.rho
    gperp, dpar, tilt = ref["grad_perp_rho"], ref["par_grad_rho"], ref["omega_tilt"]
    divo, sig, gam = ref["div_omega"], ref["sigma_omega"], ref["gamma_omega"]

    def par_deriv_vec(vec):
        d = ref_grad_vector_jk(grid, vec, order)
        return ref_project_perp(omega, np.einsum("...j,...jk->...k", omega, d))

    def div_tensor(tens):
        out = np.zeros(tens.shape[:-2] + (3,))
        for k in range(3):
            out[..., k] = sum(ref_deriv(tens[..., j, k], j, grid.spacing[j], order)
                              for j in range(3))
        return ref_project_perp(omega, out)

    return {
        1: divo[..., None] * gperp,
        2: rho[..., None] * ref_project_perp(omega, ref_grad_scalar(grid, divo, order)),
        3: np.einsum("...jk,...k->...j", sig, gperp),
        4: np.einsum("...jk,...k->...j", gam, gperp),
        5: par_deriv_vec(gperp),
        6: dpar[..., None] * tilt,
        7: (dpar / rho)[..., None] * gperp,
        8: (rho * divo)[..., None] * tilt,
        9: rho[..., None] * np.einsum("...jk,...k->...j", sig, tilt),
        10: rho[..., None] * np.einsum("...jk,...k->...j", gam, tilt),
        11: rho[..., None] * par_deriv_vec(tilt),
        12: rho[..., None] * div_tensor(sig),
        13: rho[..., None] * div_tensor(gam),
    }


def assert_matches_reference(new, ref, label):
    assert new.shape == ref.shape, label
    scale = np.abs(ref).max()
    gap = np.abs(new - ref).max()
    assert gap <= 1e-12 * scale, f"{label}: gap {gap:.3e} against max {scale:.3e}"


@pytest.mark.parametrize("shape,order", [
    ((12, 12, 12), 2), ((12, 12, 12), 4), ((1, 9, 7), 2), ((1, 6, 8), 4)])
def test_field_path_matches_reference(shape, order):
    state = make_field("random-smooth", shape, lengths=(2.0, 3.0, 2.5), seed=14)
    bundle = decompose_gradients(state, scheme_order=order)
    ref = ref_decompose(state, order)
    for name, want in ref.items():
        assert_matches_reference(getattr(bundle, name), want, name)

    for ax in (ax for ax in range(3) if shape[ax] > 1):
        assert_matches_reference(deriv(state.rho, ax, state.grid.spacing[ax], order),
                                 ref_deriv(state.rho, ax, state.grid.spacing[ax], order),
                                 f"deriv axis {ax}")
    assert_matches_reference(evaluate_r1(state, bundle, 0.37, -0.91),
                             ref_r1(state, ref, 0.37, -0.91, order), "r1")

    ref_terms = ref_r2_terms(state, ref, order)
    terms = r2_terms(state, bundle)
    assert sorted(terms) == sorted(ref_terms)
    for slot, want in ref_terms.items():
        assert_matches_reference(terms[slot], want, f"r2 slot {slot}")
    zeta = np.random.default_rng(15).standard_normal(13)
    ref_r2 = np.zeros(state.grid.shape + (3,))
    for slot, term in ref_terms.items():
        ref_r2 += zeta[slot - 1] * term
    assert_matches_reference(evaluate_r2(state, bundle, zeta), ref_r2, "r2")


@pytest.mark.parametrize("order", [2, 4])
def test_deriv_is_the_roll_stencil_to_the_bit(order):
    # extents 1 to 10 on each axis, behind leading extents 1 and 3: axes no
    # longer than the stencil are done cell by cell, and an end cell of an
    # 8-cell last axis reads and writes with a 64-byte stride
    rng = np.random.default_rng(33)
    for n in range(1, 11):
        cases = [(0, (n, 6, 5))] + [(axis, shape) for lead in (1, 3) for axis, shape
                                    in ((1, (lead, n, 6)), (2, (lead, 6, n)))]
        for axis, shape in cases:
            values = rng.standard_normal(shape)
            # a constant axis has an exact zero, not the stencil's rounding
            want = np.zeros(shape) if n == 1 else ref_deriv(values, axis, 0.3, order)
            got = deriv(values, axis, 0.3, order)
            assert got.tobytes() == want.tobytes(), (shape, axis)
            # a negative axis counts from the end
            assert deriv(values, axis - 3, 0.3, order).tobytes() == want.tobytes(), (shape, axis)


def test_degenerate_axis_has_zero_derivative():
    values = np.random.default_rng(16).standard_normal((1, 5, 6))
    for order in (2, 4):
        d = deriv(values, 0, 0.3, order)
        assert d.shape == values.shape
        assert np.array_equal(d, np.zeros_like(values))


def test_corrections_bitwise_reproducible(pipeline_even):
    state = make_field("random-smooth", (12, 10, 9), seed=17)
    hydro = pipeline_even["hydro"]
    for order in (2, 4):
        first = evaluate_corrections(state, hydro, scheme_order=order)
        second = evaluate_corrections(state, hydro, scheme_order=order)
        assert first.r1.tobytes() == second.r1.tobytes()
        assert first.r2.tobytes() == second.r2.tobytes()


def test_order4_bundle_sets_correction_stencil():
    # the second derivatives in R1 and R2 follow the bundle's scheme order:
    # an order-4 bundle gives fourth-order convergence of both closed forms
    beta = 0.37
    r1_errs, r2_errs = [], []
    for n in (32, 64):
        st = make_field("axial-sine", (1, 1, n))
        b = decompose_gradients(st, scheme_order=4)
        z = st.grid.coordinates()[2]
        r1_errs.append(np.abs(evaluate_r1(st, b, beta, 0.9) + beta * np.sin(z)).max())

        grid = Grid((n, 1, n), (TWO_PI / n, 1.0, TWO_PI / n))
        x, y, z = grid.coordinates()
        omega = np.zeros((n, 1, n, 3))
        omega[..., 2] = 1.0
        state = FieldState(grid, 2.0 + np.sin(x) * np.sin(z), omega).validate()
        b = decompose_gradients(state, scheme_order=4)
        zeta = np.zeros(13)
        zeta[4] = 0.8
        exact = np.zeros(state.grid.shape + (3,))
        exact[..., 0] = 0.8 * np.cos(x) * np.cos(z)
        r2_errs.append(np.abs(evaluate_r2(state, b, zeta) - exact).max())
    assert 13.0 <= r1_errs[0] / r1_errs[1] <= 19.0
    assert 13.0 <= r2_errs[0] / r2_errs[1] <= 19.0


# --- streamed evaluate_corrections ----------------------------------------------

SLAB_COEFFS = types.SimpleNamespace(
    beta=0.37, gamma=-0.91, zeta=np.random.default_rng(19).standard_normal(13))


def record_slabs(monkeypatch):
    """Record the [i0, i1) plane ranges evaluate_corrections streams."""
    seen = []
    slabs = fields._slabs

    def spy(state, order, levels):
        for item in slabs(state, order, levels):
            seen.append(item[:2])
            yield item

    monkeypatch.setattr(fields, "_slabs", spy)
    return seen


def slab_planes(planes, order):
    """The planes of a slab of `planes` planes' worth of SLAB_CELLS: at least
    the 2w planes of one halo level, w = order // 2."""
    return max(planes, 2 * (order // 2))


# (9, 128, 128): the default SLAB_CELLS gives 2 planes of this width, which
# order 4 raises to its halo's 4
@pytest.mark.parametrize("shape,order", [
    ((13, 12, 11), 2), ((13, 12, 11), 4), ((1, 9, 7), 2), ((6, 6, 8), 4),
    ((9, 128, 128), 4)])
@pytest.mark.parametrize("planes", [1, 2, 5])
def test_slab_split_matches_one_slab(monkeypatch, shape, order, planes):
    state = make_field("random-smooth", shape, lengths=(2.0, 3.0, 2.5), seed=18)
    whole = evaluate_corrections(state, SLAB_COEFFS, scheme_order=order, eps=0.3)
    seen = record_slabs(monkeypatch)
    monkeypatch.setattr(fields, "SLAB_CELLS", planes * shape[1] * shape[2])
    split = evaluate_corrections(state, SLAB_COEFFS, scheme_order=order, eps=0.3)
    n0, planes = shape[0], slab_planes(planes, order)
    starts = range(0, n0, planes) if n0 > planes else [0]
    assert seen == [(i0, min(i0 + planes, n0) if n0 > planes else n0) for i0 in starts]
    assert split.r1.tobytes() == whole.r1.tobytes()
    assert split.r2.tobytes() == whole.r2.tobytes()

    ref = ref_decompose(state, order)
    assert_matches_reference(split.r1, 0.3 * ref_r1(state, ref, 0.37, -0.91, order), "r1")
    ref_r2 = np.zeros(shape + (3,))
    for slot, term in ref_r2_terms(state, ref, order).items():
        ref_r2 += SLAB_COEFFS.zeta[slot - 1] * term
    assert_matches_reference(split.r2, 0.3 * ref_r2, "r2")


def test_slab_split_keeps_state_errors(monkeypatch):
    monkeypatch.setattr(fields, "SLAB_CELLS", 8 * 8)
    with pytest.raises(DomainError, match="order-4"):
        evaluate_corrections(make_field("uniform", (3, 8, 8)), SLAB_COEFFS, scheme_order=4)

    monkeypatch.setattr(fields, "SLAB_CELLS", 2 * 12 * 11)
    state = make_field("random-smooth", (13, 12, 11), seed=20)
    state.omega[9, 4, 7] *= 1.001
    with pytest.raises(FieldStateError, match=r"not unit at cell \(9, 4, 7\)"):
        evaluate_corrections(state, SLAB_COEFFS)

    state = make_field("random-smooth", (13, 12, 11), seed=20)
    state.rho[11, 3, 2] = 0.0
    with pytest.raises(FieldStateError, match="strictly positive density"):
        evaluate_corrections(state, SLAB_COEFFS)
    state.rho[11, 3, 2] = -0.5
    with pytest.raises(FieldStateError, match=r"negative density at cell \(11, 3, 2\)"):
        evaluate_corrections(state, SLAB_COEFFS)


# --- separable analytic fields ---------------------------------------------------

def meshgrid_field(name, shape, lengths, params, seed):
    """make_field's fields evaluated on full meshgrid coordinate arrays."""
    grid = Grid(shape=shape, spacing=tuple(L / n for L, n in zip(lengths, shape)))
    x, y, z = grid.coordinates()
    if name == "uniform":
        rho = np.full(shape, float(params.get("rho", 1.0)))
        omega = np.zeros(shape + (3,))
        omega[..., 2] = 1.0
    elif name == "axial-sine":
        rho = 2.0 + float(params.get("amplitude", 1.0)) * np.sin(2 * np.pi * z / lengths[2])
        omega = np.zeros(shape + (3,))
        omega[..., 2] = 1.0
    elif name == "tilt-sine":
        alpha = float(params.get("alpha0", 0.7)) * np.sin(2 * np.pi * z / lengths[2])
        rho = np.ones(shape)
        omega = np.stack([np.sin(alpha), np.zeros_like(alpha), np.cos(alpha)], axis=-1)
    else:
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
        omega = base / np.linalg.norm(base, axis=-1, keepdims=True)
        rho = 1.5 + 0.4 * np.cos(kx * x) * np.sin(kz * z) + 0.2 * np.cos(ky * y)
    return rho, omega


@pytest.mark.parametrize("name,params", [
    ("uniform", {"rho": 0.8}), ("axial-sine", {"amplitude": 0.6}),
    ("tilt-sine", {"alpha0": 0.4}), ("random-smooth", {})])
def test_make_field_matches_meshgrid_evaluation(name, params):
    shape, lengths = (7, 5, 6), (2.0, 3.0, 2.5)
    state = make_field(name, shape, lengths=lengths, params=params, seed=21)
    rho, omega = meshgrid_field(name, shape, lengths, params, seed=21)
    assert state.rho.shape == shape and state.omega.shape == shape + (3,)
    assert state.rho.tobytes() == rho.tobytes()
    assert state.omega.tobytes() == omega.tobytes()


@pytest.mark.parametrize("name,params,takes", [
    ("axial-sine", {"amplitud": 3.0}, "amplitude"), ("uniform", {"alpha0": 0.4}, "rho"),
    ("random-smooth", {"amplitude": 1.0}, "none")])
def test_make_field_rejects_a_parameter_its_field_does_not_take(name, params, takes):
    with pytest.raises(DomainError, match=rf"field {name} takes no parameter "
                                          rf"'{next(iter(params))}'; it takes {takes}$"):
        make_field(name, (5, 5, 5), params=params)


# --- non-finite states ------------------------------------------------------------

@pytest.mark.parametrize("field,cell,value,match", [
    ("omega", (9, 4, 7, 0), np.nan, r"orientation not unit at cell \(9, 4, 7\)"),
    ("rho", (11, 3, 2), np.nan, r"non-finite density at cell \(11, 3, 2\): nan"),
    ("rho", (10, 0, 5), np.inf, r"non-finite density at cell \(10, 0, 5\): inf"),
])
def test_non_finite_state_rejected_with_cell(monkeypatch, field, cell, value, match):
    # the checks run slab by slab; the bad cell lies past the first slab
    monkeypatch.setattr(fields, "SLAB_CELLS", 2 * 12 * 11)
    state = make_field("random-smooth", (13, 12, 11), seed=20)
    getattr(state, field)[cell] = value
    with pytest.raises(FieldStateError, match=match):
        state.validate()
    with pytest.raises(FieldStateError, match=match):
        evaluate_corrections(state, SLAB_COEFFS)


# --- the merged R2 path ------------------------------------------------------------

def count_derivatives(monkeypatch):
    """Record, per call of _Stencil.d, which of the bundle, R1 and R2 it
    served."""
    calls, phase = [], []
    d = fields._Stencil.d

    def spy_d(self, values, j, out=None):
        calls.append(phase[-1])
        return d(self, values, j, out=out)

    monkeypatch.setattr(fields._Stencil, "d", spy_d)
    for name in ("_bundle_fields", "_r1_field", "_add_d"):
        def in_phase(*args, name=name, run=getattr(fields, name)):
            phase.append(name)
            try:
                return run(*args)
            finally:
                phase.pop()

        monkeypatch.setattr(fields, name, in_phase)
    return calls


@pytest.mark.parametrize("order", [2, 4])
def test_derivatives_per_slab(monkeypatch, order):
    state = make_field("random-smooth", (13, 12, 11), seed=22)
    calls = count_derivatives(monkeypatch)
    terms = r2_terms(state, decompose_gradients(state, scheme_order=order))
    assert len(terms) == 13
    assert {p: calls.count(p) for p in set(calls)} == {"_bundle_fields": 12, "_add_d": 135}

    calls.clear()
    seen = record_slabs(monkeypatch)
    monkeypatch.setattr(fields, "SLAB_CELLS", 2 * 12 * 11)
    evaluate_corrections(state, SLAB_COEFFS, scheme_order=order)
    slabs = len(seen)
    assert slabs == -(-13 // slab_planes(2, order))
    assert {p: calls.count(p) for p in set(calls)} == {
        "_bundle_fields": 12 * slabs, "_r1_field": 6 * slabs, "_add_d": 27 * slabs}


@pytest.mark.parametrize("order", [2, 4])
def test_merged_r2_equals_sum_of_slots(monkeypatch, order):
    state = make_field("random-smooth", (13, 12, 11), lengths=(2.0, 3.0, 2.5), seed=23)
    terms = r2_terms(state, decompose_gradients(state, scheme_order=order))
    monkeypatch.setattr(fields, "SLAB_CELLS", 2 * 12 * 11)
    eps = 0.3
    zetas = [np.random.default_rng(24).standard_normal(13), *np.eye(13)]
    for i, zeta in enumerate(zetas):
        coeffs = types.SimpleNamespace(beta=0.37, gamma=-0.91, zeta=zeta)
        r2 = evaluate_corrections(state, coeffs, scheme_order=order, eps=eps).r2
        want = sum(zeta[s - 1] * t for s, t in terms.items()) * eps
        assert_matches_reference(r2, want, f"zeta {i}")


def test_workspace_does_not_grow_with_the_grid(monkeypatch):
    # two grids that differ only in n0 stream the same slabs, so beyond the
    # outputs (r1 and r2, four scalars a cell) the traced peak must not grow:
    # a workspace that did would add at least a quarter of the outputs'
    # growth, while numpy's own small per-call bookkeeping stays far below
    monkeypatch.setattr(fields, "SLAB_CELLS", 4 * 16 * 16)
    states = [make_field("random-smooth", (n0, 16, 16), seed=25) for n0 in (24, 48)]
    evaluate_corrections(states[0], SLAB_COEFFS, scheme_order=4)
    peaks = []
    for state in states:
        tracemalloc.start()
        try:
            corr = evaluate_corrections(state, SLAB_COEFFS, scheme_order=4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del corr
    outputs = 4 * (48 - 24) * 16 * 16 * 8
    assert peaks[1] - peaks[0] - outputs < outputs / 16


# --- streamed make_field and decompose_gradients --------------------------------

BUNDLE_FIELDS = ("grad_perp_rho", "par_grad_rho", "omega_tilt", "div_omega",
                 "sigma_omega", "gamma_omega")


@pytest.mark.parametrize("shape,order", [
    ((13, 12, 11), 2), ((13, 12, 11), 4), ((1, 9, 7), 2), ((1, 9, 7), 4),
    ((6, 6, 8), 2), ((6, 6, 8), 4), ((40, 12, 10), 2), ((40, 12, 10), 4),
    ((5, 5, 5), 2), ((5, 5, 5), 4)])
@pytest.mark.parametrize("planes", [1, 2, 3, 5])
def test_decompose_slab_split_matches_one_slab(monkeypatch, shape, order, planes):
    state = make_field("random-smooth", shape, lengths=(2.0, 3.0, 2.5), seed=26)
    monkeypatch.setattr(fields, "SLAB_CELLS", shape[0] * shape[1] * shape[2])
    whole = decompose_gradients(state, scheme_order=order)
    seen = record_slabs(monkeypatch)
    monkeypatch.setattr(fields, "SLAB_CELLS", planes * shape[1] * shape[2])
    split = decompose_gradients(state, scheme_order=order)
    n0, planes = shape[0], slab_planes(planes, order)
    assert len(seen) == (-(-n0 // planes) if n0 > planes else 1)
    ref = ref_decompose(state, order)
    for name in BUNDLE_FIELDS:
        assert getattr(split, name).tobytes() == getattr(whole, name).tobytes(), name
        assert_matches_reference(getattr(split, name), ref[name], name)


@pytest.mark.parametrize("order", [2, 4])
def test_decompose_derivatives_per_slab(monkeypatch, order):
    state = make_field("random-smooth", (13, 12, 11), seed=27)
    calls = count_derivatives(monkeypatch)
    seen = record_slabs(monkeypatch)
    monkeypatch.setattr(fields, "SLAB_CELLS", 2 * 12 * 11)
    decompose_gradients(state, scheme_order=order)
    assert len(seen) == -(-13 // slab_planes(2, order))
    assert calls == ["_bundle_fields"] * 12 * len(seen)


@pytest.mark.parametrize("name,params", [
    ("uniform", {"rho": 0.8}), ("axial-sine", {"amplitude": 0.6}),
    ("tilt-sine", {"alpha0": 0.4}), ("random-smooth", {})])
@pytest.mark.parametrize("shape", [(13, 12, 11), (37, 38, 36)])
def test_make_field_does_not_depend_on_the_slab_size(monkeypatch, name, params, shape):
    def build():
        return make_field(name, shape, lengths=(2.0, 3.0, 2.5), params=params, seed=28)

    monkeypatch.setattr(fields, "SLAB_CELLS", shape[0] * shape[1] * shape[2])
    whole = build()
    for planes in (1, 2, 3, 5):
        monkeypatch.setattr(fields, "SLAB_CELLS", planes * shape[1] * shape[2])
        split = build()
        assert split.rho.tobytes() == whole.rho.tobytes(), planes
        assert split.omega.tobytes() == whole.omega.tobytes(), planes


def traced_peak(run):
    """The tracemalloc peak of run(), whose result is dropped."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("what,scalars", [("make_field", 4), ("decompose_gradients", 17)])
def test_streamed_set_up_does_not_grow_with_the_grid(monkeypatch, what, scalars):
    # as for evaluate_corrections: two grids that differ only in n0 stream
    # the same slabs, so the traced peak grows by the outputs (rho and omega,
    # or the 17 packed bundle rows) and by far less than a sixteenth of them more;
    # whole-grid builds, with their grid-sized temporaries, fail this
    monkeypatch.setattr(fields, "SLAB_CELLS", 4 * 16 * 16)
    states = {n0: make_field("random-smooth", (n0, 16, 16), seed=29) for n0 in (24, 48)}
    run = {
        "make_field": lambda n0: make_field("random-smooth", (n0, 16, 16), seed=29),
        "decompose_gradients": lambda n0: decompose_gradients(states[n0], scheme_order=4),
    }[what]
    run(24)
    peaks = [traced_peak(lambda: run(n0)) for n0 in (24, 48)]
    outputs = scalars * (48 - 24) * 16 * 16 * 8
    assert peaks[1] - peaks[0] - outputs < outputs / 16


# --- the packed bundle -------------------------------------------------------------

@pytest.mark.parametrize("shape", [(13, 12, 11), (40, 12, 10)])
@pytest.mark.parametrize("order", [2, 4])
def test_corrections_match_the_public_readers(monkeypatch, shape, order):
    # evaluate_corrections reads sigma and gamma from its packed workspace,
    # evaluate_r1 and evaluate_r2 from the upper triangles of the bundle
    # decompose_gradients returns; at eps = 1 the two give the same bits
    monkeypatch.setattr(fields, "SLAB_CELLS", 2 * shape[1] * shape[2])
    state = make_field("random-smooth", shape, lengths=(2.0, 3.0, 2.5), seed=30)
    corr = evaluate_corrections(state, SLAB_COEFFS, scheme_order=order, eps=1.0)
    bundle = decompose_gradients(state, scheme_order=order)
    r1 = evaluate_r1(state, bundle, SLAB_COEFFS.beta, SLAB_COEFFS.gamma)
    assert corr.r1.tobytes() == r1.tobytes()
    assert corr.r2.tobytes() == evaluate_r2(state, bundle, SLAB_COEFFS).tobytes()


def test_bundle_holds_17_packed_rows():
    # the bundle is its 17 rows and nothing else grid-sized: at 48^3 the
    # traced peak of decompose_gradients is the rows plus the slab buffers
    # (a 26-row bundle alone is 21.9 MiB); the vector and scalar entries are
    # views of the rows, the tensors new arrays on each access
    state = make_field("random-smooth", (48,) * 3, seed=33)
    decompose_gradients(state)
    peak = traced_peak(lambda: decompose_gradients(state))
    assert peak < 18 * 2**20
    b = decompose_gradients(state)
    assert b.rows.shape == (17,) + state.grid.shape
    for name in ("grad_perp_rho", "par_grad_rho", "omega_tilt", "div_omega"):
        assert np.shares_memory(getattr(b, name), b.rows), name
    for name in ("sigma_omega", "gamma_omega"):
        tensor = getattr(b, name)
        assert tensor.shape == state.grid.shape + (3, 3)
        assert not np.shares_memory(tensor, b.rows)
        assert getattr(b, name) is not tensor


@pytest.mark.parametrize("order", [2, 4])
def test_bundle_tensors_are_built_from_the_packed_rows(order):
    # sigma is symmetric and gamma antisymmetric with a zero diagonal, to
    # the bit, and their entries on and above the diagonal are the rows
    state = make_field("random-smooth", (13, 12, 11), seed=34)
    b = decompose_gradients(state, scheme_order=order)
    sig, gam = b.sigma_omega, b.gamma_omega
    assert np.array_equal(sig, sig.swapaxes(-1, -2))
    assert np.array_equal(gam, -gam.swapaxes(-1, -2))
    for j in range(3):
        assert not gam[..., j, j].any()
    packed = fields._bundle_rows(b.rows)
    for row, (j, k) in enumerate(fields._UPPER):
        assert sig[..., j, k].tobytes() == packed.sig[row].tobytes()
        if j != k:
            assert gam[..., j, k].tobytes() == packed.gam[row].tobytes()


def lattice_state(shape, spacing):
    """A state built from integer-lattice formulas, one sqrt and divisions:
    every operation is exactly rounded, so the bits do not depend on the
    platform's libm."""
    i, j, k = np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")
    rho = 1.0 + ((7 * i + 3 * j + 5 * k) % 13) / 16.0
    v = np.stack([((3 * i + 5 * j + k) % 9 - 4) / 8.0,
                  ((i + 2 * j + 7 * k) % 11 - 5) / 8.0,
                  2.0 + ((5 * i + j + 3 * k) % 7) / 8.0], axis=-1)
    norm = np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])
    return FieldState(Grid(shape, spacing), rho, v / norm[..., None]).validate()


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of every field output on lattice_state((13, 12, 11)) in slabs of 3
# planes, recorded from the 26-row bundle of the previous release; storing
# sigma and gamma by their unique entries moves no arithmetic
PINNED_DIGESTS = {
    2: {"corrections": "196b823c1dd591545aa1db1ade6cad8d54106a5397a108634aa4dec5fba72ac9",
        "bundle": "fc466f78bd5b74d0b8ee475f86d81fe567d66d151c6a5eec6d1b780a745c351a",
        "terms": "cd33920bd9b6eaba939dbbfc2f29bb62f52c7fcdc024ee83af2c2e8634df6fbe",
        "r1_r2": "77aceda45e533ab3bda65ab98046de41c6f95ebad14ab344bbe9febabe9b7e77"},
    4: {"corrections": "dd60aec9c04191351a2f559da151354c556101e104c9c1607ce8123fd3761c7f",
        "bundle": "e3a592d2dbc8061d18598645169271b707f8fffed554c17c2df73b6a6363c0b9",
        "terms": "985b1bbfac997e2274300ed696d0fd517bf598eec19c9bc58542b7788deb8923",
        "r1_r2": "3415c1720cb65769e3f1aedf9f9b0f5e1c3f7f455b3ae4e33176c27ada6a2523"},
}


@pytest.mark.parametrize("order", [2, 4])
def test_outputs_match_pinned_digests(monkeypatch, order):
    monkeypatch.setattr(fields, "SLAB_CELLS", 3 * 12 * 11)
    state = lattice_state((13, 12, 11), (0.5, 0.25, 0.375))
    coeffs = types.SimpleNamespace(beta=0.375, gamma=-0.625,
                                   zeta=(np.arange(13) * 5 % 13 - 6.5) / 4)
    corr = evaluate_corrections(state, coeffs, scheme_order=order, eps=0.75)
    b = decompose_gradients(state, scheme_order=order)
    terms = r2_terms(state, b)
    got = {
        "corrections": sha256_of(corr.r1, corr.r2),
        "bundle": sha256_of(*(getattr(b, name) for name in BUNDLE_FIELDS)),
        "terms": sha256_of(*(terms[s] for s in sorted(terms))),
        "r1_r2": sha256_of(evaluate_r1(state, b, coeffs.beta, coeffs.gamma),
                           evaluate_r2(state, b, coeffs.zeta)),
    }
    assert got == PINNED_DIGESTS[order]


@pytest.mark.parametrize("order", [2, 4])
def test_slabs_gather_the_halo_each_caller_needs(monkeypatch, order):
    # decompose_gradients differentiates once and gathers one derivative
    # level of halo (2w = order planes); evaluate_corrections gathers two
    monkeypatch.setattr(fields, "SLAB_CELLS", 3 * 12 * 11)
    state = make_field("random-smooth", (13, 12, 11), seed=31)
    halos = []
    slabs = fields._slabs

    def spy(state, order, levels):
        for i0, i1, rho, om, st in slabs(state, order, levels):
            halos.append(len(rho) - (i1 - i0))
            yield i0, i1, rho, om, st

    monkeypatch.setattr(fields, "_slabs", spy)
    count = -(-13 // slab_planes(3, order))
    decompose_gradients(state, scheme_order=order)
    assert halos == [order] * count
    halos.clear()
    evaluate_corrections(state, SLAB_COEFFS, scheme_order=order)
    assert halos == [2 * order] * count


def test_workspace_is_smaller_than_26_rows(monkeypatch):
    # beyond the outputs (r1 and r2) and the two gather buffers (rho and
    # omega on a slab plus 4w planes), a call holds the bundle workspace,
    # one slab plus 2w planes deep, and the slab temporaries; all of it
    # stays below what a workspace of 26 rows would take on its own
    shape, order, planes = (12, 64, 64), 4, 4
    monkeypatch.setattr(fields, "SLAB_CELLS", planes * 64 * 64)
    state = make_field("random-smooth", shape, seed=32)
    evaluate_corrections(state, SLAB_COEFFS, scheme_order=order)
    peak = traced_peak(lambda: evaluate_corrections(state, SLAB_COEFFS, scheme_order=order))
    plane, w = 64 * 64 * 8, order // 2
    outputs = 4 * shape[0] * plane
    gather = 4 * (planes + 4 * w) * plane
    assert peak - outputs - gather < 26 * (planes + 2 * w) * plane


# --- the 48 symmetries of the cube ---------------------------------------------
# On a periodic grid of equal extents and spacings, permuting the axes or
# reflecting one (i -> -i mod n) maps the centered stencils onto themselves,
# so the corrections commute with every such map: r1 as a scalar field, r2
# as a vector field.  Only the rounding of reordered sums may differ.

CUBE_SYMMETRIES = [(perm, signs) for perm in itertools.permutations(range(3))
                   for signs in itertools.product((1, -1), repeat=3)]
# a cyclic permutation, a transposition and one reflection generate the group
CUBE_GENERATORS = [((1, 2, 0), (1, 1, 1)), ((1, 0, 2), (1, 1, 1)), ((0, 1, 2), (-1, 1, 1))]


def cube_map(values, perm, signs, vector=False):
    """A grid (+ (3,)) field under x'_a = signs[a] x_perm[a]: the axes
    permuted, then each axis of sign -1 reflected as i -> -i mod n, and a
    vector's components mapped the same way."""
    out = np.transpose(values, tuple(perm) + ((3,) if vector else ()))
    for a, sign in enumerate(signs):
        if sign < 0:
            out = np.roll(np.flip(out, axis=a), 1, axis=a)
    if vector:
        out = out[..., list(perm)] * np.array(signs, dtype=float)
    return out


def assert_corrections_commute(state, order, symmetries):
    corr = evaluate_corrections(state, SLAB_COEFFS, scheme_order=order)
    for perm, signs in symmetries:
        image = FieldState(state.grid, cube_map(state.rho, perm, signs),
                           cube_map(state.omega, perm, signs, vector=True))
        got = evaluate_corrections(image, SLAB_COEFFS, scheme_order=order)
        for name, vector in (("r1", False), ("r2", True)):
            want = cube_map(getattr(corr, name), perm, signs, vector)
            gap = np.abs(getattr(got, name) - want).max()
            assert gap <= 1e-13 * np.abs(want).max(), (name, perm, signs, gap)


@pytest.mark.parametrize("order", [2, 4])
def test_corrections_commute_with_the_cube_symmetries(order):
    state = make_field("random-smooth", (16, 16, 16), seed=34)
    assert len(set(CUBE_SYMMETRIES)) == 48
    assert_corrections_commute(state, order, CUBE_SYMMETRIES)


@pytest.mark.parametrize("order", [2, 4])
def test_corrections_on_two_slabs_commute_with_the_cube_generators(order):
    state = make_field("random-smooth", (40, 40, 40), seed=35)
    assert -(-40 // slab_planes(fields._slab_planes(state.grid), order)) == 2
    assert_corrections_commute(state, order, CUBE_GENERATORS)
