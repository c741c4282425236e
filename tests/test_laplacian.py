import numpy as np
import pytest

from nctorus import algebra as alg, calculus as calc, laplacian as lap, metrics as met
from nctorus.algebra import AlgebraElement, LatticeBox
from nctorus.calculus import TorusMatrix
from nctorus.errors import BoxTooSmall, UnstableSpectrum, WindowOutOfRange
from nctorus.sampling import random_density, random_element, random_hermitian_matrix

from conftest import coeff_diff, trig_pair


def _ct_metric(geom, calc_radius=10, a0=0.15, a1=0.1):
    dk = met.density_exp(trig_pair(geom, 0, a0) + trig_pair(geom, 1, a1))
    ct = met.metric_conformal(
        met.metric_flat(geom), dk.nu, LatticeBox(2, calc_radius)
    )
    return dk, ct


def test_operator_and_spectrum_arrays_read_only(geom):
    box = LatticeBox(2, 3)
    op = lap.assemble_riemannian(met.metric_flat(geom), box)
    res = lap.spectrum(op)
    arrays = [calc.compress(AlgebraElement.identity(geom), box).matrix,
              op.matrix, op.conjugated, res.eigenvalues, res.stable, res.multiplicity_group]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_flat_operator_diagonal(geom, geom0):
    for g in (geom0, geom):
        box = LatticeBox(2, 4)
        op = lap.assemble_riemannian(met.metric_flat(g), box)
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off)) == 0.0
        assert op.asymmetry == 0.0
        diag = np.sort(np.real(np.diag(op.matrix)))
        assert np.array_equal(diag, lap.lattice_eigenvalues(box))


def test_flat_multiplicities(geom):
    box = LatticeBox(2, 4)
    op = lap.assemble_riemannian(met.metric_flat(geom), box)
    res = lap.spectrum(op)
    assert res.multiplicity_of(0.0) == 1
    assert res.multiplicity_of(1.0) == 4
    assert res.multiplicity_of(2.0) == 4
    assert res.multiplicity_of(25.0) == 8  # (0, +-5) modes exceed the box


def test_flat_assemble_raw_path(geom):
    """assemble() with an identity matrix and unit density stays diagonal."""
    box = LatticeBox(2, 6)
    h_inv = calc.matrix_inverse(TorusMatrix.identity(geom, 2), box)
    op = lap.assemble(h_inv, met.density_one(geom), box)
    off = op.matrix - np.diag(np.diag(op.matrix))
    assert np.max(np.abs(off)) < 1e-12
    assert np.max(np.abs(np.sort(np.real(np.diag(op.matrix))) -
                         lap.lattice_eigenvalues(box))) < 1e-12


def test_constants_killed_exactly(geom, rng):
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 8))
    delta0 = np.zeros(op.box.size)
    delta0[op.box.index_of((0, 0))] = 1.0
    assert np.max(np.abs(op.matrix @ delta0)) == 0.0


def test_box_too_small(geom):
    dk, ct = _ct_metric(geom)
    with pytest.raises(BoxTooSmall):
        lap.assemble_riemannian(ct, LatticeBox(2, 10), mult_radius=3)


def test_spectrum_refuses_stability_box_not_larger(geom):
    # pairing the spectrum with itself, or with a smaller box's, tests nothing
    op = lap.assemble_riemannian(met.metric_flat(geom), LatticeBox(2, 4))
    for radius in (4, 2):
        with pytest.raises(BoxTooSmall):
            lap.spectrum(op, stability_radius=radius)


def test_conformal_operator_interior_identity(geom):
    """2-d conformal covariance at the operator level, flat base."""
    dk, ct = _ct_metric(geom)
    rep, _ = lap.conformal_covariance_check(
        met.metric_flat(geom), dk.nu, LatticeBox(2, 10), calc_box=LatticeBox(2, 10)
    )
    assert rep["two_dim_residual"] < 1e-8


def test_conformal_identity_factor(geom):
    rep, _ = lap.conformal_covariance_check(
        met.metric_flat(geom),
        AlgebraElement.identity(geom),
        LatticeBox(2, 6),
        calc_box=LatticeBox(2, 6),
    )
    assert rep["two_dim_residual"] < 1e-12


def test_conformal_constant_base(geom):
    w = trig_pair(geom, 0, 0.1) + trig_pair(geom, 1, 0.07)
    dk = met.density_exp(w)
    base = met.metric_constant(geom, [[1.4, 0.3], [0.3, 0.9]], box=LatticeBox(2, 4))
    rep, _ = lap.conformal_covariance_check(
        base, dk.nu, LatticeBox(2, 10), calc_box=LatticeBox(2, 10)
    )
    assert rep["two_dim_residual"] < 1e-8


def test_self_compatible_commuted_form(geom):
    """For a self-compatible metric the commuted assembly
    -det^{-1/2} sum d_i(det^{1/2} g^{ij} d_j) agrees on interior rows."""
    _, ct = _ct_metric(geom)
    assert ct.is_self_compatible()
    box = LatticeBox(2, 10)
    op = lap.assemble_riemannian(ct, box)
    b = TorusMatrix.scalar(op.nu.nu, 2).matmul(ct.inverse)
    commuted, _, _ = lap._build_matrices(op.prefactor, op.sqrt_factor, b.entries, box)
    rows = lap.interior_indices(box, box.radius // 2)
    assert np.max(np.abs((op.matrix - commuted)[rows])) < 1e-9


def test_green_identity(geom, rng):
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 10))
    for _ in range(5):
        u = random_element(geom, 3, rng)
        v = random_element(geom, 3, rng)
        assert lap.green_identity_residual(op, u, v) < 1e-9


def test_matrix_application_matches_exact_path(geom, rng):
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 10))
    u = random_element(geom, 3, rng)
    via_matrix = op.apply(u)
    via_elements = op.apply_exact(u)
    assert coeff_diff(alg.resize(via_matrix, 5), alg.resize(via_elements, 5)) < 1e-11


def test_asymmetry_decreases_with_box(geom):
    dk, ct = _ct_metric(geom)
    dens = met.riemannian_density(ct)
    values = []
    for radius in (6, 8, 10, 12):
        op = lap.assemble_riemannian(ct, LatticeBox(2, radius), density=dens)
        values.append(op.asymmetry)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_kernel_and_nonnegativity(geom, rng):
    box = LatticeBox(2, 10)
    for _ in range(3):
        h = random_hermitian_matrix(geom, 2, 1, rng, amplitude=0.2)
        dens = random_density(geom, rng, amplitude=0.15)
        op = lap.assemble(calc.matrix_inverse(h, box), dens, box)
        res = lap.spectrum(op)
        stable = res.stable_eigenvalues
        assert abs(stable[0]) <= 1e-8
        assert np.sum(np.abs(stable) <= 1e-8) == 1
        assert stable.min() >= -1e-8


def test_spectrum_stability_flags_flat(geom):
    box = LatticeBox(2, 6)
    op = lap.assemble_riemannian(met.metric_flat(geom), box)
    res = lap.spectrum(op)
    lam = res.stable_eigenvalues
    assert np.array_equal(lam, lap.lattice_eigenvalues(box)[: lam.size])
    assert lam.max() < (box.radius + 1) ** 2 + 1e-9
    with pytest.raises(UnstableSpectrum):
        lap.spectrum(op, count=box.size)


def test_generalized_eigensolve_agrees(geom):
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 10))
    lam = lap.spectrum(op).stable_eigenvalues[:26]
    lam_gen = lap.generalized_spectrum(op)[:26]
    assert lam.size == 26
    # the two paths agree to roundoff on the lowest modes, which the box
    # resolves; higher stable ones differ by the boundary truncation, which
    # they treat apart (about 6e-6 across all stable eigenvalues)
    diffs = np.abs(lam - lam_gen) / (1.0 + np.abs(lam_gen))
    assert diffs.max() < 1e-6


def test_deformed_flat_spectrum_match(geom):
    dk, ct = _ct_metric(geom)
    box = LatticeBox(2, 10)
    op = lap.assemble_riemannian(ct, box)
    res = lap.spectrum(op)
    a = lap.conformally_deformed_flat_matrix(dk, box)
    assert np.max(np.abs(a - a.conj().T)) < 1e-12
    lam = np.linalg.eigvalsh(a)
    stable = res.stable_eigenvalues
    rel = np.abs(stable - lam[: stable.size]) / (1.0 + np.abs(stable))
    assert rel.max() < 1e-3


def test_principal_symbol_invertible(geom):
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 8))
    lo, hi = lap.principal_symbol_bounds(op, samples=12)
    assert lo > 0.1 and hi < 10.0


def test_product_metric_expanded_operator(geom, rng):
    """Two-factor diagonal metric reproduces the expanded coefficient form."""
    w = trig_pair(geom, 0, 0.12)
    k1, k2 = alg.exp_series(w), alg.exp_series(alg.scale(w, 0.7))
    zero = AlgebraElement.zeros(geom, 0)
    gmat = TorusMatrix(
        geom,
        2,
        [[alg.multiply(k1, k1), zero], [zero, alg.multiply(k2, k2)]],
    )
    g = met.validate_metric(gmat, LatticeBox(2, 10))
    op = lap.assemble_riemannian(g, LatticeBox(2, 10))
    u = random_element(geom, 3, rng)
    lhs = alg.scale(op.apply(u), -1.0)
    k1i, k2i = alg.exp_series(alg.scale(w, -1.0)), alg.exp_series(alg.scale(w, -0.7))
    term = lambda ki, axis: alg.multiply(
        alg.multiply(ki, ki),
        alg.derivation(alg.derivation(u, axis), axis),
    )
    inv12 = alg.multiply(k1i, k2i)
    grad1 = alg.multiply(
        alg.multiply(inv12, alg.derivation(alg.multiply(k2, k1i), 0)),
        alg.derivation(u, 0),
    )
    grad2 = alg.multiply(
        alg.multiply(inv12, alg.derivation(alg.multiply(k1, k2i), 1)),
        alg.derivation(u, 1),
    )
    rhs = alg.add(alg.add(term(k1i, 0), term(k2i, 1)), alg.add(grad1, grad2))
    assert coeff_diff(alg.resize(lhs, 5), alg.resize(rhs, 5)) < 1e-7


def test_weyl_constant_flat(geom):
    flat = met.metric_flat(geom)
    wc = lap.weyl_constant(flat, met.riemannian_density(flat), LatticeBox(2, 6), 32)
    assert wc.quadrature == pytest.approx(np.pi, abs=1e-12)
    assert wc.closed_form == pytest.approx(np.pi, abs=1e-12)


def test_weyl_constant_scaling(geom):
    """Homogeneity: scaling the metric by t scales the constant by t^{n/2}."""
    t = 4.0
    scaled = met.metric_constant(geom, t * np.eye(2))
    wc = lap.weyl_constant(scaled, met.riemannian_density(scaled), LatticeBox(2, 6), 32)
    assert wc.quadrature == pytest.approx(t * np.pi, rel=1e-12)
    assert wc.closed_form == pytest.approx(t * np.pi, rel=1e-12)


def test_weyl_constant_conformal(geom):
    dk, ct = _ct_metric(geom)
    wc = lap.weyl_constant(ct, met.riemannian_density(ct), LatticeBox(2, 8), 48)
    assert wc.residual < 1e-6
    expect = np.pi * alg.trace(alg.multiply(dk.nu, dk.nu)).real
    assert wc.closed_form == pytest.approx(expect, rel=1e-10)


def test_weyl_fit_flat(geom):
    box = LatticeBox(2, 12)
    op = lap.assemble_riemannian(met.metric_flat(geom), box)
    res = lap.spectrum(op)
    assert res.stable_count() > 400
    fit = lap.weyl_fit(res, np.pi, (50, 300))
    assert abs(fit.exponent - 1.0) < 0.05
    assert 0.85 < fit.counting_ratio_min and fit.counting_ratio_max < 1.15
    with pytest.raises(WindowOutOfRange):
        lap.weyl_fit(res, np.pi, (50, 10_000))


def test_interior_indices(geom):
    box = LatticeBox(2, 4)
    idx = lap.interior_indices(box, 2)
    assert len(idx) == 25
    modes = box.modes()[idx]
    assert np.max(np.abs(modes)) <= 2
