import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from nctorus import algebra as alg, calculus as calc, forms, laplacian as lap, metrics as met
from nctorus.algebra import AlgebraElement, LatticeBox
from nctorus.calculus import TorusMatrix
from nctorus.errors import (
    BoxTooSmall,
    PositivityViolation,
    SpectralFloorViolation,
    WindowOutOfRange,
)
from nctorus.sampling import random_density, random_element, random_hermitian_matrix

from conftest import coeff_diff, generalized_spectrum, spectrum, trig_pair, witness_metric


def _ct_metric(geom, calc_radius=10, a0=0.15, a1=0.1):
    dk = met.density_exp(trig_pair(geom, 0, a0) + trig_pair(geom, 1, a1))
    ct = met.metric_conformal(
        met.metric_flat(geom), dk.nu, LatticeBox(2, calc_radius)
    )
    return dk, ct


def _apply(mat, box, u):
    """The matrix M of an operator on the box (lap.operator_matrix) applied
    to u, resized to the box, as an element."""
    vec = mat @ alg.resize(u, box.radius).vector()
    return AlgebraElement(u.geometry, box, vec.reshape(box.shape))


def test_operator_and_spectrum_arrays_read_only(geom):
    box = LatticeBox(2, 3)
    op = lap.assemble_riemannian(met.metric_flat(geom), box)
    res = spectrum(op)
    tables = [op.prefactor, op.gram] + [a for row in op.multipliers for a in row]
    arrays = [calc.compress(AlgebraElement.identity(geom), box).matrix, op.h_inv.coeffs,
              res.eigenvalues, res.stable, res.multiplicity_group] + [e.table for e in tables]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_flat_operator_diagonal(geom, geom0):
    for g in (geom0, geom):
        box = LatticeBox(2, 4)
        mat, asym = lap.operator_matrix(lap.assemble_riemannian(met.metric_flat(g), box))
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) == 0.0
        assert asym == 0.0
        diag = np.sort(np.real(np.diag(mat)))
        assert np.array_equal(diag, lap.lattice_eigenvalues(box))


def test_flat_multiplicities(geom):
    box = LatticeBox(2, 4)
    op = lap.assemble_riemannian(met.metric_flat(geom), box)
    res = spectrum(op)
    assert res.multiplicity_of(0.0) == 1
    assert res.multiplicity_of(1.0) == 4
    assert res.multiplicity_of(2.0) == 4
    assert res.multiplicity_of(25.0) == 8  # (0, +-5) modes exceed the box


def test_flat_assemble_raw_path(geom):
    """assemble() with an identity matrix and unit density stays diagonal."""
    box = LatticeBox(2, 6)
    h_inv = calc.matrix_inverse(TorusMatrix.identity(geom, 2), box)
    mat = lap.operator_matrix(lap.assemble(h_inv, met.density_one(geom), box))[0]
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-12
    assert np.max(np.abs(np.sort(np.real(np.diag(mat))) -
                         lap.lattice_eigenvalues(box))) < 1e-12


def test_constants_killed_exactly(geom, rng):
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 8))
    delta0 = np.zeros(op.box.size)
    delta0[op.box.index_of((0, 0))] = 1.0
    assert np.max(np.abs(lap.operator_matrix(op)[0] @ delta0)) == 0.0


def test_box_too_small(geom):
    dk, ct = _ct_metric(geom)
    with pytest.raises(BoxTooSmall):
        lap.assemble_riemannian(ct, LatticeBox(2, 10), mult_radius=3)


def test_spectrum_refuses_stability_box_not_larger(geom):
    # pairing the spectrum with itself, or with a smaller box's, tests nothing
    op = lap.assemble_riemannian(met.metric_flat(geom), LatticeBox(2, 4))
    for radius in (4, 2):
        with pytest.raises(BoxTooSmall):
            spectrum(op, stability_radius=radius)


def test_conformal_operator_interior_identity(geom):
    """2-d conformal covariance at the operator level, flat base."""
    dk, ct = _ct_metric(geom)
    rep, _ = lap.conformal_covariance_check(
        met.metric_flat(geom), dk, LatticeBox(2, 10), LatticeBox(2, 10)
    )
    assert rep["two_dim_residual"] < 1e-8


def test_conformal_identity_factor(geom):
    rep, _ = lap.conformal_covariance_check(
        met.metric_flat(geom), met.density_one(geom), LatticeBox(2, 6), LatticeBox(2, 6)
    )
    assert rep["two_dim_residual"] < 1e-12


def test_conformal_constant_base(geom):
    w = trig_pair(geom, 0, 0.1) + trig_pair(geom, 1, 0.07)
    dk = met.density_exp(w)
    base = met.metric_constant(geom, [[1.4, 0.3], [0.3, 0.9]], box=LatticeBox(2, 4))
    rep, _ = lap.conformal_covariance_check(base, dk, LatticeBox(2, 10), LatticeBox(2, 10))
    assert rep["two_dim_residual"] < 1e-8


def test_self_compatible_commuted_form(geom):
    """For a self-compatible metric the commuted assembly
    -det^{-1/2} sum d_i(det^{1/2} g^{ij} d_j) agrees on interior rows."""
    _, ct = _ct_metric(geom)
    assert ct.is_self_compatible()
    box = LatticeBox(2, 10)
    op = lap.assemble_riemannian(ct, box)
    b = TorusMatrix.scalar(op.nu.nu, 2).matmul(ct.inverse)
    commuted, _ = lap.operator_matrix(dataclasses.replace(op, multipliers=b.entries))
    rows = lap.interior_indices(box, box.radius // 2)
    assert np.max(np.abs((lap.operator_matrix(op)[0] - commuted)[rows])) < 1e-9


def test_green_identity(geom, rng):
    """<L u, v>_nu^o = <du, dv>_h,nu^o through the assembled matrix."""
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 10))
    mat = lap.operator_matrix(op)[0]
    for _ in range(5):
        u = random_element(geom, 3, rng)
        v = random_element(geom, 3, rng)
        lhs = alg.weighted_inner_product_opp(_apply(mat, op.box, u), v, op.nu.nu)
        rhs = forms.form_inner_product(
            forms.differential(u), forms.differential(v), op.h_inv, op.nu
        )
        assert abs(lhs - rhs) < 1e-9


def test_matrix_application_matches_exact_path(geom, rng):
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 10))
    u = random_element(geom, 3, rng)
    via_matrix = _apply(lap.operator_matrix(op)[0], op.box, u)
    via_elements = op.apply_exact(u)
    assert coeff_diff(alg.resize(via_matrix, 5), alg.resize(via_elements, 5)) < 1e-11


@pytest.mark.parametrize("case", ["n2-readme", "n3-witness"])
def test_spectrum_is_monotone_in_the_box(geom, geom3, case):
    """The pencil on a box is the stability box's restricted to its modes, so
    by Courant-Fischer each eigenvalue is at or above its index partner on
    the larger box, at theta != 0, at n = 2 (README metric, B_6 against B_8)
    and n = 3 (witness metric, B_3 against B_4)."""
    if case == "n2-readme":
        g, box, big = _ct_metric(geom)[1], LatticeBox(2, 6), LatticeBox(2, 8)
    else:
        g, box, big = witness_metric(geom3, 3), LatticeBox(3, 3), LatticeBox(3, 4)
    op = lap.assemble_riemannian(g, box)
    lam = lap.spectrum(op, stability_radius=big.radius).eigenvalues
    lam2 = lap._pencil(op, big)[0][: lam.size]
    assert np.all(lam >= lam2 - 1e-10 * np.maximum(1.0, np.abs(lam2)))
    assert np.max(lam - lam2) > 1e-6  # the larger box lowers the upper part


def test_asymmetry_of_a_non_selfadjoint_inverse_metric(geom, rng):
    """An h_inv whose entries (0, 1) and (1, 0) are not adjoints, by 1e-6,
    gives a stiffness matrix K that is not Hermitian: the asymmetry reads it
    on both boxes, above the default gate of 1e-8."""
    box = LatticeBox(2, 6)
    h = random_hermitian_matrix(geom, 2, 1, rng, amplitude=0.2)
    h_inv = calc.matrix_inverse(h, box)
    entries = [list(row) for row in h_inv.entries]
    entries[0][1] = alg.add(entries[0][1], alg.scale(AlgebraElement.basis(geom, (1, 0)), 1e-6))
    skewed = TorusMatrix(geom, 2, entries)
    dens = random_density(geom, rng, amplitude=0.15)
    assert lap.operator_matrix(lap.assemble(h_inv, dens, box))[1] <= 1e-13
    op = lap.assemble(skewed, dens, box)
    res = lap.spectrum(op)
    assert res.asymmetry == lap.operator_matrix(op)[1]
    assert min(res.asymmetry, res.stability_asymmetry) > 1e-8


def test_spectrum_refuses_a_gram_element_that_is_not_positive(geom):
    """nu = 1 + 1.5 (V_e1 + V_-e1) is not positive: its Gram matrix M(nu) is
    not positive definite, and the spectrum refuses it."""
    nu = alg.add(AlgebraElement.identity(geom), trig_pair(geom, 0, 1.5))
    dens = dataclasses.replace(met.density_one(geom), nu=nu)
    op = lap.assemble(calc.matrix_inverse(TorusMatrix.identity(geom, 2), LatticeBox(2, 4)),
                      dens, LatticeBox(2, 4))
    with pytest.raises(PositivityViolation, match="Gram matrix"):
        lap.spectrum(op)


def test_pencil_refuses_a_blocked_gram_factor_that_fails(geom):
    """nu = 1 + 1.5 (V_e1 + V_-e1) + 0.1 (V_e2 + V_-e2) is not positive, and
    its modes on a box form one class: the Gram block of the stability box
    (d = 441) fails in the factor built by blocks, and the spectrum refuses
    it as it refuses a small block."""
    nu = alg.add(alg.add(AlgebraElement.identity(geom), trig_pair(geom, 0, 1.5)), trig_pair(geom, 1, 0.1))
    dens = dataclasses.replace(met.density_one(geom), nu=nu)
    box = LatticeBox(2, 8)
    op = lap.assemble(calc.matrix_inverse(TorusMatrix.identity(geom, 2), box), dens, box)
    with pytest.raises(PositivityViolation, match="Gram matrix M\\(nu\\) on the box of radius 10"):
        lap.spectrum(op)


def test_kernel_and_nonnegativity(geom, rng):
    box = LatticeBox(2, 10)
    for _ in range(3):
        h = random_hermitian_matrix(geom, 2, 1, rng, amplitude=0.2)
        dens = random_density(geom, rng, amplitude=0.15)
        op = lap.assemble(calc.matrix_inverse(h, box), dens, box)
        res = spectrum(op)
        stable = res.stable_eigenvalues
        assert abs(stable[0]) <= 1e-8
        assert np.sum(np.abs(stable) <= 1e-8) == 1
        assert stable.min() >= -1e-8


def test_spectrum_stability_flags_flat(geom):
    box = LatticeBox(2, 6)
    op = lap.assemble_riemannian(met.metric_flat(geom), box)
    res = spectrum(op)
    lam = res.stable_eigenvalues
    assert np.array_equal(lam, lap.lattice_eigenvalues(box)[: lam.size])
    assert lam.max() < (box.radius + 1) ** 2 + 1e-9
    assert res.stable_count() < box.size


def _dense_pencil(op, box):
    """Asymmetry and eigenvalues of the operator's pencil on the box, from its
    dense compressions: the stiffness matrix K = -sum_ij D_i M(a_ij) D_j,
    ||K - K*|| / ||K|| (Frobenius norms, their squares summed pairwise by
    np.sum, to roundoff at any size), and one eigh of (K + K*)/2 against
    M(nu)."""
    deriv = 1j * box.modes().astype(float)
    k = -sum(
        calc.compress(a, box).matrix * deriv[:, i, None] * deriv[None, :, j]
        for i, row in enumerate(op.multipliers) for j, a in enumerate(row)
    )
    asym = np.sqrt(np.sum(np.abs(k - k.conj().T) ** 2) / np.sum(np.abs(k) ** 2))
    gram = calc.compress(op.gram, box).matrix
    return asym, scipy.linalg.eigh(0.5 * (k + k.conj().T), gram, eigvals_only=True)


def _even_conformal_metric(geom):
    """k^2 delta with k = exp of the modes (+-2, 0) and (0, +-2): every
    coefficient lies in 2Z^2."""
    w = AlgebraElement.from_modes(geom, {(2, 0): 0.15, (-2, 0): 0.15, (0, 2): 0.1, (0, -2): 0.1})
    return met.metric_conformal(met.metric_flat(geom), met.density_exp(w).nu, LatticeBox(2, 8))


@pytest.mark.parametrize("case", ["n3-sectors", "n2-cosets"])
def test_block_spectrum_matches_dense_solve(geom, geom3, case):
    """A metric whose coefficients lie in a sublattice splits the box into
    classes of modes (the sectors sum(k) = s of a rank-2 sublattice, the
    four cosets of 2Z^2); the blocks' spectra and asymmetries are the dense
    pencil's, and so are the flags and the multiplicity groups."""
    if case == "n3-sectors":
        g, box, big = witness_metric(geom3, 2), LatticeBox(3, 2), LatticeBox(3, 3)
        counts = (13, 19)  # 2 n R + 1 values of sum(k) on B_R
    else:
        g, box, big = _even_conformal_metric(geom), LatticeBox(2, 4), LatticeBox(2, 6)
        counts = (4, 4)
    op = lap.assemble_riemannian(g, box)
    res = lap.spectrum(op, stability_radius=big.radius)
    assert (len(res.block_sizes), len(res.stability_block_sizes)) == counts
    assert sum(res.block_sizes) == box.size and sum(res.stability_block_sizes) == big.size
    asym, lam = _dense_pencil(op, box)
    asym2, lam2 = _dense_pencil(op, big)
    for got, want in ((res.eigenvalues, lam), (lap._pencil(op, big)[0], lam2)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert abs(res.asymmetry - asym) <= 1e-12 * asym
    assert abs(res.stability_asymmetry - asym2) <= 1e-12 * asym2
    assert np.array_equal(res.stable, lap._stable_prefix(lam, lam2, 1e-3))
    assert np.array_equal(res.multiplicity_group, lap._group_multiplicities(lam, 1e-6))
    # the operator's matrix M is exactly zero between classes
    label = np.empty(box.size, dtype=int)
    plan, _ = lap._stiffness(op.prefactor, op.gram, op.multipliers, box)
    for c, idx in enumerate(plan.classes):
        label[idx] = c
    apart = label[:, None] != label[None, :]
    assert not lap.operator_matrix(op)[0][apart].any()


def test_mode_classes_of_the_readme_and_flat_metrics(geom, geom3):
    """The README metric couples every mode of its box; the flat metric
    none, so each mode is a class of its own."""
    _, ct = _ct_metric(geom)
    for g, box in ((ct, LatticeBox(2, 10)), (met.metric_flat(geom3), LatticeBox(3, 4))):
        op = lap.assemble_riemannian(g, box)
        elements = [op.prefactor, op.gram] + [a for row in op.multipliers for a in row]
        classes = calc._mode_classes(box, [e.table for e in elements])
        assert list(lap._pencil(op, box)[2]) == [idx.size for idx in classes]
        if g is ct:
            assert len(classes) == 1
        else:
            assert [idx.tolist() for idx in classes] == [[i] for i in range(box.size)]


@pytest.fixture(scope="module")
def witness_operator(geom3):
    """The operator of the n = 3 spectrum benchmark's metric on its box."""
    return lap.assemble_riemannian(witness_metric(geom3, 3), LatticeBox(3, 4))


def test_spectrum_block_sizes_of_the_witness_metric(witness_operator):
    """The sectors sum(k) = s: 25 classes on B_4 and 31 on B_5."""
    res = lap.spectrum(witness_operator, stability_radius=5)
    assert len(res.block_sizes) == 25 and max(res.block_sizes) == 61
    assert len(res.stability_block_sizes) == 31 and max(res.stability_block_sizes) == 91
    assert sum(res.stability_block_sizes) == LatticeBox(3, 5).size


def test_witness_metric_build_makes_no_dense_compression(geom3):
    """Validating the witness metric inverts it class by class: no
    compression of the 3 x 3 metric on its calc box, d = 3 |B_3|, is built."""
    d = 3 * LatticeBox(3, 3).size
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        witness_metric(geom3, 3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 16 * d * d


def test_witness_spectrum_makes_no_dense_compression(witness_operator):
    """The stability pass on the witness operator builds its class blocks
    directly, with no d x d compression to gather them from, d = |B_stab|."""
    d = LatticeBox(3, 5).size
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lap.spectrum(witness_operator, stability_radius=5)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 16 * d * d


def test_witness_operator_keeps_its_tables_alone(geom3):
    """The assembled witness operator keeps its multipliers' coefficient
    tables and nothing else of size: no matrix, no stiffness or Gram
    blocks, on a box of d = |B_4| modes.  nu^{-1} and nu are the density's
    own elements."""
    g = witness_metric(geom3, 3)
    dens = met.riemannian_density(g)
    box = LatticeBox(3, 4)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op = lap.assemble(g.inverse, dens, box)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert op.prefactor is dens.inv_nu and op.gram is dens.nu
    kept -= sum(a.table.nbytes for row in op.multipliers for a in row)
    assert kept <= 16 * 1024  # the operator's Python objects


def test_witness_operator_matrix_is_held_alone(witness_operator):
    """operator_matrix of the witness operator holds its d x d matrix M
    alone, d = |B_4|: no stiffness or Gram blocks beside it."""
    d = witness_operator.box.size
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mat, _ = lap.operator_matrix(witness_operator)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert mat.shape == (d, d)
    assert kept <= 1.1 * 16 * d * d


def test_spectrum_working_set(geom3, rng):
    """The stability pass holds about two d x d arrays, d = |B_stab|, and
    gives what one dense eigh of the pencil gives."""
    h = random_hermitian_matrix(geom3, 3, 1, rng, amplitude=0.2)
    dens = random_density(geom3, rng, amplitude=0.15)
    box, big = LatticeBox(3, 3), LatticeBox(3, 4)
    op = lap.assemble(calc.matrix_inverse(h, LatticeBox(3, 2)), dens, box)
    d = big.size
    assert d == 729
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = lap.spectrum(op, stability_radius=big.radius)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 16 * d * d
    asym, lam = _dense_pencil(op, box)
    asym2, _ = _dense_pencil(op, big)
    assert abs(res.asymmetry - asym) <= 1e-14 * asym
    assert abs(res.stability_asymmetry - asym2) <= 1e-14 * asym2
    assert np.max(np.abs(res.eigenvalues - lam)) <= 1e-14 * np.max(np.abs(lam))


def test_generalized_eigensolve_agrees(geom):
    dk, ct = _ct_metric(geom)
    op = lap.assemble_riemannian(ct, LatticeBox(2, 10))
    lam = spectrum(op).stable_eigenvalues[:26]
    lam_gen = generalized_spectrum(op)[:26]
    assert lam.size == 26
    # the pencil and the assembled matrix agree on the lowest modes, which
    # the box resolves; higher stable ones differ by the boundary truncation
    # of M(nu) M(nu^{-1}) = 1, which only the assembled matrix carries
    diffs = np.abs(lam - lam_gen) / (1.0 + np.abs(lam_gen))
    assert diffs.max() < 1e-6


def test_deformed_flat_spectrum_match(geom):
    dk, ct = _ct_metric(geom)
    box = LatticeBox(2, 10)
    op = lap.assemble_riemannian(ct, box)
    res = spectrum(op)
    halves = lap.conformally_deformed_flat_matrix(dk, box)
    for a in halves:
        assert np.max(np.abs(a - a.conj().T)) < 1e-12
    lam = np.sort(np.concatenate([np.linalg.eigvalsh(a) for a in halves]))
    stable = res.stable_eigenvalues
    rel = np.abs(stable - lam[: stable.size]) / (1.0 + np.abs(stable))
    assert rel.max() < 1e-3


@pytest.mark.parametrize("odd", [0.0, 0.05])
def test_deformed_flat_forms_match_the_generalized_eigensolve(geom, odd):
    """The standard forms that conformally_deformed_flat_matrix returns,
    the real halves of an even k or, with i odd (V_e1 - V_-e1) added, the
    one complex pencil, have together the eigenvalues of scipy's
    generalized eigensolve of diag(|p|^2) v = lambda M(k^2) v, on a box
    (d = 289) where the Gram matrix is factored in place by blocks."""
    box = LatticeBox(2, 8)
    w = trig_pair(geom, 0, 0.15) + trig_pair(geom, 1, 0.1)
    w = w + AlgebraElement.from_modes(geom, {(1, 0): 1j * odd, (-1, 0): -1j * odd})
    dk = met.density_exp(w)
    forms = lap.conformally_deformed_flat_matrix(dk, box)
    assert len(forms) == (1 if odd else 2)
    assert {a.dtype.kind for a in forms} == ({"c"} if odd else {"f"})
    lam = np.sort(np.concatenate([np.linalg.eigvalsh(a) for a in forms]))
    gram = calc.compress(alg.multiply(dk.nu, dk.nu), box).matrix
    want = scipy.linalg.eigh(np.diag((box.modes() ** 2).sum(axis=1)).astype(complex), gram,
                             eigvals_only=True)
    assert np.max(np.abs(lam - want)) <= 1e-12 * np.max(np.abs(want))


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
    lhs = alg.scale(_apply(lap.operator_matrix(op)[0], op.box, u), -1.0)
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
    assert wc["c_n_quadrature"] == pytest.approx(np.pi, abs=1e-12)
    assert wc["c_n_closed_form"] == pytest.approx(np.pi, abs=1e-12)


def test_weyl_constant_scaling(geom):
    """Homogeneity: scaling the metric by t scales the constant by t^{n/2}."""
    t = 4.0
    scaled = met.metric_constant(geom, t * np.eye(2))
    wc = lap.weyl_constant(scaled, met.riemannian_density(scaled), LatticeBox(2, 6), 32)
    assert wc["c_n_quadrature"] == pytest.approx(t * np.pi, rel=1e-12)
    assert wc["c_n_closed_form"] == pytest.approx(t * np.pi, rel=1e-12)


def test_weyl_constant_conformal(geom):
    dk, ct = _ct_metric(geom)
    wc = lap.weyl_constant(ct, met.riemannian_density(ct), LatticeBox(2, 8), 48)
    assert wc["c_n_residual"] < 1e-6
    expect = np.pi * alg.trace(alg.multiply(dk.nu, dk.nu)).real
    assert wc["c_n_closed_form"] == pytest.approx(expect, rel=1e-10)


def _whole_sphere_rule(n, points):
    """Every node and weight of weyl_constant's sphere rule, before one node
    of each antipodal pair is dropped: p equally spaced angles at n = 2,
    and at n = 3 the Gauss-Legendre product rule, ring by ring."""
    if n == 2:
        angles = 2.0 * np.pi * np.arange(points) / points
        return (np.stack([np.cos(angles), np.sin(angles)], axis=1),
                np.full(points, 2.0 * np.pi / points))
    n_polar = max(2, int(np.sqrt(points)))
    n_azim = max(4, 2 * n_polar)
    z, wz = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * np.pi * np.arange(n_azim) / n_azim
    nodes = [[np.sqrt(max(0.0, 1.0 - zi * zi)) * f(p) for f in (np.cos, np.sin)] + [zi]
             for zi in z for p in phi]
    return np.array(nodes), np.repeat(wz * 2.0 * np.pi / n_azim, n_azim)


def _per_node_quadrature(g, box, points):
    """weyl_constant's quadrature over the whole sphere rule, each node's
    symbol compressed alone and diagonalized whole:
    tau(f(C)) = sum_k f(lambda_k) |v_k(0)|^2."""
    n = g.n
    nodes, weights = _whole_sphere_rule(n, points)
    zero = box.index_of(np.zeros(n, dtype=int))
    total = 0.0
    for xi, w in zip(nodes, weights):
        table = np.einsum("i,j,ij...->...", xi, xi, g.inverse.coeffs)
        s = AlgebraElement(g.geometry, g.inverse.box, table)
        symbol = alg.scale(alg.add(s, alg.adjoint(s)), 0.5)
        lam, vecs = np.linalg.eigh(calc.compress(symbol, box).matrix)
        total += w * float(np.sum(lam ** (-n / 2.0) * np.abs(vecs[zero]) ** 2))
    return total / n


def test_weyl_constant_matches_per_node_compressions(geom, geom3):
    """Reading each node's symbol through the functional calculus gives the
    quadrature of compressing and diagonalizing it whole: on the
    conformal metric, on a diagonal metric whose entries do not commute (not
    self-compatible), and at n = 3 (Lanczos) on a conformal metric with
    off-diagonal entries and on the witness metric, whose symbol couples the
    modes of each plane sum(k) = s alone: each node is floor-tested on all
    13 class blocks and read on mode 0's."""
    one = AlgebraElement.identity(geom)
    rough = TorusMatrix(geom, 2, [
        [alg.add(alg.scale(one, 2.0), trig_pair(geom, 0, 0.4)), AlgebraElement.zeros(geom, 0)],
        [AlgebraElement.zeros(geom, 0), alg.add(alg.scale(one, 2.0), trig_pair(geom, 1, 0.4))],
    ])
    box2, box3 = LatticeBox(2, 6), LatticeBox(3, 2)
    rough2 = met.validate_metric(rough, box2)
    assert not rough2.is_self_compatible()
    _, ct = _ct_metric(geom, calc_radius=6)
    k3 = alg.add(AlgebraElement.identity(geom3), trig_pair(geom3, 2, 0.1))
    base3 = met.metric_constant(geom3, [[1.3, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]])
    ct3 = met.metric_conformal(base3, k3, box3)
    witness = witness_metric(geom3, 2)
    parts = lap._symbol_parts(witness.inverse).values()
    assert len(calc._mode_classes(box3, [s.table for s in parts])) == 13
    for g, box, points in ((ct, box2, 24), (ct, box2, 25), (rough2, box2, 24),
                           (rough2, box2, 7), (ct3, box3, 16), (ct3, box3, 10),
                           (witness, box3, 16)):
        got = lap.weyl_constant(g, None, box, quadrature_points=points)["c_n_quadrature"]
        want = _per_node_quadrature(g, box, points)
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("n, points, kept", [
    (2, 64, 32), (2, 24, 12), (2, 25, 25), (2, 7, 7), (2, 1, 1),
    (3, 64, 64), (3, 10, 9), (3, 16, 16), (3, 50, 49), (3, 1, 4),
])
def test_sphere_nodes_keep_one_node_of_each_antipodal_pair(n, points, kept):
    """The rule keeps one node of each antipodal pair with twice its weight,
    the node bit for bit the whole rule's; at n = 2 with p odd no node's
    antipode is in the rule, and every node is kept."""
    nodes, weights = lap._sphere_nodes(n, points)
    whole, whole_weights = _whole_sphere_rule(n, points)
    assert len(weights) == kept
    assert weights.sum() == pytest.approx(2.0 * np.pi if n == 2 else 4.0 * np.pi, rel=1e-14)
    # no kept node's antipode is also kept
    sums = np.linalg.norm(nodes[:, None, :] + nodes[None, :, :], axis=2)
    assert np.min(sums) > 1e-6
    for xi, w in zip(nodes, weights):
        at = np.flatnonzero((whole == xi).all(axis=1))
        assert at.size == 1  # the whole rule's node, bit for bit
        if kept == len(whole_weights):
            assert w == whole_weights[at[0]]
        else:  # twice the weight, which its antipode in the whole rule carries too
            opposite = np.argmin(np.linalg.norm(whole + xi, axis=1))
            assert np.linalg.norm(whole[opposite] + xi) <= 1e-14
            assert w == 2.0 * whole_weights[at[0]] == 2.0 * whole_weights[opposite]


def test_weyl_constant_working_set(geom):
    """On the README metric, weyl_constant holds one node's compression on
    the calc box and its floor test's copy at a time: within the n^2 dense
    arrays of 16 |B|^2 bytes that BoxTooLarge budgets, n = 2."""
    _, ct = _ct_metric(geom)
    dens = met.riemannian_density(ct)
    box = LatticeBox(2, 10)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lap.weyl_constant(ct, dens, box, quadrature_points=16)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2**2 * 16 * box.size**2


def test_weyl_constant_refuses_a_non_elliptic_symbol(geom):
    """The floor test of each node's compression is the ellipticity check: the
    symbol (xi, xi)_{g^{-1}} of diag(1, -1) is -1 at xi = (0, 1)."""
    indefinite = TorusMatrix.from_scalar_matrix(geom, [[1.0, 0.0], [0.0, -1.0]])
    g = met.RiemannianMetric(indefinite, indefinite, LatticeBox(2, 2))
    with pytest.raises(SpectralFloorViolation):
        lap.weyl_constant(g, None, LatticeBox(2, 4), quadrature_points=8)


@pytest.mark.parametrize("n", [2, 3])
def test_an_operator_is_safe_to_share_across_threads(geom, geom3, n):
    """README: operators, metrics and densities are safe to share across
    threads.  Four threads, started together, share one assembled operator
    at theta != 0: the README metric at n = 2 and the n = 3 spectrum
    benchmark's metric, on small boxes, switching often.  Each thread's
    spectrum and Weyl constant equal the serial ones bit for bit."""
    if n == 2:
        g, box, stability = _ct_metric(geom, 6)[1], LatticeBox(2, 6), 8
    else:
        g, box, stability = witness_metric(geom3, 3), LatticeBox(3, 3), 4
    dens = met.riemannian_density(g)
    op = lap.assemble_riemannian(g, box, density=dens)

    def run():
        lam = lap.spectrum(op, stability_radius=stability).eigenvalues
        return lam, lap.weyl_constant(g, dens, box, 16)

    lam, wc = run()
    start = threading.Barrier(4, timeout=60)

    def shared():
        start.wait()
        return run()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that a race shows
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(shared) for _ in range(4)]
            for done in runs:
                got_lam, got_wc = done.result(timeout=120)
                assert np.array_equal(got_lam, lam) and got_wc == wc
    finally:
        sys.setswitchinterval(switch)


def test_weyl_fit_flat(geom):
    box = LatticeBox(2, 12)
    op = lap.assemble_riemannian(met.metric_flat(geom), box)
    res = spectrum(op)
    assert res.stable_count() > 400
    fit = lap.weyl_fit(res, np.pi, (50, 300))
    assert abs(fit["exponent"] - 1.0) < 0.05
    ratio_min, _, ratio_max = fit["counting_ratio"]
    assert 0.85 < ratio_min and ratio_max < 1.15
    with pytest.raises(WindowOutOfRange):
        lap.weyl_fit(res, np.pi, (50, 10_000))


def test_interior_indices(geom):
    box = LatticeBox(2, 4)
    idx = lap.interior_indices(box, 2)
    assert len(idx) == 25
    modes = box.modes()[idx]
    assert np.max(np.abs(modes)) <= 2
