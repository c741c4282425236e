import numpy as np
import pytest

from nctorus import algebra as alg, calculus as calc, laplacian as lap
from nctorus import metrics as met, oracle as orc
from nctorus.algebra import AlgebraElement, LatticeBox
from nctorus.errors import AliasingRisk, NonzeroTheta
from nctorus.sampling import random_element

from conftest import coeff_diff, matrix_diff, trig_pair


def test_grid_roundtrip(geom0, rng):
    u = random_element(geom0, 3, rng)
    back = orc.from_grid(geom0, orc.to_grid(u), 3)
    assert coeff_diff(back, u) < 1e-13
    const = alg.scale(AlgebraElement.identity(geom0), 2.5 - 1.0j)
    samples = orc.to_grid(const, 8)
    assert np.max(np.abs(samples - (2.5 - 1.0j))) < 1e-14


def test_grid_roundtrip_clipped_to_support(geom0, rng):
    # a radius-12 box holding support 3 fits a 9-point grid: only the support
    # is written, bit for bit as a per-mode loop writes it, and reading the
    # samples back recovers every coefficient
    small = random_element(geom0, 3, rng)
    u = alg.resize(small, 12)
    samples = orc.to_grid(u, 9)
    ref = np.zeros((9, 9), dtype=complex)
    for k in small.box.modes():
        ref[tuple(k % 9)] += small.coefficient(k)
    assert np.array_equal(samples, np.fft.ifftn(ref) * 81)
    assert coeff_diff(orc.from_grid(geom0, samples, 4), u) < 1e-13


def test_basis_samples_are_exponentials(geom0):
    v = AlgebraElement.basis(geom0, (1, 0))
    grid = 8
    samples = orc.to_grid(v, grid)
    x = 2.0 * np.pi * np.arange(grid) / grid
    expect = np.exp(1j * x)[:, None] * np.ones(grid)[None, :]
    assert np.max(np.abs(samples - expect)) < 1e-13


def test_oracle_guards(geom, geom0, rng):
    with pytest.raises(NonzeroTheta):
        orc.to_grid(random_element(geom, 2, rng))
    u = random_element(geom0, 3, rng)
    with pytest.raises(AliasingRisk):
        orc.to_grid(u, 5)
    with pytest.raises(AliasingRisk):
        orc.from_grid(geom0, np.zeros((5, 5)), 3)


def test_algebraic_operations_match(geom0, rng):
    u = random_element(geom0, 3, rng)
    v = random_element(geom0, 2, rng)
    assert coeff_diff(alg.multiply(u, v), orc.oracle_multiply(u, v)) < 1e-12
    assert coeff_diff(alg.adjoint(u), orc.oracle_adjoint(u)) < 1e-12
    grid = orc.grid_for(u)
    gu, gv = orc.to_grid(u, grid), orc.to_grid(v, grid)
    assert abs(alg.trace(u) - gu.mean()) < 1e-12
    assert abs(alg.inner_product(u, v) - (gu * np.conj(gv)).mean()) < 1e-12
    du = orc.from_grid(geom0, orc._grid_derivative(gu, 1), 3)
    assert coeff_diff(alg.derivation(u, 1), du) < 1e-12


def test_funcalc_matches_pointwise(geom0):
    x = alg.add(
        alg.scale(AlgebraElement.identity(geom0), 2.0),
        trig_pair(geom0, 0, 0.4) + trig_pair(geom0, 1, 0.2),
    )
    box = LatticeBox(2, 10)
    for fn in ("sqrt", "log", "inv", ("pow", -0.5)):
        a = calc.functional_calculus(x, fn, box)
        b = orc.oracle_funcalc(x, fn, radius=10)
        assert coeff_diff(alg.resize(a, 5), alg.resize(b, 5)) < 1e-8
    half = alg.scale(x, 0.5)
    a = calc.functional_calculus(half, "exp", box)
    b = orc.oracle_funcalc(half, "exp", radius=10)
    assert coeff_diff(alg.resize(a, 5), alg.resize(b, 5)) < 1e-8


def test_matrix_funcalc_matches_pointwise(geom0):
    box = LatticeBox(2, 8)
    dk = met.density_exp(trig_pair(geom0, 0, 0.15) + trig_pair(geom0, 1, 0.1))
    ct = met.metric_conformal(met.metric_flat(geom0), dk.nu, box)
    inv_main = calc.matrix_inverse(ct.matrix, box)
    inv_orc = orc.oracle_matrix_funcalc(ct.matrix, "inv", radius=8)
    assert matrix_diff(inv_main.resize(4), inv_orc.resize(4)) < 1e-8


def test_determinant_and_density_match(geom0):
    box = LatticeBox(2, 10)
    dk = met.density_exp(trig_pair(geom0, 0, 0.15) + trig_pair(geom0, 1, 0.1))
    ct = met.metric_conformal(met.metric_flat(geom0), dk.nu, box)
    d = calc.determinant(ct.matrix, box)
    d_orc = orc.oracle_det(ct.matrix, radius=10)
    assert coeff_diff(alg.resize(d, 5), alg.resize(d_orc, 5)) < 1e-8
    # pointwise determinant of a diagonal field is the product of the entries
    zero = AlgebraElement.zeros(geom0, 0)
    a, b = dk.nu, alg.exp_series(trig_pair(geom0, 0, 0.1))
    diag = calc.TorusMatrix(geom0, 2, [[a, zero], [zero, b]])
    assert coeff_diff(
        orc.oracle_det(diag, radius=8), alg.resize(alg.multiply(a, b), 8)
    ) < 1e-12
    dens = met.riemannian_density(ct)
    dens_orc = orc.oracle_density(ct.matrix, radius=10)
    assert coeff_diff(alg.resize(dens.nu, 5), alg.resize(dens_orc, 5)) < 1e-8


def test_laplacian_apply_and_matrix_match(geom0, rng):
    box = LatticeBox(2, 8)
    cb = LatticeBox(2, 10)
    dk = met.density_exp(trig_pair(geom0, 0, 0.15) + trig_pair(geom0, 1, 0.1))
    ct = met.metric_conformal(met.metric_flat(geom0), dk.nu, cb)
    op = lap.assemble_riemannian(ct, box, mult_radius=2)
    u = random_element(geom0, 3, rng)
    a_main = op.apply_exact(u)
    a_orc = orc.oracle_laplacian_apply(op.prefactor, op.multipliers, u)
    assert coeff_diff(alg.resize(a_main, 7), alg.resize(a_orc, 7)) < 1e-12
    m_orc = orc.oracle_laplacian_matrix(op.prefactor, op.multipliers, box)
    rows = lap.interior_indices(box, 4)
    assert np.max(np.abs((lap.operator_matrix(op)[0] - m_orc)[rows])) < 1e-12


def test_oracle_flat_spectrum(geom0):
    box = LatticeBox(2, 4)
    one = AlgebraElement.identity(geom0)
    zero = AlgebraElement.zeros(geom0, 0)
    mult = ((one, zero), (zero, one))
    m = orc.oracle_laplacian_matrix(one, mult, box)
    lam = np.sort(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
    assert np.max(np.abs(lam - lap.lattice_eigenvalues(box))) < 1e-12
