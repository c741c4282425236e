from types import SimpleNamespace

import numpy as np
import pytest

from nctorus import algebra as alg, calculus as calc, forms, metrics as met
from nctorus.algebra import AlgebraElement, LatticeBox
from nctorus.calculus import TorusMatrix
from nctorus.sampling import (
    random_density,
    random_element,
    random_hermitian_matrix,
    random_one_form,
    random_vector_field,
)

from conftest import coeff_diff


def test_differential_basics(geom):
    one = AlgebraElement.identity(geom)
    assert forms.differential(one).max_abs() == 0.0
    k = np.array([2, -1])
    vk = AlgebraElement.basis(geom, k)
    dv = forms.differential(vk)
    for i in range(2):
        assert coeff_diff(dv.components[i], alg.scale(vk, 1j * k[i])) == 0.0


def test_kernel_of_differential_is_constants(geom):
    # a truncated element with vanishing differential has only the zero mode
    box = LatticeBox(2, 3)
    for k in box.modes():
        if np.any(k):
            dv = forms.differential(AlgebraElement.basis(geom, k, radius=3))
            assert dv.max_abs() > 0.9  # some component keeps the mode
    const = alg.scale(AlgebraElement.identity(geom, radius=3), 2.7 + 0.1j)
    assert forms.differential(const).max_abs() == 0.0


def test_differential_leibniz(geom, rng):
    u, v = random_element(geom, 2, rng), random_element(geom, 2, rng)
    duv = forms.differential(alg.multiply(u, v))
    for i in range(2):
        expect = alg.add(
            alg.multiply(alg.derivation(u, i), v),
            alg.multiply(u, alg.derivation(v, i)),
        )
        assert coeff_diff(duv.components[i], expect) < 1e-13


def test_modular_automorphism(geom, rng):
    one_dens = met.density_one(geom)
    u = random_element(geom, 2, rng)
    assert coeff_diff(forms.modular_automorphism(one_dens, u), u) == 0.0
    dens = random_density(geom, rng, amplitude=0.2)
    v = random_element(geom, 2, rng)
    su, sv = (forms.modular_automorphism(dens, x) for x in (u, v))
    suv = forms.modular_automorphism(dens, alg.multiply(u, v))
    assert coeff_diff(suv, alg.multiply(su, sv)) < 1e-9
    lhs = alg.weighted_inner_product_opp(u, v, dens.nu)
    rhs = alg.inner_product(alg.multiply(su, dens.nu), sv)
    assert abs(lhs - rhs) < 1e-10


def test_modular_automorphism_on_forms(geom, rng):
    dens = random_density(geom, rng, amplitude=0.2)
    omega = random_one_form(geom, 2, rng)
    s_omega = forms.modular_automorphism(dens, omega)
    for i in range(2):
        direct = forms.modular_automorphism(dens, omega.components[i])
        assert coeff_diff(s_omega.components[i], direct) == 0.0


def test_form_inner_product_flat_unit(geom, rng):
    omega = random_one_form(geom, 2, rng)
    zeta = random_one_form(geom, 2, rng)
    eye = TorusMatrix.identity(geom, 2)
    val = forms.form_inner_product(omega, zeta, eye, met.density_one(geom))
    expect = sum(
        alg.inner_product(omega.components[i], zeta.components[i]) for i in range(2)
    )
    assert abs(val - expect) < 1e-12


def test_form_inner_product_positive(geom, rng):
    box = LatticeBox(2, 8)
    h = random_hermitian_matrix(geom, 2, 1, rng, amplitude=0.2)
    h_inv = calc.matrix_inverse(h, box)
    dens = random_density(geom, rng, amplitude=0.15)
    for _ in range(5):
        omega = random_one_form(geom, 2, rng)
        val = forms.form_inner_product(omega, omega, h_inv, dens)
        assert val.real > 0.0 and abs(val.imag) < 1e-10 * (1.0 + val.real)


def test_divergence_vector_field(geom, rng):
    dens = random_density(geom, rng, amplitude=0.2)
    zero_field = forms.VectorField(
        geom, tuple(AlgebraElement.zeros(geom, 1) for _ in range(2))
    )
    assert forms.divergence_vector_field(zero_field, dens).max_abs() == 0.0
    x = random_vector_field(geom, 2, rng)
    one = met.density_one(geom)
    div_flat = forms.divergence_vector_field(x, one)
    expect = alg.add(
        alg.derivation(x.components[0], 0), alg.derivation(x.components[1], 1)
    )
    assert coeff_diff(div_flat, expect) < 1e-13
    for _ in range(5):
        x = random_vector_field(geom, 2, rng)
        dens = random_density(geom, rng, amplitude=0.2)
        val = met.weight(dens, forms.divergence_vector_field(x, dens))
        assert abs(val) < 1e-10


def test_divergence_one_form_flat(geom, rng):
    u = random_element(geom, 3, rng)
    eye = TorusMatrix.identity(geom, 2)
    delta_du = forms.divergence_one_form(forms.differential(u), eye, met.density_one(geom))
    expect = alg.add(
        alg.derivation(alg.derivation(u, 0), 0), alg.derivation(alg.derivation(u, 1), 1)
    )
    assert coeff_diff(delta_du, expect) < 1e-12


def test_adjointness(geom, rng):
    box = LatticeBox(2, 8)
    worst = 0.0
    for _ in range(10):
        h = random_hermitian_matrix(geom, 2, 1, rng, amplitude=0.2)
        h_inv = calc.matrix_inverse(h, box)
        dens = random_density(geom, rng, amplitude=0.15)
        omega = random_one_form(geom, 3, rng)
        u = random_element(geom, 3, rng)
        worst = max(worst, forms.adjointness_residual(omega, u, h_inv, dens))
    assert worst < 1e-10


def test_divergence_matches_dual_field(geom, rng):
    """delta(omega) = [div_nu(X)]* for the twisted dual field X."""
    box = LatticeBox(2, 8)
    dens = random_density(geom, rng, amplitude=0.2)
    omega = random_one_form(geom, 2, rng)
    h = random_hermitian_matrix(geom, 2, 1, rng, amplitude=0.2)
    h_inv = calc.matrix_inverse(h, box)
    delta = forms.divergence_one_form(omega, h_inv, dens)
    x = forms.twisted_dual_vector_field(omega, h_inv, dens)
    alt = alg.adjoint(forms.divergence_vector_field(x, dens))
    assert coeff_diff(delta, alt) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_entrywise_products_match_scalar_matrix_forms(geom, geom3, rng, n):
    """The multipliers and the dual field, taken entry by entry, are the
    products with the scalar matrices nu^{+-1/2} I."""
    geometry = geom if n == 2 else geom3
    # the identities are algebraic: any two elements can stand for nu^{+-1/2}
    dens = SimpleNamespace(sqrt_nu=random_element(geometry, 2, rng),
                           inv_sqrt_nu=random_element(geometry, 1, rng))
    h_inv = random_hermitian_matrix(geometry, n, 1, rng)
    s = TorusMatrix.scalar(dens.sqrt_nu, n)
    expect = s.matmul(h_inv).matmul(s)
    assert coeff_diff(forms._multipliers(dens, h_inv), expect) <= 1e-15 * expect.max_abs()
    omega = random_one_form(geometry, 1, rng)
    stars = forms._stack([alg.adjoint(c) for c in omega.components])[None]
    zi = TorusMatrix.scalar(dens.inv_sqrt_nu, n)
    row = stars
    for factor in (s, h_inv, zi):
        row = alg._twisted_matmul(geometry.theta, row, factor.coeffs)
    x = forms.twisted_dual_vector_field(omega, h_inv, dens)
    for got, want in zip(x.components, row[0]):
        assert np.max(np.abs(got.table - want)) <= 1e-15 * np.max(np.abs(row))
