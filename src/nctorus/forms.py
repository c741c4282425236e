"""Differential 1-forms, the modular automorphism, and divergence operators.

Forms are stored component-first, omega = sum_i theta^i omega_i in the dual
basis of the derivations; vector fields likewise as X = sum_i X^i d_i.  The
divergence of a form,

    delta(omega) = nu^{-1} sum_ij d_i(nu^{1/2} h^{ij} nu^{1/2} omega_j),

is minus the formal adjoint of the differential with respect to the
density-twisted inner products: <-delta(omega), u>_nu^o = <omega, du>_h,nu^o.
The identity is algebraically exact given the shared multiplier elements
and nu nu^{-1} = 1, so its numerical residual tracks the density family's
consistency residual.  Tests feed inputs supported in half the working box
so that every product stays exact.

Every operator here reads the metric only through its inverse (h^{ij}), a
TorusMatrix, and the density only through a Density with its powers; the
caller that holds them hands them over.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    LatticeBox,
    _sandwich,
    _twisted_matmul,
    add,
    adjoint,
    derivation,
    inner_product,
    multiply,
    resize,
    scale,
    weighted_inner_product_opp,
)
from .calculus import TorusMatrix
from .errors import GeometryMismatch
from .metrics import density_one


@dataclass(frozen=True, eq=False)
class _Components:
    geometry: object
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.geometry.n:
            raise ValueError("one component per axis required")
        for c in comps:
            if c.geometry != self.geometry:
                raise GeometryMismatch("component on a different torus")
        object.__setattr__(self, "components", comps)

    def max_abs(self):
        return max(c.max_abs() for c in self.components)


class OneForm(_Components):
    """1-form by its coefficients against the dual basis of the derivations."""


class VectorField(_Components):
    """Vector field by its coefficients against the derivations."""


def differential(u):
    """du with components d_i(u); kernel on truncated elements is span{1}."""
    return OneForm(u.geometry, tuple(derivation(u, i) for i in range(u.geometry.n)))


def modular_automorphism(density, x):
    """sigma_nu(x) = nu^{1/2} x nu^{-1/2}, componentwise on forms and fields."""
    s, zi = density.sqrt_nu, density.inv_sqrt_nu
    if isinstance(x, AlgebraElement):
        return multiply(multiply(s, x), zi)
    return type(x)(
        x.geometry,
        tuple(multiply(multiply(s, c), zi) for c in x.components),
    )


def _multipliers(dens, h_inv):
    """The matrix of multipliers a_ij = nu^{1/2} h^{ij} nu^{1/2}, entry by entry."""
    s = dens.sqrt_nu
    return TorusMatrix.from_coeffs(h_inv.geometry, _sandwich(s, h_inv.coeffs, s))


def _stack(comps):
    """Coefficient tables of elements on their common box, stacked."""
    r = max(c.box.radius for c in comps)
    return np.stack([resize(c, r).table for c in comps])


def _product(geometry, *factors):
    """Entries, row by row, of a product of matrix coefficient arrays; a
    column of components is the factor stack[:, None], a row stack[None]."""
    out = functools.reduce(functools.partial(_twisted_matmul, geometry.theta), factors)
    box = LatticeBox(geometry.n, (out.shape[-1] - 1) // 2)
    return [AlgebraElement(geometry, box, t) for t in out.reshape((-1,) + out.shape[2:])]


def form_inner_product(omega, zeta, h_inv, dens):
    """<omega, zeta>_h,nu^o = sum_ij tau(zeta_i* nu^{1/2} h^{ij} nu^{1/2} omega_j).

    h_inv is the inverse metric (h^{ij}) and dens the Density of nu.
    """
    a = _multipliers(dens, h_inv)
    a_omega = _product(omega.geometry, a.coeffs, _stack(omega.components)[:, None])
    return complex(sum(inner_product(x, z) for x, z in zip(a_omega, zeta.components)))


def _divergence(comps):
    """sum_i d_i(c_i) over the components of a column."""
    return functools.reduce(add, (derivation(c, i) for i, c in enumerate(comps)))


def divergence_vector_field(X, dens):
    """div_nu(X) = sum_i d_i(X^i nu) nu^{-1}; its weight vanishes."""
    x_nu = [multiply(x, dens.nu) for x in X.components]
    return multiply(_divergence(x_nu), dens.inv_nu)


def divergence_one_form(omega, h_inv, dens):
    """delta(omega) = nu^{-1} sum_ij d_i(nu^{1/2} h^{ij} nu^{1/2} omega_j)."""
    a = _multipliers(dens, h_inv)
    a_omega = _product(omega.geometry, a.coeffs, _stack(omega.components)[:, None])
    return multiply(dens.inv_nu, _divergence(a_omega))


def twisted_dual_vector_field(omega, h_inv, dens):
    """X_omega^{h,nu} = sum_ij omega_j* nu^{1/2} h^{ji} nu^{-1/2} d_i.

    The divergence of a form is the adjoint of the divergence of this field:
    delta(omega) = [div_nu(X_omega^{h,nu})]*; when [h, nu] = 0 it reduces to
    the plain metric dual sum_ij omega_j* h^{ji} d_i.
    """
    theta = omega.geometry.theta
    stars = _stack([adjoint(c) for c in omega.components])[:, None]
    # the row of the omega_j* nu^{1/2}, times h, then each entry times nu^{-1/2}
    row = _twisted_matmul(theta, stars, dens.sqrt_nu.table[None, None]).swapaxes(0, 1)
    row = _twisted_matmul(theta, row, h_inv.coeffs)
    comps = _product(omega.geometry, row.swapaxes(0, 1), dens.inv_sqrt_nu.table[None, None])
    return VectorField(omega.geometry, tuple(comps))


def adjointness_residual(omega, u, h_inv, dens):
    """|<-delta(omega), u>_nu^o - <omega, du>_h,nu^o| for one instance.

    Both sides read (h, nu) through the multipliers a = nu^{1/2} h nu^{1/2},
    computed here once: <omega, zeta>_h,nu^o is <omega, zeta>_a,1^o at the
    unit density, and delta(omega) is nu^{-1} times the divergence at (a, 1).
    """
    a, one = _multipliers(dens, h_inv), density_one(omega.geometry)
    delta = multiply(dens.inv_nu, divergence_one_form(omega, a, one))
    lhs = weighted_inner_product_opp(scale(delta, -1.0), u, dens.nu)
    rhs = form_inner_product(omega, differential(u), a, one)
    return abs(lhs - rhs)
