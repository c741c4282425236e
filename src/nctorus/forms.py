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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    add,
    adjoint,
    derivation,
    inner_product,
    multiply,
    scale,
)
from .calculus import matrix_inverse
from .errors import GeometryMismatch
from .metrics import Density, RiemannianMetric, as_density


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

    @classmethod
    def from_components(cls, comps):
        return cls(comps[0].geometry, tuple(comps))

    def __add__(self, other):
        return type(self)(
            self.geometry,
            tuple(add(a, b) for a, b in zip(self.components, other.components)),
        )

    def scale(self, c):
        return type(self)(self.geometry, tuple(scale(x, c) for x in self.components))

    def max_abs(self):
        return max(c.max_abs() for c in self.components)


class OneForm(_Components):
    """1-form by its coefficients against the dual basis of the derivations."""


class VectorField(_Components):
    """Vector field by its coefficients against the derivations."""


def differential(u):
    """du with components d_i(u); kernel on truncated elements is span{1}."""
    return OneForm(u.geometry, tuple(derivation(u, i) for i in range(u.geometry.n)))


def left_action(a, omega):
    """Left module action (a . omega)_i = a omega_i."""
    return type(omega)(
        omega.geometry, tuple(multiply(a, c, "exact") for c in omega.components)
    )


def modular_automorphism(density, x):
    """sigma_nu(x) = nu^{1/2} x nu^{-1/2}, componentwise on forms and fields."""
    s, zi = density.sqrt_nu, density.inv_sqrt_nu
    if isinstance(x, AlgebraElement):
        return multiply(multiply(s, x, "exact"), zi, "exact")
    return type(x)(
        x.geometry,
        tuple(multiply(multiply(s, c, "exact"), zi, "exact") for c in x.components),
    )


def _dual(h, box=None, h_inv=None):
    """The inverse (h^{ij}), however the metric was handed in."""
    if h_inv is not None:
        return h_inv
    if isinstance(h, RiemannianMetric):
        return h.inverse
    if box is None:
        raise ValueError("box required to invert a raw matrix")
    return matrix_inverse(h, box)


def _multipliers(dens, h_inv):
    """Nested tuple of the multipliers a_ij = nu^{1/2} h^{ij} nu^{1/2}."""
    s = dens.sqrt_nu
    return tuple(
        tuple(multiply(multiply(s, e, "exact"), s, "exact") for e in row)
        for row in h_inv.entries
    )


def form_inner_product(omega, zeta, h, nu, box=None, h_inv=None):
    """<omega, zeta>_h,nu^o = sum_ij tau(zeta_i* nu^{1/2} h^{ij} nu^{1/2} omega_j).

    h may be a RiemannianMetric (its stored inverse is used), a raw
    TorusMatrix (inverted on the box), or the inverse may be passed
    directly; nu is a Density (or an element, converted on the box).
    """
    a = _multipliers(as_density(nu, box), _dual(h, box, h_inv))
    n = omega.geometry.n
    total = 0.0 + 0.0j
    for i in range(n):
        for j in range(n):
            total += inner_product(
                multiply(a[i][j], omega.components[j], "exact"), zeta.components[i]
            )
    return complex(total)


def divergence_vector_field(X, nu, box=None):
    """div_nu(X) = sum_i d_i(X^i nu) nu^{-1}; its weight vanishes."""
    dens = as_density(nu, box)
    acc = None
    for i, xi in enumerate(X.components):
        t = derivation(multiply(xi, dens.nu, "exact"), i)
        acc = t if acc is None else add(acc, t)
    return multiply(acc, dens.inv_nu, "exact")


def divergence_one_form(omega, h, nu, box=None, h_inv=None):
    """delta(omega) = nu^{-1} sum_ij d_i(nu^{1/2} h^{ij} nu^{1/2} omega_j)."""
    dens = as_density(nu, box)
    a = _multipliers(dens, _dual(h, box, h_inv))
    n = omega.geometry.n
    acc = None
    for i in range(n):
        for j in range(n):
            t = derivation(multiply(a[i][j], omega.components[j], "exact"), i)
            acc = t if acc is None else add(acc, t)
    return multiply(dens.inv_nu, acc, "exact")


def dual_vector_field(omega, h, box=None, h_inv=None):
    """X_omega^h = sum_ij omega_j* h^{ji} d_i, the metric dual of a form."""
    hij = _dual(h, box, h_inv).entries
    n = omega.geometry.n
    comps = []
    for i in range(n):
        acc = None
        for j in range(n):
            t = multiply(adjoint(omega.components[j]), hij[j][i], "exact")
            acc = t if acc is None else add(acc, t)
        comps.append(acc)
    return VectorField(omega.geometry, tuple(comps))


def twisted_dual_vector_field(omega, h, nu, box=None, h_inv=None):
    """X_omega^{h,nu} = sum_ij omega_j* nu^{1/2} h^{ji} nu^{-1/2} d_i.

    The divergence of a form is the adjoint of the divergence of this field:
    delta(omega) = [div_nu(X_omega^{h,nu})]*; when [h, nu] = 0 it reduces to
    the plain metric dual.
    """
    dens = as_density(nu, box)
    hij = _dual(h, box, h_inv).entries
    n = omega.geometry.n
    comps = []
    for i in range(n):
        acc = None
        for j in range(n):
            t = multiply(
                multiply(
                    multiply(adjoint(omega.components[j]), dens.sqrt_nu, "exact"),
                    hij[j][i],
                    "exact",
                ),
                dens.inv_sqrt_nu,
                "exact",
            )
            acc = t if acc is None else add(acc, t)
        comps.append(acc)
    return VectorField(omega.geometry, tuple(comps))


def adjointness_residual(omega, u, h, nu, box=None, h_inv=None):
    """|<-delta(omega), u>_nu^o - <omega, du>_h,nu^o| for one instance."""
    from .algebra import weighted_inner_product_opp

    dens = as_density(nu, box)
    delta = divergence_one_form(omega, h, dens, box=box, h_inv=h_inv)
    lhs = weighted_inner_product_opp(scale(delta, -1.0), u, dens.nu)
    rhs = form_inner_product(omega, differential(u), h, dens, box=box, h_inv=h_inv)
    return abs(lhs - rhs)
