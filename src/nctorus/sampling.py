"""Seeded random instances for check pipelines and tests."""

from __future__ import annotations

from .algebra import AlgebraElement, LatticeBox, selfadjoint_part
from .calculus import TorusMatrix, make_positive
from .forms import OneForm, VectorField
from .metrics import density_exp


def random_element(geometry, radius, rng, amplitude=1.0):
    shape = (2 * radius + 1,) * geometry.n
    table = amplitude * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return AlgebraElement(geometry, LatticeBox(geometry.n, radius), table)


def random_selfadjoint(geometry, radius, rng, amplitude=1.0):
    return selfadjoint_part(random_element(geometry, radius, rng, amplitude))


def random_density(geometry, rng, radius=1, amplitude=0.15):
    """Density exp(w) for a random selfadjoint w; powers are series-consistent."""
    return density_exp(random_selfadjoint(geometry, radius, rng, amplitude))


def random_hermitian_matrix(geometry, m, radius, rng, amplitude=0.2):
    """Positive invertible matrix y* y + 1 with random small entries."""
    y = TorusMatrix(
        geometry,
        m,
        [[random_element(geometry, radius, rng, amplitude) for _ in range(m)] for _ in range(m)],
    )
    return make_positive(y, 1.0)


def random_one_form(geometry, radius, rng):
    return OneForm(
        geometry, tuple(random_element(geometry, radius, rng) for _ in range(geometry.n))
    )


def random_vector_field(geometry, radius, rng):
    return VectorField(
        geometry, tuple(random_element(geometry, radius, rng) for _ in range(geometry.n))
    )
