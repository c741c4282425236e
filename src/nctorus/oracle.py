"""Commutative grid reference for theta = 0.

At zero deformation the algebra is the trigonometric polynomials on the
ordinary torus, so every operation has an independent brute-force
counterpart: sample on a uniform grid, work pointwise, transform back.
Grids are oversampled fourfold relative to the largest occurring mode so
that quadratic expressions stay alias-free.  These functions refuse
noncommutative inputs; they exist to cross-validate the main path, not to
approximate it.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, LatticeBox
from .calculus import SPECTRAL_FLOOR, TorusMatrix, _resolve_function
from .errors import AliasingRisk, NonzeroTheta, SpectralFloorViolation


def _require_commutative(geometry):
    if not geometry.is_commutative:
        raise NonzeroTheta("grid oracle only applies to theta = 0")


def grid_for(*elements):
    """Grid size with the stated oversampling for the given elements."""
    max_mode = max((e.support_radius() for e in elements), default=0)
    return 4 * max(1, max_mode) + 1


def _modes_on_grid(n, radius, grid_size):
    """Index of the grid points of the modes of B_radius, one axis at a time."""
    return np.ix_(*[np.arange(-radius, radius + 1) % grid_size] * n)


def to_grid(u, grid_size=None):
    """Sample u(x) = sum u_k e^{i k.x} on the uniform grid of the torus."""
    _require_commutative(u.geometry)
    n, r, s = u.geometry.n, u.box.radius, u.support_radius()
    if grid_size is None:
        grid_size = grid_for(u)
    if grid_size < 2 * s + 1:
        raise AliasingRisk(f"grid {grid_size} cannot carry modes up to {s}")
    arr = np.zeros((grid_size,) * n, dtype=complex)
    # adding into zeros rather than assigning stores a -0.0 part as +0.0
    arr[_modes_on_grid(n, s, grid_size)] += u.table[(slice(r - s, r + s + 1),) * n]
    return np.fft.ifftn(arr) * grid_size**n


def from_grid(geometry, samples, radius):
    """Recover the coefficient table of a trigonometric polynomial."""
    _require_commutative(geometry)
    samples = np.asarray(samples, dtype=complex)
    grid_size = samples.shape[0]
    if grid_size < 2 * radius + 1:
        raise AliasingRisk(f"grid {grid_size} cannot resolve radius {radius}")
    coeffs = np.fft.fftn(samples) / samples.size
    table = coeffs[_modes_on_grid(geometry.n, radius, grid_size)]
    return AlgebraElement(geometry, LatticeBox(geometry.n, radius), table)


def oracle_multiply(u, v):
    """Pointwise product on an alias-free grid."""
    _require_commutative(u.geometry)
    radius = u.support_radius() + v.support_radius()
    grid = 4 * max(1, u.support_radius(), v.support_radius()) + 1
    grid = max(grid, 2 * radius + 1)
    return from_grid(u.geometry, to_grid(u, grid) * to_grid(v, grid), radius)


def oracle_adjoint(u):
    grid = grid_for(u)
    return from_grid(u.geometry, np.conj(to_grid(u, grid)), u.support_radius())


def _real_samples(x, grid):
    samples = to_grid(x, grid)
    worst = float(np.max(np.abs(samples.imag))) if samples.size else 0.0
    if worst > 1e-10 * (1.0 + np.max(np.abs(samples.real))):
        raise ValueError(f"samples not real (imag {worst:.3e}); input not selfadjoint?")
    return samples.real


def oracle_funcalc(x, fn, radius):
    """Pointwise f of the (real) sample values of a selfadjoint element."""
    _, f, needs_floor = _resolve_function(fn)
    grid = max(grid_for(x), 2 * radius + 1)
    vals = _real_samples(x, grid)
    if needs_floor and vals.min() < SPECTRAL_FLOOR:
        raise SpectralFloorViolation(
            f"sampled values reach {vals.min():.3e} < floor {SPECTRAL_FLOOR:.1e}"
        )
    return from_grid(x.geometry, np.asarray(f(vals), dtype=complex), radius)


def _matrix_samples(h, grid):
    m = h.m
    fields = np.empty((grid,) * h.geometry.n + (m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            fields[..., i, j] = to_grid(h.entries[i][j], grid)
    return fields


def oracle_matrix_funcalc(h, fn, radius):
    """Pointwise matrix function of a selfadjoint matrix field (batched eigh)."""
    _require_commutative(h.geometry)
    _, f, needs_floor = _resolve_function(fn)
    grid = max(4 * max(1, h.box.radius) + 1, 2 * radius + 1)
    fields = _matrix_samples(h, grid)
    fields = 0.5 * (fields + np.conj(np.swapaxes(fields, -1, -2)))
    lam, vecs = np.linalg.eigh(fields)
    if needs_floor and lam.min() < SPECTRAL_FLOOR:
        raise SpectralFloorViolation(
            f"sampled spectrum reaches {lam.min():.3e} < floor {SPECTRAL_FLOOR:.1e}"
        )
    fl = np.asarray(f(lam))
    out = np.einsum("...ik,...k,...jk->...ij", vecs, fl, np.conj(vecs))
    entries = [
        [from_grid(h.geometry, out[..., i, j], radius) for j in range(h.m)]
        for i in range(h.m)
    ]
    return TorusMatrix(h.geometry, h.m, entries)


def oracle_det(h, radius):
    """Pointwise classical determinant of the sampled matrix field."""
    _require_commutative(h.geometry)
    grid = max(
        4 * max(1, h.box.radius) + 1, 2 * radius + 1, 2 * h.m * h.box.radius + 1
    )
    fields = _matrix_samples(h, grid)
    return from_grid(h.geometry, np.linalg.det(fields), radius)


def oracle_density(h, radius):
    """Pointwise sqrt(det) of a positive matrix field."""
    _require_commutative(h.geometry)
    grid = max(4 * max(1, h.box.radius) + 1, 2 * radius + 1)
    fields = _matrix_samples(h, grid)
    dets = np.linalg.det(fields).real
    if dets.min() <= 0:
        raise SpectralFloorViolation(f"sampled determinant reaches {dets.min():.3e}")
    return from_grid(h.geometry, np.sqrt(dets).astype(complex), radius)


def _grid_derivative(samples, axis):
    grid = samples.shape[0]
    freq = np.fft.fftfreq(grid, d=1.0 / grid)  # signed integer modes
    shape = [1] * samples.ndim
    shape[axis] = grid
    return np.fft.ifftn(np.fft.fftn(samples) * (1j * freq.reshape(shape)))


def oracle_laplacian_apply(prefactor, multipliers, u):
    """-p sum_ij d_i(a_ij d_j u) by Fourier multipliers and pointwise products.

    Takes the same multiplier elements as the assembled operator, so the
    comparison isolates the composition machinery (twisted convolution and
    compression) against plain grid arithmetic.
    """
    _require_commutative(u.geometry)
    n = u.geometry.n
    sup_a = max(a.support_radius() for row in multipliers for a in row)
    radius = u.support_radius() + sup_a + prefactor.support_radius()
    grid = max(2 * radius + 1, 4 * max(1, u.support_radius()) + 1)
    u_s = to_grid(u, grid)
    p_s = to_grid(prefactor, grid)
    acc = np.zeros_like(u_s)
    for i in range(n):
        for j in range(n):
            a_s = to_grid(multipliers[i][j], grid)
            acc += _grid_derivative(a_s * _grid_derivative(u_s, j), i)
    return from_grid(u.geometry, -p_s * acc, radius)


def oracle_laplacian_matrix(prefactor, multipliers, box):
    """Column-by-column grid assembly of the operator on the box.

    Multiplier fields are sampled once; per basis mode the inner derivative
    is a scalar (a pure mode differentiates to itself), so each column costs
    n forward transforms and one inverse.
    """
    geometry = prefactor.geometry
    _require_commutative(geometry)
    n = geometry.n
    sup_a = max(a.support_radius() for row in multipliers for a in row)
    radius_needed = box.radius + sup_a + prefactor.support_radius()
    grid = max(2 * radius_needed + 1, 4 * max(1, box.radius) + 1)
    p_s = to_grid(prefactor, grid)
    a_s = [[to_grid(multipliers[i][j], grid) for j in range(n)] for i in range(n)]
    freq = np.fft.fftfreq(grid, d=1.0 / grid)
    cols = np.zeros((box.size, box.size), dtype=complex)
    modes = box.modes()
    for idx in range(box.size):
        k = modes[idx]
        basis = AlgebraElement.basis(geometry, k, radius=box.radius)
        u_s = to_grid(basis, grid)
        acc_hat = np.zeros_like(u_s)
        for i in range(n):
            w = np.zeros_like(u_s)
            for j in range(n):
                if k[j]:
                    w += (1j * k[j]) * a_s[i][j]
            shape = [1] * n
            shape[i] = grid
            acc_hat += np.fft.fftn(w * u_s) * (1j * freq.reshape(shape))
        out = from_grid(geometry, -p_s * np.fft.ifftn(acc_hat), box.radius)
        cols[:, idx] = out.vector()
    return cols
