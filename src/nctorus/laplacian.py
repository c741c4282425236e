"""Laplace-Beltrami operators on the truncated Fourier basis.

The operator associated with a Hermitian metric h and a density nu is

    L(u) = -nu^{-1} sum_ij d_i( nu^{1/2} h^{ij} nu^{1/2} d_j(u) ),

assembled as the dense composition  -M(nu^{-1}) . sum_ij D_i M(a_ij) D_j
with D_j the diagonal derivation matrix (i k_j) and a_ij the composite
multipliers nu^{1/2} h^{ij} nu^{1/2}.  Every term ends in a derivation, so
constants are killed exactly.  Conjugating by left multiplication with
nu^{1/2} moves the operator to the standard inner product, where it is
symmetric up to truncation; the recorded asymmetry of T = S L S^{-1} is the
truncation-health metric, and the Hermitian eigensolve runs on (T + T*)/2.

Truncation error is measured, not assumed: every spectrum is computed at
two box radii and only eigenvalues matched across both (monotone pairing of
the sorted lists, relative tolerance) are flagged stable.  Multipliers may
be clipped to a radius M <= N/4, which keeps rows indexed by B_{N-2M}
exactly those of the (clipped-coefficient) operator; identity checks that
need tighter agreement run unclipped and restrict to interior rows, where
the only leakage is the product of two coefficient tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import calculus as calc
from .algebra import (
    AlgebraElement,
    LatticeBox,
    _integer_power,
    add,
    adjoint,
    inner_product,
    multiply,
    resize,
    scale,
    trace,
    weighted_inner_product_opp,
)
from .calculus import (
    TorusMatrix,
    compress,
    element_from_vector,
    functional_calculus,
    spectral_bounds,
    unit_ball_volume,
)
from .errors import (
    BoxTooSmall,
    HypothesisViolated,
    UnstableSpectrum,
    WindowOutOfRange,
)
from .forms import _divergence, _multipliers, _product, _stack, differential
from .metrics import (
    Density,
    density_from_element,
    metric_conformal,
    riemannian_density,
    volume,
)


def _clip(x, radius):
    """An element or matrix clipped to the radius, if it reaches beyond it."""
    if radius is None or x.box.radius <= radius:
        return x
    return x.resize(radius) if isinstance(x, TorusMatrix) else resize(x, radius)


def interior_indices(box, inner_radius):
    """Enumeration indices of modes with sup-norm at most inner_radius."""
    modes = box.modes()
    return np.where(np.max(np.abs(modes), axis=1) <= inner_radius)[0]


@dataclass(frozen=True, eq=False)
class LaplaceBeltramiOperator:
    """Assembled operator: its two inputs, the inverse metric (h^{ij}) and the
    Density, the multiplier family read from them, and the matrix with its
    conjugated form."""

    geometry: object
    box: LatticeBox
    h_inv: TorusMatrix
    nu: Density
    prefactor: AlgebraElement  # nu^{-1}, clipped per policy
    sqrt_factor: AlgebraElement  # nu^{1/2}, clipped per policy
    multipliers: tuple  # a_ij = nu^{1/2} h^{ij} nu^{1/2}, clipped per policy
    matrix: np.ndarray
    conjugated: np.ndarray  # T = S matrix S^{-1} with S = M(nu^{1/2})
    asymmetry: float

    def __post_init__(self):
        for a in (self.matrix, self.conjugated):
            a.setflags(write=False)

    @property
    def symmetrized(self):
        return 0.5 * (self.conjugated + self.conjugated.conj().T)

    def apply(self, u):
        vec = self.matrix @ resize(u, self.box.radius).vector()
        return element_from_vector(self.geometry, self.box, vec)

    def apply_exact(self, u):
        """Element-level application via exact products of the multipliers."""
        a = TorusMatrix(self.geometry, self.geometry.n, self.multipliers).coeffs
        du = _stack(differential(u).components)[:, None]
        div = _divergence(_product(self.geometry, a, du))
        return scale(multiply(self.prefactor, div), -1.0)


def _build_matrices(prefactor, sqrt_factor, multipliers, box):
    geometry = prefactor.geometry
    n = geometry.n
    modes = box.modes()
    core = np.zeros((box.size, box.size), dtype=complex)  # -sum_ij D_i M(a_ij) D_j
    for i in range(n):
        di = 1j * modes[:, i].astype(float)
        for j in range(n):
            dj = 1j * modes[:, j].astype(float)
            a = compress(multipliers[i][j], box).matrix
            core -= di[:, None] * a * dj[None, :]
    mat = compress(prefactor, box).matrix @ core
    del core  # one d x d array fewer alive through the solve below
    s_mat = compress(sqrt_factor, box).matrix
    t = np.linalg.solve(s_mat.T, (s_mat @ mat).T).T  # S mat S^{-1}
    denom = float(np.linalg.norm(t)) or 1.0
    asym = float(np.linalg.norm(t - t.conj().T)) / denom
    return mat, t, asym


def assemble(h_inv, dens, box, mult_radius=None):
    """Assemble the operator of an inverse metric and a density on the box.

    h_inv is the n x n inverse metric (h^{ij}), e.g. RiemannianMetric.inverse
    or calc.matrix_inverse(h, box) of a raw Hermitian h; dens is the Density
    of nu with its powers.  mult_radius clips the derived multiplier
    elements; it must satisfy 4 * mult_radius <= box radius so the interior
    rows stay exact.  With mult_radius=None the multipliers keep their full
    support, which identity checks require.
    """
    if mult_radius is not None and 4 * mult_radius > box.radius:
        raise BoxTooSmall(
            f"multiplier radius {mult_radius} too large for box radius {box.radius}"
        )
    n = h_inv.geometry.n
    if h_inv.m != n:
        raise ValueError(f"metric for the Laplacian must be {n} x {n}")
    sqrt_f = _clip(dens.sqrt_nu, mult_radius)
    pref = _clip(dens.inv_nu, mult_radius)
    mult = _clip(_multipliers(dens, h_inv), mult_radius).entries
    mat, t, asym = _build_matrices(pref, sqrt_f, mult, box)
    return LaplaceBeltramiOperator(
        h_inv.geometry, box, h_inv, dens, pref, sqrt_f, mult, mat, t, asym
    )


def assemble_riemannian(g, box, mult_radius=None, density=None):
    """Operator of a RiemannianMetric: h^{ij} = g^{ij}, nu = sqrt(det g).

    Passes g.inverse and the Density to assemble.  A Density the caller
    already holds may be supplied: a closed form (conformal powers,
    constant metrics) or riemannian_density(g) computed once for several
    uses; otherwise it is riemannian_density(g), on g.box.
    """
    dens = density or riemannian_density(g)
    return assemble(g.inverse, dens, box, mult_radius=mult_radius)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues with stability flags from a two-box comparison."""

    geometry: object
    box: LatticeBox
    stability_box: LatticeBox
    eigenvalues: np.ndarray
    stable: np.ndarray
    multiplicity_group: np.ndarray
    asymmetry: float
    stability_asymmetry: float

    def __post_init__(self):
        for a in (self.eigenvalues, self.stable, self.multiplicity_group):
            a.setflags(write=False)

    @property
    def stable_eigenvalues(self):
        return self.eigenvalues[self.stable]

    def stable_count(self):
        return int(np.sum(self.stable))

    def multiplicity_of(self, value, tol=1e-6):
        lam = self.stable_eigenvalues
        return int(np.sum(np.abs(lam - value) <= tol * (1.0 + abs(value))))


def _group_multiplicities(lam, tol):
    group = np.zeros(lam.shape, dtype=int)
    gid = 0
    for i in range(1, lam.size):
        if lam[i] - lam[i - 1] > tol * (1.0 + abs(lam[i])):
            gid += 1
        group[i] = gid
    return group


def spectrum(
    op,
    count=None,
    stability_radius=None,
    rel_tol=1e-3,
    multiplicity_tol=1e-6,
    asymmetry_threshold=0.1,
):
    """Eigenvalues of the symmetrized conjugated operator, with stability flags.

    The same multiplier family is recompressed on a larger box (default
    radius + 2) and the sorted spectra are paired by index; an eigenvalue is
    stable when the pair agrees to rel_tol relative accuracy.  Only
    eigenvalues are computed, on both boxes.  Raises BoxTooSmall when
    stability_radius does not exceed the box radius, since the comparison
    would then pair the spectrum with itself or a smaller box's.  Raises
    UnstableSpectrum if fewer than count eigenvalues stabilize, or when the
    recorded asymmetry exceeds the threshold.
    """
    if op.asymmetry > asymmetry_threshold:
        raise UnstableSpectrum(
            f"asymmetry {op.asymmetry:.3e} above threshold {asymmetry_threshold:.1e}"
        )
    if stability_radius is None:
        stability_radius = op.box.radius + 2
    if stability_radius <= op.box.radius:
        raise BoxTooSmall(
            f"stability radius {stability_radius} must exceed box radius {op.box.radius}"
        )
    big_box = LatticeBox(op.geometry.n, stability_radius)
    _, t2, asym2 = _build_matrices(op.prefactor, op.sqrt_factor, op.multipliers, big_box)
    lam2 = np.linalg.eigvalsh(0.5 * (t2 + t2.conj().T))
    lam = np.linalg.eigvalsh(op.symmetrized)
    m = min(lam.size, lam2.size)
    stable = np.zeros(lam.shape, dtype=bool)
    pair_diff = np.abs(lam[:m] - lam2[:m])
    stable[:m] = pair_diff <= rel_tol * (1.0 + np.maximum(np.abs(lam[:m]), np.abs(lam2[:m])))
    # stability is a prefix property: past the first mismatch the index
    # pairing of the two sorted lists is no longer meaningful
    bad = np.where(~stable)[0]
    if bad.size:
        stable[bad[0]:] = False
    if count is not None and int(np.sum(stable)) < count:
        raise UnstableSpectrum(
            f"only {int(np.sum(stable))} of {count} requested eigenvalues stabilized"
        )
    groups = _group_multiplicities(lam, multiplicity_tol)
    return SpectrumResult(
        op.geometry, op.box, big_box, lam, stable, groups, op.asymmetry, asym2
    )


def generalized_spectrum(op):
    """Cross-check path: solve M(L) v = lambda G v with Gram matrix G = M(nu).

    The Gram matrix of the basis in the density-twisted inner product is the
    compression of left multiplication by nu, so the operator's symmetry is
    equivalent to the Hermitianness of G M(L); both are spoiled only near
    the box boundary.
    """
    g_mat = compress(op.nu.nu, op.box).matrix
    g_mat = 0.5 * (g_mat + g_mat.conj().T)
    a = g_mat @ op.matrix
    a = 0.5 * (a + a.conj().T)
    return scipy.linalg.eigh(a, g_mat, eigvals_only=True)


def green_identity_residual(op, u, v):
    """|<L u, v>_nu^o - sum_ij tau((d_i v)* a_ij d_j u)| via the matrix path."""
    lu = op.apply(u)
    lhs = weighted_inner_product_opp(lu, v, op.nu.nu)
    a = TorusMatrix(op.geometry, op.geometry.n, op.multipliers).coeffs
    a_du = _product(op.geometry, a, _stack(differential(u).components)[:, None])
    rhs = sum(inner_product(x, dv) for x, dv in zip(a_du, differential(v).components))
    return abs(lhs - rhs)


def _symbol(h_inv, xi):
    """Selfadjoint part of sum_ij xi_i xi_j h^{ij}, the symbol (xi, xi)_{h^{-1}}."""
    table = np.einsum("i,j,ij...->...", xi, xi, h_inv.coeffs)
    s = AlgebraElement(h_inv.geometry, h_inv.box, table)
    return scale(add(s, adjoint(s)), 0.5)


def principal_symbol_bounds(op, samples=16, calc_box=None):
    """Min/max compressed eigenvalues of (xi, xi)_{h^{-1}} over unit xi.

    The principal symbol is similar to this element, so invertibility along
    the sample grid certifies ellipticity at the truncated level.
    """
    calc_box = calc_box or LatticeBox(op.geometry.n, max(4, op.box.radius // 2))
    lo_worst, hi_worst = np.inf, -np.inf
    for xi in _sphere_nodes(op.geometry.n, samples)[0]:
        lo, hi = spectral_bounds(_symbol(op.h_inv, xi), calc_box)
        lo_worst, hi_worst = min(lo_worst, lo), max(hi_worst, hi)
    return lo_worst, hi_worst


# ---------------------------------------------------------------------------
# conformal covariance
# ---------------------------------------------------------------------------


def conformally_deformed_flat_matrix(k_density, box):
    """Hermitian matrix of k^{-1} (flat Laplacian) k^{-1} on the box.

    This is the conformally deformed flat operator on the plain Hilbert
    space; for the metric k^2 delta_ij it is unitarily equivalent to the
    Laplace-Beltrami operator, so stable spectra must match.  k_density is
    the Density of k, whose inv_nu is read.
    """
    k_inv_mat = compress(k_density.inv_nu, box).matrix
    k2 = (np.abs(box.modes()) ** 2).sum(axis=1).astype(float)
    return k_inv_mat @ (k2[:, None] * k_inv_mat)


def conformal_covariance_check(
    g,
    k,
    box,
    calc_box,
    ghat=None,
    nu_g=None,
    nu_ghat=None,
    k_density=None,
):
    """Residual of the conformal transformation law for ghat = k g k.

    For commuting (k, g) the transformed operator satisfies

        L_ghat = k^{-2} L_g - nu(g)^{-1} k^{-n} sum_ij d_i(k^{n-2}) a_ij d_j

    with a_ij the multipliers of L_g; in two dimensions the gradient
    correction vanishes identically.  Both sides are assembled independently
    (no multiplier clipping) and compared on interior rows, where box-exit
    leakage is a product of two coefficient tails.  Raises
    HypothesisViolated when the commutator [k, g] exceeds 1e-9 (relative to
    the sizes of k and g).

    Closed-form ingredients (the deformed metric with its inverse, either
    volume element, the power family of k) may be passed in when available;
    anything omitted is computed from the spectral calculus: ghat and k's
    powers on calc_box, each volume element on its metric's box.
    Returns the residual report and the assembled operator of ghat.
    """
    n = g.n
    comm = calc.compatibility_residual(TorusMatrix.scalar(k, 1), g.matrix)
    if comm > 1e-9 * (1.0 + k.max_abs() * (1.0 + g.matrix.max_abs())):
        raise HypothesisViolated(f"[k, g] != 0 (residual {comm:.3e})", {"[k,g]": comm})
    if ghat is None:
        ghat = metric_conformal(g, k, calc_box)

    op_g = assemble_riemannian(g, box, density=nu_g)
    op_hat = assemble_riemannian(ghat, box, density=nu_ghat)

    if k_density is None:
        k_density = density_from_element(k, calc_box)
    k_inv_2 = multiply(k_density.inv_nu, k_density.inv_nu)
    rhs = compress(k_inv_2, box).matrix @ op_g.matrix

    report = {"commutator": comm, "asymmetry_g": op_g.asymmetry, "asymmetry_ghat": op_hat.asymmetry}
    margin = box.radius // 2
    rows = interior_indices(box, margin)
    if n == 2:
        report["two_dim_residual"] = float(
            np.max(np.abs((op_hat.matrix - rhs)[rows]))
        )
        return report, op_hat

    # gradient correction: sum_j M(c_j) D_j with
    # c_j = nu^{-1} k^{-n} sum_i d_i(k^{n-2}) a_ij
    pref = multiply(op_g.nu.inv_nu, _integer_power(k_density.inv_nu, n))
    grad = _stack(differential(_integer_power(k, n - 2)).components)[None]
    a = TorusMatrix(op_g.geometry, n, op_g.multipliers).coeffs
    modes = box.modes()
    corr = np.zeros((box.size, box.size), dtype=complex)
    for j, c in enumerate(_product(op_g.geometry, grad, a)):
        dj = 1j * modes[:, j].astype(float)
        corr += compress(multiply(pref, c), box).matrix * dj[None, :]
    report["full_law_residual"] = float(
        np.max(np.abs((op_hat.matrix - (rhs - corr))[rows]))
    )
    return report, op_hat


# ---------------------------------------------------------------------------
# Weyl law harness
# ---------------------------------------------------------------------------


def _sphere_nodes(n, points):
    """Quadrature nodes and weights on the unit sphere S^{n-1}."""
    if n == 2:
        angles = 2.0 * np.pi * np.arange(points) / points
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        weights = np.full(points, 2.0 * np.pi / points)
        return nodes, weights
    if n == 3:
        n_polar = max(2, int(np.sqrt(points)))
        n_azim = max(4, 2 * n_polar)
        z, wz = np.polynomial.legendre.leggauss(n_polar)
        phi = 2.0 * np.pi * np.arange(n_azim) / n_azim
        nodes, weights = [], []
        for zi, wi in zip(z, wz):
            r = np.sqrt(max(0.0, 1.0 - zi * zi))
            for p in phi:
                nodes.append([r * np.cos(p), r * np.sin(p), zi])
                weights.append(wi * 2.0 * np.pi / n_azim)
        return np.array(nodes), np.array(weights)
    raise ValueError(f"sphere quadrature not implemented for n={n}")


@dataclass(frozen=True)
class WeylConstantResult:
    quadrature: float
    closed_form: float = np.nan

    @property
    def residual(self):
        if np.isnan(self.closed_form):
            return np.nan
        return abs(self.quadrature - self.closed_form)


def weyl_constant(g, dens, box, quadrature_points=64):
    """Eigenvalue-counting constant of a RiemannianMetric by sphere quadrature.

    Integrates tau((xi, xi)_{g^{-1}}^{-n/2}) over the unit sphere, by the
    spectral calculus on box, and divides by n.  dens is g's Riemannian
    density, which the caller already holds (the assembled operator's nu,
    or riemannian_density(g)).  When g is self-compatible the closed form
    (2 pi)^{-n} |unit ball| volume(dens) is computed alongside.
    """
    n = g.n
    nodes, weights = _sphere_nodes(n, quadrature_points)
    total = 0.0
    for xi, w in zip(nodes, weights):
        val = functional_calculus(_symbol(g.inverse, xi), ("pow", -n / 2.0), box)
        total += w * float(trace(val).real)
    quad = total / n
    closed = np.nan
    if g.is_self_compatible():
        closed = (2.0 * np.pi) ** (-n) * unit_ball_volume(n) * volume(dens)
    return WeylConstantResult(quad, closed)


@dataclass(frozen=True)
class WeylFitResult:
    exponent: float
    exponent_target: float
    prefactor_ratio: float
    counting_ratio_min: float
    counting_ratio_max: float
    counting_ratio_mean: float
    window: tuple


def weyl_fit(result, c_n, window):
    """Least-squares Weyl fit over a window of stable eigenvalue indices.

    Fits log(lambda_l) against log(l) (target slope 2/n), compares the
    fitted prefactor with (1/c_n)^{2/n}, and reports the counting-function
    ratio N(lambda)/(c_n lambda^{n/2}) over the window.
    """
    lo, hi = window
    lam = result.stable_eigenvalues
    n = result.geometry.n
    if lo < 1 or hi >= lam.size or lo >= hi:
        raise WindowOutOfRange(
            f"window {window} outside stable range (1, {lam.size - 1})"
        )
    ell = np.arange(lo, hi + 1, dtype=float)
    vals = lam[lo : hi + 1]
    slope, intercept = np.polyfit(np.log(ell), np.log(vals), 1)
    prefactor_ratio = float(np.exp(intercept) * c_n ** (2.0 / n))
    counting = np.searchsorted(lam, vals, side="right").astype(float)
    ratios = counting / (c_n * vals ** (n / 2.0))
    return WeylFitResult(
        float(slope),
        2.0 / n,
        prefactor_ratio,
        float(ratios.min()),
        float(ratios.max()),
        float(ratios.mean()),
        (lo, hi),
    )


def lattice_eigenvalues(box):
    """Sorted |k|^2 over the box: the exact flat spectrum with multiplicity."""
    return np.sort((box.modes() ** 2).sum(axis=1)).astype(float)
