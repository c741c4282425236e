"""Laplace-Beltrami operators on the truncated Fourier basis.

The operator associated with a Hermitian metric h and a density nu is

    L(u) = -nu^{-1} sum_ij d_i( nu^{1/2} h^{ij} nu^{1/2} d_j(u) ),

assembled as the dense composition  M = M(nu^{-1}) K  with
K = -sum_ij D_i M(a_ij) D_j, D_j the diagonal derivation matrix (i k_j) and
a_ij the composite multipliers nu^{1/2} h^{ij} nu^{1/2}.  Every term ends in
a derivation, so constants are killed exactly.  Since -delta is the adjoint
of d, L is the selfadjoint operator of the form q(u, v) = <du, dv>_{h,nu}
on <u, v>_nu = tau(v* nu u).  On span{V_p : p in B_N} that form's
stiffness matrix is K, K_pq = sum_ij p_i q_j M(a_ij)_pq, and its Gram
matrix M(nu), so the spectrum is that of the Rayleigh-Ritz pencil
K v = lambda M(nu) v: each eigenvalue is an upper bound that cannot rise as
the box grows (Courant-Fischer).  K is Hermitian exactly when
a_ji = a_ij*; its asymmetry ||K - K*||/||K|| is recorded before the
eigensolve runs on its Hermitian part.

Everything is built once per class of lattice modes that the coefficients
couple: p and q are joined when p - q lies in the support of nu^{-1}, nu or
a multiplier (calculus._class_plan).  Entry (p, q) of every compression is
the coefficient at p - q times a phase, so every matrix here is block
diagonal over the classes with exact zeros between blocks, and the
spectrum is the union of the blocks' spectra.  A metric fixed by a
subgroup of the T^n action (a conformal factor w* w + c with w in the modes
e_i keeps every coefficient in the plane sum(k) = 0) splits the box into
many small blocks, each built directly (calculus._class_blocks), with no
d x d compression; a generic metric leaves one class, the whole box.  The
operator keeps M alone.  The spectrum builds K and M(nu) on each of its two
boxes and reduces the pencil in place to L^{-1} K L^{-*}, M(nu) = L L*
(calculus._reduced_pencil), for numpy's eigvalsh: with one class it holds
two d x d arrays of the stability box, with several only blocks.  When
nu^{-1}, nu and every multiplier are even (V_p -> V_{-p} fixes them, as
it does the README metric's), the blocks of each class that p -> -p maps
onto itself are first split into their even and odd halves, and each half
is a pencil of its own, at about an eighth of the block's cost.  Where the
reflection of the last axis composed with conjugation fixes both halves
of a pair (calculus._ClassPlan.real_forms), the pair runs in real
arithmetic; K takes the sign of p_i q_n under the reflection, so a base
that couples the last axis to another keeps the pencil complex.  The
deformed-flat reference of the conformal check splits the same way.

Truncation error is measured, not assumed: every spectrum is computed at
two box radii and only eigenvalues matched across both (monotone pairing of
the sorted lists, relative tolerance) are flagged stable.  Multipliers may
be clipped to a radius M <= N/4, which keeps rows indexed by B_{N-2M}
exactly those of the (clipped-coefficient) operator; identity checks that
need tighter agreement run unclipped and restrict to interior rows, where
the only leakage is the product of two coefficient tails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import calculus as calc
from .algebra import (
    AlgebraElement,
    LatticeBox,
    _integer_power,
    add,
    multiply,
    resize,
    scale,
    selfadjoint_part,
    trace,
)
from .calculus import (
    TorusMatrix,
    compress,
    element_from_vector,
    functional_calculus,
    unit_ball_volume,
)
from .errors import BoxTooSmall, PositivityViolation, WindowOutOfRange
from .forms import _divergence, _multipliers, _product, _stack, differential
from .metrics import (
    Density,
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
    Density, the elements read from them, the matrix, and the asymmetry of
    its stiffness matrix."""

    geometry: object
    box: LatticeBox
    h_inv: TorusMatrix
    nu: Density
    prefactor: AlgebraElement  # nu^{-1}, clipped per policy
    gram: AlgebraElement  # nu, clipped per policy: M(nu) is the Gram matrix
    multipliers: tuple  # a_ij = nu^{1/2} h^{ij} nu^{1/2}, clipped per policy
    matrix: np.ndarray
    asymmetry: float  # ||K - K*|| / ||K|| of the stiffness matrix K on box

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def apply(self, u):
        vec = self.matrix @ resize(u, self.box.radius).vector()
        return element_from_vector(self.geometry, self.box, vec)

    def apply_exact(self, u):
        """Element-level application via exact products of the multipliers."""
        a = TorusMatrix(self.geometry, self.geometry.n, self.multipliers).coeffs
        du = _stack(differential(u).components)[:, None]
        div = _divergence(_product(self.geometry, a, du))
        return scale(multiply(self.prefactor, div), -1.0)


# columns per strip of _hermitian_part: its temporaries are a few
# d x _STRIP arrays
_STRIP = 64


def _scatter(blocks):
    """The d x d matrix with the diagonal blocks of the (idx, block) pairs
    and exact zeros between them, in a buffer of its own."""
    d = sum(idx.size for idx, _ in blocks)
    mat = np.zeros((d, d), dtype=complex)
    for idx, blk in blocks:
        mat[idx[:, None], idx] = blk
    return mat


def _stiffness(prefactor, gram, multipliers, box):
    """The class plan of the box and the class blocks of the stiffness matrix
    K = -sum_ij D_i M(a_ij) D_j, K_pq = sum_ij p_i q_j M(a_ij)_pq.

    The classes are those of modes that nu^{-1}, nu and the multipliers
    couple (calculus._class_plan), one plan for all 2 + n^2 elements.  Each
    multiplier's block is built directly (calculus._class_blocks), scaled by
    D_i and D_j in place and subtracted from K's, so at most two blocks of
    each class are live at a time.
    """
    n = prefactor.geometry.n
    modes = box.modes()
    tables = [prefactor.table, gram.table] + [a.table for row in multipliers for a in row]
    plan = calc._class_plan(prefactor.geometry, box, tables)
    core = [np.zeros((idx.size, idx.size), dtype=complex) for idx in plan.classes]
    for i in range(n):
        di = 1j * modes[:, i].astype(float)
        for j in range(n):
            dj = 1j * modes[:, j].astype(float)
            for idx, blk, term in zip(plan.classes, core, calc._class_blocks(multipliers[i][j], plan)):
                term *= di[idx, None]
                term *= dj[None, idx]
                blk -= term
            del term  # freed before the next element's blocks are built
    return plan, core


def _squared_norm(x):
    """The squared Frobenius norm of an array, summed pairwise by np.sum,
    to a few units of roundoff at any size."""
    return float(np.sum(np.square(x.real)) + np.sum(np.square(x.imag)))


def _hermitian_part(blocks):
    """Overwrite each square block K with its Hermitian part (K + K*)/2,
    exactly Hermitian, one strip of columns at a time; return the asymmetry
    ||K - K*|| / ||K|| over all blocks, in Frobenius norms of K as given.

    The strip of columns lo:hi is read from row lo down, and so is the
    mirror strip of rows lo:hi from column lo right, as K* there; both are
    then overwritten, and no later strip reads either.  The entries of the
    strip's square count once in the norms, and those below and right of
    it once each.
    """
    norm2 = skew2 = 0.0
    for k in blocks:
        for lo in range(0, k.shape[0], _STRIP):
            w = min(_STRIP, k.shape[0] - lo)
            col = k[lo:, lo : lo + w]
            star = k[lo : lo + w, lo:].conj().T  # K* on col, a copy
            norm2 += _squared_norm(col) + _squared_norm(star[w:])
            skew = col - star
            skew2 += _squared_norm(skew[:w]) + 2.0 * _squared_norm(skew[w:])
            star += col
            star *= 0.5
            col[...] = star
            np.conjugate(star.T, out=k[lo : lo + w, lo:])
    return math.sqrt(skew2) / (math.sqrt(norm2) or 1.0)


def _build_matrices(prefactor, gram, multipliers, box):
    """M = M(nu^{-1}) K on the box, and the asymmetry of K (_hermitian_part).

    Each class's block of M is that of M(nu^{-1}) times K's
    (_stiffness): every compression's entry (p, q) is a coefficient at p - q
    times a phase, so both are block diagonal over the classes with exact
    zeros between blocks, and so is M.  With one class its block is M,
    formed by one product; with several, M is scattered from the blocks
    into a buffer of its own, and no d x d compression is built.
    """
    plan, k = _stiffness(prefactor, gram, multipliers, box)
    mat = [p_mat @ blk for p_mat, blk in zip(calc._class_blocks(prefactor, plan), k)]
    mat = mat[0] if len(mat) == 1 else _scatter(list(zip(plan.classes, mat)))
    return mat, _hermitian_part(k)


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
    gram = _clip(dens.nu, mult_radius)
    pref = _clip(dens.inv_nu, mult_radius)
    mult = _clip(_multipliers(dens, h_inv), mult_radius).entries
    mat, asym = _build_matrices(pref, gram, mult, box)
    return LaplaceBeltramiOperator(h_inv.geometry, box, h_inv, dens, pref, gram, mult, mat, asym)


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
    """Sorted eigenvalues with stability flags from a two-box comparison, and
    the sizes of the classes of modes of each box, whose blocks the
    eigensolves ran on (a class split into even and odd halves counts
    once, at its full size)."""

    geometry: object
    box: LatticeBox
    stability_box: LatticeBox
    eigenvalues: np.ndarray
    stable: np.ndarray
    multiplicity_group: np.ndarray
    asymmetry: float
    stability_asymmetry: float
    block_sizes: tuple
    stability_block_sizes: tuple

    def __post_init__(self):
        for a in (self.eigenvalues, self.stable, self.multiplicity_group):
            a.setflags(write=False)

    @property
    def stable_eigenvalues(self):
        return self.eigenvalues[self.stable]

    def stable_count(self):
        return int(np.sum(self.stable))

    def multiplicity_of(self, value):
        """Stable eigenvalues within 1e-6 (relative to 1 + |value|) of value."""
        lam = self.stable_eigenvalues
        return int(np.sum(np.abs(lam - value) <= 1e-6 * (1.0 + abs(value))))


def _group_multiplicities(lam, tol):
    group = np.zeros(lam.shape, dtype=int)
    gid = 0
    for i in range(1, lam.size):
        if lam[i] - lam[i - 1] > tol * (1.0 + abs(lam[i])):
            gid += 1
        group[i] = gid
    return group


def _stable_prefix(lam, lam2, rel_tol):
    """Flags of the sorted eigenvalues lam that their index partners in lam2
    match to rel_tol, up to the first that does not."""
    m = min(lam.size, lam2.size)
    stable = np.zeros(lam.shape, dtype=bool)
    pair_diff = np.abs(lam[:m] - lam2[:m])
    stable[:m] = pair_diff <= rel_tol * (1.0 + np.maximum(np.abs(lam[:m]), np.abs(lam2[:m])))
    # stability is a prefix property: past the first mismatch the index
    # pairing of the two sorted lists is no longer meaningful
    bad = np.where(~stable)[0]
    if bad.size:
        stable[bad[0]:] = False
    return stable


def _pencil(op, box):
    """Ascending eigenvalues of K v = lambda M(nu) v on the box, the
    asymmetry of K and the sizes of the classes of modes.

    K and the Gram matrix M(nu) are block diagonal over the classes
    (_stiffness), so the eigenvalues are the union of the blocks' pencils',
    sorted.  When every table of the plan is even, the two blocks of each
    class that p -> -p maps onto itself are split together into their even
    and odd halves (calculus._ClassPlan.halves), each a pencil of its own,
    in real arithmetic when both of a pair are real (_standard_forms).  Each
    pair is reduced in place to the standard form L^{-1} K L^{-*},
    M(nu) = L L* (calculus._reduced_pencil, the reduction of LAPACK's
    hegvd), whose eigenvalues numpy's eigvalsh finds.  A Gram block that is
    not positive definite (a clipped nu that is not positive) is refused.
    """
    plan, k = _stiffness(op.prefactor, op.gram, op.multipliers, box)
    asym = _hermitian_part(k)
    # K's blocks are split and dropped before the Gram blocks are built, so
    # that the working set stays that of two blocks
    k = [plan.halves(c, blk, 1) for c, blk in enumerate(k)]
    grams = calc._class_blocks(op.gram, plan)
    lam = []
    for c in range(len(k)):
        forms = _standard_forms(plan, c, k[c], grams[c])
        k[c] = grams[c] = None
        lam += [np.linalg.eigvalsh(x) for x in forms]
    return np.sort(np.concatenate(lam)), asym, tuple(idx.size for idx in plan.classes)


def _standard_forms(plan, c, stiff, gram):
    """The standard form (calculus._reduced_pencil) of each pencil of class
    c: each half of stiff, the halves (calculus._ClassPlan.halves) of the
    stiffness block, with the same half of the Gram block gram, in real
    arithmetic when both are real (calculus._ClassPlan.real_forms), one at a
    time.  A Gram half that is not positive definite is refused."""
    gram = plan.halves(c, gram, 1)  # the block itself is dropped here
    for pair in zip(stiff, gram):
        try:
            yield calc._reduced_pencil(*plan.real_forms(c, list(pair), 1))
        except np.linalg.LinAlgError as exc:
            raise PositivityViolation(
                f"Gram matrix M(nu) on the box of radius {plan.box.radius}: {exc}"
            ) from None


def spectrum(op, stability_radius=None, rel_tol=1e-3, multiplicity_tol=1e-6):
    """Eigenvalues of the operator's pencil K v = lambda M(nu) v, with
    stability flags.

    The same elements are recompressed on a larger box (default radius + 2)
    and the sorted spectra (_pencil) are paired by index; an eigenvalue is
    stable when the pair agrees to rel_tol relative accuracy.  The result
    records what was measured (the stable count, both boxes' asymmetries of
    K and class sizes) and judges none of it: callers gate it.  Raises
    BoxTooSmall when stability_radius does not exceed the box radius, since
    the comparison would then pair the spectrum with itself or a smaller
    box's.
    """
    if stability_radius is None:
        stability_radius = op.box.radius + 2
    if stability_radius <= op.box.radius:
        raise BoxTooSmall(
            f"stability radius {stability_radius} must exceed box radius {op.box.radius}"
        )
    big_box = LatticeBox(op.geometry.n, stability_radius)
    lam2, asym2, sizes2 = _pencil(op, big_box)
    lam, asym, sizes = _pencil(op, op.box)
    stable = _stable_prefix(lam, lam2, rel_tol)
    groups = _group_multiplicities(lam, multiplicity_tol)
    return SpectrumResult(
        op.geometry, op.box, big_box, lam, stable, groups, asym, asym2, sizes, sizes2
    )


# ---------------------------------------------------------------------------
# conformal covariance
# ---------------------------------------------------------------------------


def conformally_deformed_flat_matrix(k_density, box):
    """Hermitian matrices whose eigenvalues, together, are those of the
    Rayleigh-Ritz pencil of the conformally deformed flat operator on the
    box, built from k alone.

    For the metric k^2 delta_ij at n = 2 the multipliers are k k^{-2} k = 1
    and the density is k^2, so the operator's pencil is D v = lambda M(k^2) v
    with D = diag(|p|^2): stable spectra must match.  D is even, so when
    k^2 is, the pencil splits into its even and odd halves as the
    operator's does, in real arithmetic where both are real
    (_standard_forms).  Returned as the list of L^{-1} D L^{-*} with
    M(k^2) = L L* (calculus._reduced_pencil) over the halves, or of the one
    whole pencil: callers take the sorted union of their eigenvalues.
    k_density is the Density of k, whose nu is read.
    """
    k2 = multiply(k_density.nu, k_density.nu)
    plan = calc._whole_plan(k2.geometry, box, [k2.table])
    p2 = (box.modes() ** 2).sum(axis=1).astype(complex)
    gram = calc._class_blocks(k2, plan)[0]  # writable: a whole pencil is reduced over it
    return list(_standard_forms(plan, 0, plan.halves(0, np.diag(p2), 1), gram))


def conformal_covariance_check(g, k_density, box, calc_box):
    """Residual of the conformal transformation law for ghat = k g k.

    For commuting (k, g) the transformed operator satisfies

        L_ghat = k^{-2} L_g - nu(g)^{-1} k^{-n} sum_ij d_i(k^{n-2}) a_ij d_j

    with a_ij the multipliers of L_g; in two dimensions the gradient
    correction vanishes identically.  Both sides are assembled independently
    (no multiplier clipping) and compared on interior rows, where box-exit
    leakage is a product of two coefficient tails.  Raises
    HypothesisViolated when max|[k, g]| exceeds calculus.COMPAT_TOL
    max|k| max|g|.

    k_density is the Density of k, whose nu is k and whose inv_nu gives
    k^{-2}; ghat is validated on calc_box, and each volume element is the
    Riemannian density of its metric, on that metric's box.  Returns the
    residual report and the assembled operator of ghat.
    """
    n = g.n
    k = k_density.nu
    comm = calc._require_commuting(k, g.matrix)
    ghat = metric_conformal(g, k, calc_box)

    op_g = assemble_riemannian(g, box)
    op_hat = assemble_riemannian(ghat, box)

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


def _symbol_parts(h_inv):
    """The selfadjoint parts S_ij of h^{ii} (i = j) and of h^{ij} + h^{ji}
    (i < j): the symbol (xi, xi)_{h^{-1}}, the selfadjoint part of
    sum_ij xi_i xi_j h^{ij}, is sum_{i <= j} xi_i xi_j S_ij."""
    n = h_inv.m
    parts = {}
    for i in range(n):
        for j in range(i, n):
            table = h_inv.coeffs[i, j] if i == j else h_inv.coeffs[i, j] + h_inv.coeffs[j, i]
            s = AlgebraElement(h_inv.geometry, h_inv.box, table)
            parts[i, j] = selfadjoint_part(s)
    return parts


def _sphere_nodes(n, points):
    """Quadrature nodes and weights on the unit sphere S^{n-1}, one node of
    each antipodal pair with twice its weight when the rule is antipodal.

    At n = 2 the p equally spaced angles are antipodal when p is even: node k
    pairs with node k + p/2.  At n = 3 the Gauss-Legendre product rule always
    is: numpy's Legendre nodes z are exactly antisymmetric and their weights
    symmetric, and the azimuthal count is even, so the node (z_i, phi_j)
    pairs with (z_{-1-i}, phi_j + pi), which carries the same weight.  In
    both the first half of the rule, in its order, holds one node of each
    pair, so each kept node is the rule's own, bit for bit.  The Weyl
    integrand is even in xi, so the folded rule integrates it exactly as
    the whole rule does.
    """
    if n == 2:
        angles = 2.0 * np.pi * np.arange(points) / points
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        weights = np.full(points, 2.0 * np.pi / points)
        if points % 2:
            return nodes, weights
    elif n == 3:
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
        nodes, weights = np.array(nodes), np.array(weights)
    else:
        raise ValueError(f"sphere quadrature not implemented for n={n}")
    half = weights.size // 2
    return nodes[:half], 2.0 * weights[:half]


def weyl_constant(g, dens, box, quadrature_points=64):
    """Eigenvalue-counting constant of a RiemannianMetric by sphere quadrature.

    Integrates tau((xi, xi)_{g^{-1}}^{-n/2}) over the unit sphere, by the
    spectral calculus on box, and divides by n.  quadrature_points p sets the
    nodes: p equally spaced angles at n = 2, and at n = 3 a Gauss-Legendre
    product rule of floor(sqrt p) polar by 2 floor(sqrt p) azimuthal nodes,
    2 floor(sqrt p)^2 in all (128 for p = 64, 8 for p < 4).  The integrand
    is even in xi, so one node of each antipodal pair is evaluated, with
    twice its weight (_sphere_nodes): p/2 nodes at n = 2 when p is even (p
    when it is odd), and half of 2 floor(sqrt p)^2 at n = 3 (64 for
    p = 64, 4 for p < 4).  At each node
    the symbol sum_{i <= j} xi_i xi_j S_ij is formed from its selfadjoint
    parts (_symbol_parts) and tau(symbol^{-n/2}) is read by
    functional_calculus: its compression is floor-tested class by class, the
    ellipticity check, and read on mode 0's class alone, so one node's
    compression and its floor test's copy are live at a time.  dens is
    g's Riemannian density when the caller already holds it (the assembled
    operator's nu), else None.  When g is self-compatible the closed form
    (2 pi)^{-n} |unit ball| volume(dens) is computed alongside, from
    riemannian_density(g) when dens is None; otherwise the density is not
    needed.  Returns {"c_n_quadrature", "c_n_closed_form", "c_n_residual"}:
    the closed form and the residual |quadrature - closed form| are NaN when
    g is not self-compatible.
    """
    n = g.n
    nodes, weights = _sphere_nodes(n, quadrature_points)
    parts = _symbol_parts(g.inverse)
    total = 0.0
    for xi, w in zip(nodes, weights):
        symbol = functools.reduce(add, [scale(s, xi[i] * xi[j]) for (i, j), s in parts.items()])
        # tau of f(symbol), exactly real: functional_calculus returns (y + y*)/2
        total += w * trace(functional_calculus(symbol, ("pow", -n / 2.0), box)).real
    quad = total / n
    closed = np.nan
    if g.is_self_compatible():
        dens = dens or riemannian_density(g)
        closed = (2.0 * np.pi) ** (-n) * unit_ball_volume(n) * volume(dens)
    return {"c_n_quadrature": quad, "c_n_closed_form": closed, "c_n_residual": abs(quad - closed)}


def weyl_fit(result, c_n, window):
    """Least-squares Weyl fit over a window of stable eigenvalue indices.

    Fits log(lambda_l) against log(l) (target slope 2/n), compares the
    fitted prefactor with (1/c_n)^{2/n}, and reports the counting-function
    ratio N(lambda)/(c_n lambda^{n/2}) over the window.  Returns
    {"exponent", "exponent_target", "prefactor_ratio", "counting_ratio",
    "window"}, with counting_ratio the [min, mean, max] of the ratio and
    window [lo, hi].
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
    return {
        "exponent": float(slope),
        "exponent_target": 2.0 / n,
        "prefactor_ratio": prefactor_ratio,
        "counting_ratio": [float(ratios.min()), float(ratios.mean()), float(ratios.max())],
        "window": [lo, hi],
    }


def lattice_eigenvalues(box):
    """Sorted |k|^2 over the box: the exact flat spectrum with multiplicity."""
    return np.sort((box.modes() ** 2).sum(axis=1)).astype(float)
