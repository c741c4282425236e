"""Riemannian metrics, densities, weights, and volumes on the torus algebra.

A metric is a positive invertible n x n matrix over the algebra whose
entries, and those of its inverse, are selfadjoint.  Truncation breaks the
exact identities, so validation is tolerance-based, and a metric that
fails it is refused with its measured residuals.  Every x = x* test reads
calculus.SELFADJOINT_TOL relative to max|x| alone, and every [a, b] = 0
test reads calculus.compatibility_residual against COMPAT_TOL max|a|
max|b|: the hypotheses of orthogonal_invariance_check and
conformal_density_residual refuse through calculus._require_commuting, and
RiemannianMetric.is_self_compatible is the same test of [g, g].  So
rescaling an input moves no verdict.

A density is a positive invertible element nu together with an internally
consistent family of powers (nu^{1/2}, nu^{-1/2}, nu^{-1}).  The family is
produced either from the exponential series nu^{+-1/2} = exp(+-w/2), with
nu^{+-1} their squares, or by Newton polishing of spectral-calculus output;
either way the pairwise consistency residual (max coefficient of
nu * nu^{-1} - 1 etc.) is recorded, since the divergence/Laplacian
identities inherit exactly this error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus as calc
from .algebra import (
    AlgebraElement,
    LatticeBox,
    _EXP_TOL,
    _integer_power,
    _sandwich,
    add,
    exp_series,
    multiply,
    scale,
    trace,
    trim,
)
from .calculus import (
    SPECTRAL_FLOOR,
    TorusMatrix,
    compatibility_residual,
    functional_calculus,
    matrix_trace,
    spectral_bounds,
)
from .errors import (
    HypothesisViolated,
    MetricValidationError,
    PositivityViolation,
    SpectralFloorViolation,
    SpectrumOutsideDomain,
)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Density:
    """Positive invertible element with a consistent family of powers."""

    nu: AlgebraElement
    sqrt_nu: AlgebraElement
    inv_sqrt_nu: AlgebraElement
    inv_nu: AlgebraElement
    consistency_residual: float

    @property
    def geometry(self):
        return self.nu.geometry


def density_one(geometry):
    one = AlgebraElement.identity(geometry)
    return Density(one, one, one, one, 0.0)


def _family_residual(nu, sqrt_nu, inv_sqrt_nu, inv_nu):
    one = AlgebraElement.identity(nu.geometry)
    r1 = add(multiply(nu, inv_nu), scale(one, -1.0)).max_abs()
    r2 = add(multiply(sqrt_nu, inv_sqrt_nu), scale(one, -1.0)).max_abs()
    r3 = add(multiply(sqrt_nu, sqrt_nu), scale(nu, -1.0)).max_abs()
    r4 = add(multiply(inv_sqrt_nu, inv_sqrt_nu), scale(inv_nu, -1.0)).max_abs()
    return max(r1, r2, r3, r4)


def density_exp(w):
    """Density nu = exp(w) for selfadjoint w, with all powers from the series.

    A w that is not selfadjoint is a NonSelfadjointInput.  Only nu^{+-1/2} =
    exp(+-w/2) are summed; nu and nu^{-1} are their exact squares, trimmed
    at the series' own cutoff.  A half exponent halves the cancellation of
    the inverse series, so exp_series accepts a scalar exponent up to |a| of
    about 11.5 rather than 5.8.
    """
    calc._require_selfadjoint(w, "density exponent")
    sq = exp_series(scale(w, 0.5))
    isq = exp_series(scale(w, -0.5))
    nu = trim(multiply(sq, sq), _EXP_TOL * 1e-2)
    inv = trim(multiply(isq, isq), _EXP_TOL * 1e-2)
    return Density(nu, sq, isq, inv, _family_residual(nu, sq, isq, inv))


def density_from_element(nu, box):
    """Density from an explicit positive invertible element.

    Refuses a nu that is not selfadjoint (NonSelfadjointInput), takes the
    inverse square root by spectral calculus (which refuses a compressed
    spectrum below the floor with a SpectralFloorViolation, a
    PositivityViolation), and Newton-polishes it so the power family is
    mutually consistent to near the Newton tolerance (limited by the
    coefficient decay of nu^{-1/2} at the refinement radius, twice the box
    radius).
    """
    calc._require_selfadjoint(nu, "density")
    guess = functional_calculus(nu, "inv_sqrt", box)
    z, _ = calc.refine_inverse_sqrt(nu, guess, 2 * box.radius)

    cut = 1e-17 * max(1.0, nu.max_abs())
    z = trim(z, cut)
    sqrt_nu = trim(multiply(nu, z), cut)
    inv_nu = trim(multiply(z, z), cut)
    res = _family_residual(nu, sqrt_nu, z, inv_nu)
    return Density(nu, sqrt_nu, z, inv_nu, res)


# ---------------------------------------------------------------------------
# metric validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiemannianMetric:
    """Validated metric: the matrix, its computed inverse, and the box it was
    validated on (its density's box).  What else is known of it (flatness,
    self-compatibility) is read off the matrix."""

    matrix: TorusMatrix
    inverse: TorusMatrix
    box: LatticeBox

    @property
    def geometry(self):
        return self.matrix.geometry

    @property
    def n(self):
        return self.matrix.m

    @property
    def is_flat(self):
        """Whether the matrix is exactly the identity; its density is then exactly 1."""
        eye = TorusMatrix.identity(self.geometry, self.n)
        return (self.matrix - eye).max_abs() == 0.0

    def is_self_compatible(self):
        """Whether the entries commute: compatibility_residual(g, g) <=
        calculus.COMPAT_TOL max|g|^2, the bound of every [a, b] = 0 test;
        computed per call."""
        g = self.matrix
        return compatibility_residual(g, g) <= calc.COMPAT_TOL * g.max_abs() ** 2


# validation tolerance of the interior residual of g g^{-1} = 1
_INVERSE_TOL = 1e-9


def _interior_identity_residual(g, g_inv):
    """Max coefficient of g g_inv - 1 on modes the truncation leaves exact."""
    prod = g.matmul(g_inv)
    margin = max(0, g_inv.box.radius - g.box.radius)
    return (prod - TorusMatrix.identity(g.geometry, g.m)).resize(margin).max_abs()


def _entry_selfadjoint_residual(h):
    """Max coefficient deviation of the entries from h_ij = h_ij*."""
    return (h - h.adjoint().transpose()).max_abs()


def validate_metric(g, box, inverse=None):
    """Validate a candidate metric matrix and return a RiemannianMetric.

    Checks, in order: selfadjoint entries, positive invertibility of the
    compression (the floor test of the inverse's Cholesky factor),
    selfadjoint entries of the computed inverse, and the interior residual
    of g g^{-1} = 1.  An entry check of h (g or its inverse) passes when
    max|h_ij - h_ij*| <= calculus.SELFADJOINT_TOL max|h|.  On failure raises
    MetricValidationError whose residuals dict holds what was measured up to
    the failed check, among "selfadjoint_residual",
    "inverse_selfadjoint_residual" and "inverse_residual".  The inverse
    selfadjointness test is what rejects positive matrices with selfadjoint
    entries whose inverse leaves the real subspace.  A caller that supplies
    the inverse has tested positivity itself.  Size m < n is allowed
    (product-metric blocks); a full metric for the Laplacian must be n x n.
    Self-compatibility and flatness are not recorded here:
    RiemannianMetric.is_self_compatible and is_flat read them off the
    matrix.  The returned metric keeps box, on which its density is computed.
    """
    residuals = {}
    sa = residuals["selfadjoint_residual"] = _entry_selfadjoint_residual(g)
    if sa > calc.SELFADJOINT_TOL * g.max_abs():
        raise MetricValidationError(
            f"metric entries not selfadjoint (residual {sa:.3e})", residuals
        )
    if inverse is None:
        try:
            inverse = calc.matrix_inverse(g, box)
        except SpectralFloorViolation as exc:
            raise MetricValidationError(
                f"metric not positive invertible ({exc})", residuals
            ) from None
    inv_sa = residuals["inverse_selfadjoint_residual"] = _entry_selfadjoint_residual(inverse)
    if inv_sa > calc.SELFADJOINT_TOL * inverse.max_abs():
        raise MetricValidationError(
            f"inverse entries not selfadjoint (residual {inv_sa:.3e})", residuals
        )
    inv_res = residuals["inverse_residual"] = _interior_identity_residual(g, inverse)
    if inv_res > _INVERSE_TOL:
        raise MetricValidationError(
            f"g g^-1 = 1 fails on interior modes (residual {inv_res:.3e})", residuals
        )
    return RiemannianMetric(g, inverse, box)


# ---------------------------------------------------------------------------
# metric constructors
# ---------------------------------------------------------------------------


def metric_flat(geometry):
    """Euclidean metric g_ij = delta_ij; its inverse and density are exact."""
    n = geometry.n
    eye = TorusMatrix.identity(geometry, n)
    return RiemannianMetric(eye, eye, LatticeBox(n, 0))


def metric_constant(geometry, mat, box=None):
    """Constant-coefficient metric from a real SPD numeric matrix."""
    mat = np.asarray(mat, dtype=float)
    if not np.allclose(mat, mat.T):
        raise MetricValidationError("constant metric must be symmetric")
    # the compression of a constant matrix has the matrix's eigenvalues
    lam_min = float(np.linalg.eigvalsh(mat)[0])
    if lam_min < SPECTRAL_FLOOR:
        raise MetricValidationError(
            f"constant metric not positive definite (min eigenvalue {lam_min:.3e})"
        )
    g = TorusMatrix.from_scalar_matrix(geometry, mat)
    inv = TorusMatrix.from_scalar_matrix(geometry, np.linalg.inv(mat))
    box = box or LatticeBox(geometry.n, 2)
    return validate_metric(g, box, inverse=inv)


def metric_conformal(base, k, box):
    """Conformal deformation: entries k g_ij k for positive invertible k; a k
    that is not selfadjoint is a NonSelfadjointInput, one below the floor a
    PositivityViolation."""
    calc._require_selfadjoint(k, "conformal factor")
    lo, _ = spectral_bounds(k, box)
    if lo < SPECTRAL_FLOOR:
        raise PositivityViolation(f"conformal factor compressed min {lo:.3e}")
    coeffs = _sandwich(k, base.matrix.coeffs, k)
    return validate_metric(TorusMatrix.from_coeffs(k.geometry, coeffs), box)


def metric_product(blocks, box):
    """Block-diagonal assembly of validated metrics; compatibility is measured."""
    mats = [b.matrix for b in blocks]
    compat = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            compat = max(compat, compatibility_residual(mats[i], mats[j]))
    g = TorusMatrix.block_diag(mats)
    metric = validate_metric(g, box)
    return metric, compat


def metric_functional(h, profile, box):
    """Functional metric g_ij = g_ij(h) for a selfadjoint generator h.

    profile maps a real t to an n x n SPD matrix; it is sampled at the
    compressed eigenvalues of h, so all entries are functions of the single
    element h and the metric is self-compatible by construction.
    """
    geometry = h.geometry
    n = geometry.n
    lam, vecs = np.linalg.eigh(calc.compress(h, box).matrix)
    samples = []
    for t in lam:
        try:
            mat = np.asarray(profile(float(t)), dtype=float)
        except Exception as exc:  # profile not defined at a sampled point
            raise SpectrumOutsideDomain(f"profile failed at t={t:.6g}: {exc}") from exc
        if mat.shape != (n, n) or not np.allclose(mat, mat.T):
            raise SpectrumOutsideDomain(f"profile at t={t:.6g} is not symmetric {n}x{n}")
        if np.linalg.eigvalsh(mat).min() <= 0:
            raise SpectrumOutsideDomain(f"profile not positive-definite at t={t:.6g}")
        samples.append(mat)
    samples = np.array(samples, dtype=complex)  # (dim, n, n)
    i0 = box.index_of(np.zeros(n, dtype=int))
    # entry (i, j) is g_ij(C) applied to the cyclic vector V_0
    cols = vecs @ (samples * vecs[i0].conj()[:, None, None]).reshape(-1, n * n)
    coeffs = cols.T.reshape((n, n) + box.shape)
    return validate_metric(TorusMatrix.from_coeffs(geometry, coeffs), box)


# ---------------------------------------------------------------------------
# densities, weights, volumes of metrics
# ---------------------------------------------------------------------------


def riemannian_density(g):
    """Volume element sqrt(det g) = exp(Tr(log g) / 2) of a RiemannianMetric.

    Computed on g.box, the box the metric was validated on; a flat
    metric's density is exactly 1.
    """
    if g.is_flat:
        return density_one(g.geometry)
    log_g = functional_calculus(g.matrix, "log", g.box)
    half_trace = scale(matrix_trace(log_g), 0.5)
    nu = functional_calculus(half_trace, "exp", g.box)
    return density_from_element(nu, g.box)


def weight(dens, u):
    """Weight of a density: (2 pi)^n tau(u nu)."""
    return (2.0 * np.pi) ** dens.geometry.n * trace(multiply(u, dens.nu))


def volume(dens):
    """Volume (2 pi)^n tau(nu) of a Density, a positive real; the Riemannian
    volume of a metric g is volume(riemannian_density(g))."""
    return float(((2.0 * np.pi) ** dens.geometry.n * trace(dens.nu)).real)


def weight_trace_sandwich(density, x, box):
    """Bounds |nu^-1|^-1 tau(x) <= (2pi)^-n phi_nu(x) <= |nu| tau(x).

    Norms are compressed-operator norms, hence lower bounds of the true
    ones: the lower inequality is rigorous, the upper is empirical.
    """
    lo_inv, hi_inv = spectral_bounds(density.inv_nu, box)
    lo_nu, hi_nu = spectral_bounds(density.nu, box)
    t = float(trace(x).real)
    mid = float(((2.0 * np.pi) ** (-x.geometry.n) * weight(density, x)).real)
    return {
        "lower": t / max(hi_inv, np.finfo(float).tiny),
        "middle": mid,
        "upper": hi_nu * t,
    }


def orthogonal_invariance_check(g, u, box):
    """Residuals of nu(u^t g u) = nu(g) and the matching volume identity.

    g is a RiemannianMetric; u^t g u is validated on box, and each density is
    computed on its metric's box.  The identity needs u with selfadjoint
    entries (max|u_ij - u_ij*| <= calculus.SELFADJOINT_TOL max|u|) and
    orthogonal (max|u^t u - 1| <= calculus.COMPAT_TOL, already relative to
    the identity), then [u, u] = 0 and [u, g] = 0 (calculus._require_commuting,
    relative to max|u| max|g|); each failure raises HypothesisViolated.
    """
    mat = g.matrix
    ut = u.transpose()
    sa = _entry_selfadjoint_residual(u)
    orth = (ut.matmul(u) - TorusMatrix.identity(u.geometry, u.m)).max_abs()
    hyp = {"u_selfadjoint_entries": sa, "orthogonality": orth}
    if sa > calc.SELFADJOINT_TOL * u.max_abs() or orth > calc.COMPAT_TOL:
        raise HypothesisViolated(f"orthogonal invariance hypotheses failed: {hyp}", hyp)
    hyp["self_compatible(u)"] = calc._require_commuting(u, u, "self_compatible(u)")
    hyp["compatible(u,g)"] = calc._require_commuting(u, mat, "compatible(u,g)")
    nu_g = riemannian_density(g)
    nu_c = riemannian_density(validate_metric(ut.matmul(mat).matmul(u), box))
    dens_resid = (nu_c.nu - nu_g.nu).max_abs()
    vol_resid = abs(volume(nu_c) - volume(nu_g))
    return {"density_residual": dens_resid, "volume_residual": vol_resid, **hyp}


def conformal_density_residual(g, k, box):
    """Residual of nu(k^2 g) = k^n nu(g) for a RiemannianMetric g commuting
    with k; k^2 g is built as k g k, which equals it when k and g commute
    and whose entries are selfadjoint when g's are, and is validated on
    box.  Raises HypothesisViolated when max|[k, g]| exceeds
    calculus.COMPAT_TOL max|k| max|g|."""
    mat = g.matrix
    n = mat.geometry.n
    calc._require_commuting(k, mat, "[k,g]")
    scaled = TorusMatrix.from_coeffs(k.geometry, _sandwich(k, mat.coeffs, k))
    nu_scaled = riemannian_density(validate_metric(scaled, box))
    nu_g = riemannian_density(g)
    return (nu_scaled.nu - multiply(_integer_power(k, n), nu_g.nu)).max_abs()
