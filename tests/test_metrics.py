import re

import numpy as np
import pytest

from nctorus import algebra as alg, calculus as calc, metrics as met
from nctorus.algebra import AlgebraElement, LatticeBox, TorusGeometry
from nctorus.calculus import TorusMatrix
from nctorus.errors import (
    HypothesisViolated,
    MetricValidationError,
    PositivityViolation,
    SeriesNotConverged,
    SpectrumOutsideDomain,
)
from nctorus.sampling import random_element

from conftest import coeff_diff, trig_pair


def _exp_density(geom, a0=0.15, a1=0.1):
    return met.density_exp(trig_pair(geom, 0, a0) + trig_pair(geom, 1, a1))


def test_flat_metric(geom, geom3):
    flat = met.metric_flat(geom)
    assert flat.matrix.entries[0][0].coefficient((0, 0)) == 1.0
    assert flat.matrix.entries[0][1].max_abs() == 0.0
    for g, n in ((flat, 2), (met.metric_flat(geom3), 3)):
        vol = met.volume(met.riemannian_density(g))
        assert vol == pytest.approx((2 * np.pi) ** n, rel=1e-14)


def test_flat_volume_independent_of_theta():
    for t in (0.0, 0.3, 1 / np.sqrt(2)):
        g = TorusGeometry.two_torus(t)
        vol = met.volume(met.riemannian_density(met.metric_flat(g)))
        assert vol == pytest.approx((2 * np.pi) ** 2, rel=1e-14)


def test_density_exp_of_a_constant(geom):
    """exp(a) sums only exp(+-a/2): the series of exp(-|a|/2) cancels by the
    ratio e^{|a|}, which exp_series refuses above 1e5, at |a| of about 11.5."""
    one = AlgebraElement.identity(geom)
    dens = met.density_exp(alg.scale(one, 10.0))
    for got, want in ((dens.nu, 10.0), (dens.inv_nu, -10.0),
                      (dens.sqrt_nu, 5.0), (dens.inv_sqrt_nu, -5.0)):
        assert got.box.radius == 0
        assert abs(alg.trace(got) - np.exp(want)) <= 1e-12 * np.exp(want)
    with pytest.raises(SeriesNotConverged):
        met.density_exp(alg.scale(one, 12.0))


def test_conformal_scalar(geom):
    box = LatticeBox(2, 4)
    k = alg.scale(AlgebraElement.identity(geom), 2.0)
    g = met.metric_conformal(met.metric_flat(geom), k, box)
    assert coeff_diff(
        g.matrix.entries[0][0], alg.scale(AlgebraElement.identity(geom), 4.0)
    ) == 0.0
    assert g.matrix.entries[0][1].max_abs() == 0.0


def test_conformal_matches_scalar_matrix_form(geom):
    box = LatticeBox(2, 8)
    k = _exp_density(geom).nu
    base = met.metric_constant(geom, [[1.3, 0.2], [0.2, 1.0]])
    k_eye = TorusMatrix.scalar(k, 2)
    expect = k_eye.matmul(base.matrix).matmul(k_eye)
    got = met.metric_conformal(base, k, box).matrix
    assert coeff_diff(got, expect) <= 1e-15 * expect.max_abs()


def test_conformal_rejects_nonpositive(geom):
    box = LatticeBox(2, 6)
    with pytest.raises(PositivityViolation):
        met.metric_conformal(met.metric_flat(geom), trig_pair(geom, 0), box)


def test_conformal_factor_floor(geom):
    """A conformal factor whose compressed spectrum sits just below the floor
    is refused as a PositivityViolation, and one just above it is taken."""
    box = LatticeBox(2, 6)
    wave = trig_pair(geom, 0)
    lam_min = np.linalg.eigvalsh(calc.compress(wave, box).matrix)[0]
    one = AlgebraElement.identity(geom)
    flat, floor = met.metric_flat(geom), calc.SPECTRAL_FLOOR
    with pytest.raises(PositivityViolation):
        met.metric_conformal(flat, alg.add(wave, alg.scale(one, floor - 1e-9 - lam_min)), box)
    met.metric_conformal(flat, alg.add(wave, alg.scale(one, floor + 1e-9 - lam_min)), box)


def test_conformally_flat_entries(geom):
    box = LatticeBox(2, 8)
    dk = _exp_density(geom)
    g = met.metric_conformal(met.metric_flat(geom), dk.nu, box)
    k2 = alg.multiply(dk.nu, dk.nu)
    assert coeff_diff(g.matrix.entries[0][0], k2) < 1e-14
    assert coeff_diff(g.matrix.entries[1][1], k2) < 1e-14
    assert calc.compatibility_residual(g.matrix, g.matrix) < 1e-13


def test_validation_leaves_self_compatibility_to_the_metric(geom, monkeypatch):
    # building a metric never computes the self-compatibility residual;
    # is_self_compatible computes it on each call
    from nctorus import io as nio

    def refuse(a, b):
        raise AssertionError("compatibility_residual called")

    box = LatticeBox(2, 6)
    k = {"exp_of": [{"k": [1, 0], "re": 0.1, "im": 0}, {"k": [-1, 0], "re": 0.1, "im": 0}]}
    specs = [
        {"type": "constant", "matrix": [[2.0, 0.3], [0.3, 1.0]]},
        {"type": "conformal", "k": k},
        {"type": "functional", "h": [{"k": [1, 0], "re": 0.5, "im": 0}],
         "poly": [[[1.2, 0.1], [0.0, 0.05]], [[0.0, 0.05], [0.9, 0.0]]]},
        {"type": "explicit", "entries": [[[{"k": [0, 0], "re": 2.0}], []],
                                         [[], [{"k": [0, 0], "re": 3.0}]]]},
    ]
    with monkeypatch.context() as m:
        m.setattr(calc, "compatibility_residual", refuse)
        m.setattr(met, "compatibility_residual", refuse)
        metrics = [nio.metric_from_spec(geom, spec, box) for spec in specs]
        with pytest.raises(AssertionError, match="compatibility_residual called"):
            metrics[1].is_self_compatible()
    assert all(g.is_self_compatible() for g in metrics)


def test_functional_metric(geom):
    box = LatticeBox(2, 8)
    h = trig_pair(geom, 0)

    def profile(t):
        return np.array([[1.2 + 0.2 * t, 0.1 * t], [0.1 * t, 0.9 + 0.1 * t]])

    g = met.metric_functional(h, profile, box)
    assert calc.compatibility_residual(g.matrix, g.matrix) < 1e-10
    assert g.is_self_compatible()

    const = met.metric_functional(h, lambda t: np.eye(2) * 1.5, box)
    expect = alg.scale(AlgebraElement.identity(geom), 1.5)
    assert coeff_diff(const.matrix.entries[0][0], expect) < 1e-12

    with pytest.raises(SpectrumOutsideDomain):
        met.metric_functional(h, lambda t: np.array([[t, 0.0], [0.0, 1.0]]), box)


def test_riemannian_density_flat_and_conformal(geom):
    box = LatticeBox(2, 10)
    flat = met.metric_flat(geom)
    assert coeff_diff(
        met.riemannian_density(flat).nu, AlgebraElement.identity(geom)
    ) == 0.0
    dk = _exp_density(geom)
    ct = met.metric_conformal(flat, dk.nu, box)
    dens = met.riemannian_density(ct)
    k2 = alg.multiply(dk.nu, dk.nu)
    assert coeff_diff(dens.nu, k2) < 1e-8  # nu(k^2 I) = k^n, n = 2
    detg = calc.determinant(ct.matrix, box)
    nusq = alg.multiply(dens.nu, dens.nu)
    assert coeff_diff(nusq, detg) < 1e-8


def test_product_metric_density(geom):
    box = LatticeBox(2, 8)
    w = trig_pair(geom, 0, 0.12)
    k1 = alg.exp_series(w)
    k2 = alg.exp_series(alg.scale(w, 0.7))  # commutes with k1
    b1 = met.validate_metric(
        TorusMatrix(geom, 2, [[alg.multiply(k1, k1),
                               AlgebraElement.zeros(geom, 0)],
                              [AlgebraElement.zeros(geom, 0),
                               alg.multiply(k2, k2)]]),
        box,
    )
    dens = met.riemannian_density(b1)
    assert coeff_diff(dens.nu, alg.multiply(k1, k2)) < 1e-8


def test_metric_product_blocks(geom):
    box = LatticeBox(2, 8)
    w = trig_pair(geom, 0, 0.12)
    k1sq = TorusMatrix(geom, 1, [[alg.exp_series(alg.scale(w, 2.0))]])
    k2sq = TorusMatrix(geom, 1, [[alg.exp_series(alg.scale(w, 1.4))]])
    m1 = met.validate_metric(k1sq, box)
    m2 = met.validate_metric(k2sq, box)
    product, compat = met.metric_product([m1, m2], box)
    assert compat < 1e-14
    dens = met.riemannian_density(product)
    expect = alg.exp_series(alg.scale(w, 1.7))  # k1 k2 = exp(1.7 w)
    assert coeff_diff(dens.nu, expect) < 1e-8


def test_conformal_density_transformation(geom):
    box = LatticeBox(2, 10)
    dk = _exp_density(geom, 0.12, 0.08)
    flat = met.metric_flat(geom)
    assert met.conformal_density_residual(flat, dk.nu, box) < 1e-8
    const = met.metric_constant(geom, [[1.3, 0.2], [0.2, 0.9]])
    assert met.conformal_density_residual(const, dk.nu, box) < 1e-8


def test_weight_positivity_and_sandwich(geom, rng):
    box = LatticeBox(2, 8)
    dens = _exp_density(geom)
    for _ in range(5):
        u = random_element(geom, 2, rng)
        val = met.weight(dens, alg.multiply(alg.adjoint(u), u))
        assert val.real >= -1e-12 and abs(val.imag) < 1e-10
    x = calc.make_positive(random_element(geom, 2, rng, 0.5), 0.5)
    s = met.weight_trace_sandwich(dens, x, box)
    assert s["lower"] <= s["middle"] + 1e-10
    assert s["middle"] <= s["upper"] + 1e-10


def test_orthogonal_invariance(geom):
    box = LatticeBox(2, 8)
    h = trig_pair(geom, 0, 0.4)

    def profile(t):
        return np.array([[1.2 + 0.15 * t, 0.05 * t], [0.05 * t, 0.9 + 0.1 * t]])

    g = met.metric_functional(h, profile, box)
    eye = TorusMatrix.identity(geom, 2)
    rep = met.orthogonal_invariance_check(g, eye, box)
    assert rep["density_residual"] < 1e-12 and rep["volume_residual"] < 1e-12
    c, s = np.cos(0.7), np.sin(0.7)
    rot = TorusMatrix.from_scalar_matrix(geom, [[c, -s], [s, c]])
    rep = met.orthogonal_invariance_check(g, rot, box)
    assert rep["density_residual"] < 1e-8
    assert rep["volume_residual"] < 1e-8
    perm = TorusMatrix.from_scalar_matrix(geom, [[0.0, 1.0], [-1.0, 0.0]])
    rep = met.orthogonal_invariance_check(g, perm, box)
    assert rep["density_residual"] < 1e-8
    skew = TorusMatrix.from_scalar_matrix(geom, [[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(HypothesisViolated):
        met.orthogonal_invariance_check(g, skew, box)


def test_validation_rejects_counterexample(geom):
    """Positive matrix with selfadjoint entries whose inverse leaves them."""
    box = LatticeBox(2, 8)
    a = trig_pair(geom, 0)
    b = alg.add(alg.scale(AlgebraElement.identity(geom), 1.5), trig_pair(geom, 1, 0.5))
    one = AlgebraElement.identity(geom)
    zero = AlgebraElement.zeros(geom, 0)
    y = TorusMatrix(geom, 2, [[one, a], [zero, b]])
    h = y.adjoint().matmul(y)
    assert h.selfadjoint_residual() < 1e-14
    with pytest.raises(MetricValidationError) as err:
        met.validate_metric(h, box)
    # the residuals measured up to the failed check, and no further
    residuals = err.value.residuals
    assert set(residuals) == {"selfadjoint_residual", "inverse_selfadjoint_residual"}
    assert residuals["selfadjoint_residual"] < 1e-14
    assert residuals["inverse_selfadjoint_residual"] > 1e-3


def test_validation_rejects_nonselfadjoint_entries(geom):
    box = LatticeBox(2, 4)
    v = AlgebraElement.basis(geom, (1, 0))
    one = AlgebraElement.identity(geom)
    h = TorusMatrix(geom, 2, [[one, v], [v, one]])
    with pytest.raises(MetricValidationError):
        met.validate_metric(h, box)


def test_validation_rejects_nonpositive(geom):
    box = LatticeBox(2, 5)
    one = AlgebraElement.identity(geom)
    zero = AlgebraElement.zeros(geom, 0)
    h = TorusMatrix(geom, 2, [[one, zero], [zero, trig_pair(geom, 0)]])  # diag(1, a)
    lam_min = np.linalg.eigvalsh(calc.compress(h, box).matrix)[0]
    assert lam_min < 0
    with pytest.raises(MetricValidationError, match=re.escape(f"reaches {lam_min:.3e}")):
        met.validate_metric(h, box)
    with pytest.raises(MetricValidationError):
        met.metric_constant(geom, [[1.0, 0.0], [0.0, -1.0]])


def test_density_from_element_consistency(geom):
    box = LatticeBox(2, 8)
    nu_elem = calc.make_positive(trig_pair(geom, 0, 0.3), 1.0)
    dens = met.density_from_element(nu_elem, box)
    assert dens.consistency_residual < 1e-8
    with pytest.raises(PositivityViolation):
        met.density_from_element(trig_pair(geom, 0), box)
