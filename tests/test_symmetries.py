"""Verdicts and spectra that the torus's own symmetries fix exactly, at theta != 0.

Scaling: the selfadjointness and commutation tests bound a residual relative
to the sizes of their inputs, so a copy scaled by e^a gets the same verdict
at every a.  The gauge action V_k -> e^{ik.t} V_k is an automorphism at every
theta and maps each box onto itself: the compression of the gauged operator
is D C D* with D diagonal unitary, so its spectrum is the same up to roundoff.
"""

import cmath
import math

import numpy as np
import pytest

from nctorus import algebra as alg, calculus as calc, io as nio, laplacian as lap, metrics as met
from nctorus.algebra import AlgebraElement, LatticeBox, TorusGeometry
from nctorus.calculus import TorusMatrix
from nctorus.errors import HypothesisViolated, NonSelfadjointInput

from conftest import trig_pair

SCALES = (-3.0, 0.0, 2.0)


def _off_selfadjoint(geom, rel):
    """1 + 0.3 (V_e1 + V_-e1) + rel V_e2, whose max|x - x*| is rel max|x|."""
    x = alg.add(alg.add(AlgebraElement.identity(geom), trig_pair(geom, 0, 0.3)),
                alg.scale(AlgebraElement.basis(geom, (0, 1)), rel))
    assert alg.add(x, alg.scale(alg.adjoint(x), -1.0)).max_abs() == rel * x.max_abs()
    return x


def test_selfadjointness_verdict_is_scale_free(geom):
    box = LatticeBox(2, 3)
    near, far = _off_selfadjoint(geom, 5e-13), _off_selfadjoint(geom, 5e-11)
    for a in SCALES:
        calc.functional_calculus(alg.scale(near, math.exp(a)), "exp", box)
        with pytest.raises(NonSelfadjointInput):
            calc.functional_calculus(alg.scale(far, math.exp(a)), "exp", box)


def _commutator_ratio(k, g):
    comm = calc.compatibility_residual(TorusMatrix.scalar(k, 1), g.matrix)
    return comm / (k.max_abs() * g.matrix.max_abs())


def test_commutator_verdict_is_scale_free(geom):
    """k = 1 + s (V_e1 + V_-e1) against g = h^2 I with h in the modes of e2:
    [k, g] is s [V_e1 + V_-e1, h^2], nonzero at theta != 0, and s sets it to
    a chosen share of max|k| max|g|."""
    box = LatticeBox(2, 4)
    h = alg.add(AlgebraElement.identity(geom), trig_pair(geom, 1, 0.2))
    g = met.metric_conformal(met.metric_flat(geom), h, box)
    wave = trig_pair(geom, 0)

    def factor(share):
        k = alg.add(AlgebraElement.identity(geom), alg.scale(wave, share / _commutator_ratio(wave, g)))
        assert _commutator_ratio(k, g) == pytest.approx(share, rel=1e-6)
        return k

    # k^2 g has entries h_ij - h_ji* of about twice the share: 1e-13 stays
    # within calculus.SELFADJOINT_TOL, so that validate_metric accepts it
    near, far = factor(1e-13), factor(5e-9)
    for a in SCALES:
        met.conformal_density_residual(g, alg.scale(near, math.exp(a)), box)
        k = alg.scale(far, math.exp(a))
        with pytest.raises(HypothesisViolated):
            met.conformal_density_residual(g, k, box)
        with pytest.raises(HypothesisViolated):
            lap.conformal_covariance_check(g, met.density_from_element(k, box), box, box)


def _gauged(spec, t):
    """The metric spec with every literal coefficient u_k mapped to e^{ik.t} u_k."""
    if isinstance(spec, list):
        return [_gauged(item, t) for item in spec]
    if not isinstance(spec, dict):
        return spec
    if "k" in spec and "re" in spec:
        c = complex(spec["re"], spec.get("im", 0.0)) * cmath.exp(1j * float(np.dot(spec["k"], t)))
        return {"k": spec["k"], "re": c.real, "im": c.imag}
    return {key: _gauged(value, t) for key, value in spec.items()}


def _literal(modes):
    return [{"k": list(k), "re": a, "im": 0.0} for k, a in modes]


README_METRIC = {
    "type": "conformal",
    "base": {"type": "flat"},
    "k": {"exp_of": _literal([((1, 0), 0.15), ((-1, 0), 0.15), ((0, 1), 0.10), ((0, -1), 0.10)])},
}
SPECTRUM_N3_METRIC = {
    "type": "conformal",
    "base": {"type": "constant", "matrix": [[1.3, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]]},
    "k": {"witness": _literal([((1, 0, 0), 0.15), ((0, 1, 0), 0.10), ((0, 0, 1), 0.08)]),
          "constant": 1.0},
}


def _spectrum(geometry, spec, radius, stability_radius):
    box = LatticeBox(geometry.n, radius)
    op = lap.assemble_riemannian(nio.metric_from_spec(geometry, spec, box), box)
    return lap.spectrum(op, stability_radius=stability_radius)


@pytest.mark.parametrize("theta_upper, spec, radius, stability_radius, t", [
    ([1.0 / math.sqrt(2.0)], README_METRIC, 6, 8, (0.3, 1.1)),
    ([0.3, 0.2, 0.1], SPECTRUM_N3_METRIC, 3, 4, (0.3, 1.1, -0.7)),
])
def test_gauge_action_keeps_the_spectrum(theta_upper, spec, radius, stability_radius, t):
    geometry = TorusGeometry.from_upper(len(t), theta_upper)
    plain = _spectrum(geometry, spec, radius, stability_radius)
    gauged = _spectrum(geometry, _gauged(spec, t), radius, stability_radius)
    lam = plain.eigenvalues
    assert np.max(np.abs(gauged.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
    assert gauged.stable_count() == plain.stable_count() > 0
