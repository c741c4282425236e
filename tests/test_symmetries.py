"""Verdicts and spectra that the torus's own symmetries fix exactly, at theta != 0.

Scaling: the selfadjointness and commutation tests bound a residual relative
to the sizes of their inputs, so a copy scaled by e^a gets the same verdict
at every a.  The gauge action V_k -> e^{ik.t} V_k is an automorphism at every
theta and maps each box onto itself: the compression of the gauged operator
is D C D* with D diagonal unitary, so its spectrum is the same up to roundoff.
It makes even real coefficients complex and not even, so a gauged copy of
an even input runs the unfolded path of the class blocks, in complex
arithmetic, and the paths must agree: the folded one, and where the
reflection of the last axis composed with conjugation fixes the halves,
the real one.  A signed permutation A acts by V_k -> V_{Ak}, from the torus of
theta onto that of A theta A^T, and maps each box onto itself; the metric's
axes are moved with it, g -> A g A^T, and the spectrum is unchanged.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest

from nctorus import algebra as alg, calculus as calc, io as nio, laplacian as lap, metrics as met
from nctorus.algebra import AlgebraElement, LatticeBox, TorusGeometry
from nctorus.calculus import TorusMatrix
from nctorus.errors import HypothesisViolated, NonSelfadjointInput

from conftest import trig_pair, witness_metric

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

    near, far = factor(5e-10), factor(5e-9)
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


def _gauge(x, t):
    """An element or matrix with every coefficient u_k mapped to e^{ik.t} u_k."""
    modes = x.box.modes().reshape(x.box.shape + (len(t),))
    phase = np.exp(1j * (modes @ np.asarray(t, dtype=float)))
    if isinstance(x, TorusMatrix):
        return TorusMatrix.from_coeffs(x.geometry, x.coeffs * phase)
    return AlgebraElement(x.geometry, x.box, x.table * phase)


def _readme_factor(geometry):
    w = alg.add(trig_pair(geometry, 0, 0.15), trig_pair(geometry, 1, 0.10))
    return met.density_exp(w).nu


FOLD_FUNCTIONS = ("inv", ("pow", -1), "log", "exp", "inv_sqrt")
# the solve, the Lanczos readout, its dense fallback and the pencil's
# reduction: the first argument of each is the matrix that LAPACK gets
DENSE_KERNELS = ("_inverse_columns", "_lanczos_columns", "_eigen_columns", "_reduced_pencil")


class _Spies:
    """Spies on _fold and on the dense kernels of calculus: which ran, on
    what dtype."""

    def __enter__(self):
        names = ("_fold", "_real_form") + DENSE_KERNELS
        self._patches = [mock.patch.object(calc, name, wraps=getattr(calc, name)) for name in names]
        self.spies = dict(zip(names, (p.start() for p in self._patches)))
        return self

    def __exit__(self, *exc):
        for p in self._patches:
            p.stop()

    def calls(self, name):
        return self.spies[name].call_count

    def kinds(self, *names):
        """The dtype kinds of the matrices the named kernels ran on: "f"
        real, "c" complex; then every spy is reset."""
        found = {c.args[0].dtype.kind for n in names for c in self.spies[n].call_args_list}
        for spy in self.spies.values():
            spy.reset_mock()
        return found


@pytest.mark.parametrize("theta", [1.0 / math.sqrt(2.0), 0.0])
def test_folded_calculus_matches_the_gauged_unfolded_one(theta):
    """The README factor k is even, so its class blocks are folded into
    even and odd halves, and the reflection of the last axis composed with
    conjugation fixes them, so they run real; a gauged copy is not even,
    and runs whole and complex.  f(k) equals the inverse gauge of
    f(gauged k), and the Weyl constant and the spectrum match."""
    geometry = TorusGeometry.two_torus(theta)
    box, t = LatticeBox(2, 6), (0.3, 1.1)
    k = _readme_factor(geometry)
    gauged = _gauge(k, t)
    with _Spies() as spy:
        for fn in FOLD_FUNCTIONS:
            want = calc.functional_calculus(k, fn, box)
            assert spy.calls("_fold") > 0
            assert spy.kinds(*DENSE_KERNELS) == {"f"}
            got = _gauge(calc.functional_calculus(gauged, fn, box), tuple(-s for s in t))
            assert spy.calls("_fold") == 0
            assert spy.kinds(*DENSE_KERNELS) == {"c"}
            assert (got - want).max_abs() <= 1e-13 * want.max_abs()
        g = met.metric_conformal(met.metric_flat(geometry), k, box)
        g_gauged = met.validate_metric(_gauge(g.matrix, t), box)
        spy.kinds()
        want = lap.weyl_constant(g, None, box, quadrature_points=16)["c_n_quadrature"]
        assert spy.kinds("_inverse_columns") == {"f"}
        got = lap.weyl_constant(g_gauged, None, box, quadrature_points=16)["c_n_quadrature"]
        assert spy.kinds("_inverse_columns") == {"c"}
        assert abs(got - want) <= 1e-13 * abs(want)
        plain = _spectrum(geometry, README_METRIC, 6, 8)
        assert spy.kinds("_reduced_pencil") == {"f"}
        image = _spectrum(geometry, _gauged(README_METRIC, t), 6, 8)
        assert spy.kinds("_reduced_pencil") == {"c"}
    lam = plain.eigenvalues
    assert np.max(np.abs(image.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
    assert image.stable_count() == plain.stable_count() > 0


# README's factor on a constant base that couples the axes
OFF_DIAGONAL_METRIC = dict(README_METRIC,
                           base={"type": "constant", "matrix": [[1.3, 0.2], [0.2, 1.0]]})


def test_a_pencil_with_a_reflected_sign_stays_complex():
    """Every table of the off-diagonal base's metric is even and has
    t(Rv) = conj t(v), R the reflection of the last axis, but the
    stiffness K = sum_ij p_i q_j M(a_ij) takes the sign of p_1 q_2 under R:
    its halves carry an imaginary share of 0.17 on the real basis, so the
    pencil stays complex.  Each Weyl node's symbol is a sum of the tables
    with real weights, and its halves run real.  The spectrum and the Weyl
    constant match a gauged copy's, which runs complex and unfolded."""
    geometry = TorusGeometry.two_torus(1.0 / math.sqrt(2.0))
    box, t = LatticeBox(2, 6), (0.3, 1.1)
    with _Spies() as spy:
        metric = nio.metric_from_spec(geometry, OFF_DIAGONAL_METRIC, box)
        spy.kinds()
        plain = lap.spectrum(lap.assemble_riemannian(metric, box), stability_radius=8)
        assert spy.calls("_fold") > 0 and spy.calls("_real_form") > 0
        assert spy.kinds("_reduced_pencil") == {"c"}
        want = lap.weyl_constant(metric, None, box, quadrature_points=16)["c_n_quadrature"]
        assert spy.kinds("_inverse_columns") == {"f"}
        gauged = nio.metric_from_spec(geometry, _gauged(OFF_DIAGONAL_METRIC, t), box)
        image = lap.spectrum(lap.assemble_riemannian(gauged, box), stability_radius=8)
        got = lap.weyl_constant(gauged, None, box, quadrature_points=16)["c_n_quadrature"]
        assert spy.calls("_fold") == 0
        assert spy.kinds("_reduced_pencil", "_inverse_columns") == {"c"}
    lam = plain.eigenvalues
    assert np.max(np.abs(image.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
    assert image.stable_count() == plain.stable_count() > 0
    assert abs(got - want) <= 1e-12 * abs(want)


def test_real_form_of_a_matrix_whose_functions_have_complex_coefficients():
    """An even, selfadjoint element has real coefficients, and so do its
    functions; an off-diagonal entry of a matrix need not.  b = i (V_(1,1)
    + V_(-1,-1) - V_(1,-1) - V_(-1,1)) is even and has t(Rv) = conj t(v),
    so the 2 x 2 matrix [[a, 0.2 b], [0.2 b*, a]] runs real, and its
    functions' off-diagonal coefficients, imaginary, are read back through
    the real basis: they match a gauged copy's, which runs complex."""
    geometry = TorusGeometry.two_torus(1.0 / math.sqrt(2.0))
    box, t = LatticeBox(2, 5), (0.3, 1.1)
    a = alg.add(alg.scale(AlgebraElement.identity(geometry), 2.0), trig_pair(geometry, 0, 0.3))
    b = AlgebraElement.from_modes(geometry, {(1, 1): 0.2j, (-1, -1): 0.2j, (1, -1): -0.2j, (-1, 1): -0.2j})
    h = TorusMatrix(geometry, 2, [[a, b], [alg.adjoint(b), a]])
    with _Spies() as spy:
        for fn in FOLD_FUNCTIONS:
            want = calc.functional_calculus(h, fn, box)
            assert spy.kinds(*DENSE_KERNELS) == {"f"}
            assert np.max(np.abs(want.coeffs[0, 1].imag)) > 1e-3 * want.max_abs()
            got = _gauge(calc.functional_calculus(_gauge(h, t), fn, box), tuple(-s for s in t))
            assert spy.kinds(*DENSE_KERNELS) == {"c"}
            assert (got - want).max_abs() <= 1e-13 * want.max_abs()


# ROADMAP's metric that stays one block at n = 3: k = exp(w) on a constant base
ONE_BLOCK_N3_METRIC = {
    "type": "conformal",
    "base": SPECTRUM_N3_METRIC["base"],
    "k": {"exp_of": _literal([((1, 0, 0), 0.15), ((-1, 0, 0), 0.15), ((0, 1, 0), 0.10),
                              ((0, -1, 0), 0.10), ((0, 0, 1), 0.08), ((0, 0, -1), 0.08)])},
}


def test_one_block_n3_calculus_runs_real_at_theta_zero():
    """At theta = 0 the one-block n = 3 metric is even with one class, and
    the reflection of the last axis fixes its halves: the functions of k
    and of the 3 x 3 matrix g run real and match a gauged copy's, which
    runs complex and unfolded; so does the spectrum, whose pencil stays
    complex (the base couples axis 3 to axes 1 and 2)."""
    geometry = TorusGeometry.from_upper(3, [0.0, 0.0, 0.0])
    box, t = LatticeBox(3, 2), (0.3, 1.1, -0.7)
    with _Spies() as spy:
        g = nio.metric_from_spec(geometry, ONE_BLOCK_N3_METRIC, box)
        gauged = _gauge(g.matrix, t)
        for x, image in ((g.matrix, gauged), (g.matrix.entries[0][0], gauged.entries[0][0])):
            for fn in FOLD_FUNCTIONS:
                spy.kinds()
                want = calc.functional_calculus(x, fn, box)
                assert spy.kinds(*DENSE_KERNELS) == {"f"}
                got = _gauge(calc.functional_calculus(image, fn, box), tuple(-s for s in t))
                assert spy.calls("_fold") == 0
                assert spy.kinds(*DENSE_KERNELS) == {"c"}
                assert (got - want).max_abs() <= 1e-13 * want.max_abs()
        plain = lap.spectrum(lap.assemble_riemannian(g, box), stability_radius=3)
        assert spy.calls("_fold") > 0 and spy.kinds("_reduced_pencil") == {"c"}
        image = lap.spectrum(lap.assemble_riemannian(met.validate_metric(gauged, box), box),
                             stability_radius=3)
    assert plain.block_sizes == (box.size,)
    lam = plain.eigenvalues
    assert np.max(np.abs(image.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
    assert image.stable_count() == plain.stable_count() > 0


def test_the_real_form_is_not_tried_where_theta_couples_the_first_axes():
    """At spectrum-n3's theta, theta_12 != 0, and the reflection of the
    last axis maps theta to no multiple of itself: the one-block metric's
    blocks are even and folded, and the real form is never tried."""
    geometry = TorusGeometry.from_upper(3, [0.3, 0.2, 0.1])
    box = LatticeBox(3, 2)
    with _Spies() as spy:
        g = nio.metric_from_spec(geometry, ONE_BLOCK_N3_METRIC, box)
        calc.functional_calculus(g.matrix, "inv", box)
        lap.spectrum(lap.assemble_riemannian(g, box), stability_radius=3)
        assert spy.calls("_fold") > 0 and spy.calls("_real_form") == 0
        assert spy.kinds(*DENSE_KERNELS) == {"c"}


def test_folded_matrix_calculus_matches_the_gauged_unfolded_one():
    """At theta = 0 the n = 3 witness metric is even: a 3 x 3 matrix whose
    box splits into the planes sum(k) = s, of which p -> -p maps only s = 0
    onto itself, so only mode 0's class is folded.  Its functions, and the
    spectrum of its operator, match a gauged copy's, which runs whole."""
    geometry = TorusGeometry.from_upper(3, [0.0, 0.0, 0.0])
    box, t = LatticeBox(3, 2), (0.3, 1.1, -0.7)
    g = witness_metric(geometry, 2)
    gauged = _gauge(g.matrix, t)
    for fn in FOLD_FUNCTIONS:
        want = calc.functional_calculus(g.matrix, fn, box)
        got = _gauge(calc.functional_calculus(gauged, fn, box), tuple(-s for s in t))
        assert (got - want).max_abs() <= 1e-13 * want.max_abs()
    plain, image = (lap.spectrum(lap.assemble_riemannian(x, box), stability_radius=3)
                    for x in (g, met.validate_metric(gauged, box)))
    lam = plain.eigenvalues
    assert np.max(np.abs(image.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
    assert image.stable_count() == plain.stable_count() > 0


def test_a_table_odd_beyond_roundoff_is_not_folded(geom):
    """k + i eps (V_e1 - V_-e1) is selfadjoint, and max|t - t(-.)| is 1e-10
    max|t|: far above the evenness bound, so no block is folded."""
    box = LatticeBox(2, 6)
    k = _readme_factor(geom)
    eps = 0.5e-10 * k.max_abs()
    odd = alg.add(k, AlgebraElement.from_modes(geom, {(1, 0): 1j * eps, (-1, 0): -1j * eps}))
    flip = odd.table[::-1, ::-1]
    assert np.max(np.abs(odd.table - flip)) == pytest.approx(1e-10 * odd.max_abs(), rel=1e-6)
    with mock.patch.object(calc, "_fold", wraps=calc._fold) as fold:
        calc.functional_calculus(odd, "inv", box)
        calc.spectral_bounds(odd, box)
        assert fold.call_count == 0
        calc.functional_calculus(k, "inv", box)
        assert fold.call_count == 1


def _moved(spec, a):
    """The metric spec moved by the signed permutation a: every literal mode
    k to a k, and every constant matrix M to a M a^T."""
    if isinstance(spec, list):
        return [_moved(item, a) for item in spec]
    if not isinstance(spec, dict):
        return spec
    if "k" in spec and "re" in spec:
        return dict(spec, k=[int(v) for v in a @ np.asarray(spec["k"])])
    if "matrix" in spec:
        return dict(spec, matrix=(a @ np.asarray(spec["matrix"]) @ a.T).tolist())
    return {key: _moved(value, a) for key, value in spec.items()}


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


SWAP = np.array([[0, 1], [1, 0]])  # theta -> -theta
REFLECT_1 = np.array([[-1, 0], [0, 1]])  # theta -> -theta
ROTATE = np.array([[0, -1], [1, 0]])  # theta -> theta
CYCLE = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("theta_upper, spec, radius, stability_radius, a", [
    ([1.0 / math.sqrt(2.0)], README_METRIC, 6, 8, SWAP),
    ([1.0 / math.sqrt(2.0)], README_METRIC, 6, 8, REFLECT_1),
    ([1.0 / math.sqrt(2.0)], README_METRIC, 6, 8, ROTATE),
    ([0.3, 0.2, 0.1], SPECTRUM_N3_METRIC, 3, 4, CYCLE),
], ids=["swap", "reflect", "rotate", "n3-cycle"])
def test_signed_permutations_keep_the_spectrum(theta_upper, spec, radius, stability_radius, a):
    geometry = TorusGeometry.from_upper(a.shape[0], theta_upper)
    moved = TorusGeometry(geometry.n, a @ geometry.theta @ a.T)
    plain = _spectrum(geometry, spec, radius, stability_radius)
    image = _spectrum(moved, _moved(spec, a), radius, stability_radius)
    lam = plain.eigenvalues
    assert np.max(np.abs(image.eigenvalues - lam)) <= 1e-12 * np.max(np.abs(lam))
    assert image.stable_count() == plain.stable_count() > 0
