import functools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nctorus import algebra as alg, calculus as calc, metrics as met
from nctorus.algebra import AlgebraElement, LatticeBox, TorusGeometry
from nctorus.calculus import TorusMatrix
from nctorus.errors import (
    HypothesisViolated,
    NonSelfadjointInput,
    SpectralFloorViolation,
)
from nctorus.sampling import (
    random_element,
    random_hermitian_matrix,
    random_selfadjoint,
)

from conftest import coeff_diff, trig_pair


def test_compress_identity(geom):
    box = LatticeBox(2, 5)
    op = calc.compress(AlgebraElement.identity(geom), box)
    assert np.array_equal(op.matrix, np.eye(box.size))


def test_compress_basis_structure(geom):
    box = LatticeBox(2, 4)
    p = np.array([1, -2])
    mat = calc.compress(AlgebraElement.basis(geom, p), box).matrix
    q = np.array([2, 1])
    entry = mat[box.index_of(p + q), box.index_of(q)]
    assert abs(entry - alg.cocycle_phase(geom, p, q)) < 1e-14
    # one nonzero per column, rows outside the box dropped
    col = mat[:, box.index_of(q)]
    assert np.count_nonzero(col) == 1
    edge = np.array([4, 0])  # p + edge leaves the box
    assert np.count_nonzero(mat[:, box.index_of(edge)]) == 0


def test_compress_hermitian_exactly(geom, rng):
    box = LatticeBox(2, 5)
    x = random_selfadjoint(geom, 2, rng)
    op = calc.compress(x, box)
    assert op.hermitian_residual() < 1e-15


def test_compress_matches_multiplication(geom, rng):
    box = LatticeBox(2, 5)
    u = random_element(geom, 2, rng)
    v = random_element(geom, 2, rng)
    left = calc.element_from_vector(
        geom, box, calc.compress(u, box).matrix @ alg.resize(v, box.radius).vector()
    )
    right = alg.resize(alg.multiply(u, v), box.radius)
    # interior modes agree; boundary rows lose the clipped tail
    assert coeff_diff(alg.resize(left, 3), alg.resize(right, 3)) < 1e-13


def test_functional_calculus_scalar(geom):
    # the compression of 4 is 4 I: the first Lanczos block spans an invariant
    # subspace, and the readout is exact
    box = LatticeBox(2, 4)
    four = alg.scale(AlgebraElement.identity(geom), 4.0)
    root = calc.functional_calculus(four, "sqrt", box)
    assert coeff_diff(root, alg.scale(AlgebraElement.identity(geom), 2.0)) == 0.0
    root = calc.functional_calculus(TorusMatrix.identity(geom, 2).scale(4.0), "sqrt", box)
    assert coeff_diff(root, TorusMatrix.identity(geom, 2).scale(2.0)) == 0.0


def test_functional_calculus_rejects_nonselfadjoint(geom):
    box = LatticeBox(2, 4)
    with pytest.raises(NonSelfadjointInput):
        calc.functional_calculus(AlgebraElement.basis(geom, (1, 0)), "exp", box)


def test_spectral_floor_violation(geom):
    box = LatticeBox(2, 5)
    x = trig_pair(geom, 0)  # spectrum approaches [-2, 2]
    # the Cholesky floor test names the compressed minimum
    def named(h):
        return re.escape(f"reaches {np.linalg.eigvalsh(calc.compress(h, box).matrix)[0]:.3e}")

    singular = ("inv", "sqrt", "inv_sqrt", "log", ("pow", 0.5))
    for fn in singular:
        with pytest.raises(SpectralFloorViolation, match=named(x)):
            calc.functional_calculus(x, fn, box)
    with pytest.raises(SpectralFloorViolation, match=named(x)):
        calc.matrix_inverse(x, box)
    # shifted so that the compressed minimum sits 1e-9 above or below the floor
    lam_min = np.linalg.eigvalsh(calc.compress(x, box).matrix)[0]
    one = AlgebraElement.identity(geom)
    floor = calc.SPECTRAL_FLOOR
    above = alg.add(x, alg.scale(one, floor + 1e-9 - lam_min))
    below = alg.add(x, alg.scale(one, floor - 1e-9 - lam_min))
    assert np.linalg.eigvalsh(calc.compress(above, box).matrix)[0] > floor
    calc.matrix_inverse(above, box)
    with pytest.raises(SpectralFloorViolation):
        calc.matrix_inverse(below, box)
    for fn in singular[1:]:
        calc.functional_calculus(above, fn, box)
        with pytest.raises(SpectralFloorViolation, match=named(below)):
            calc.functional_calculus(below, fn, box)


def _resolved(fn):
    """The vectorized callable behind a function spec."""
    return calc._resolve_function(fn)[1]


def _eigen_readout(h, box, f):
    """f(C) on the cyclic columns, read off the eigenvectors of the compression."""
    lam, vecs = np.linalg.eigh(calc.compress(h, box).matrix)
    fvals = np.asarray(f(lam), dtype=complex)
    i0 = box.index_of(np.zeros(h.geometry.n, dtype=int))
    cols = [vecs @ (fvals * vecs[j * box.size + i0].conj()) for j in range(h.m)]
    coeffs = np.stack([c.reshape((h.m,) + box.shape) for c in cols], axis=1)
    out = TorusMatrix.from_coeffs(h.geometry, coeffs)
    return (out + out.adjoint()).scale(0.5)


def test_inverse_solve_matches_eigen_readout(geom, rng):
    box = LatticeBox(2, 8)
    k = met.density_exp(alg.add(trig_pair(geom, 0, 0.15), trig_pair(geom, 1, 0.1))).nu
    base = met.metric_constant(geom, [[1.3, 0.2], [0.2, 1.0]])
    g = met.metric_conformal(base, k, box).matrix
    x = alg.add(
        alg.scale(AlgebraElement.identity(geom), 2.0), random_selfadjoint(geom, 2, rng, 0.2)
    )
    reciprocal = _resolved("inv")
    cases = [(g, _eigen_readout(g, box, reciprocal)),
             (x, _eigen_readout(TorusMatrix(geom, 1, [[x]]), box, reciprocal).entries[0][0])]
    for h, old in cases:
        inv = calc.functional_calculus(h, "inv", box)
        assert coeff_diff(inv, old) <= 1e-13 * old.max_abs()
        # matrix_inverse and ("pow", -1) are the same solve, down to the last bit
        assert coeff_diff(calc.matrix_inverse(h, box), inv) == 0.0
        assert coeff_diff(calc.functional_calculus(h, ("pow", -1), box), inv) == 0.0


def test_inverse_refines_the_floor_factor(geom):
    # the README metric k^2 I, k = exp(0.15 (V_e1 + V_-e1) + 0.1 (V_e2 + V_-e2)),
    # compressed on its box of radius 10 (d = 882)
    box = LatticeBox(2, 10)
    k = met.density_exp(alg.add(trig_pair(geom, 0, 0.15), trig_pair(geom, 1, 0.1))).nu
    mat = calc.compress(met.metric_conformal(met.metric_flat(geom), k, box).matrix, box).matrix
    assert mat.shape == (882, 882)
    cyclic = np.arange(2) * box.size + box.index_of([0, 0])
    e = calc._unit_columns(882, cyclic)
    exact = scipy.linalg.cho_solve(scipy.linalg.cho_factor(mat), e)
    cols = calc._inverse_columns(mat, calc._require_floor(mat, "inv"), cyclic)
    assert np.max(np.abs(cols - exact)) <= 1e-14 * np.max(np.abs(exact))
    # 1e-9 above the floor the refinement cannot settle, and C itself is solved
    x = trig_pair(geom, 0)
    small = LatticeBox(2, 5)
    lam_min = np.linalg.eigvalsh(calc.compress(x, small).matrix)[0]
    shift = calc.SPECTRAL_FLOOR + 1e-9 - lam_min
    mat = calc.compress(alg.add(x, alg.scale(AlgebraElement.identity(geom), shift)), small).matrix
    cyclic = np.array([small.index_of([0, 0])])
    exact = scipy.linalg.cho_solve(scipy.linalg.cho_factor(mat), calc._unit_columns(121, cyclic))
    cols = calc._inverse_columns(mat, calc._require_floor(mat, "inv"), cyclic)
    assert np.array_equal(cols, exact)


_LANCZOS_FUNCTIONS = ("log", "sqrt", "inv_sqrt", "exp", ("pow", 0.5))


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([1, 2]),
    upper=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_lanczos_matches_dense_readout(n, m, upper, seed):
    """Block Lanczos against the dense eigenvector readout, at random theta."""
    geometry = TorusGeometry.from_upper(n, upper[: n * (n - 1) // 2])
    rng = np.random.default_rng(seed)
    h = random_hermitian_matrix(geometry, m, 1, rng)
    box = LatticeBox(n, 4 if n == 2 else 2)
    # the dense fallback must not run: every result here is Lanczos's
    with mock.patch.object(calc, "_eigen_columns", side_effect=AssertionError("fallback")):
        for fn in _LANCZOS_FUNCTIONS:
            got = calc.functional_calculus(h, fn, box)
            want = _eigen_readout(h, box, _resolved(fn))
            assert coeff_diff(got, want) <= 1e-13 * want.max_abs()


def test_lanczos_falls_back_to_dense_readout(geom, monkeypatch):
    x = alg.add(alg.scale(AlgebraElement.identity(geom), 2.0), trig_pair(geom, 0, 0.5))
    h = TorusMatrix(geom, 1, [[x]])
    box = LatticeBox(2, 6)
    dense = _eigen_readout(h, box, np.log).entries[0][0]
    lanczos = calc.functional_calculus(x, "log", box)
    assert 0.0 < coeff_diff(lanczos, dense) <= 1e-13 * dense.max_abs()
    # the constant entry closes its column's Krylov space after one block,
    # before the other column's: the dense readout takes over at once
    two = alg.scale(AlgebraElement.identity(geom), 2.0)
    zero = AlgebraElement.zeros(geom, 0)
    split = TorusMatrix(geom, 2, [[two, zero], [zero, x]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no Ritz values off the spectrum reach log
        assert coeff_diff(
            calc.functional_calculus(split, "log", box), _eigen_readout(split, box, np.log)
        ) == 0.0
    # one block cannot settle the readout, so the dense one comes back, bit for bit
    monkeypatch.setattr(calc, "_LANCZOS_MAX_BLOCKS", 1)
    assert coeff_diff(calc.functional_calculus(x, "log", box), dense) == 0.0


def test_roundtrips_tighten_with_box(geom):
    x = alg.add(alg.scale(AlgebraElement.identity(geom), 2.0), trig_pair(geom, 0, 0.5))
    resid_log, resid_sqrt, resid_pow = [], [], []
    for radius in (4, 6, 8, 10):
        box = LatticeBox(2, radius)
        back = calc.functional_calculus(
            calc.functional_calculus(x, "log", box), "exp", box
        )
        resid_log.append(coeff_diff(alg.resize(back, 3), alg.resize(x, 3)))
        root = calc.functional_calculus(x, "sqrt", box)
        sq = alg.multiply(root, root)
        resid_sqrt.append(coeff_diff(alg.resize(sq, 3), alg.resize(x, 3)))
        back2 = calc.functional_calculus(
            calc.functional_calculus(x, ("pow", 0.4), box), ("pow", 2.5), box
        )
        resid_pow.append(coeff_diff(alg.resize(back2, 3), alg.resize(x, 3)))
    for seq in (resid_log, resid_sqrt, resid_pow):
        assert all(a >= b or b < 1e-12 for a, b in zip(seq, seq[1:]))
        assert seq[-1] < 1e-8


def test_polynomial_exactness(geom):
    x = alg.add(alg.scale(AlgebraElement.identity(geom), 2.0), trig_pair(geom, 0, 0.5))
    box = LatticeBox(2, 8)
    sq = calc.functional_calculus(x, ("pow", 2), box)
    direct = alg.multiply(x, x)
    assert coeff_diff(alg.resize(sq, 6), alg.resize(direct, 6)) < 1e-13


def test_make_positive(geom, rng):
    x = calc.make_positive(AlgebraElement.zeros(geom, 0), 2.0)
    assert coeff_diff(x, alg.scale(AlgebraElement.identity(geom), 2.0)) == 0.0
    y = random_element(geom, 2, rng, amplitude=0.5)
    x = calc.make_positive(y, 1.0)
    lo, _ = calc.spectral_bounds(x, LatticeBox(2, 6))
    assert lo >= 1.0 - 1e-10


def test_make_positive_matrix_worked_example(geom):
    a = trig_pair(geom, 0)
    b = alg.add(
        alg.scale(AlgebraElement.identity(geom), 1.5), trig_pair(geom, 1, 0.5)
    )
    one = AlgebraElement.identity(geom)
    zero = AlgebraElement.zeros(geom, 0)
    y = TorusMatrix(geom, 2, [[one, a], [zero, b]])
    h = calc.make_positive(y, 1e-9)
    # h = [[1, a], [a, a^2 + b^2]] up to the positivity shift
    assert coeff_diff(h.entries[0][1], a) < 1e-8
    assert coeff_diff(h.entries[1][0], a) < 1e-8
    aabb = alg.add(alg.multiply(a, a), alg.multiply(b, b))
    assert coeff_diff(h.entries[1][1], aabb) < 1e-8


def test_spectral_bounds(geom):
    box = LatticeBox(2, 6)
    one = AlgebraElement.identity(geom)
    lo, hi = calc.spectral_bounds(one, box)
    assert lo == pytest.approx(1.0, abs=1e-12) and hi == pytest.approx(1.0, abs=1e-12)
    x = trig_pair(geom, 0)
    prev_hi = 0.0
    for radius in (4, 8, 12):
        lo, hi = calc.spectral_bounds(x, LatticeBox(2, radius))
        assert -2.0 - 1e-12 <= lo <= 0.0 and 0.0 <= hi <= 2.0 + 1e-12
        assert hi > prev_hi  # compression bounds tighten toward (-2, 2)
        prev_hi = hi
    assert hi > 1.98


def test_matrix_trace(geom, rng):
    m = TorusMatrix.identity(geom, 3)
    assert coeff_diff(
        calc.matrix_trace(m), alg.scale(AlgebraElement.identity(geom), 3.0)
    ) == 0.0
    a, b = random_element(geom, 1, rng), random_element(geom, 1, rng)
    zero = AlgebraElement.zeros(geom, 0)
    d = TorusMatrix(geom, 2, [[a, zero], [zero, b]])
    assert coeff_diff(calc.matrix_trace(d), alg.add(a, b)) == 0.0


def test_matrix_trace_not_tracial(geom):
    # witness that Tr(uv) != Tr(vu) over a noncommutative fiber
    v1 = AlgebraElement.basis(geom, (1, 0))
    v2 = AlgebraElement.basis(geom, (0, 1))
    zero = AlgebraElement.zeros(geom, 0)
    u = TorusMatrix(geom, 2, [[zero, v1], [zero, zero]])
    v = TorusMatrix(geom, 2, [[zero, zero], [v2, zero]])
    tuv = calc.matrix_trace(u.matmul(v))
    tvu = calc.matrix_trace(v.matmul(u))
    assert coeff_diff(tuv, tvu) > 1e-3


def _exp_element(geom, amp0, amp1):
    return alg.exp_series(trig_pair(geom, 0, amp0) + trig_pair(geom, 1, amp1))


def test_determinant_scalar_matrix(geom):
    box = LatticeBox(2, 10)
    k = _exp_element(geom, 0.15, 0.1)
    zero = AlgebraElement.zeros(geom, 0)
    for m in (2, 3):
        km = TorusMatrix(
            geom, m, [[k if i == j else zero for j in range(m)] for i in range(m)]
        )
        expect = AlgebraElement.identity(geom)
        for _ in range(m):
            expect = alg.multiply(expect, k)
        assert coeff_diff(calc.determinant(km, box), expect) < 1e-8


def test_determinant_scaling_and_power(geom, rng):
    box = LatticeBox(2, 10)
    h = random_hermitian_matrix(geom, 2, 1, rng, amplitude=0.1)
    d = calc.determinant(h, box)
    d2 = calc.determinant(h.scale(3.0), box)
    assert coeff_diff(d2, alg.scale(d, 9.0)) < 1e-9
    hs = calc.functional_calculus(h, ("pow", 0.5), box)
    ds = calc.determinant(hs, box)
    assert coeff_diff(ds, calc.functional_calculus(d, ("pow", 0.5), box)) < 1e-8


def test_determinant_block_and_product(geom):
    box = LatticeBox(2, 8)
    k1 = _exp_element(geom, 0.12, 0.0)
    k2 = alg.exp_series(trig_pair(geom, 0, 0.07))  # same generator: commutes
    zero = AlgebraElement.zeros(geom, 0)
    b1 = TorusMatrix(geom, 1, [[k1]])
    b2 = TorusMatrix(geom, 1, [[k2]])
    resid = calc.block_determinant_residual([b1, b2], box)
    assert resid < 1e-9
    h1 = TorusMatrix(geom, 2, [[k1, zero], [zero, k2]])
    h2 = TorusMatrix(geom, 2, [[k2, zero], [zero, k1]])
    report = calc.determinant_identities_check(h1, other=h2, box=box)
    assert report["det_commutator"] < 1e-10
    assert report["product_multiplicativity"] < 1e-8


def test_determinant_conjugation_invariance(geom):
    box = LatticeBox(2, 8)
    k = _exp_element(geom, 0.12, 0.08)
    zero = AlgebraElement.zeros(geom, 0)
    h = TorusMatrix(geom, 2, [[k, zero], [zero, alg.multiply(k, k)]])
    c, s = np.cos(0.6), np.sin(0.6)
    u = TorusMatrix.from_scalar_matrix(geom, [[c, -s], [s, c]])
    report = calc.determinant_identities_check(h, conjugator=u, box=box)
    assert report["conjugation"] < 1e-8
    d1 = calc.determinant(h, box)
    d2 = calc.determinant(u.transpose().matmul(h).matmul(u), box)
    assert coeff_diff(d1, d2) < 1e-8


def test_determinant_hypothesis_violation(geom):
    box = LatticeBox(2, 6)
    v1 = trig_pair(geom, 0)
    v2 = trig_pair(geom, 1)
    one = AlgebraElement.identity(geom)
    h1 = calc.make_positive(TorusMatrix(geom, 2, [[v1, v1], [v1, v1]]), 1.0)
    h2 = calc.make_positive(TorusMatrix(geom, 2, [[v2, v2], [v2, v2]]), 1.0)
    with pytest.raises(HypothesisViolated):
        calc.determinant_identities_check(h1, other=h2, box=box)
    assert alg.commutator(v1, v2).max_abs() > 0.1  # genuinely noncommuting
    _ = one


def test_self_compatible_leibniz(geom):
    box = LatticeBox(2, 10)
    k = _exp_element(geom, 0.15, 0.1)
    k2 = alg.multiply(k, k)
    zero = AlgebraElement.zeros(geom, 0)
    h = TorusMatrix(geom, 2, [[k2, zero], [zero, k2]])
    assert calc.self_compatibility_residual(h) < 1e-14
    d = calc.determinant(h, box)
    expansion = calc.leibniz_determinant(h)
    assert coeff_diff(d, expansion) < 1e-8


def test_refinement_residuals(geom):
    nu = alg.add(
        alg.scale(AlgebraElement.identity(geom), 1.5), trig_pair(geom, 0, 0.3)
    )
    box = LatticeBox(2, 10)
    guess = calc.functional_calculus(nu, "inv_sqrt", box)
    _, res = calc.refine_inverse_sqrt(nu, guess, radius=20)
    assert res < 1e-13


def test_matrix_array_ops_match_entrywise(geom, rng):
    """Array operations of TorusMatrix against their per-entry definitions."""
    m = 3
    ea = [[random_element(geom, (i + 2 * j) % 4, rng) for j in range(m)] for i in range(m)]
    eb = [[random_element(geom, (2 * i + j) % 3, rng) for j in range(m)] for i in range(m)]
    a, b = TorusMatrix(geom, m, ea), TorusMatrix(geom, m, eb)
    assert a.box.radius == 3 and b.box.radius == 2

    def check(h, expect):
        assert h.m == len(expect)
        for i in range(h.m):
            for j in range(h.m):
                assert coeff_diff(h.entries[i][j], expect[i][j]) == 0.0

    check(a, ea)
    check(a.adjoint(), [[alg.adjoint(ea[j][i]) for j in range(m)] for i in range(m)])
    check(a.transpose(), [[ea[j][i] for j in range(m)] for i in range(m)])
    check(a + b, [[alg.add(ea[i][j], eb[i][j]) for j in range(m)] for i in range(m)])
    check(
        a - b,
        [[alg.add(ea[i][j], alg.scale(eb[i][j], -1.0)) for j in range(m)] for i in range(m)],
    )
    for radius in (1, 5):
        r = a.resize(radius)
        assert r.box.radius == radius
        check(r, [[alg.resize(e, radius) for e in row] for row in ea])
    c = random_element(geom, 1, rng)
    zero = AlgebraElement.zeros(geom, 0)
    blocks = [row + [zero] for row in ea] + [[zero] * m + [c]]
    check(TorusMatrix.block_diag([a, TorusMatrix(geom, 1, [[c]])]), blocks)
    expect = max(
        alg.add(ea[i][j], alg.scale(alg.adjoint(ea[j][i]), -1.0)).max_abs()
        for i in range(m)
        for j in range(m)
    )
    assert a.selfadjoint_residual() == expect > 0.0
    # the kernel sums per mode, not per entry product: equal up to roundoff
    ab = a.matmul(b)
    assert ab.box.radius == 5
    for i in range(m):
        for j in range(m):
            e = functools.reduce(
                alg.add, (alg.multiply(ea[i][l], eb[l][j]) for l in range(m))
            )
            assert coeff_diff(ab.entries[i][j], e) <= 1e-13 * e.max_abs()
