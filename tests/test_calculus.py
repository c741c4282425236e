import functools
import re
import tracemalloc
import warnings
from fractions import Fraction
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

from conftest import coeff_diff, trig_pair, witness_metric


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


def _gathered(x, box):
    """The compression by an index gather: s x s tables of the raveled index
    of mode(row) - mode(col) in the entry's table (clipped into range) and of
    the modes beyond the table, which read as zero; then the phase tables
    read at the explicit indices u + 2N and v + 2N, u = r + q, v = r - q,
    multiplied in as (coefficient * F_1 ... F_{n-1}) * F_n."""
    h = calc._as_matrix(x)
    r, width, s = h.box.radius, h.box.width, box.size
    modes = box.modes()
    flat = np.zeros((s, s), dtype=np.intp)
    outside = np.zeros((s, s), dtype=bool)
    for axis in range(box.n):
        diff = modes[:, None, axis] - modes[None, :, axis]
        outside |= np.abs(diff) > r
        flat = flat * width + np.clip(diff + r, 0, 2 * r)
    u = modes[:, None] + modes[None, :] + 2 * box.radius
    v = modes[:, None] - modes[None, :] + 2 * box.radius
    factors = [
        None if t is None else t[tuple(u[..., k] if k == i else v[..., k] for k in range(box.n))]
        for i, t in enumerate(calc._phase_tables(h.geometry, box.radius))
    ]
    mat = np.zeros((h.m * s, h.m * s), dtype=complex)
    for i in range(h.m):
        for j in range(h.m):
            table = h.coeffs[i, j]
            if not table.any():
                continue
            block = mat[i * s : (i + 1) * s, j * s : (j + 1) * s]
            np.take(table.ravel(), flat, out=block, mode="clip")
            block[outside] = 0.0
            heads = [f for f in factors[:-1] if f is not None]
            if heads:
                block *= functools.reduce(np.multiply, heads)
            if factors[-1] is not None:
                block *= factors[-1]
    return mat


def _circle():
    """A one-dimensional torus, which TorusGeometry refuses: the gather is
    defined on boxes of any dimension, so its test builds one directly."""
    circle = object.__new__(TorusGeometry)
    object.__setattr__(circle, "n", 1)
    object.__setattr__(circle, "theta", np.zeros((1, 1)))
    return circle


@pytest.mark.parametrize(
    "geometry",
    [_circle(), TorusGeometry.two_torus(0.0), TorusGeometry.two_torus(1.0 / np.sqrt(2.0)),
     TorusGeometry.from_upper(3, [0.0, 0.0, 0.0]), TorusGeometry.from_upper(3, [0.3, 0.2, 0.1])],
    ids=["n1", "n2-theta0", "n2", "n3-theta0", "n3"],
)
def test_compress_equals_index_gather(geometry, rng):
    """The window-view compression gathers exactly the index gather's bits,
    for tables inside and beyond the difference box B_{2N}."""
    box = LatticeBox(geometry.n, 2)
    zero = AlgebraElement.zeros(geometry, 0)
    for radius in (1, 3, 4, 6):  # 2N = 4
        x = random_element(geometry, radius, rng)
        y = random_element(geometry, 2, rng)
        for h in (x, TorusMatrix(geometry, 2, [[x, zero], [y, x]])):
            got, want = calc.compress(h, box).matrix, _gathered(h, box)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _on_sublattice(x):
    """x with every coefficient off a sublattice cleared: the modes in 2Z^2 at
    n = 2, the plane sum(k) = 0 at n = 3."""
    modes = x.box.modes()
    keep = (modes % 2 == 0).all(axis=1) if x.geometry.n == 2 else modes.sum(axis=1) == 0
    return AlgebraElement(x.geometry, x.box, x.table * keep.reshape(x.box.shape))


@pytest.mark.parametrize(
    "geometry",
    [TorusGeometry.two_torus(1.0 / np.sqrt(2.0)), TorusGeometry.from_upper(3, [0.3, 0.2, 0.1])],
    ids=["n2", "n3"],
)
def test_class_blocks_equal_dense_blocks(geometry, rng):
    """Elements on a sublattice split the box into classes of modes, and the
    compression of an element or a 3 x 3 matrix over them into blocks: each
    class block is bit for bit the dense compression's block on its rows,
    for tables inside and beyond the difference box, and the dense
    compression is zero between classes."""
    box = LatticeBox(geometry.n, 3 if geometry.n == 2 else 2)
    zero = AlgebraElement.zeros(geometry, 0)
    for radius in (2, box.radius + 1, 2 * box.radius + 1):
        x = _on_sublattice(random_element(geometry, radius, rng))
        y = _on_sublattice(random_element(geometry, 2, rng))
        for h in (x, TorusMatrix(geometry, 3, [[x, zero, y], [y, x, zero], [zero, y, x]])):
            h = calc._as_matrix(h)
            plan = calc._class_plan(geometry, box, [h.coeffs])
            classes = plan.classes
            assert len(classes) == (4 if geometry.n == 2 else 6 * box.radius + 1)
            mat = calc.compress(h, box).matrix
            blocks = calc._class_blocks(h, plan)
            label = np.empty(h.m * box.size, dtype=int)
            for c, (idx, blk) in enumerate(zip(classes, blocks)):
                rows = (np.arange(h.m)[:, None] * box.size + idx).ravel()
                label[rows] = c
                want = mat[np.ix_(rows, rows)]
                assert blk.shape == want.shape and blk.tobytes() == want.tobytes()
            assert not mat[label[:, None] != label[None, :]].any()


def _exact_phase(geometry, box):
    """exp(i pi q.theta r) over pairs of box modes, q.theta r taken exactly
    as a Fraction of the float theta and reduced mod 2 before cos and sin."""
    modes = box.modes()
    pairs = [(i, j) for i in range(box.n) for j in range(i + 1, box.n)]
    # q.theta r = sum_{i<j} theta_ij (q_i r_j - q_j r_i), with q the column
    # and r the row mode: integer coefficients, few distinct combinations
    k = np.stack(
        [modes[None, :, i] * modes[:, None, j] - modes[None, :, j] * modes[:, None, i]
         for i, j in pairs], axis=-1
    )
    combos, where = np.unique(k.reshape(-1, len(pairs)), axis=0, return_inverse=True)
    theta = [Fraction(float(geometry.theta[i, j])) for i, j in pairs]
    exact = [sum((t * int(c) for t, c in zip(theta, combo)), Fraction(0)) for combo in combos]
    angle = np.array([float(x % 2) for x in exact])
    return (np.cos(np.pi * angle) + 1j * np.sin(np.pi * angle))[where.ravel()].reshape(k.shape[:2])


def test_compress_phase_accuracy():
    """The compression of the all-ones element is the phase table; it agrees
    with the exact-rational phase to 4e-15 on a box where pi q.theta r
    reaches about 640, which a table of exp(i pi q.theta r) in floats
    misses by about 1e-13."""
    geometry = TorusGeometry.two_torus(1.0 / np.sqrt(2.0))
    box = LatticeBox(2, 12)
    ones = AlgebraElement(geometry, LatticeBox(2, 24), np.ones((49, 49), dtype=complex))
    got = calc.compress(ones, box).matrix
    assert np.max(np.abs(got - _exact_phase(geometry, box))) <= 4e-15


def test_compress_peak_memory():
    """compress holds its d x d output and only small tables beside it."""
    geometry = TorusGeometry.from_upper(3, [0.3, 0.2, 0.1])
    box = LatticeBox(3, 5)
    x = random_selfadjoint(geometry, 3, np.random.default_rng(5))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op = calc.compress(x, box)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert box.size == 1331 and op.matrix.shape == (1331, 1331)
    assert peak <= 1.1 * 16 * box.size**2


def test_compress_hermitian_exactly(rng):
    """Selfadjoint inputs compress to exactly Hermitian matrices: swapping row
    and column conjugates every factor of each entry bit for bit."""
    for geometry, radius in ((TorusGeometry.two_torus(1.0 / np.sqrt(2.0)), 12),
                             (TorusGeometry.from_upper(3, [0.3, 0.2, 0.1]), 5)):
        box = LatticeBox(geometry.n, radius)
        x = random_selfadjoint(geometry, 2, rng)
        h = random_hermitian_matrix(geometry, 2, 1, rng)
        for y in (x, (h + h.adjoint()).scale(0.5)):
            mat = calc.compress(y, box).matrix
            assert np.max(np.abs(mat - mat.conj().T)) == 0.0


def test_compress_matches_multiplication(geom, rng):
    box = LatticeBox(2, 5)
    u = random_element(geom, 2, rng)
    v = random_element(geom, 2, rng)
    vec = calc.compress(u, box).matrix @ alg.resize(v, box.radius).vector()
    left = AlgebraElement(geom, box, vec.reshape(box.shape))
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
    cols = calc._inverse_columns(mat, calc._require_floor([mat], "inv"), cyclic)
    assert np.max(np.abs(cols - exact)) <= 1e-14 * np.max(np.abs(exact))
    # 1e-9 above the floor the refinement cannot settle, and C itself is
    # solved: the first solve, every refinement step and the fallback
    x = trig_pair(geom, 0)
    small = LatticeBox(2, 5)
    lam_min = np.linalg.eigvalsh(calc.compress(x, small).matrix)[0]
    shift = calc.SPECTRAL_FLOOR + 1e-9 - lam_min
    mat = calc.compress(alg.add(x, alg.scale(AlgebraElement.identity(geom), shift)), small).matrix
    cyclic = np.array([small.index_of([0, 0])])
    e = calc._unit_columns(121, cyclic)
    exact = scipy.linalg.cho_solve(scipy.linalg.cho_factor(mat), e)
    shifted = calc._require_floor([mat], "inv")
    with mock.patch.object(calc, "_cholesky_solve", wraps=calc._cholesky_solve) as solve:
        cols = calc._inverse_columns(mat, shifted, cyclic)
    assert solve.call_count == calc._REFINE_STEPS + 2
    assert np.max(np.abs(cols - exact)) <= 1e-14 * np.max(np.abs(exact))
    # the bound tells C from C - floor I, whose solve lies far from C's
    wrong = calc._cholesky_solve(shifted, e)
    assert np.max(np.abs(wrong - exact)) >= np.max(np.abs(exact))


def _leading_block(geometry, radius, d, rng):
    """The leading d x d block of the compression of a positive element,
    theta != 0, on the box of the radius."""
    x = calc.make_positive(random_element(geometry, 2, rng, 0.2), 0.5)
    return np.ascontiguousarray(calc.compress(x, LatticeBox(geometry.n, radius)).matrix[:d, :d])


@pytest.mark.parametrize("d", [1, 31, 32, 33, 63, 64, 65, 130, 255, 256, 257, 441])
def test_cholesky_solve_matches_scipy(geom, geom3, d):
    """The factor and the solve, by blocks of 32 rows, against scipy's
    cho_factor and cho_solve on the leading d x d block of a theta != 0
    compression at n = 2 and at n = 3, with 1 to 3 right-hand sides: one
    block, the edges of the first, several, and block inverses from numpy's
    potrf (below order 256) and from the blocked factor (from 256)."""
    rng = np.random.default_rng(d)
    for geometry, radius in ((geom, 10), (geom3, 4)):
        mat = _leading_block(geometry, radius, d, rng)
        low = calc._cholesky(np.array(mat))
        factor = scipy.linalg.cho_factor(mat)
        for m in (1, 2, 3):
            rhs = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
            exact = scipy.linalg.cho_solve(factor, rhs)
            got = calc._cholesky_solve(low, rhs)
            assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))


@pytest.mark.parametrize("d", [255, 256, 257, 300, 882])
def test_blocked_cholesky_matches_scipy(geom, geom3, d):
    """From order 256 on the factor is built by blocks of 32 columns, in
    place: lower triangular, within 1e-14 of scipy's (LAPACK potrf) at
    n = 2 and n = 3, theta != 0; and a matrix whose least eigenvalue is
    not positive is refused as numpy's potrf refuses it, wherever in the
    blocks its failure shows: a negative diagonal entry at row r leaves the
    leading minors of orders up to r positive and fails at r."""
    rng = np.random.default_rng(d)
    for geometry, radius in ((geom, 15), (geom3, 5)):
        mat = _leading_block(geometry, radius, d, rng)
        a = np.array(mat)
        low, _ = calc._cholesky(a)
        assert (low is a) == (d >= calc._BLOCKED_ORDER)
        want = scipy.linalg.cholesky(mat, lower=True)
        assert np.array_equal(np.triu(low, 1), np.zeros_like(low))
        assert np.max(np.abs(low - want)) <= 1e-14 * np.max(np.abs(want))
        for at in (0, d // 2, d - 1):
            bad = np.array(mat)
            bad[at, at] = -1.0
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(bad)
            with pytest.raises(np.linalg.LinAlgError):
                calc._cholesky(np.array(bad))


@pytest.mark.parametrize("d", [1, 31, 32, 33, 63, 64, 65, 130, 441])
def test_reduced_pencil_matches_scipy(geom, geom3, d):
    """The standard form of the pencil K v = lambda G v, reduced in place by
    blocks of 32 rows and then of 32 columns, has the eigenvalues of scipy's
    eigh(K, G) (LAPACK hegvd) to 1e-13 of the largest: G and a Hermitian K
    are the leading d x d blocks of theta != 0 compressions at n = 2 and at
    n = 3, so d covers one block, the edges of the first, several, and the
    blocked factor.  A G with a negative eigenvalue is refused."""
    rng = np.random.default_rng(d)
    for geometry, radius in ((geom, 10), (geom3, 4)):
        gram = _leading_block(geometry, radius, d, rng)
        x = random_selfadjoint(geometry, 2, rng)
        k = np.ascontiguousarray(calc.compress(x, LatticeBox(geometry.n, radius)).matrix[:d, :d])
        want = scipy.linalg.eigh(k, gram, eigvals_only=True)
        got = np.linalg.eigvalsh(calc._reduced_pencil(np.array(k), np.array(gram)))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        bad = np.array(gram)
        bad[d // 2, d // 2] = -1.0  # e* G e < 0 there: G has a negative eigenvalue
        with pytest.raises(np.linalg.LinAlgError):
            calc._reduced_pencil(np.array(k), bad)


def test_inverse_refinement_near_the_floor_matches_scipy(geom, geom3):
    """A compression whose spectrum lies within a few orders of the floor,
    in [0.5e-5, 1.5e-5], but is well conditioned: the refinement against C
    takes several steps, settles without factoring C, and gives scipy's
    solve of C itself, not of C - floor I, which differs by 1e-3."""
    rng = np.random.default_rng(11)
    for geometry, radius in ((geom, 6), (geom3, 3)):
        one = AlgebraElement.identity(geometry)
        x = alg.scale(alg.add(one, random_selfadjoint(geometry, 1, rng, 0.05)), 1e-5)
        box = LatticeBox(geometry.n, radius)
        mat = calc.compress(x, box).matrix
        lam = np.linalg.eigvalsh(mat)
        assert 0.5e-5 <= lam[0] and lam[-1] <= 1.5e-5
        cyclic = np.array([box.index_of(np.zeros(geometry.n, dtype=int))])
        with mock.patch.object(calc, "_cholesky_solve", wraps=calc._cholesky_solve) as solve:
            cols = calc._inverse_columns(mat, calc._require_floor([mat], "inv"), cyclic)
        assert 3 <= solve.call_count <= calc._REFINE_STEPS  # refined, no fallback
        exact = scipy.linalg.cho_solve(scipy.linalg.cho_factor(mat), calc._unit_columns(box.size, cyclic))
        assert np.max(np.abs(cols - exact)) <= 1e-14 * np.max(np.abs(exact))


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


def _home_eigen_readout(x, box, f):
    """f(C) V_0 for an element, read off the eigenvectors of the block of its
    dense compression on the class of modes that holds mode 0, with exact
    zeros off that class."""
    zero = box.index_of(np.zeros(box.n, dtype=int))
    idx = next(c for c in calc._mode_classes(box, [x.table]) if zero in c)
    lam, vecs = np.linalg.eigh(calc.compress(x, box).matrix[np.ix_(idx, idx)])
    fvals = np.asarray(f(lam), dtype=complex)
    col = np.zeros((box.size, 1), dtype=complex)
    col[idx, 0] = vecs @ (fvals * vecs[np.searchsorted(idx, zero)].conj())
    out = TorusMatrix.from_coeffs(x.geometry, col.T.reshape((1, 1) + box.shape))
    return (out + out.adjoint()).scale(0.5).entries[0][0]


def test_lanczos_falls_back_to_dense_readout(geom, monkeypatch):
    x = alg.add(alg.scale(AlgebraElement.identity(geom), 2.0), trig_pair(geom, 0, 0.5))
    h = TorusMatrix(geom, 1, [[x]])
    box = LatticeBox(2, 6)
    whole = _eigen_readout(h, box, np.log).entries[0][0]
    lanczos = calc.functional_calculus(x, "log", box)
    assert 0.0 < coeff_diff(lanczos, whole) <= 1e-13 * whole.max_abs()
    # x couples only modes that differ along e_1: the readout runs on the
    # block of the modes (k_1, 0), and the result is exactly zero elsewhere
    dense = _home_eigen_readout(x, box, np.log)
    assert 0.0 < coeff_diff(lanczos, dense) <= 1e-13 * dense.max_abs()
    assert not lanczos.table[:, np.arange(box.width) != box.radius].any()
    # on the whole compression of a block-diagonal matrix, the constant
    # entry closes its column's Krylov space after one block, before the
    # other column's: Lanczos hands over to the dense readout at once
    two = alg.scale(AlgebraElement.identity(geom), 2.0)
    zero = AlgebraElement.zeros(geom, 0)
    split = TorusMatrix(geom, 2, [[two, zero], [zero, x]])
    cyclic = np.arange(2) * box.size + box.index_of([0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no Ritz values off the spectrum reach log
        assert calc._lanczos_columns(calc.compress(split, box).matrix, cyclic, np.log) is None
        # functional_calculus takes the blocks one at a time
        blocks = [TorusMatrix(geom, 1, [[calc.functional_calculus(y, "log", box)]])
                  for y in (two, x)]
        got = calc.functional_calculus(split, "log", box)
    assert coeff_diff(got, TorusMatrix.block_diag(blocks)) == 0.0
    # one block cannot settle the readout, so the block's dense one comes
    # back: bit for bit on a copy whose coefficients are odd, and on the
    # even half of the block (calculus._fold) for x, whose are even
    monkeypatch.setattr(calc, "_LANCZOS_MAX_BLOCKS", 1)
    odd = alg.add(alg.scale(AlgebraElement.identity(geom), 2.0),
                  AlgebraElement.from_modes(geom, {(1, 0): 0.5j, (-1, 0): -0.5j}))
    got = calc.functional_calculus(odd, "log", box)
    assert coeff_diff(got, _home_eigen_readout(odd, box, np.log)) == 0.0
    with mock.patch.object(calc, "_eigen_columns", wraps=calc._eigen_columns) as eigen:
        got = calc.functional_calculus(x, "log", box)
    assert eigen.call_count == 1
    assert coeff_diff(got, dense) <= 1e-13 * dense.max_abs()


def test_functional_calculus_on_classes_matches_dense_readout(geom3):
    """Every coefficient of the witness metric lies in the plane sum(k) = 0,
    so each function is read off the block of mode 0's class alone: within
    1e-13 of the dense readout, and exactly zero off the plane."""
    g = witness_metric(geom3, 2).matrix
    box = LatticeBox(3, 2)
    assert len(calc._mode_classes(box, [g.coeffs])) == 13
    off = box.modes().sum(axis=1).reshape(box.shape) != 0
    for fn in ("log", "exp", "inv_sqrt", "inv", ("pow", 0.5)):
        got = calc.functional_calculus(g, fn, box)
        want = _eigen_readout(g, box, _resolved(fn))
        assert coeff_diff(got, want) <= 1e-13 * want.max_abs()
        assert not got.coeffs[:, :, off].any()


def test_floor_test_covers_every_class(geom):
    """x = 0.5 + 0.3 (V_2e1 + V_-2e1) + 0.3 (V_e2 + V_-e2) on B_1 splits the
    modes by the parity of k_1.  Mode 0's class (k_1 = 0) lies above the
    floor, but the class k_1 = +-1 reaches below it, so the inverse is
    refused, and the refusal names the least eigenvalue over both blocks:
    the dense compression's."""
    x = AlgebraElement.from_modes(
        geom, {(0, 0): 0.5, (2, 0): 0.3, (-2, 0): 0.3, (0, 1): 0.3, (0, -1): 0.3}
    )
    box = LatticeBox(2, 1)
    mat = calc.compress(x, box).matrix
    classes = calc._mode_classes(box, [x.table])
    lows = [np.linalg.eigvalsh(mat[np.ix_(idx, idx)])[0] for idx in classes]
    assert [idx.tolist() for idx in classes] == [[0, 1, 2, 6, 7, 8], [3, 4, 5]]
    assert f"{lows[0]:.3e} {lows[1]:.3e}" == "-4.847e-02 7.574e-02"
    assert f"{np.linalg.eigvalsh(mat)[0]:.3e}" == "-4.847e-02"
    for fn in ("inv", "log", ("pow", 0.5)):
        with pytest.raises(SpectralFloorViolation, match=re.escape("reaches -4.847e-02 <")):
            calc.functional_calculus(x, fn, box)


def _compressed_dims(monkeypatch):
    """The dimensions of the compressions made from here on, in call order:
    of each class block when the modes split into several classes."""
    dims = []
    compress, class_blocks = calc.compress, calc._class_blocks

    def spy(x, box):
        op = compress(x, box)
        dims.append(op.matrix.shape[0])
        return op

    def block_spy(x, plan):
        blocks = class_blocks(x, plan)
        dims.extend(blk.shape[0] for blk in blocks)
        return blocks

    monkeypatch.setattr(calc, "compress", spy)
    monkeypatch.setattr(calc, "_class_blocks", block_spy)
    return dims


def test_block_calculus_reuses_equal_blocks(geom, monkeypatch):
    # the README metric k^2 I: two equal 1 x 1 blocks, one compression
    box = LatticeBox(2, 6)
    k = met.density_exp(alg.add(trig_pair(geom, 0, 0.15), trig_pair(geom, 1, 0.1))).nu
    g = met.metric_conformal(met.metric_flat(geom), k, box).matrix
    want = _eigen_readout(g, box, np.log)
    dims = _compressed_dims(monkeypatch)
    got = calc.functional_calculus(g, "log", box)
    assert dims == [box.size]
    assert got.coeffs[0, 0].tobytes() == got.coeffs[1, 1].tobytes()
    assert not got.coeffs[0, 1].any() and not got.coeffs[1, 0].any()
    assert coeff_diff(got, want) <= 1e-13 * want.max_abs()


def test_block_calculus_matches_whole_readout(geom, rng, monkeypatch):
    # a 3 x 3 matrix whose entry graph has the components {0, 2} and {1}
    box = LatticeBox(2, 4)
    p = random_hermitian_matrix(geom, 2, 1, rng)
    one = AlgebraElement.identity(geom)
    z = alg.add(alg.scale(one, 1.5), random_selfadjoint(geom, 1, rng, 0.2))
    zero = AlgebraElement.zeros(geom, 0)
    (a, b), (c, d) = p.entries
    h = TorusMatrix(geom, 3, [[a, zero, b], [zero, z, zero], [c, zero, d]])
    for fn in ("log", "inv", ("pow", 0.5)):
        want = _eigen_readout(h, box, _resolved(fn))
        with monkeypatch.context() as patch:
            dims = _compressed_dims(patch)
            got = calc.functional_calculus(h, fn, box)
        assert dims == [2 * box.size, box.size]
        assert coeff_diff(got, want) <= 1e-13 * want.max_abs()
        assert not got.coeffs[[0, 1, 1, 2], [1, 0, 2, 1]].any()


def test_block_calculus_floor_per_block(geom):
    box = LatticeBox(2, 5)
    two = alg.scale(AlgebraElement.identity(geom), 2.0)
    zero = AlgebraElement.zeros(geom, 0)
    # the second block's compressed spectrum reaches below the floor
    h = TorusMatrix(geom, 2, [[two, zero], [zero, trig_pair(geom, 0)]])
    for fn in ("log", "inv", ("pow", 0.5)):
        with pytest.raises(SpectralFloorViolation):
            calc.functional_calculus(h, fn, box)


def test_coupled_matrix_compressed_whole(geom, rng, monkeypatch):
    box = LatticeBox(2, 4)
    x = alg.add(alg.scale(AlgebraElement.identity(geom), 2.0), trig_pair(geom, 0, 0.5))
    zero = AlgebraElement.zeros(geom, 0)
    # one nonzero off-diagonal entry, below the selfadjointness tolerance,
    # and its zero mirror still join the two indices
    tiny = alg.scale(AlgebraElement.identity(geom), 1e-14)
    # x couples only modes that differ along e_1: 9 classes of 9 modes, each
    # a block of both indices; the random matrix couples the whole box
    for h, want in ((TorusMatrix(geom, 2, [[x, tiny], [zero, x]]), [2 * box.width] * box.width),
                    (random_hermitian_matrix(geom, 2, 1, rng), [2 * box.size])):
        with monkeypatch.context() as patch:
            dims = _compressed_dims(patch)
            calc.functional_calculus(h, "log", box)
        assert dims == want


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
    # an even element's compression runs as its even and odd halves
    # (calculus._fold); here the least eigenvalue lies in the odd one
    y = AlgebraElement.from_modes(
        geom, {(1, 0): 0.5, (-1, 0): 0.5, (1, 1): 0.3, (-1, -1): 0.3, (0, 2): -0.4, (0, -2): -0.4}
    )
    lam = np.linalg.eigvalsh(calc.compress(y, box).matrix)
    with mock.patch.object(calc, "_fold", wraps=calc._fold) as fold:
        got = calc.spectral_bounds(y, box)
    assert fold.call_count == 1
    assert np.max(np.abs(np.array(got) - lam[[0, -1]])) <= 1e-13 * np.max(np.abs(lam))


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
    # commuting, compatible h1 and h2: det(h1 h2) = det(h1) det(h2), and the
    # two determinants commute
    h1 = TorusMatrix(geom, 2, [[k1, zero], [zero, k2]])
    h2 = TorusMatrix(geom, 2, [[k2, zero], [zero, k1]])
    d1, d2 = calc.determinant(h1, box), calc.determinant(h2, box)
    assert coeff_diff(alg.multiply(d1, d2), alg.multiply(d2, d1)) < 1e-10
    assert coeff_diff(calc.determinant(h1.matmul(h2), box), alg.multiply(d1, d2)) < 1e-8


def test_determinant_conjugation_invariance(geom):
    box = LatticeBox(2, 8)
    k = _exp_element(geom, 0.12, 0.08)
    zero = AlgebraElement.zeros(geom, 0)
    h = TorusMatrix(geom, 2, [[k, zero], [zero, alg.multiply(k, k)]])
    c, s = np.cos(0.6), np.sin(0.6)
    u = TorusMatrix.from_scalar_matrix(geom, [[c, -s], [s, c]])
    d1 = calc.determinant(h, box)
    d2 = calc.determinant(u.transpose().matmul(h).matmul(u), box)
    assert coeff_diff(d1, d2) < 1e-8


def test_determinant_hypothesis_violation(geom):
    box = LatticeBox(2, 6)
    v1 = trig_pair(geom, 0)
    v2 = trig_pair(geom, 1)
    h1 = calc.make_positive(TorusMatrix(geom, 2, [[v1, v1], [v1, v1]]), 1.0)
    h2 = calc.make_positive(TorusMatrix(geom, 2, [[v2, v2], [v2, v2]]), 1.0)
    with pytest.raises(HypothesisViolated):
        calc.block_determinant_residual([h1, h2], box)
    # genuinely noncommuting
    assert coeff_diff(alg.multiply(v1, v2), alg.multiply(v2, v1)) > 0.1


def test_compatibility_residual_over_distinct_entries(geom, rng):
    # repeated entries are multiplied once; the residual is still the max
    # commutator over every pair of entries
    x, y = random_element(geom, 2, rng), random_element(geom, 1, rng)
    zero = AlgebraElement.zeros(geom, 0)
    x2 = alg.scale(x, 2.0)
    a = TorusMatrix(geom, 2, [[x, zero], [zero, x]])
    b = TorusMatrix(geom, 2, [[y, x], [y, x2]])
    want = max(coeff_diff(alg.multiply(u, v), alg.multiply(v, u)) for u in (x,) for v in (x, y, x2))
    assert want > 0.1
    assert abs(calc.compatibility_residual(a, b) - want) <= 1e-14 * want


def _pairwise_commutator(h):
    """max|[x, y]| over every pair of h's entries, product by product."""
    entries = [e for row in h.entries for e in row]
    return max(coeff_diff(alg.multiply(x, y), alg.multiply(y, x)) for x in entries for y in entries)


@pytest.mark.parametrize("n", [2, 3])
def test_compatibility_residual_takes_no_product_on_multiples_of_one_table(geom, geom3, n):
    """README's k^2 I_2 and the n = 3 witness metric k^2 (x) g0, g0 off
    diagonal: every entry is a multiple of one table, so the residual is 0
    and no product is taken; so is an operand that is zero.  A copy with one
    coefficient moved by 1e-6 takes the products, and its residual is the
    max commutator over the entry pairs."""
    if n == 2:
        k = met.density_exp(alg.add(trig_pair(geom, 0, 0.15), trig_pair(geom, 1, 0.10))).nu
        g = met.metric_conformal(met.metric_flat(geom), k, LatticeBox(2, 4)).matrix
    else:
        g = witness_metric(geom3, 2).matrix
    r = g.box.radius
    coeffs = g.coeffs.copy()
    coeffs[(0, 0, r + 1) + (r,) * (n - 1)] += 1e-6
    moved = TorusMatrix.from_coeffs(g.geometry, coeffs)
    zero = TorusMatrix.from_coeffs(g.geometry, np.zeros_like(coeffs))
    with mock.patch.object(calc, "_twisted_matmul", wraps=calc._twisted_matmul) as spy:
        assert calc.compatibility_residual(g, g) == 0.0
        assert calc.compatibility_residual(zero, moved) == 0.0
        assert spy.call_count == 0
        got = calc.compatibility_residual(moved, moved)
        assert spy.call_count == 2
    want = _pairwise_commutator(moved)
    assert want > 1e-8
    assert abs(got - want) <= 1e-14 * g.max_abs() ** 2


def test_self_compatible_leibniz(geom):
    box = LatticeBox(2, 10)
    k = _exp_element(geom, 0.15, 0.1)
    k2 = alg.multiply(k, k)
    zero = AlgebraElement.zeros(geom, 0)
    h = TorusMatrix(geom, 2, [[k2, zero], [zero, k2]])
    assert calc.compatibility_residual(h, h) < 1e-14
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
