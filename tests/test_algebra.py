import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctorus import algebra as alg, calculus as calc
from nctorus.algebra import AlgebraElement, LatticeBox, TorusGeometry
from nctorus.errors import GeometryMismatch, NCTorusError, NonSelfadjointInput, SeriesNotConverged
from nctorus.sampling import random_element

from conftest import coeff_diff, trig_pair


def test_geometry_invariants():
    with pytest.raises(ValueError):
        TorusGeometry(1, [[0.0]])
    with pytest.raises(ValueError):
        TorusGeometry(2, [[0.0, 0.3], [0.3, 0.0]])  # not antisymmetric
    with pytest.raises(ValueError):
        TorusGeometry(2, [[0.1, 0.3], [-0.3, 0.0]])  # nonzero diagonal
    g = TorusGeometry.from_upper(3, [0.3, 0.2, 0.1])
    assert g.theta[1, 0] == -0.3 and g.theta[2, 1] == -0.1


def test_equal_geometries_and_boxes_hash_equal():
    # from_upper writes -0.0 below the diagonal for a zero entry: -0.0 == 0.0,
    # so the two geometries are equal, and a set must hold one of them
    a, b = TorusGeometry.from_upper(2, [0.0]), TorusGeometry.from_upper(2, [-0.0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert TorusGeometry.from_upper(2, [0.3]) != TorusGeometry.from_upper(2, [-0.3])
    assert LatticeBox(2, 3) == LatticeBox(2, 3) and len({LatticeBox(2, 3), LatticeBox(2, 3)}) == 1
    assert LatticeBox(2, 3) != LatticeBox(3, 3) and LatticeBox(2, 3) != LatticeBox(2, 4)


@pytest.mark.parametrize("n,radius", [(2, 3), (3, 1)])
def test_lattice_enumeration_bijection(n, radius):
    box = LatticeBox(n, radius)
    modes = box.modes()
    assert modes.shape == (box.size, n)
    seen = set()
    for i, k in enumerate(modes):
        assert box.index_of(k) == i
        seen.add(tuple(k))
    assert len(seen) == box.size


def test_cocycle_identities(geom, rng):
    for _ in range(20):
        p, q, r = (rng.integers(-5, 6, size=2) for _ in range(3))
        lhs = alg.cocycle_phase(geom, p, q) * alg.cocycle_phase(geom, p + q, r)
        rhs = alg.cocycle_phase(geom, q, r) * alg.cocycle_phase(geom, p, q + r)
        assert abs(lhs - rhs) < 5e-14  # phase arguments reach ~50 rad
        assert abs(alg.cocycle_phase(geom, p, p) - 1.0) < 1e-14
        ratio = alg.cocycle_phase(geom, p, q) / alg.cocycle_phase(geom, q, p)
        expect = np.exp(2j * np.pi * float(q @ geom.theta @ p))
        assert abs(ratio - expect) < 1e-13


def test_cocycle_trivial_for_zero_theta(geom0, rng):
    for _ in range(5):
        p, q = rng.integers(-4, 5, size=2), rng.integers(-4, 5, size=2)
        assert alg.cocycle_phase(geom0, p, q) == 1.0


def test_generator_relation():
    g = TorusGeometry.two_torus(0.3)
    v1 = AlgebraElement.basis(g, (1, 0))
    v2 = AlgebraElement.basis(g, (0, 1))
    lhs = alg.multiply(v2, v1)  # V_{e_2} V_{e_1}
    rhs = alg.multiply(v1, v2)
    ratio = lhs.coefficient((1, 1)) / rhs.coefficient((1, 1))
    assert abs(ratio - np.exp(2j * np.pi * 0.3)) < 1e-14


def test_multiply_unit_and_modes(geom, rng):
    u = random_element(geom, 3, rng)
    one = AlgebraElement.identity(geom)
    assert coeff_diff(alg.multiply(one, u), u) == 0.0
    assert coeff_diff(alg.multiply(u, one), u) == 0.0
    v = random_element(geom, 2, rng)
    assert alg.multiply(u, v).box.radius == 5


def _pairwise_product(u, v):
    """(u v)_k = sum over nonzero pairs p + q = k of u_p v_q sigma(p, q), term by term."""
    geometry, r = u.geometry, u.box.radius + v.box.radius
    out = AlgebraElement.zeros(geometry, r).table.copy()
    for p in np.argwhere(u.table) - u.box.radius:
        for q in np.argwhere(v.table) - v.box.radius:
            out[tuple(p + q + r)] += (
                u.coefficient(p) * v.coefficient(q) * alg.cocycle_phase(geometry, p, q)
            )
    return out


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    upper=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiply_matches_pairwise_sum(n, upper, seed):
    """Both loop sides of the product against the cocycle, at random theta."""
    geometry = TorusGeometry.from_upper(n, upper[: n * (n - 1) // 2])
    rng = np.random.default_rng(seed)
    dense = random_element(geometry, 1, rng)  # 3^n nonzero modes
    table = np.zeros((5,) * n, dtype=complex)
    table.flat[rng.choice(table.size, 3, replace=False)] = rng.standard_normal(3) + 1j
    sparse = AlgebraElement(geometry, LatticeBox(n, 2), table)
    for u, v in ((sparse, dense), (dense, sparse)):
        expect = _pairwise_product(u, v)
        assert np.max(np.abs(alg.multiply(u, v).table - expect)) < 1e-13


def _extended_product(theta, a, b):
    """The kernel's product (m, l, *box_a) x (l, k, *box_b), term by term in
    extended precision: c_ik(p + q) += a_il(p) b_lk(q) sigma(p, q) over all modes."""
    n = theta.shape[0]
    na, nb = (a.shape[-1] - 1) // 2, (b.shape[-1] - 1) // 2
    half_turn = np.clongdouble(1j) * np.arccos(np.longdouble(-1))
    th = theta.astype(np.longdouble)
    qs = np.argwhere(np.ones(b.shape[2:], dtype=bool))
    q_modes = (qs - nb).astype(np.longdouble)
    bq = b.reshape(b.shape[:2] + (-1,)).astype(np.clongdouble)
    out = np.zeros(a.shape[:1] + b.shape[1:2] + (2 * (na + nb) + 1,) * n, dtype=np.clongdouble)
    for p in np.argwhere(np.ones(a.shape[2:], dtype=bool)):
        sigma = np.exp(half_turn * (q_modes @ (th @ (p - na).astype(np.longdouble))))
        ap = a[(slice(None), slice(None)) + tuple(p)].astype(np.clongdouble)
        out[(slice(None), slice(None)) + tuple((p + qs).T)] += np.einsum("il,lkq->ikq", ap, bq * sigma)
    return out


def _planar_ball(n, m, k, radius, rng):
    """Random (m, k) coefficients on the modes of the box with sum(k) = 0 and
    |k|_1 <= 2 radius: the shape of nu^{1/2} and h^{ij} of a witness metric
    w*w + c at n = 3, series in the modes e_j - e_i."""
    lattice = np.indices((2 * radius + 1,) * n) - radius
    keep = (lattice.sum(axis=0) == 0) & (np.abs(lattice).sum(axis=0) <= 2 * radius)
    shape = (m, k) + keep.shape
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * keep


def _kernel_operands(n, case, rng):
    def dense(m, k, radius):
        shape = (m, k) + (2 * radius + 1,) * n
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def one_per_row(radius):
        width = 2 * radius + 1
        table = np.zeros((width,) * n, dtype=complex)
        for row in np.ndindex(*(width,) * (n - 1)):
            table[row + (rng.integers(width),)] = rng.standard_normal() + 1j
        return table[None, None]

    small, large = (3, 14) if n == 2 else (1, 3)
    return {
        "planar-ball": lambda: (_planar_ball(n, 1, 1, large + 1, rng),
                                _planar_ball(n, 1, 1, large + 1, rng)),
        # the second product of the multipliers' sandwich, a column of
        # h^{ij} nu^{1/2} against nu^{1/2}
        "sparse-sandwich": lambda: (_planar_ball(n, 4, 1, large + 2, rng),
                                    _planar_ball(n, 1, 1, large + 1, rng)),
        "element": lambda: (dense(1, 1, small), dense(1, 1, large)),
        "right-sparser": lambda: (dense(1, 1, large), dense(1, 1, small)),
        "matrix": lambda: (dense(2, 2, 2), dense(2, 2, small)),
        "row-times-matrix": lambda: (dense(1, 2, small), dense(2, 2, 1)),
        "one-mode-per-row": lambda: (one_per_row(small + 1), dense(1, 1, small)),
        "zero": lambda: (np.zeros((1, 1) + (5,) * n, dtype=complex), dense(1, 1, small)),
        "radius-0": lambda: (dense(2, 1, 0), dense(1, 2, small)),
        "both-radius-0": lambda: (dense(1, 1, 0), dense(1, 1, 0)),
    }[case]()


def _path(name):
    """The product kernel as the name says: the path it picks, or one path forced."""
    if name == "picked":
        return alg._twisted_matmul
    forced = {"gemm": alg._gemm_matmul, "pairs": alg._pair_matmul}[name]
    return lambda theta, a, b: forced(
        theta, a, b, alg._support(a, theta.shape[0]), alg._support(b, theta.shape[0]))


_KERNEL_CASES = pytest.mark.parametrize("case", [
    "element", "right-sparser", "matrix", "row-times-matrix", "one-mode-per-row", "zero",
    "radius-0", "both-radius-0", "planar-ball", "sparse-sandwich"])
_KERNEL_GEOMETRIES = pytest.mark.parametrize("geometry", [
    TorusGeometry.two_torus(1.0 / math.sqrt(2.0)),
    TorusGeometry.from_upper(3, [0.3, 0.2, 0.1]),
    TorusGeometry.two_torus(0.0),
], ids=["n2", "n3", "theta0"])


def _check_kernel(path, geometry, case, rng):
    a, b = _kernel_operands(geometry.n, case, rng)
    expect = _extended_product(geometry.theta, a, b)
    got = _path(path)(geometry.theta, a, b)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


@_KERNEL_CASES
@_KERNEL_GEOMETRIES
def test_kernel_matches_extended_precision_sum(geometry, case, rng):
    _check_kernel("picked", geometry, case, rng)


@pytest.mark.parametrize("path", ["gemm", "pairs"])
@_KERNEL_CASES
@_KERNEL_GEOMETRIES
def test_each_kernel_path_matches_extended_precision_sum(geometry, case, path, rng):
    _check_kernel(path, geometry, case, rng)


def test_kernel_picks_the_path_that_does_less_work(monkeypatch, rng):
    geometry = TorusGeometry.from_upper(3, [0.3, 0.2, 0.1])
    taken = []
    for name in ("_gemm_matmul", "_pair_matmul"):
        path = getattr(alg, name)
        monkeypatch.setattr(alg, name, lambda *args, p=path, n=name: taken.append(n) or p(*args))
    for case, expect in (("element", "_gemm_matmul"), ("matrix", "_gemm_matmul"),
                         ("planar-ball", "_pair_matmul"), ("sparse-sandwich", "_pair_matmul")):
        alg._twisted_matmul(geometry.theta, *_kernel_operands(3, case, rng))
        assert taken.pop() == expect, case


def test_pair_path_memory_within_gemm_path(rng):
    """On the costly product of spectrum-sized n = 3 multipliers, a column of
    h^{ij} nu^{1/2} (9 entries, box radius 12) against nu^{1/2} (box radius 9),
    the pair path's peak allocation stays within the GEMM path's."""
    geometry = TorusGeometry.from_upper(3, [0.3, 0.2, 0.1])
    a, b = _planar_ball(3, 9, 1, 12, rng), _planar_ball(3, 1, 1, 9, rng)
    peaks, outs = {}, {}
    tracemalloc.start()
    try:
        for name in ("gemm", "pairs"):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            outs[name] = _path(name)(geometry.theta, a, b)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks["pairs"] <= peaks["gemm"], peaks
    assert np.max(np.abs(outs["pairs"] - outs["gemm"])) <= 1e-14 * np.max(np.abs(outs["gemm"]))


def test_multiply_geometry_mismatch(geom, geom0, rng):
    with pytest.raises(GeometryMismatch):
        alg.multiply(random_element(geom, 1, rng), random_element(geom0, 1, rng))


def test_associativity(geom, rng):
    for _ in range(3):
        u, v, w = (random_element(geom, 2, rng) for _ in range(3))
        a = alg.multiply(alg.multiply(u, v), w)
        b = alg.multiply(u, alg.multiply(v, w))
        assert coeff_diff(a, b) < 1e-13


def test_adjoint_properties(geom, rng):
    one = AlgebraElement.identity(geom)
    assert coeff_diff(alg.adjoint(one), one) == 0.0
    u = random_element(geom, 3, rng)
    v = random_element(geom, 2, rng)
    assert coeff_diff(alg.adjoint(alg.adjoint(u)), u) == 0.0
    uv_star = alg.adjoint(alg.multiply(u, v))
    vs_us = alg.multiply(alg.adjoint(v), alg.adjoint(u))
    assert coeff_diff(uv_star, vs_us) < 5e-14


def test_basis_adjoint_is_inverse(geom):
    p = np.array([2, -3])
    vp = AlgebraElement.basis(geom, p)
    prod = alg.multiply(vp, alg.adjoint(vp))
    assert coeff_diff(prod, AlgebraElement.identity(geom)) < 1e-14


def test_derivation(geom, rng):
    v1 = AlgebraElement.basis(geom, (1, 0))
    assert coeff_diff(alg.derivation(v1, 0), alg.scale(v1, 1j)) == 0.0
    assert alg.derivation(v1, 1).max_abs() == 0.0
    assert alg.derivation(AlgebraElement.identity(geom), 0).max_abs() == 0.0
    u, v = random_element(geom, 2, rng), random_element(geom, 2, rng)
    for j in range(2):
        left = alg.derivation(alg.multiply(u, v), j)
        right = alg.add(
            alg.multiply(alg.derivation(u, j), v),
            alg.multiply(u, alg.derivation(v, j)),
        )
        assert coeff_diff(left, right) < 1e-13
        assert coeff_diff(
            alg.derivation(alg.adjoint(u), j), alg.adjoint(alg.derivation(u, j))
        ) == 0.0
        assert abs(alg.trace(alg.derivation(u, j))) == 0.0


def test_trace(geom, rng):
    assert alg.trace(AlgebraElement.identity(geom)) == 1.0
    assert alg.trace(AlgebraElement.basis(geom, (2, 1))) == 0.0
    u, v = random_element(geom, 2, rng), random_element(geom, 2, rng)
    assert abs(
        alg.trace(alg.multiply(u, v)) - alg.trace(alg.multiply(v, u))
    ) < 1e-14
    uu = alg.multiply(alg.adjoint(u), u)
    assert alg.trace(uu).real >= 0.0


def test_integration_by_parts(geom, rng):
    u, v = random_element(geom, 2, rng), random_element(geom, 2, rng)
    for j in range(2):
        lhs = alg.trace(alg.multiply(u, alg.derivation(v, j)))
        rhs = -alg.trace(alg.multiply(alg.derivation(u, j), v))
        assert abs(lhs - rhs) < 1e-13


def test_inner_product_orthonormal_basis(geom):
    vp = AlgebraElement.basis(geom, (1, -2), radius=3)
    vq = AlgebraElement.basis(geom, (0, 2), radius=3)
    assert alg.inner_product(vp, vp) == 1.0
    assert alg.inner_product(vp, vq) == 0.0


def test_weighted_inner_products_coincide_at_unit_density(geom, rng):
    one = AlgebraElement.identity(geom)
    u, v = random_element(geom, 2, rng), random_element(geom, 2, rng)
    base = alg.inner_product(u, v)
    assert abs(alg.inner_product(alg.multiply(u, one), v) - base) < 1e-14
    assert abs(alg.weighted_inner_product_opp(u, v, one) - base) < 1e-14


def test_sobolev_norm(geom, rng):
    one = AlgebraElement.identity(geom)
    for s in (-1.0, 0.0, 2.5):
        assert alg.sobolev_norm(one, s) == 1.0
    k = np.array([2, -1])
    vk = AlgebraElement.basis(geom, k)
    for s in (0.0, 1.0, -2.0):
        expect = (1.0 + float(k @ k)) ** (s / 2.0)
        assert abs(alg.sobolev_norm(vk, s) - expect) < 1e-14
    u = random_element(geom, 3, rng)
    norms = [alg.sobolev_norm(u, s) for s in (-1.0, 0.0, 1.0, 2.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    assert abs(alg.sobolev_norm(u, 0.0) - np.linalg.norm(u.table)) < 1e-12


def test_exp_series_inverse_pair(geom):
    w = trig_pair(geom, 0, 0.15) + trig_pair(geom, 1, 0.1)
    e, em = alg.exp_series(w), alg.exp_series(alg.scale(w, -1.0))
    prod = alg.multiply(e, em)
    assert coeff_diff(prod, AlgebraElement.identity(geom)) < 1e-15


def test_exp_series_refuses_unconverged_sum(geom0):
    # at theta = 0, tau(exp(a (V_e + V_-e))) = I_0(2a); for a = 50 the 90-term
    # partial sum is 2.13e41 against I_0(100) = 1.07e42
    with pytest.raises(SeriesNotConverged) as err:
        alg.exp_series(trig_pair(geom0, 0, 50.0))
    assert isinstance(err.value, NCTorusError)
    # a = 12.5 settles within the term limit, relative to the sum: I_0(25)
    e = alg.exp_series(trig_pair(geom0, 0, 12.5))
    assert alg.trace(e).real == pytest.approx(5774560606.466310, rel=1e-14)


def test_exp_series_refuses_cancelled_sum(geom):
    # for w = -a 1 the terms alternate and peak near a^a / a!; once their
    # roundoff is as large as e^-a the sum is wrong (9.9e-9 for e^-20 = 2.1e-9)
    one = AlgebraElement.identity(geom)
    for a in (-10.0, -20.0):
        with pytest.raises(SeriesNotConverged):
            alg.exp_series(alg.scale(one, a))
    for a in (-5.0, 20.0):
        e = alg.trace(alg.exp_series(alg.scale(one, a))).real
        assert e == pytest.approx(math.exp(a), rel=1e-12)


def test_selfadjoint_predicate(geom, rng):
    sym = alg.selfadjoint_part(random_element(geom, 2, rng))
    calc._require_selfadjoint(sym, "sym")
    with pytest.raises(NonSelfadjointInput):
        calc._require_selfadjoint(alg.add(sym, AlgebraElement.basis(geom, (1, 0))), "sym + V")


def test_ordered_basis_roundtrip(geom, rng):
    u = random_element(geom, 3, rng)
    table = alg.ordered_coefficients(u)
    back = alg.element_from_ordered(geom, table)
    assert coeff_diff(back, u) < 1e-14
    for j in range(2):
        e = np.zeros(2, dtype=int)
        e[j] = 1
        v = AlgebraElement.basis(geom, e)
        assert np.allclose(alg.ordered_coefficients(v), v.table)


def test_ordered_monomial_product_phases(geom, rng):
    """U^p U^q = rho(p, q) U^{p+q}, with rho from normal-ordering."""
    box = LatticeBox(2, 8)
    for _ in range(10):
        p, q = rng.integers(-3, 4, size=2), rng.integers(-3, 4, size=2)
        up = alg.element_from_ordered(geom, AlgebraElement.basis(geom, p, radius=4).table)
        uq = alg.element_from_ordered(geom, AlgebraElement.basis(geom, q, radius=4).table)
        prod = alg.multiply(up, uq)
        expect = alg.element_from_ordered(
            geom,
            AlgebraElement.basis(geom, p + q, radius=8).table
            * alg.ordered_product_phase(geom, p, q),
        )
        assert coeff_diff(prod, expect) < 1e-13
