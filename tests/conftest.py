import numpy as np
import pytest

from nctorus import calculus as calc, laplacian as lap, metrics as met
from nctorus.algebra import AlgebraElement, LatticeBox, TorusGeometry, add, scale


IRRATIONAL = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="session")
def geom():
    """2-torus with an irrational deformation parameter."""
    return TorusGeometry.two_torus(IRRATIONAL)


@pytest.fixture(scope="session")
def geom0():
    """Commutative 2-torus (grid-oracle territory)."""
    return TorusGeometry.two_torus(0.0)


@pytest.fixture(scope="session")
def geom3():
    return TorusGeometry.from_upper(3, [0.3, 0.2, 0.1])


@pytest.fixture()
def rng():
    return np.random.default_rng(20240611)


def coeff_diff(a, b):
    """Max coefficient difference of two elements or matrices on the common box."""
    return (a - b).max_abs()


matrix_diff = coeff_diff


def trig_pair(geometry, axis, amplitude=1.0):
    """The selfadjoint combination V_e + V_{-e} along an axis."""
    e = np.zeros(geometry.n, dtype=int)
    e[axis] = 1
    return scale(
        add(AlgebraElement.basis(geometry, e), AlgebraElement.basis(geometry, -e)),
        amplitude,
    )


def spectrum(op, **kwargs):
    """laplacian.spectrum of an operator whose recorded asymmetry is at most 1e-8,
    the default asymmetry gate of the command line."""
    res = lap.spectrum(op, **kwargs)
    assert res.asymmetry <= 1e-8
    return res


def generalized_spectrum(op):
    """Reference eigenvalues of the operator's matrix M
    (laplacian.operator_matrix): the generalized eigensolve of
    G M v = lambda G v with the Gram matrix G = M(nu), both symmetrized.
    G M is the stiffness matrix K only up to the truncation of
    M(nu) M(nu^{-1}) = 1 near the box boundary, so it agrees with the
    spectrum's pencil (K, M(nu)) on the lowest modes, which the box
    resolves.  scipy is imported here, not with the module, so that the
    tests that never call this run with numpy alone."""
    import scipy.linalg

    g_mat = calc.compress(op.nu.nu, op.box).matrix
    g_mat = 0.5 * (g_mat + g_mat.conj().T)
    a = g_mat @ lap.operator_matrix(op)[0]
    a = 0.5 * (a + a.conj().T)
    return scipy.linalg.eigh(a, g_mat, eigvals_only=True)


WITNESS_BASE = np.array([[1.3, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]])


def witness_factor(geom3):
    """The conformal factor of the n = 3 spectrum benchmark's metric:
    k = w* w + 1 for a witness w in the modes e_i."""
    w = AlgebraElement.from_modes(geom3, {(1, 0, 0): 0.15, (0, 1, 0): 0.10, (0, 0, 1): 0.08})
    return calc.make_positive(w, 1.0)


def witness_metric(geom3, calc_radius):
    """The metric of the n = 3 spectrum benchmark: k g0 k with g0 =
    WITNESS_BASE and k = witness_factor(geom3), so that every coefficient
    of the operator lies in the plane sum(k) = 0."""
    box = LatticeBox(3, calc_radius)
    return met.metric_conformal(
        met.metric_constant(geom3, WITNESS_BASE, box=box), witness_factor(geom3), box
    )
