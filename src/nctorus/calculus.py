"""Matrices over the torus algebra and spectral calculus on compressions.

Functions of selfadjoint elements (sqrt, log, exp, powers, inverses) are
evaluated by compressing left multiplication to a finite lattice box and
reading coefficients off f(C) applied to the cyclic vector(s) e_j (x) V_0,
with C the resulting Hermitian matrix.  Inverses solve C for those m
right-hand sides with the Cholesky factor that the floor test computes (of
C minus the floor), refined against C.  Every other function runs block Lanczos
on the m cyclic vectors and applies the function to the small
block-tridiagonal matrix it builds; when that readout has not settled within
a fixed number of blocks, C is diagonalized instead.  Functions singular at
0 first test C against the spectral floor by a Cholesky factorization, on
every path.  The compression of a selfadjoint element is exactly Hermitian
because the truncated Fourier basis is orthonormal and aligned with the
coefficient grid.  For an element supported in B_M and a polynomial of
degree d the readout is exact on the modes of B_{N-dM}; for analytic
functions the truncation error decays as the box grows, which the tests
measure rather than assume.

The determinant of a positive invertible matrix h over the algebra is
exp(Tr(log h)) with Tr the entrywise matrix trace; it is multiplicative
only under the commutation hypotheses checked by
``determinant_identities_check``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np
import scipy.linalg

from .algebra import (
    AlgebraElement,
    LatticeBox,
    TorusGeometry,
    _adjoint_coeffs,
    _check_same_geometry,
    _resize_table,
    _twisted_matmul,
    add,
    commutator,
    multiply,
    resize,
    scale,
)
from .errors import (
    GeometryMismatch,
    HypothesisViolated,
    NonSelfadjointInput,
    SpectralFloorViolation,
)

# functions singular at 0 refuse a compressed spectrum below this floor, and
# every test of positive invertibility in the package compares against it
SPECTRAL_FLOOR = 1e-8
# a commutation or orthogonality hypothesis of an identity check holds when
# its residual is at most this
COMPAT_TOL = 1e-9


@functools.lru_cache(maxsize=8)
def _phase_matrix(geometry, box):
    """Read-only table [r, q] = exp(i pi q.theta r) over pairs of box modes."""
    modes = box.modes().astype(float)
    w = modes @ geometry.theta @ modes.T  # w[a, b] = a . theta b
    w = 0.5 * (w - w.T)  # enforce the exact antisymmetry (zero diagonal) of q.theta r
    phase = np.exp(1j * np.pi * w.T)
    phase.setflags(write=False)
    return phase


@dataclass(frozen=True, eq=False, init=False)
class TorusMatrix:
    """m x m matrix with entries in the torus algebra.

    Stored as one read-only coefficient array ``coeffs`` of shape
    (m, m, *box.shape): ``coeffs[i, j]`` is the table of entry (i, j) on the
    box of the widest entry, narrower entries zero-padded.
    """

    geometry: TorusGeometry
    coeffs: np.ndarray

    def __init__(self, geometry, m, entries):
        rows = [list(row) for row in entries]
        if len(rows) != m or any(len(r) != m for r in rows):
            raise ValueError("entries must form an m x m grid")
        if any(e.geometry != geometry for row in rows for e in row):
            raise GeometryMismatch("matrix entry on a different torus")
        radius = max(e.box.radius for row in rows for e in row)
        self._init(geometry, [[resize(e, radius).table for e in row] for row in rows])

    def _init(self, geometry, coeffs):
        c = np.array(coeffs, dtype=complex)
        m, width = c.shape[0], c.shape[-1]
        if m == 0 or width % 2 == 0 or c.shape != (m, m) + (width,) * geometry.n:
            raise ValueError(f"coefficient array shape {c.shape} is not (m, m, *box.shape)")
        c.setflags(write=False)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_coeffs(cls, geometry, coeffs):
        """Matrix whose entry (i, j) has the coefficient table coeffs[i, j]."""
        out = cls.__new__(cls)
        out._init(geometry, coeffs)
        return out

    @classmethod
    def identity(cls, geometry, m):
        return cls.from_scalar_matrix(geometry, np.eye(m))

    @classmethod
    def scalar(cls, x, m):
        """The m x m matrix x I for an element x."""
        return cls.from_coeffs(x.geometry, np.multiply.outer(np.eye(m), x.table))

    @classmethod
    def from_scalar_matrix(cls, geometry, mat):
        """Constant-coefficient matrix: each entry is a scalar multiple of 1."""
        one = AlgebraElement.identity(geometry).table
        return cls.from_coeffs(geometry, np.multiply.outer(np.asarray(mat, dtype=complex), one))

    @classmethod
    def block_diag(cls, blocks):
        geometry = blocks[0].geometry
        if any(b.geometry != geometry for b in blocks):
            raise GeometryMismatch("blocks on different tori")
        radius = max(b.box.radius for b in blocks)
        m = sum(b.m for b in blocks)
        coeffs = np.zeros((m, m) + LatticeBox(geometry.n, radius).shape, dtype=complex)
        at = 0
        for b in blocks:
            coeffs[at : at + b.m, at : at + b.m] = b.resize(radius).coeffs
            at += b.m
        return cls.from_coeffs(geometry, coeffs)

    @property
    def m(self):
        return self.coeffs.shape[0]

    @property
    def box(self):
        return LatticeBox(self.geometry.n, (self.coeffs.shape[-1] - 1) // 2)

    @functools.cached_property
    def entries(self):
        """The entries as a nested tuple of elements on the common box."""
        box = self.box
        return tuple(
            tuple(AlgebraElement(self.geometry, box, table) for table in row)
            for row in self.coeffs
        )

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))

    def resize(self, radius):
        return TorusMatrix.from_coeffs(
            self.geometry, _resize_table(self.coeffs, radius, self.geometry.n)
        )

    def adjoint(self):
        return TorusMatrix.from_coeffs(
            self.geometry, _adjoint_coeffs(self.coeffs, self.geometry.n)
        )

    def transpose(self):
        return TorusMatrix.from_coeffs(self.geometry, self.coeffs.swapaxes(0, 1))

    def selfadjoint_residual(self):
        return (self - self.adjoint()).max_abs()

    def _aligned(self, other):
        """Both coefficient arrays on the common box."""
        if self.m != other.m:
            raise ValueError("matrix size mismatch")
        _check_same_geometry(self, other)
        r = max(self.box.radius, other.box.radius)
        return self.resize(r).coeffs, other.resize(r).coeffs

    def __add__(self, other):
        a, b = self._aligned(other)
        return TorusMatrix.from_coeffs(self.geometry, a + b)

    def __sub__(self, other):
        a, b = self._aligned(other)
        return TorusMatrix.from_coeffs(self.geometry, a - b)

    def scale(self, c):
        return TorusMatrix.from_coeffs(self.geometry, self.coeffs * complex(c))

    def matmul(self, other):
        """Matrix product over the algebra, kept exactly on the grown box."""
        if self.m != other.m:
            raise ValueError("matrix size mismatch")
        _check_same_geometry(self, other)
        return TorusMatrix.from_coeffs(
            self.geometry, _twisted_matmul(self.geometry.theta, self.coeffs, other.coeffs)
        )


def _as_matrix(x):
    """A matrix as itself and an element as the 1 x 1 matrix over it."""
    return x if isinstance(x, TorusMatrix) else TorusMatrix(x.geometry, 1, [[x]])


def _like(x, h):
    """h in the form of x: the matrix itself, or its sole entry for an element."""
    return h if isinstance(x, TorusMatrix) else h.entries[0][0]


def _nonzero_entries(h):
    """Coefficient tables of the entries that are not identically zero."""
    flat = h.coeffs.reshape((-1,) + h.coeffs.shape[2:])
    return flat[flat.any(axis=tuple(range(1, flat.ndim)))]


def compatibility_residual(a, b):
    """Max commutator coefficient over all entry pairs of two matrices.

    The column of a's nonzero entries times the row of b's holds every x y,
    and the transpose of the reverse product every y x.
    """
    _check_same_geometry(a, b)
    col = _nonzero_entries(a)[:, None]
    row = _nonzero_entries(b)[None, :]
    theta = a.geometry.theta
    xy = _twisted_matmul(theta, col, row)
    yx = _twisted_matmul(theta, row.swapaxes(0, 1), col.swapaxes(0, 1)).swapaxes(0, 1)
    return float(np.max(np.abs(xy - yx), initial=0.0))


def self_compatibility_residual(a):
    return compatibility_residual(a, a)


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompressedOperator:
    """Dense matrix of an operator on the truncated Fourier basis.

    For an m x m matrix over the algebra the basis is e_i (x) V_k with the
    block index i slowest, so row/column i * |B_N| + index(k).
    """

    geometry: TorusGeometry
    box: LatticeBox
    m: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = self.m * self.box.size
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} != ({dim}, {dim})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def hermitian_residual(self):
        scale_ = max(1.0, float(np.max(np.abs(self.matrix))))
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T))) / scale_


def compress(x, box):
    """Compressed left-multiplication operator of an element or matrix.

    The compression is exactly Hermitian when x is selfadjoint.  For modes
    near the box boundary the product leaves the box, so only matrix
    elements with row index in the interior are those of the full operator.
    """
    h = _as_matrix(x)
    r, width, s = h.box.radius, h.box.width, box.size
    modes = box.modes()
    # block [row, col] is an entry's coefficient at mode(row) - mode(col):
    # `flat` indexes that mode in the raveled table (clipped into range),
    # `outside` marks modes beyond the table's box, which read as zero
    flat = np.zeros((s, s), dtype=np.intp)
    outside = np.zeros((s, s), dtype=bool)
    for axis in range(box.n):
        diff = modes[:, None, axis] - modes[None, :, axis]
        outside |= np.abs(diff) > r
        flat = flat * width + np.clip(diff + r, 0, 2 * r)
    phase = _phase_matrix(h.geometry, box)
    mat = np.zeros((h.m * s, h.m * s), dtype=complex)
    for i in range(h.m):
        for j in range(h.m):
            table = h.coeffs[i, j]
            if not table.any():
                continue
            block = mat[i * s : (i + 1) * s, j * s : (j + 1) * s]
            np.take(table.ravel(), flat, out=block, mode="clip")
            block[outside] = 0.0
            block *= phase
    return CompressedOperator(h.geometry, box, h.m, mat)


def element_from_vector(geometry, box, vec):
    return AlgebraElement(geometry, box, np.asarray(vec, dtype=complex).reshape(box.shape))


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

_SINGULAR_AT_ZERO = {"sqrt", "inv_sqrt", "log", "inv", "pow"}


def _reciprocal(lam):
    return 1.0 / lam


def _resolve_function(fn):
    """Map a function spec to (name, vectorized callable, needs_floor).

    ("pow", -1) is "inv", so that both take the solve in functional_calculus.
    """
    if isinstance(fn, tuple) and len(fn) == 2 and fn[0] == "pow":
        s = float(fn[1])
        if s == -1.0:
            return _resolve_function("inv")
        return f"pow({s})", (lambda lam: lam**s), True
    table = {
        "sqrt": np.sqrt,
        "inv_sqrt": lambda lam: 1.0 / np.sqrt(lam),
        "log": np.log,
        "exp": np.exp,
        "inv": _reciprocal,
    }
    if fn not in table:
        raise ValueError(f"unknown function {fn!r}")
    return fn, table[fn], fn in _SINGULAR_AT_ZERO


def _require_selfadjoint(h):
    resid = h.selfadjoint_residual()
    if resid > 1e-11 * (1.0 + h.max_abs()):
        raise NonSelfadjointInput(f"selfadjointness residual {resid:.3e}")


def _floor_violation(name, lam_min):
    return SpectralFloorViolation(
        f"{name}: compressed spectrum reaches {lam_min:.3e} < floor {SPECTRAL_FLOOR:.1e}"
    )


def _require_floor(mat, name):
    """Refuse C unless its spectrum lies above SPECTRAL_FLOOR; else return the
    Cholesky factor of C - floor I.

    Factoring C - floor I is the test: it succeeds exactly when the spectrum
    of C lies above the floor.  lambda_min is computed only for the
    refusal's message.
    """
    shifted = np.array(mat, order="F")  # factored in place by LAPACK
    shifted.flat[:: mat.shape[0] + 1] -= SPECTRAL_FLOOR
    try:
        return scipy.linalg.cho_factor(shifted, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(mat)[0])
        raise _floor_violation(name, lam_min) from None


def _unit_columns(d, cyclic):
    """The d x m block E of the unit columns e_j at the cyclic rows."""
    e = np.zeros((d, len(cyclic)), dtype=complex)
    e[cyclic, np.arange(len(cyclic))] = 1.0
    return e


# refinement steps of an inverse before C itself is factored instead
_REFINE_STEPS = 8


def _inverse_columns(mat, shifted_factor, cyclic):
    """Columns y = C^{-1} e_j at the cyclic rows, from the factor of C - floor I.

    C y = e is (C - floor I) y = e - floor y, so y <- (C - floor I)^{-1}(e -
    floor y) cuts the error by floor / (lambda_min - floor) per step: two
    steps reach roundoff unless lambda_min is within a few orders of the
    floor.  Stops once a step moves y by at most its roundoff; when that
    has not happened in _REFINE_STEPS steps, C is factored and solved.
    """
    def solve(factor, rhs):
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)

    e = _unit_columns(mat.shape[0], cyclic)
    y = solve(shifted_factor, e)
    for _ in range(_REFINE_STEPS):
        step = solve(shifted_factor, e - SPECTRAL_FLOOR * y) - y
        y += step
        if np.max(np.abs(step)) <= np.finfo(float).eps * np.max(np.abs(y)):
            return y
    return solve(scipy.linalg.cho_factor(mat, check_finite=False), e)


def _eigen_columns(mat, cyclic, f):
    """Columns f(C) e_j at the cyclic rows, from the eigendecomposition of C."""
    lam, vecs = np.linalg.eigh(mat)
    fvals = np.asarray(f(lam), dtype=complex)
    cols = np.empty((mat.shape[0], len(cyclic)), dtype=complex)
    for j, row in enumerate(cyclic):
        cols[:, j] = vecs @ (fvals * vecs[row].conj())
    return cols


# block Lanczos stops once two successive readouts differ by at most
# _LANCZOS_TOL times their largest entry, and hands over to the dense readout
# when that has not happened within _LANCZOS_MAX_BLOCKS blocks
_LANCZOS_TOL = 1e-14
_LANCZOS_MAX_BLOCKS = 80


def _lanczos_columns(mat, cyclic, f):
    """Columns f(C) e_j at the cyclic rows, by block Lanczos started on them.

    With Q the orthonormal Krylov basis and T = Q* C Q its block-tridiagonal
    compression, f(C) E is read as Q f(T)[:, :m].  Each new block is
    orthogonalized twice against all previous ones (full
    reorthogonalization), so Q stays orthonormal to roundoff.  Returns None,
    for the dense readout to take over, when the readout has not settled
    within the block cap or when the residual block loses rank exactly.
    """
    d, m = mat.shape[0], len(cyclic)
    blocks = min(_LANCZOS_MAX_BLOCKS, d // m)
    basis = np.zeros((d, m * blocks), dtype=complex)
    basis[:, :m] = _unit_columns(d, cyclic)
    t = np.zeros((m * blocks, m * blocks), dtype=complex)
    previous = None
    for k in range(blocks):
        lo, hi = k * m, (k + 1) * m
        q = basis[:, :hi]
        w = mat @ basis[:, lo:hi]
        a = basis[:, lo:hi].conj().T @ w
        t[lo:hi, lo:hi] = 0.5 * (a + a.conj().T)
        for _ in range(2):
            w -= q @ (q.conj().T @ w)
        lam, vecs = np.linalg.eigh(t[:hi, :hi])
        fvals = np.asarray(f(lam), dtype=complex)
        cols = q @ (vecs @ (fvals[:, None] * vecs[:m].conj().T))
        if not w.any():
            return cols  # the Krylov space is invariant: the readout is exact
        if previous is not None and (
            np.max(np.abs(cols - previous)) <= _LANCZOS_TOL * np.max(np.abs(cols))
        ):
            return cols
        if k + 1 == blocks:
            break
        new, b = np.linalg.qr(w)
        if not b.diagonal().all():
            # one column's Krylov space closed before the others': QR would
            # fill the gap with a direction that need not be orthogonal to Q
            return None
        previous = cols
        basis[:, hi : hi + m] = new
        t[hi : hi + m, lo:hi] = b
        t[lo:hi, hi : hi + m] = b.conj().T
    return None


def functional_calculus(x, fn, box):
    """f(x) for selfadjoint x via the Hermitian compression on the box.

    x is an element or a matrix over the algebra (an element is the 1 x 1
    case, and the result has the form of x).  fn is one of "sqrt",
    "inv_sqrt", "log", "exp", "inv" or ("pow", s); any other spec is a
    ValueError.  Functions singular at 0 refuse inputs whose compressed
    spectrum dips below SPECTRAL_FLOOR, tested by a Cholesky factorization
    of the compression minus the floor.  The inverse (also ("pow", -1))
    solves for the cyclic columns with that factor, refined against the
    compression; every other function runs block
    Lanczos on the cyclic vectors, with the dense eigendecomposition of the
    compression as the fallback when Lanczos has not converged.  The result
    lives on the compression box; callers clip as needed.
    """
    name, f, needs_floor = _resolve_function(fn)
    h = _as_matrix(x)
    _require_selfadjoint(h)
    mat = compress(h, box).matrix
    # f(C) applied to the cyclic vector e_j (x) V_0 is column j: the entries (., j)
    m = h.m
    i0 = box.index_of(np.zeros(h.geometry.n, dtype=int))
    cyclic = np.arange(m) * box.size + i0
    if f is _reciprocal:  # the floor test's factor serves the solve
        cols = _inverse_columns(mat, _require_floor(mat, name), cyclic)
    else:  # the factor is dropped before the readout, which needs memory of its own
        if needs_floor:
            _require_floor(mat, name)
        cols = _lanczos_columns(mat, cyclic, f)
        if cols is None:
            cols = _eigen_columns(mat, cyclic, f)
    coeffs = cols.T.reshape((m, m) + box.shape).swapaxes(0, 1)
    out = TorusMatrix.from_coeffs(h.geometry, coeffs)
    # f real on the spectrum of a selfadjoint input makes f(x) selfadjoint;
    # averaging with the adjoint clears readout roundoff off the real subspace
    return _like(x, (out + out.adjoint()).scale(0.5))


def spectral_bounds(x, box):
    """Extreme eigenvalues of the compression of a selfadjoint input.

    The compressed minimum can only overestimate the true one (compression
    to a subspace raises the bottom of the spectrum), so a positive value
    is a diagnostic, not a proof of positivity.
    """
    h = _as_matrix(x)
    _require_selfadjoint(h)
    lam = np.linalg.eigvalsh(compress(h, box).matrix)
    return float(lam[0]), float(lam[-1])


def matrix_inverse(h, box):
    return functional_calculus(h, "inv", box)


def make_positive(y, c):
    """y* y + c for an element or a matrix y and a constant c > 0, in the form
    of y: positive, with compressed spectrum >= c."""
    if c <= 0:
        raise ValueError("constant must be positive")
    w = _as_matrix(y)
    x = w.adjoint().matmul(w) + TorusMatrix.identity(w.geometry, w.m).scale(c)
    return _like(y, x)


# ---------------------------------------------------------------------------
# Newton refinement in the algebra (used to tighten density power families)
# ---------------------------------------------------------------------------


def refine_inverse_sqrt(x, guess, radius, tol=1e-13, max_iter=60):
    """Polish an approximate inverse square root by Z <- Z(3 - xZ^2)/2.

    All iterates commute with x (they are series in the same element), so the
    scalar Newton-Schulz map applies verbatim.  Returns (Z, residual) with
    residual = max coefficient of xZ^2 - 1.
    """
    one = AlgebraElement.identity(x.geometry)
    Z = resize(guess, radius)
    best, best_res = Z, np.inf
    for _ in range(max_iter):
        xz2 = multiply(x, multiply(Z, Z))
        r = resize(add(one, scale(xz2, -1.0)), radius)
        res = r.max_abs()
        if res < best_res:
            best, best_res = Z, res
        if res <= tol or res >= best_res * 4.0:
            break
        Z = resize(add(Z, scale(multiply(Z, r), 0.5)), radius)
    xz2 = multiply(x, multiply(best, best))
    res = add(one, scale(xz2, -1.0)).max_abs()
    return best, res


# ---------------------------------------------------------------------------
# trace and determinant
# ---------------------------------------------------------------------------


def matrix_trace(h):
    """Entrywise matrix trace Tr(h) = sum_i h_ii, an algebra element.

    Not tracial on matrices over a noncommutative algebra: Tr(hk) and
    Tr(kh) differ in general.
    """
    return AlgebraElement(h.geometry, h.box, np.trace(h.coeffs))


def determinant(h, box):
    """det(h) = exp(Tr(log h)) for positive invertible h; a positive element."""
    logh = functional_calculus(h, "log", box)
    return functional_calculus(matrix_trace(logh), "exp", box)


def leibniz_determinant(h):
    """Permutation expansion sum_s sign(s) h_{0 s(0)} ... h_{m-1 s(m-1)}.

    Matches exp(Tr(log h)) only for self-compatible matrices, where the
    entries generate a commutative algebra.
    """
    m = h.m
    acc = None
    for perm in permutations(range(m)):
        sign = np.linalg.det(np.eye(m)[list(perm)])  # exactly +-1 for a permutation matrix
        term = h.entries[0][perm[0]]
        for i in range(1, m):
            term = multiply(term, h.entries[i][perm[i]])
        term = scale(term, sign)
        acc = term if acc is None else add(acc, term)
    return acc


def determinant_identities_check(h, box, other=None, conjugator=None):
    """Residuals of the determinant identities that hold under compatibility.

    Checks, as applicable: [det h, det h'] = 0 and det(hh') = det(h)det(h')
    for compatible commuting h, h'; det(u* h u) = det(u*u) det(h) for a
    compatible self-compatible conjugator u.  Raises HypothesisViolated when
    a commutation hypothesis fails at COMPAT_TOL, reporting the measured
    residuals.
    """
    report = {}
    det_h = determinant(h, box)
    if other is not None:
        hyp = {
            "compatible(h,h')": compatibility_residual(h, other),
            "[h,h']": (h.matmul(other) - other.matmul(h)).max_abs(),
        }
        bad = {k: v for k, v in hyp.items() if v > COMPAT_TOL}
        if bad:
            raise HypothesisViolated(f"determinant product hypotheses failed: {bad}", hyp)
        det_o = determinant(other, box)
        report["det_commutator"] = commutator(det_h, det_o).max_abs()
        det_prod = determinant(h.matmul(other), box)
        report["product_multiplicativity"] = (det_prod - multiply(det_h, det_o)).max_abs()
    if conjugator is not None:
        u = conjugator
        hyp = {
            "compatible(h,u)": compatibility_residual(h, u),
            "self_compatible(u)": self_compatibility_residual(u),
            "compatible(u,u*)": compatibility_residual(u, u.adjoint()),
        }
        bad = {k: v for k, v in hyp.items() if v > COMPAT_TOL}
        if bad:
            raise HypothesisViolated(f"determinant conjugation hypotheses failed: {bad}", hyp)
        uhu = u.adjoint().matmul(h).matmul(u)
        det_uhu = determinant(uhu, box)
        det_uu = determinant(u.adjoint().matmul(u), box)
        report["conjugation"] = (det_uhu - multiply(det_uu, det_h)).max_abs()
    return report


def block_determinant_residual(blocks, box):
    """Residual of det(blockdiag) = product of block determinants; the blocks
    must be pairwise compatible to COMPAT_TOL."""
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            r = compatibility_residual(blocks[i], blocks[j])
            if r > COMPAT_TOL:
                raise HypothesisViolated(
                    f"blocks {i},{j} not compatible (residual {r:.3e})",
                    {"compatibility": r},
                )
    full = determinant(TorusMatrix.block_diag(blocks), box)
    prod = None
    for b in blocks:
        d = determinant(b, box)
        prod = d if prod is None else multiply(prod, d)
    return (full - prod).max_abs()


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
