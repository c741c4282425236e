"""Matrices over the torus algebra and spectral calculus on compressions.

Functions of selfadjoint elements (sqrt, log, exp, powers, inverses) are
evaluated by compressing left multiplication to a finite lattice box and
reading coefficients off f(C) applied to the cyclic vector(s) e_j (x) V_0,
with C the resulting Hermitian matrix.  A matrix is first split into the
connected components of its entry graph (i and j joined when entry (i, j)
or (j, i) is not identically zero), and each diagonal block is compressed
and evaluated alone, with exact zeros between blocks; within one call a
block equal to an earlier one takes its result, as f(y (x) I_m) = f(y) (x)
I_m.  The conformal metric k^2 I_n is n equal 1 x 1 blocks, so its
functions cost one compression of dimension |B_N|, not one of n |B_N|.

The modes of the box are then split into the classes that the entries'
coefficients couple (_mode_classes: p and q joined when p - q lies in the
union of the supports).  Entry (p, q) of a compression is a coefficient at
p - q times a phase, so C is block diagonal over the classes, and so is
f(C).  _class_plan finds the classes, and when there are several it holds
the index arrays and phases from which _class_blocks builds the blocks of
every element on the box directly, bit for bit the dense compression's, so
that no dense C is built; when one class holds every mode, its block is
the whole compression.  Every block is floor-tested, f runs on the block of
the class that holds mode 0 alone, and f(x) is exactly zero off that
class.  A metric fixed by a subgroup of the T^n action (coefficients in
the plane sum(k) = 0, say) splits this way.  The Laplacian's stiffness
and Gram matrices, and so its matrix and its generalized eigensolve
(laplacian._stiffness), are built from the same class blocks, and the
Weyl quadrature (laplacian.weyl_constant) reads each node through
functional_calculus.

V_p -> V_{-p} is an automorphism at every theta, and it maps every box onto
itself, mode -p at flat index d - 1 - index(p).  When every table that a
plan is built from is even to roundoff (_is_even, against
SELFADJOINT_TOL), each compression commutes with that mode reversal J, and
each class block that J maps onto itself is split into the even and odd
halves of its even part (X + JXJ)/2 (_fold), each of about half its
modes: every dense factor and eigensolve on such a block runs on the
halves, at about a quarter of the block's cost in all.  The cyclic
vectors e_j (x) V_0 are even, so f is read on the even half alone.  Any
other block, and every block of a plan that is not even, runs whole.

Reflecting the last axis, R, and conjugating is an antilinear automorphism
where R theta R = -theta: at every theta when n = 2, and at n >= 3 when
theta_ij = 0 for i, j < n (_whole_plan).  When such a plan is even and
one class holds every mode, each half is written in a basis W that this
map fixes (_real_form), and when Y = W* X W is real to roundoff, the dense
work runs on Re Y in real arithmetic: real factors, solves and eigensolves
take about a third of the time of complex ones at the README's orders.  The test is on Y,
not on the tables, and matrices that meet in a pencil go real together
or not at all (_ClassPlan.real_forms); a half that is not real runs
complex.  Every dense kernel follows its input's dtype, and a readout on
the real basis is mapped back by W before it is unfolded (_unfold_even).

Inverses solve C for those m right-hand sides with the factor that the
floor test computes of C minus the floor (_cholesky, on numpy's LAPACK and
BLAS): L and the inverses of its diagonal blocks, so each solve is matrix
products; the solution is refined against C.  The Laplacian's pencil is
reduced to standard form with the same factor of its Gram matrix.
Every other function runs block Lanczos on the m cyclic vectors and
applies the function to the small block-tridiagonal matrix it builds; when
that readout has not settled within a fixed number of blocks, C is
diagonalized instead.  Functions singular at
0 first test C against the spectral floor by a Cholesky factorization, on
every path.  The compression of a selfadjoint element is exactly Hermitian
because the truncated Fourier basis is orthonormal and aligned with the
coefficient grid.  For an element supported in B_M and a polynomial of
degree d the readout is exact on the modes of B_{N-dM}; for analytic
functions the truncation error decays as the box grows, which the tests
measure rather than assume.

The determinant of a positive invertible matrix h over the algebra is
exp(Tr(log h)) with Tr the entrywise matrix trace.  It is multiplicative
only under commutation hypotheses; ``block_determinant_residual`` measures
the block-diagonal case, for pairwise compatible blocks.
``determinant_identities`` computes the identities that the det-check
subcommand gates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .algebra import (
    AlgebraElement,
    LatticeBox,
    TorusGeometry,
    _adjoint_coeffs,
    _check_same_geometry,
    _integer_power,
    _pi_phase,
    _resize_table,
    _twisted_matmul,
    add,
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
# an element or matrix x is selfadjoint when max|x - x*| is at most this times
# max|x|; the metric's entry checks (metrics.validate_metric) read it too
SELFADJOINT_TOL = 1e-12


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
    """The distinct coefficient tables of the entries that are not
    identically zero: k I_m gives one table, not m."""
    flat = h.coeffs.reshape((-1,) + h.coeffs.shape[2:])
    return np.unique(flat[flat.any(axis=tuple(range(1, flat.ndim)))], axis=0)


def compatibility_residual(a, b):
    """Max commutator coefficient over all entry pairs of two matrices.

    The column of a's distinct nonzero entries times the row of b's holds
    every x y, and the transpose of the reverse product every y x.
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


def _phase_tables(geometry, radius):
    """The cocycle phase of a compression to B_N in n small exact tables.

    With r, q the row and column modes, u = r + q and v = r - q, antisymmetry
    of theta gives q.theta r = u.theta v / 2, so exp(i pi q.theta r) is the
    product over i of F_i = exp(i pi/2 u_i (theta v)_i).  Table i holds F_i
    over u_i on axis i and v_j on every other axis j, each from -2N to 2N
    (index + 2N): (4N + 1)^n entries, the product over j of the
    (4N + 1)^2-entry tables exp(i pi theta_ij/2 u_i v_j), each reduced mod 2
    exactly by _pi_phase.  It is None where row i of theta vanishes, and all
    are None at theta = 0.  Swapping r and q negates v, which conjugates
    every entry bit for bit.
    """
    n = geometry.n
    span = np.arange(-2 * radius, 2 * radius + 1)
    along = [span.reshape((-1,) + (1,) * (n - 1 - axis)) for axis in range(n)]
    tables = []
    for i in range(n):
        pairs = [_pi_phase([(0.5 * geometry.theta[i, j], along[i] * along[j])]) for j in range(n)]
        pairs = [p for j, p in enumerate(pairs) if j != i and p is not None]
        table = functools.reduce(np.multiply, pairs) if pairs else None
        tables.append(None if table is None else np.broadcast_to(table, (4 * radius + 1,) * n))
    return tables


def _pair_view(grid, kinds, width):
    """Zero-copy view (a, b, rest) of a grid whose axis k < len(kinds) is
    read at a_k + b_k (kind 1) or a_k - b_k + width - 1 (kind -1), for a_k,
    b_k = 0 .. width - 1; its remaining axes are kept whole."""
    k = len(kinds)
    start = grid[tuple(slice(0 if kind > 0 else width - 1, None) for kind in kinds)]
    steps = grid.strides
    return as_strided(
        start,
        (width,) * (2 * k) + grid.shape[k:],
        steps[:k] + tuple(kind * step for kind, step in zip(kinds, steps)) + steps[k:],
        writeable=False,
    )


def _compressed_matrix(x, box):
    """The writable dense matrix of compress(x, box), owned by the caller,
    who may scale or factor it in place.

    Let a and b be the row's and column's mode indices (mode + N), a' and b'
    their first n - 1 coordinates.  Every coordinate of v = r - q but the
    last, and every coordinate of u = r + q, is a' + b' or a' - b', so the
    coefficient (a function of v) and every phase table but the last (u_i
    with i < n) are functions of a', b' and v_n = a_n - b_n alone: their
    product G is formed on that grid, a slice of rows at a time (the first
    n - 2 coordinates of a' fixed, (2N + 1)^n (4N + 1) points per slice).
    The last table depends on a', b' and u_n = a_n + b_n.  Both are read
    through zero-copy strided views over the rows and columns, so each
    entry costs one complex product, (coefficient * F_1 ... F_{n-1}) * F_n
    in that order for every entry, which keeps the compression of a
    selfadjoint element exactly Hermitian.
    """
    coeffs = x.coeffs if isinstance(x, TorusMatrix) else x.table[None, None]
    m, n, s, shape = coeffs.shape[0], box.n, box.size, box.shape
    width = box.width
    tables = _resize_table(coeffs, 2 * box.radius, n)
    *heads, last = _phase_tables(x.geometry, box.radius)
    v_kinds = (-1,) * (n - 1)
    heads = [
        _pair_view(t, v_kinds[:i] + (1,) + v_kinds[i + 1 :], width)
        for i, t in enumerate(heads) if t is not None
    ]
    if last is not None:
        last = _pair_view(last, v_kinds + (1,), width)  # (a, b) -> F_n
    entries = {
        (i, j): _pair_view(tables[i, j], v_kinds, width)
        for i in range(m) for j in range(m) if coeffs[i, j].any()
    }
    # every entry is written below, so the matrix is not zero-filled first
    mat = np.empty((m * s, m * s), dtype=complex)
    blocks = mat.reshape((m,) + shape + (m,) + shape)
    for i, j in np.ndindex(m, m):
        if (i, j) not in entries:
            blocks[(i,) + (slice(None),) * n + (j,)] = 0.0
    for at in np.ndindex(shape[: max(n - 2, 0)]):
        phase = None  # F_1 ... F_{n-1} over (a', b', v_n) on the slice
        for head in heads:
            phase = head[at] if phase is None else phase * head[at]
        for (i, j), entry in entries.items():
            g = entry[at] if phase is None else entry[at] * phase
            # (a', a_n, b', b_n) -> g at (a', b', a_n - b_n + 2N)
            rows, steps = g.ndim - n, g.strides
            g = as_strided(
                g[..., width - 1 :],
                (width,) * (rows + 1 + n),
                steps[:rows] + steps[-1:] + steps[rows:-1] + (-steps[-1],),
                writeable=False,
            )
            out = blocks[(i,) + at + (slice(None),) * (n - len(at)) + (j,)]
            if last is None:
                out[...] = g
            else:
                np.multiply(g, last[at], out=out)
    return mat


def compress(x, box):
    """Compressed left-multiplication operator of an element or matrix.

    The compression is exactly Hermitian when x is selfadjoint.  For modes
    near the box boundary the product leaves the box, so only matrix
    elements with row index in the interior are those of the full operator.

    Block (i, j) at [row, col] is entry (i, j)'s coefficient at mode(row) -
    mode(col), a mode of the difference box B_{2N}, times the cocycle phase
    exp(i pi q.theta r) of r = mode(row), q = mode(col).  The phase is the
    product of n exact tables of (4N + 1)^n entries over r + q and r - q
    (_phase_tables), built on every call; the entry's table resized to
    B_{2N} and the phase tables are read through zero-copy strided views,
    one slice of rows at a time.  No index table and no d x d phase table
    is built or kept.
    """
    mat = _compressed_matrix(x, box)
    return CompressedOperator(x.geometry, box, mat.shape[0] // box.size, mat)


def _mode_classes(box, tables):
    """Index arrays of the classes of box modes that coefficient tables couple.

    Each table's last n axes are a box table; an m x m matrix's array counts
    as the union of its entries' supports.  Modes p and q are joined when
    p - q or q - p lies in the support of one of the tables, read on the
    difference box B_{2N}, where every p - q lies; the classes are the
    connected components.  Each is ascending, and they are ordered by their
    first index.  When the support holds a unit step along every axis, the
    box is one class.  Otherwise every mode takes the least index over its
    neighbours, sweep after sweep, until no label changes: each label is
    then its class's first index.
    """
    n, r = box.n, box.radius
    support = np.zeros((4 * r + 1,) * n, dtype=bool)
    for table in tables:
        grown = _resize_table(table, 2 * r, n) != 0
        support |= grown.any(axis=tuple(range(grown.ndim - n)))
    support |= support[(slice(None, None, -1),) * n]  # joined both ways
    units = 2 * r + np.eye(n, dtype=int)  # e_i on the difference box
    if r == 0 or all(support[tuple(e)] for e in units):
        return [np.arange(box.size)]
    steps = np.argwhere(support) - 2 * r
    # one of each pair +-s: the first nonzero coordinate positive
    lead = steps[np.arange(steps.shape[0]), np.argmax(steps != 0, axis=1)]
    steps = steps[lead > 0]
    w = box.width
    pairs = [
        (tuple(slice(max(0, -o), w - max(0, o)) for o in s),  # p, with p + s in the box
         tuple(slice(max(0, o), w - max(0, -o)) for o in s))  # p + s
        for s in steps
    ]
    labels = np.arange(box.size).reshape(box.shape)
    while True:
        before = labels.copy()
        for at, shifted in pairs:
            a, b = labels[at], labels[shifted]
            np.minimum(a, b, out=a)
            np.minimum(a, b, out=b)
        if np.array_equal(before, labels):
            break
    labels = labels.ravel()
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


@dataclass(frozen=True, eq=False)
class _ClassPlan:
    """What the class blocks of every element on one box share.

    Over the pairs (p, q) of modes of one class, class after class and each
    class's pairs row-major: index, the raveled v + 2N (v = p - q) on the
    difference box, where the coefficient of entry (p, q) is read; head, the
    phase factors F_1 ... F_{n-1} of _phase_tables multiplied in their
    order; last, F_n.  head or last is None where its tables are, and all
    three are None when one class holds every mode.  even: every table of
    the plan is even (_is_even), so every compression built on it commutes
    with the mode reversal p -> -p.  real: the plan is even, one class holds
    every mode, and theta_ij = 0 for i, j < n, so that the reflection R of
    the last axis maps theta to -theta and, composed with conjugation, may
    fix the halves of the class (real_forms).
    """

    box: LatticeBox
    classes: list
    index: object
    head: object
    last: object
    even: bool
    real: bool

    def halves(self, c, block, m):
        """The blocks that dense work on the block of class c runs on: its
        even and odd halves (_fold) when the plan is even and p -> -p maps
        the class onto itself, else [block]."""
        idx = self.classes[c]
        if self.even and np.array_equal(idx[::-1], self.box.size - 1 - idx):
            return _fold(block, m)
        return [block]

    def real_forms(self, c, mats, m):
        """The real symmetric forms (_real_form) of mats, halves of one
        parity of class c's blocks (halves), when the plan is real and each
        is real to roundoff; else mats, unchanged.  Matrices whose pencil
        or product is taken go in one call: all of them go real, or none."""
        if not self.real:
            return mats
        odd = mats[0].shape[0] < m * ((self.box.size + 1) // 2)
        forms = [_real_form(x, m, self.box.width, odd) for x in mats]
        return mats if any(y is None for y in forms) else forms


def _is_even(tables, n):
    """Whether every table, whose last n axes are a box table, is even to
    roundoff: max|t - t(-.)| <= SELFADJOINT_TOL max|t|."""
    flip = (Ellipsis,) + (slice(None, None, -1),) * n
    return all(
        np.max(np.abs(t - t[flip]), initial=0.0) <= SELFADJOINT_TOL * np.max(np.abs(t), initial=0.0)
        for t in tables
    )


_HALF = math.sqrt(0.5)


def _fold(block, m):
    """[E, O]: the even and odd halves of the even part S = (X + JXJ)/2 of
    an m b x m b block X over a class that p -> -p maps onto itself, with
    J = I_m (x) the reversal of the class's b modes; [E] when b = 1.

    On a centred box mode -p sits at flat index d - 1 - index(p), so in an
    ascending class it sits at b - 1 - i when p sits at i.  In the
    orthonormal bases (e_i + e_{b-1-i})/sqrt 2, i < h = b // 2, with e_h
    when b is odd (the class of mode 0, which sits at h), and
    (e_i - e_{b-1-i})/sqrt 2, i < h, of each entry, S is E (+) O:
    E[i, j] = S[i, j] + S[i, b-1-j] with row and column h divided by
    sqrt 2, and O[i, j] = S[i, j] - S[i, b-1-j].  Both are read off the
    quarters A = X[i, j], B = X[i, b-1-j], C = X[b-1-i, j] and
    D = X[b-1-i, b-1-j] of X as ((B + C) + A) + D and (A - (B + C)) + D,
    halved.  At (j, i) of a Hermitian X the quarters are the conjugates of
    A, C, B and D at (i, j), and B + C = C + B bit for bit, so both are
    exactly Hermitian.  They are new arrays, built in O(b^2) with no other
    temporary.  On a plan that is real (_ClassPlan.real_forms) each is
    then written in the real basis of _real_form.
    """
    b = block.shape[0] // m
    h, e = b // 2, (b + 1) // 2
    x = block.reshape(m, b, m, b)
    flip = x[:, ::-1, :, ::-1]
    a, d = x[:, :e, :, :e], flip[:, :e, :, :e]
    even = x[:, :e, :, ::-1][..., :e] + flip[:, :e, :, ::-1][..., :e]  # B + C
    odd = np.subtract(a[:, :h, :, :h], even[:, :h, :, :h])
    odd += d[:, :h, :, :h]
    even += a
    even += d
    even *= 0.5
    odd *= 0.5
    if b % 2:
        even[:, h] *= _HALF
        even[..., h] *= _HALF
    return [even.reshape(m * e, m * e), odd.reshape(m * h, m * h)][: 1 + (h > 0)]


def _real_form(x, m, w, odd):
    """Re Y for Y = (I_m (x) W)* X (I_m (x) W), W the real basis of a half X
    (_fold) of the whole box of width w = 2N + 1, even or odd; None when
    max|Im Y| > SELFADJOINT_TOL max|Re Y|.

    Let R reflect the last axis.  When R theta R = -theta and every
    coefficient has t(Rv) = conj t(v), each compression has X[Rp, Rq] =
    conj X[p, q], so Y is real; R flips the sign of p_n q_n, so a sum of
    compressions weighted by p_i q_j need not be, and the test is on Y.
    In flat order a half holds full rows of w modes, then a tail t of the
    centre row: p_n <= 0 on the even half, p_n < 0 on the odd one.  R pairs
    entry j < N of a row with j' = w - 1 - j, fixes its centre, and maps
    the tail onto itself, with sign + on the even half and - on the odd
    one.  W's columns are u = (e_j + e_j')/sqrt 2 at j, the centre e_N,
    v = i (e_j - e_j')/sqrt 2 at j', and e_t, or i e_t on the odd half.
    Mode 0, the even half's last entry, is fixed.  Between rows, Y is read
    off the quarters A = X[j, k], B = X[j, k'], C = X[j', k] and
    D = X[j', k'] of their views as (A + D) +- (B + C) at (u, u) and (v, v)
    and i((A - D) -+ (B - C)) at (u, v) and (v, u), halved, and the centre
    row and column divided by sqrt 2 once more; (v, u) is written as the
    transpose of (u, v), and the tail's rows as that of its columns, which
    is what they are when X is Hermitian.  Y is a new array, built in
    O(s^2) with two temporaries of a quarter of X.
    """
    s, n = x.shape[0] // m, (w - 1) // 2
    f = s - n - (not odd)  # the full rows; the tail follows
    y = np.empty(x.shape)
    x4, y4 = x.reshape(m, s, m, s), y.reshape(m, s, m, s)
    grid = (m, f // w, w, m, f // w, w)
    ff, yff = x4[:, :f, :, :f].reshape(grid), y4[:, :f, :, :f].reshape(grid)
    rev = ff[:, :, ::-1]
    a, b = ff[:, :, : n + 1, ..., : n + 1], ff[:, :, : n + 1, ..., ::-1][..., : n + 1]
    c, d = rev[:, :, : n + 1, ..., : n + 1], rev[:, :, : n + 1, ..., ::-1][..., : n + 1]
    flip = yff[:, :, ::-1]
    ad, bc = a + d, b + c
    vv = ad[:, :, :n, ..., :n] - bc[:, :, :n, ..., :n]
    uu = np.add(ad, bc, out=ad)
    yff[:, :, : n + 1, ..., : n + 1] = uu.real
    flip[:, :, :n, ..., ::-1][..., :n] = vv.real
    off = max(_max_abs(uu.imag), _max_abs(vv.imag))
    uv = np.subtract(a[..., :n], d[..., :n], out=ad[..., :n])
    uv -= np.subtract(b[..., :n], c[..., :n], out=bc[..., :n])
    top = yff[:, :, : n + 1, ..., ::-1][..., :n]
    np.negative(uv.imag, out=top)
    flip[:, :, :n, ..., : n + 1] = top.transpose(3, 4, 5, 0, 1, 2)  # (v, u) is (u, v)'s transpose
    off = 0.5 * max(off, _max_abs(uv.real))
    # the tail's columns of the full rows; its rows are their transpose
    ft = x4[:, :f, :, f:].reshape(grid[:3] + (m, s - f)) * (1j if odd else 1)
    yft = y4[:, :f, :, f:].reshape(ft.shape)
    top, bottom = ft[:, :, : n + 1], ft[:, :, ::-1][:, :, : n + 1]
    ss, dd = top + bottom, top[:, :, :n] - bottom[:, :, :n]
    yft[:, :, : n + 1] = ss.real
    yft[:, :, ::-1][:, :, :n] = dd.imag
    y4[:, :f] *= 0.5  # the full rows whole, contiguous: the tail columns need 2 sqrt 1/2 more
    yft *= 2.0 * _HALF
    off = max(off, _HALF * _max_abs(ss.imag), _HALF * _max_abs(dd.real))
    yff[:, :, n] *= _HALF
    yff[..., n] *= _HALF
    yft[:, :, n] *= _HALF
    y4[:, f:, :, :f] = y4[:, :f, :, f:].transpose(2, 3, 0, 1)
    tail = x4[:, f:, :, f:]
    y4[:, f:, :, f:] = tail.real
    off = max(off, _max_abs(tail.imag))
    return None if off > SELFADJOINT_TOL * _max_abs(y) else y


def _max_abs(a):
    """max|a| of a real array, read without a temporary."""
    return float(max(np.max(a, initial=0.0), -np.min(a, initial=0.0)))


def _unfold_even(cols, m, b, w):
    """The columns on the m b modes of a class of the columns cols on its
    even half's basis (_fold): entry i, b - 1 - i gets cols[i] / sqrt 2
    each, and the centre of an odd class its own.  Real cols are on the
    real basis W of the half (_real_form), and are mapped back by W
    first: entries j, j' of a full row of w modes get (u +- i v)/sqrt 2."""
    h, e = b // 2, (b + 1) // 2
    out = np.empty((m, b, cols.shape[1]), dtype=complex)
    out[:, :e] = cols.reshape(m, e, -1)
    if not np.iscomplexobj(cols):
        n = (w - 1) // 2
        f = e - n - 1  # the full rows
        rows, got = (a[:, :f].reshape(m, f // w, w, -1) for a in (out, cols.reshape(m, e, -1)))
        u, v = got[:, :, :n], 1j * got[:, :, ::-1][:, :, :n]
        rows[:, :, :n] = (u + v) * _HALF
        rows[:, :, ::-1][:, :, :n] = (u - v) * _HALF
    out[:, :h] *= _HALF
    out[:, e:] = out[:, :h][:, ::-1]
    return out.reshape(m * b, -1)


def _whole_plan(geometry, box, tables):
    """The _ClassPlan of one class that holds every mode of the box: even
    when every table is (_is_even), and real when it is even and
    theta_ij = 0 for i, j < n."""
    even = _is_even(tables, box.n)
    real = even and not geometry.theta[:-1, :-1].any()
    return _ClassPlan(box, [np.arange(box.size)], None, None, None, even, real)


def _class_plan(geometry, box, tables):
    """The _ClassPlan of the classes of modes of the box that the coefficient
    tables couple (_mode_classes), even when every table is (_is_even), and
    real when one class holds every mode (_whole_plan).

    Each phase table is read at its own raveled index: table i holds u_i on
    axis i where the others hold v, and u_i - v_i = 2 q_i.
    """
    whole = _whole_plan(geometry, box, tables)
    classes = _mode_classes(box, tables)
    if len(classes) == 1:
        return whole
    n, r = box.n, box.radius
    modes = box.modes()
    rows = np.concatenate([np.repeat(idx, idx.size) for idx in classes])
    cols = np.concatenate([np.tile(idx, idx.size) for idx in classes])
    steps = (4 * r + 1) ** np.arange(n - 1, -1, -1)
    index = np.full(rows.size, 2 * r * steps.sum())
    for axis in range(n):  # one axis at a time, to keep the temporaries small
        index += (modes[rows, axis] - modes[cols, axis]) * steps[axis]
    del rows
    factors = [
        None if t is None
        else np.ascontiguousarray(t).ravel()[index + 2 * steps[i] * modes[cols, i]]
        for i, t in enumerate(_phase_tables(geometry, r))
    ]
    heads = [f for f in factors[:-1] if f is not None]
    head = functools.reduce(np.multiply, heads) if heads else None
    return _ClassPlan(box, classes, index, head, factors[-1], whole.even, False)


def _class_blocks(x, plan):
    """The diagonal blocks of the compression of an element or matrix over
    the classes of the plan, writable and owned by the caller.

    The block of a class of modes P is the compression's block on the rows
    e_i (x) V_p, p in P, with i slowest: bit for bit the same entries, each
    entry's coefficient at p - q times the phase, multiplied as
    (coefficient * F_1 ... F_{n-1}) * F_n, and 0 for an entry that is
    identically zero.  With one class it is the whole _compressed_matrix.
    """
    if plan.index is None:
        return [_compressed_matrix(x, plan.box)]
    coeffs = x.coeffs if isinstance(x, TorusMatrix) else x.table[None, None]
    m, box = coeffs.shape[0], plan.box
    tables = _resize_table(coeffs, 2 * box.radius, box.n).reshape(m, m, -1)
    flat = np.zeros((m, m, plan.index.size), dtype=complex)
    for i, j in np.ndindex(m, m):
        if coeffs[i, j].any():
            entry = np.take(tables[i, j], plan.index, out=flat[i, j])
            if plan.head is not None:
                entry *= plan.head
            if plan.last is not None:
                entry *= plan.last
    blocks, at = [], 0
    for idx in plan.classes:
        b = idx.size
        part = flat[:, :, at : at + b * b].reshape(m, m, b, b)
        blocks.append(part[0, 0] if m == 1 else part.transpose(0, 2, 1, 3).reshape(m * b, m * b))
        at += b * b
    return blocks


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


def _require_selfadjoint(x, what):
    """Refuse an element or matrix x unless max|x - x*| <= SELFADJOINT_TOL max|x|."""
    h = _as_matrix(x)
    resid = h.selfadjoint_residual()
    if resid > SELFADJOINT_TOL * h.max_abs():
        raise NonSelfadjointInput(
            f"{what} not selfadjoint (residual {resid:.3e})", {"selfadjoint_residual": resid}
        )


def _require_commuting(k, g):
    """max|[k, g]| of an element k and a matrix g; HypothesisViolated above
    COMPAT_TOL max|k| max|g|."""
    comm = compatibility_residual(TorusMatrix.scalar(k, 1), g)
    if comm > COMPAT_TOL * k.max_abs() * g.max_abs():
        raise HypothesisViolated(f"[k, g] != 0 (residual {comm:.3e})", {"[k,g]": comm})
    return comm


def _floor_violation(name, lam_min):
    return SpectralFloorViolation(
        f"{name}: compressed spectrum reaches {lam_min:.3e} < floor {SPECTRAL_FLOOR:.1e}"
    )


def _require_floor(mats, name):
    """Refuse unless the spectrum of every Hermitian matrix of mats lies above
    SPECTRAL_FLOOR; else return the factor (_cholesky) of the last one minus
    floor I, C - floor I = L L*.

    Factoring C - floor I (_cholesky) is the test: it succeeds exactly when
    the spectrum of C lies above the floor.  Each matrix is factored in a
    shifted copy of its own, and each factor but the last is dropped at
    once, so one copy is live beside mats at a time.  lambda_min, the least
    over all of mats, is computed only for the refusal's message.
    """
    *others, last = mats
    try:
        for mat in others:
            _shifted_factor(mat)
        return _shifted_factor(last)
    except np.linalg.LinAlgError:
        lam_min = min(float(np.linalg.eigvalsh(m)[0]) for m in mats)
        raise _floor_violation(name, lam_min) from None


def _shifted_factor(mat):
    """The factor (_cholesky) of mat - floor I, factored in a copy of mat."""
    shifted = np.array(mat)
    shifted.flat[:: mat.shape[0] + 1] -= SPECTRAL_FLOOR
    return _cholesky(shifted)


# rows and columns per diagonal block of a factor, and the least order that
# _cholesky factors by blocks: below it numpy's potrf alone is faster
_FACTOR_COLS = 32
_BLOCKED_ORDER = 256


def _cholesky(a):
    """The factor (L, blocks) of a Hermitian matrix a = L L*: its lower
    Cholesky factor L, and (lo, hi, inverse of L[lo:hi, lo:hi]) for each
    diagonal block of _FACTOR_COLS rows, in order; a
    numpy.linalg.LinAlgError when a is not positive definite.

    Below order _BLOCKED_ORDER L is numpy's potrf (numpy.linalg.cholesky),
    a new array, whose blocks are then inverted.  numpy's potrf copies its
    input, and at orders 441 and 882 it takes 1.4 to 2 times as long as
    scipy's, so a larger a is overwritten by L, left-looking, a block of
    columns at a time: each takes off the product of its rows of the factor
    found so far with the block's own rows of it (one matrix product); its
    diagonal block is factored by numpy's potrf, which fails when a is not
    positive definite, and inverted; the rows below are multiplied by the
    adjoint of that inverse; and the entries right of the block, above the
    diagonal, are zeroed.
    """
    d = a.shape[0]
    low = np.linalg.cholesky(a) if d < _BLOCKED_ORDER else a
    blocks = []
    for lo in range(0, d, _FACTOR_COLS):
        hi = min(lo + _FACTOR_COLS, d)
        if low is a:
            col = a[lo:, lo:hi]
            col -= a[lo:, :lo] @ a[lo:hi, :lo].conj().T
            col[: hi - lo] = np.linalg.cholesky(col[: hi - lo])
        inv = np.linalg.inv(low[lo:hi, lo:hi])
        blocks.append((lo, hi, inv))
        if low is a:
            col[hi - lo :] = col[hi - lo :] @ inv.conj().T
            a[lo:hi, hi:] = 0.0
    return low, blocks


def _forward(factor, x):
    """Overwrite x by L^{-1} x for the factor (L, blocks) of _cholesky, a
    block of rows at a time: each takes off the product of its part of L
    with the part of the solution already found, and is multiplied by the
    inverse of its diagonal block, so the solve is matrix products."""
    low, blocks = factor
    for lo, hi, inv in blocks:
        x[lo:hi] -= low[lo:hi, :lo] @ x[:lo]
        x[lo:hi] = inv @ x[lo:hi]
    return x


def _cholesky_solve(factor, rhs):
    """C^{-1} rhs from the factor (L, blocks) of C = L L* (_cholesky).

    L z = rhs is solved forward (_forward) and L* x = z backward, by the
    same blocks, each multiplied by the adjoint of its inverse.  L* is read
    through the transposed view of L, conjugating only the small vectors,
    so no d x d temporary is made.
    """
    low, blocks = factor
    x = _forward(factor, np.array(rhs, dtype=np.result_type(low, rhs)))
    for lo, hi, inv in reversed(blocks):
        # (L*)[lo:hi, hi:] x[hi:] is the conjugate of L[hi:, lo:hi]^T conj(x[hi:])
        x[lo:hi] -= (low[hi:, lo:hi].T @ x[hi:].conj()).conj()
        x[lo:hi] = inv.conj().T @ x[lo:hi]
    return x


def _reduced_pencil(k, g):
    """The standard form L^{-1} K L^{-*} of the Hermitian pencil
    K v = lambda G v, G = L L* (_cholesky), written over k: a Hermitian
    matrix with the pencil's eigenvalues; a numpy.linalg.LinAlgError when g
    is not positive definite.

    This is the reduction of LAPACK's hegvd (hegst), which numpy lacks.
    From order _BLOCKED_ORDER, g is overwritten by L.  K is overwritten by
    L^{-1} K (_forward), and then by L^{-1} K L^{-*}, by the same blocks of
    columns, forward: each takes off the product of its part of L with the
    part already reduced, and is multiplied by the adjoint of its diagonal
    block's inverse, so no d x d temporary is made.  The result is
    Hermitian, so the column pass reduces each block column from its
    diagonal block down, which needs only rows already reduced, and mirrors
    the part below into the block row right of the diagonal, which cuts the
    reduction's products by a third.
    """
    low, blocks = factor = _cholesky(g)
    _forward(factor, k)
    for lo, hi, inv in blocks:
        col = k[lo:, lo:hi]
        col -= k[lo:, :lo] @ low[lo:hi, :lo].conj().T
        col[...] = col @ inv.conj().T
        k[lo:hi, hi:] = col[hi - lo :].conj().T
    return k


def _unit_columns(d, cyclic):
    """The real d x m block E of the unit columns e_j at the cyclic rows."""
    e = np.zeros((d, len(cyclic)))
    e[cyclic, np.arange(len(cyclic))] = 1.0
    return e


# refinement steps of an inverse before C itself is factored instead
_REFINE_STEPS = 8


def _inverse_columns(mat, shifted_factor, cyclic):
    """Columns y = C^{-1} e_j at the cyclic rows, from the factor of
    C - floor I that _require_floor returns (_cholesky_solve).

    C y = e is (C - floor I) y = e - floor y, so y <- (C - floor I)^{-1}(e -
    floor y) cuts the error by floor / (lambda_min - floor) per step: two
    steps reach roundoff unless lambda_min is within a few orders of the
    floor.  Stops once a step moves y by at most its roundoff; when that
    has not happened in _REFINE_STEPS steps, C itself is factored by
    _cholesky and solved the same way.
    """
    e = _unit_columns(mat.shape[0], cyclic)
    y = _cholesky_solve(shifted_factor, e)
    for _ in range(_REFINE_STEPS):
        step = _cholesky_solve(shifted_factor, e - SPECTRAL_FLOOR * y) - y
        y += step
        if np.max(np.abs(step)) <= np.finfo(float).eps * np.max(np.abs(y)):
            return y
    return _cholesky_solve(_cholesky(np.array(mat)), e)


def _eigen_columns(mat, cyclic, f):
    """Columns f(C) e_j at the cyclic rows, from the eigendecomposition of C."""
    lam, vecs = np.linalg.eigh(mat)
    fvals = np.asarray(f(lam), dtype=mat.dtype)
    cols = np.empty((mat.shape[0], len(cyclic)), dtype=mat.dtype)
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
    basis = np.zeros((d, m * blocks), dtype=mat.dtype)
    basis[:, :m] = _unit_columns(d, cyclic)
    t = np.zeros((m * blocks, m * blocks), dtype=mat.dtype)
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
        fvals = np.asarray(f(lam), dtype=mat.dtype)
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


def _components(h):
    """Index arrays of the connected components of h's entry graph, in which
    i and j are joined when entry (i, j) or (j, i) is not identically zero."""
    linked = h.coeffs.reshape(h.m, h.m, -1).any(axis=2)
    reach = linked | linked.T | np.eye(h.m, dtype=bool)
    for _ in range(h.m.bit_length()):  # paths of up to 2^k steps after k squarings
        reach = reach @ reach
    # row i is i's component; keep it where i is the component's first index
    return [np.flatnonzero(row) for i, row in enumerate(reach) if row.argmax() == i]


def _block_calculus(h, box, name, f, needs_floor):
    """Coefficient array (m, m, *box.shape) of f(h) read off the Hermitian
    compression C of h on the box, class by class over the modes that h's
    entries couple: the blocks of C over the classes (_class_blocks), or
    C itself when one class holds every mode.

    Every block is floor-tested; then the solve (the inverse) or the Lanczos
    readout runs on the block of the class that holds mode 0 alone, at its
    rows of the cyclic vectors e_j (x) V_0.  C is block diagonal, so f(C)
    is, and each e_j (x) V_0 lies in that class: its columns hold every
    nonzero of f(C) e_j, and the other rows are exactly zero.  When h's
    entries are even (_ClassPlan.halves), each block that p -> -p maps onto
    itself is split into its even and odd halves (_fold), and both are
    floor-tested; each e_j (x) V_0 is even, so the solve or the readout
    runs on the even half of mode 0's block alone, and its columns are
    unfolded onto the class (_unfold_even).  Each half that is real on the
    basis of _real_form (_ClassPlan.real_forms) runs in real arithmetic,
    and its columns are mapped back to the half's basis first.
    """
    m = h.m
    plan = _class_plan(h.geometry, box, [h.coeffs])
    # the public compress: forms-n2's required calculus.compress span fires only here
    blocks = [compress(h, box).matrix] if plan.index is None else _class_blocks(h, plan)
    i0 = box.index_of(np.zeros(box.n, dtype=int))
    home = next(c for c, idx in enumerate(plan.classes) if i0 in idx)
    idx = plan.classes[home]
    halves = [plan.halves(c, blk, m) for c, blk in enumerate(blocks)]
    del blocks
    halves = [[plan.real_forms(c, [x], m)[0] for x in pair] for c, pair in enumerate(halves)]
    # the even half, or the whole block, holds the cyclic vectors; mode 0
    # sits at the same place in it and in the class
    mat = halves[home][0]
    cyclic = np.arange(m) * (mat.shape[0] // m) + np.searchsorted(idx, i0)
    tested = [x for c, pair in enumerate(halves) if c != home for x in pair]
    tested += halves[home][::-1]  # mat's factor last
    if f is _reciprocal:  # the floor test's factor serves the solve
        cols = _inverse_columns(mat, _require_floor(tested, name), cyclic)
    else:
        # the factor is dropped before the readout, which needs memory of its own
        if needs_floor:
            _require_floor(tested, name)
        cols = _lanczos_columns(mat, cyclic, f)
        if cols is None:
            cols = _eigen_columns(mat, cyclic, f)
    if mat.shape[0] < m * idx.size:
        cols = _unfold_even(cols, m, idx.size, box.width)
    # f(C) applied to the cyclic vector e_j (x) V_0 is column j: the entries (., j)
    out = np.zeros((m * box.size, m), dtype=complex)
    out[(np.arange(m)[:, None] * box.size + idx).ravel()] = cols
    return out.T.reshape((m, m) + box.shape).swapaxes(0, 1)


def functional_calculus(x, fn, box):
    """f(x) for selfadjoint x via the Hermitian compression on the box.

    x is an element or a matrix over the algebra (an element is the 1 x 1
    case, and the result has the form of x).  fn is one of "sqrt",
    "inv_sqrt", "log", "exp", "inv" or ("pow", s); any other spec is a
    ValueError.  A matrix is split into the connected components of its
    entry graph (i and j joined when entry (i, j) or (j, i) is not
    identically zero); f acts on each diagonal block alone, the entries
    between blocks of f(x) are exactly zero, and a block equal to an earlier
    one of the same call takes that block's result (f(y (x) I) = f(y) (x) I).
    Each block's compression is split further over the classes of modes its
    coefficients couple, and f is read on the class of mode 0 alone: f(x) is
    exactly zero on the modes of every other class.  Functions singular at 0
    refuse inputs whose compressed spectrum dips below SPECTRAL_FLOOR,
    tested by a Cholesky factorization of every class block minus the floor;
    the refusal names the least eigenvalue over all of them.  The inverse
    (also ("pow", -1)) solves for the cyclic columns with that factor,
    refined against the compression; every other function runs block
    Lanczos on the cyclic vectors, with the dense eigendecomposition of the
    class block as the fallback when Lanczos has not converged.  The result
    lives on the compression box; callers clip as needed.
    """
    name, f, needs_floor = _resolve_function(fn)
    h = _as_matrix(x)
    _require_selfadjoint(h, f"{name} input")
    coeffs = np.zeros((h.m, h.m) + box.shape, dtype=complex)
    done = []  # (block, its result) of each distinct block computed so far
    for component in _components(h):
        at = np.ix_(component, component)
        block = h.coeffs[at]
        result = next((r for b, r in done if np.array_equal(b, block)), None)
        if result is None:
            result = _block_calculus(
                TorusMatrix.from_coeffs(h.geometry, block), box, name, f, needs_floor
            )
            done.append((block, result))
        coeffs[at] = result
    out = TorusMatrix.from_coeffs(h.geometry, coeffs)
    # f real on the spectrum of a selfadjoint input makes f(x) selfadjoint;
    # averaging with the adjoint clears readout roundoff off the real subspace
    return _like(x, (out + out.adjoint()).scale(0.5))


def spectral_bounds(x, box):
    """Extreme eigenvalues of the compression of a selfadjoint input.

    The compressed minimum can only overestimate the true one (compression
    to a subspace raises the bottom of the spectrum), so a positive value
    is a diagnostic, not a proof of positivity.  The compression is one
    block over every mode (_whole_plan), split as the plan says: into its
    even and odd halves (_ClassPlan.halves) when the input's entries are
    even, each real where it is real (_ClassPlan.real_forms), and each
    runs one eigvalsh; otherwise it runs whole.
    """
    h = _as_matrix(x)
    _require_selfadjoint(h, "spectral bounds input")
    plan = _whole_plan(h.geometry, box, [h.coeffs])
    halves = plan.halves(0, compress(h, box).matrix, h.m)
    lam = np.concatenate([np.linalg.eigvalsh(plan.real_forms(0, [x], h.m)[0]) for x in halves])
    return float(lam.min()), float(lam.max())


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


_NEWTON_TOL = 1e-13


def refine_inverse_sqrt(x, guess, radius, max_iter=60):
    """Polish an approximate inverse square root by Z <- Z(3 - xZ^2)/2.

    All iterates commute with x (they are series in the same element), so the
    scalar Newton-Schulz map applies verbatim.  It stops at a residual of
    _NEWTON_TOL, or when the residual grows.  Returns (Z, residual) with
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
        if res <= _NEWTON_TOL or res >= best_res * 4.0:
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


def determinant_identities(metric, k, box):
    """Residuals of the determinant identities of a metric, on the box.

    metric is a RiemannianMetric g (m x m) and k an element.  In this order:
    det(t g) = t^m det(g) at t = 2, det(g^s) = det(g)^s at s = 1/2,
    det(k I_m) = k^m, and, when g is self-compatible (its entries then
    generate a commutative algebra), det(g) against the Leibniz expansion.
    The report's keys are the gate names of the det-check subcommand.
    """
    g = metric.matrix
    m = g.m
    d = determinant(g, box)
    t = 2.0
    report = {
        "scaling det(t g) = t^m det(g)": (
            determinant(g.scale(t), box) - scale(d, t**m)
        ).max_abs()
    }
    gs = functional_calculus(g, ("pow", 0.5), box)
    report["power det(g^s) = det(g)^s"] = (
        determinant(gs, box) - functional_calculus(d, ("pow", 0.5), box)
    ).max_abs()
    report["scalar matrix det(k I_m) = k^m"] = (
        determinant(TorusMatrix.scalar(k, m), box) - _integer_power(k, m)
    ).max_abs()
    if metric.is_self_compatible():
        report["self-compatible Leibniz expansion"] = (d - leibniz_determinant(g)).max_abs()
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
