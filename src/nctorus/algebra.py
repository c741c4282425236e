"""Truncated Fourier model of the smooth noncommutative torus.

An element is a finite table of Fourier coefficients over the lattice box
B_N = {k in Z^n : |k_i| <= N}, expanded in the Weyl-symmetrized unitaries
V_k.  These satisfy

    V_p V_q = sigma(p, q) V_{p+q},      sigma(p, q) = exp(i*pi * q.theta p),
    V_k* = V_{-k},   tau(V_k) = delta_{k,0},   d_j V_k = i k_j V_k,

with theta a real antisymmetric n x n matrix.  The phase sigma is a group
2-cocycle, so the product is associative, and sigma(p, q)/sigma(q, p) =
exp(2i*pi * q.theta p) reproduces the usual commutation phases of the
generating unitaries.  The ordered-monomial convention (U_1^{k_1} ...
U_n^{k_n}) differs from V_k by a per-mode phase; converters are provided.

One kernel computes every product, of elements and of matrices over the
algebra alike, as one GEMM over lattice rows (a row fixes every coordinate
but the last).  Its multiply-adds are the nonzero rows of both operands,
times the nonzero last-axis columns of the contracted operand, times the
output's last-axis width, times the matrix sizes; its Python steps are one
per nonzero row of the contracted operand.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GeometryMismatch, SeriesNotConverged


def _as_theta(n, theta):
    t = np.array(theta, dtype=float)
    if t.shape != (n, n):
        raise ValueError(f"theta must be {n}x{n}, got {t.shape}")
    if np.any(np.diagonal(t) != 0.0):
        raise ValueError("theta must have zero diagonal")
    if not np.array_equal(t, -t.T):
        raise ValueError("theta must be antisymmetric")
    t.setflags(write=False)
    return t


@dataclass(frozen=True, eq=False)
class TorusGeometry:
    """Dimension and deformation matrix of a noncommutative torus."""

    n: int
    theta: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("torus dimension must be >= 2")
        object.__setattr__(self, "theta", _as_theta(self.n, self.theta))

    @classmethod
    def two_torus(cls, t12):
        """2-torus with a single deformation parameter theta_{12}."""
        return cls(2, [[0.0, t12], [-t12, 0.0]])

    @classmethod
    def from_upper(cls, n, entries):
        """Build theta from its strictly upper-triangular entries, row by row."""
        t = np.zeros((n, n))
        it = iter(entries)
        for i in range(n):
            for j in range(i + 1, n):
                v = float(next(it))
                t[i, j] = v
                t[j, i] = -v
        return cls(n, t)

    @property
    def is_commutative(self):
        return not np.any(self.theta)

    @property
    def digest(self):
        h = hashlib.sha1()
        h.update(np.int64(self.n).tobytes())
        h.update(np.ascontiguousarray(self.theta, dtype="<f8").tobytes())
        return h.digest()

    def __eq__(self, other):
        return (
            isinstance(other, TorusGeometry)
            and self.n == other.n
            and np.array_equal(self.theta, other.theta)
        )

    def __hash__(self):
        return hash((self.n, self.digest))

    def __repr__(self):
        return f"TorusGeometry(n={self.n}, theta={self.theta.tolist()})"


@dataclass(frozen=True, eq=False)
class LatticeBox:
    """Lattice cube B_N = {k : |k_i| <= N} with a fixed linear enumeration.

    Modes are enumerated in C order over the offsets k + N, i.e. the last
    axis varies fastest; the enumeration is a bijection onto
    {0, ..., (2N+1)^n - 1} and is identical across runs.
    """

    n: int
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("box radius must be >= 0")
        if self.n < 1:
            raise ValueError("box dimension must be >= 1")

    @property
    def width(self):
        return 2 * self.radius + 1

    @property
    def shape(self):
        return (self.width,) * self.n

    @property
    def size(self):
        return self.width**self.n

    def modes(self):
        """All lattice points as an (size, n) int array in enumeration order."""
        axes = [np.arange(-self.radius, self.radius + 1)] * self.n
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def index_of(self, k):
        k = np.asarray(k, dtype=int)
        if np.any(np.abs(k) > self.radius):
            raise IndexError(f"mode {k.tolist()} outside box of radius {self.radius}")
        return int(np.ravel_multi_index(tuple(k + self.radius), self.shape))

    def contains(self, k):
        return bool(np.all(np.abs(np.asarray(k, dtype=int)) <= self.radius))

    def __eq__(self, other):
        return (
            isinstance(other, LatticeBox)
            and self.n == other.n
            and self.radius == other.radius
        )

    def __hash__(self):
        return hash((self.n, self.radius))


def _check_same_geometry(u, v):
    if u.geometry != v.geometry:
        raise GeometryMismatch("operands live on different tori")


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element of the truncated torus algebra: a coefficient table over a box."""

    geometry: TorusGeometry
    box: LatticeBox
    table: np.ndarray

    def __post_init__(self):
        if self.box.n != self.geometry.n:
            raise ValueError("box dimension disagrees with geometry")
        t = np.array(self.table, dtype=complex)
        if t.shape != self.box.shape:
            raise ValueError(f"table shape {t.shape} != box shape {self.box.shape}")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, geometry, radius):
        box = LatticeBox(geometry.n, radius)
        return cls(geometry, box, np.zeros(box.shape, dtype=complex))

    @classmethod
    def basis(cls, geometry, k, radius=None):
        """The unitary V_k on a box containing k."""
        k = np.asarray(k, dtype=int)
        if radius is None:
            radius = int(np.max(np.abs(k))) if k.size else 0
        box = LatticeBox(geometry.n, radius)
        table = np.zeros(box.shape, dtype=complex)
        table[tuple(k + radius)] = 1.0
        return cls(geometry, box, table)

    @classmethod
    def identity(cls, geometry, radius=0):
        return cls.basis(geometry, np.zeros(geometry.n, dtype=int), radius=radius)

    @classmethod
    def from_modes(cls, geometry, modes, radius=None):
        """Build from {mode tuple: coefficient} pairs."""
        items = list(modes.items())
        if radius is None:
            radius = max(
                (int(np.max(np.abs(np.asarray(k)))) for k, _ in items), default=0
            )
        box = LatticeBox(geometry.n, radius)
        table = np.zeros(box.shape, dtype=complex)
        for k, c in items:
            table[tuple(np.asarray(k, dtype=int) + radius)] = c
        return cls(geometry, box, table)

    # -- cheap accessors ---------------------------------------------------

    def coefficient(self, k):
        k = np.asarray(k, dtype=int)
        if not self.box.contains(k):
            return 0.0 + 0.0j
        return complex(self.table[tuple(k + self.box.radius)])

    def vector(self):
        """Coefficients flattened in the box enumeration order."""
        return self.table.ravel()

    def max_abs(self):
        return float(np.max(np.abs(self.table))) if self.table.size else 0.0

    def norm_l1(self):
        return float(np.sum(np.abs(self.table)))

    def norm_l2(self):
        return float(np.sqrt(np.sum(np.abs(self.table) ** 2)))

    def support_radius(self):
        """Radius of the smallest box holding all nonzero coefficients."""
        nz = np.argwhere(np.abs(self.table) > 0.0)
        if nz.size == 0:
            return 0
        return int(np.max(np.abs(nz - self.box.radius)))

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, AlgebraElement):
            return add(self, other)
        return add(self, AlgebraElement.identity(self.geometry) * complex(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, AlgebraElement):
            return add(self, scale(other, -1.0))
        return self + (-complex(other))

    def __rsub__(self, other):
        return scale(self, -1.0) + complex(other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return scale(self, complex(other))

    def __rmul__(self, other):
        return scale(self, complex(other))

    def __neg__(self):
        return scale(self, -1.0)

    def adjoint(self):
        return adjoint(self)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def cocycle_phase(geometry, p, q):
    """Twisting phase sigma(p, q) = exp(i*pi * q . theta p) of the product."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return complex(np.exp(1j * np.pi * float(q @ (geometry.theta @ p))))


def _resize_table(table, radius, n):
    """Pad with zeros or clip the last n (box) axes of a coefficient array to radius."""
    old = (table.shape[-1] - 1) // 2
    m = min(radius, old)
    out = np.zeros(table.shape[: table.ndim - n] + (2 * radius + 1,) * n, dtype=complex)
    src = (Ellipsis,) + (slice(old - m, old + m + 1),) * n
    dst = (Ellipsis,) + (slice(radius - m, radius + m + 1),) * n
    out[dst] = table[src]
    return out


def resize(u, radius):
    """Pad with zeros or clip the coefficient table to the given box radius."""
    radius = int(radius)
    if radius == u.box.radius:
        return u
    box = LatticeBox(u.geometry.n, radius)
    return AlgebraElement(u.geometry, box, _resize_table(u.table, radius, u.geometry.n))


def trim(u, cutoff):
    """Drop coefficients at or below cutoff and shrink the box to the rest.

    A product costs the nonzero rows of both operands times the nonzero
    last-axis columns of one of them, so clearing numerically void modes
    (series tails, readout dust) keeps chains of exact products affordable;
    cutoff 0 only tightens the box.
    """
    table = u.table
    if cutoff > 0.0:
        table = np.where(np.abs(table) > cutoff, table, 0.0)
    tmp = AlgebraElement(u.geometry, u.box, table)
    return resize(tmp, tmp.support_radius())


def add(u, v):
    _check_same_geometry(u, v)
    r = max(u.box.radius, v.box.radius)
    return AlgebraElement(
        u.geometry, LatticeBox(u.geometry.n, r), resize(u, r).table + resize(v, r).table
    )


def scale(u, c):
    return AlgebraElement(u.geometry, u.box, u.table * complex(c))


# the product kernel takes the rows of its Toeplitz operand in batches whose
# Toeplitz and product arrays hold about this many complex entries (16 MB):
# on the n = 3 spectrum benchmark 2**22 raised the peak memory by 13 MB, and
# 2**16 ran 15 % slower
_BATCH_ENTRIES = 2**20


def _adjoint_coeffs(coeffs, n):
    """Coefficient array of the matrix adjoint: (h*)_ij = (h_ji)*."""
    flip = (Ellipsis,) + (slice(None, None, -1),) * n
    return np.conj(coeffs.swapaxes(0, 1)[flip])


def _pi_phase(terms):
    """exp(i*pi * sum_j t_j N_j) for floats t_j and integer arrays N_j; None
    when every t_j vanishes.

    Each t_j N_j is reduced mod 2 exactly: t_j (taken mod 2) splits into a
    float32 head, whose products with integers below 2**29 are exact in
    float64, and a tail below 2**-23 |t_j|.  The argument so stays within a
    few units, however large the N_j.
    """
    arg = 0.0
    for t, k in terms:
        t = math.fmod(t, 2.0)
        if t != 0.0:
            head = float(np.float32(t))
            arg = arg + (np.fmod(head * k, 2.0) + (t - head) * k)
    return None if np.isscalar(arg) else np.exp(1j * np.pi * arg)


def _support(x, n):
    """Nonzero rows of a coefficient array (m, l, *box), as flat indices and
    as offsets on the first n - 1 box axes, and its nonzero last-axis columns."""
    mask = x.any(axis=(0, 1))
    rows = mask.any(axis=-1)
    cols = np.flatnonzero(mask.any(axis=tuple(range(n - 1))))
    return np.flatnonzero(rows), np.argwhere(rows), cols


def _twisted_matmul(theta, a, b):
    """Twisted matrix product (m, l, *box_a) x (l, k, *box_b) -> (m, k, *box_{a+b}).

    c_ik = sum_l a_il b_lk, each entry product kept on the grown box.  A
    mode splits into its row p' (the first n - 1 axes) and its last-axis
    column p_n.  For every nonzero row q' of b, b's last axis is laid out as
    a Toeplitz matrix over the nonzero columns of a, so that one GEMM
    contracts the matrix index and p_n for all nonzero rows p' of a at
    once; each row p' then adds one slab at the output rows p' + q'.  The
    cocycle sigma(p, q) = exp(i*pi * q.theta p) comes from tables over
    (q', p_n), (p', p_n), (k_n, p') and (q', p'), with k_n = p_n + q_n.
    The operand with fewer nonzero columns is contracted (the left one on
    ties); a right one goes through the exact identity (ab)* = b* a*.
    """
    n = theta.shape[0]
    flat_a, rows_a, cols_a = _support(a, n)
    flat_b, rows_b, cols_b = _support(b, n)
    if (len(cols_b), len(rows_b)) < (len(cols_a), len(rows_a)):
        return _adjoint_coeffs(
            _twisted_matmul(theta, _adjoint_coeffs(b, n), _adjoint_coeffs(a, n)), n
        )
    (m, l), k = a.shape[:2], b.shape[1]
    wa, wb = a.shape[-1], b.shape[-1]
    width = wa + wb - 1
    out = np.zeros((m, k, width ** (n - 1), width), dtype=complex)
    if not len(cols_a) or not len(cols_b):
        return out.reshape((m, k) + (width,) * n)
    P, Q, C = len(rows_a), len(rows_b), len(cols_a)
    lo, hi = cols_a[0] + cols_b[0], cols_a[-1] + cols_b[-1] + 1  # output columns reached
    # modes as lattice points: p = (p', p_n) of a, q' of b, k_n of the output
    p_row, p_n = rows_a - (wa - 1) // 2, cols_a - (wa - 1) // 2
    q_row = rows_b - (wb - 1) // 2
    k_n = np.arange(lo, hi) - (width - 1) // 2
    # q.theta p = q'.theta' p' + p_n (q'.theta_{.n}) + (k_n - p_n) (theta_{n.}.p')
    last = [(theta[-1, j], p_row[:, j, None]) for j in range(n - 1)]
    a_phase = _pi_phase([(t, -r * p_n) for t, r in last])  # (P, C)
    kn_phase = _pi_phase([(t, r * k_n) for t, r in last])  # (P, hi - lo)
    q_phase = _pi_phase([(theta[j, -1], q_row[:, j, None] * p_n) for j in range(n - 1)])
    row_phase = _pi_phase([
        (theta[i, j], p_row[:, j, None] * q_row[:, i] - p_row[:, i, None] * q_row[:, j])
        for i in range(n - 1) for j in range(i + 1, n - 1)
    ])  # (P, Q)
    lhs = a.reshape(m, l, -1, wa)[:, :, flat_a[:, None], cols_a]  # (m, l, P, C)
    if a_phase is not None:
        lhs = lhs * a_phase
    lhs = lhs.transpose(2, 0, 1, 3).reshape(P * m, l * C)
    # b's rows, their last axis padded by span zeros at both ends: Toeplitz
    # entry (column c of a, output column o) is b's column o - c, at padded
    # index o - c + span, which is entry o - lo of the window from first[c]
    span = cols_a[-1] - cols_a[0]
    padded = np.zeros((l, k, Q, wb + 2 * span), dtype=complex)
    padded[..., span : span + wb] = b.reshape(l, k, -1, wb)[:, :, flat_b]
    first = lo + span - cols_a
    # the output row of p' + q' is the sum of the two rows' flat offsets in it
    off_a = np.ravel_multi_index(rows_a.T, (width,) * (n - 1))
    off_b = np.ravel_multi_index(rows_b.T, (width,) * (n - 1))
    batch = max(1, _BATCH_ENTRIES // (k * (hi - lo) * (l * C + P * m)))
    for start in range(0, Q, batch):
        part = slice(start, start + batch)
        windows = sliding_window_view(padded[:, :, part], hi - lo, axis=-1)
        toeplitz = windows.transpose(0, 3, 1, 2, 4)[:, first]  # (l, C, k, Qc, hi - lo)
        if q_phase is not None:
            toeplitz *= q_phase[part].T[:, None, :, None]
        prod = (lhs @ toeplitz.reshape(l * C, -1)).reshape(P, m, k, toeplitz.shape[3], hi - lo)
        if kn_phase is not None:
            prod *= kn_phase[:, None, None, None, :]
        if row_phase is not None:
            prod *= row_phase[:, part, None][:, None, None]
        for off, slab in zip(off_a, prod):
            out[:, :, off + off_b[part], lo:hi] += slab
    return out.reshape((m, k) + (width,) * n)


def _sandwich(x, coeffs, y):
    """Entries x c_ij y of a coefficient array c (m, k, *box), for elements x
    and y: x against c laid out as a 1 x mk row, then that row as an mk x 1
    column against y, so that no zero entry of a scalar matrix x I is
    multiplied out."""
    theta = x.geometry.theta
    row = _twisted_matmul(theta, x.table[None, None], coeffs.reshape((1, -1) + coeffs.shape[2:]))
    col = _twisted_matmul(theta, row.reshape((-1, 1) + row.shape[2:]), y.table[None, None])
    return col.reshape(coeffs.shape[:2] + col.shape[2:])


def multiply(u, v):
    """Twisted convolution (u v)_k = sum_{p+q=k} u_p v_q sigma(p, q).

    The 1 x 1 case of the product kernel, kept exactly on the grown box of
    radius N_u + N_v.
    """
    _check_same_geometry(u, v)
    table = _twisted_matmul(u.geometry.theta, u.table[None, None], v.table[None, None])[0, 0]
    box = LatticeBox(u.geometry.n, u.box.radius + v.box.radius)
    return AlgebraElement(u.geometry, box, table)


def adjoint(u):
    """Involution: (u*)_k = conj(u_{-k}); V_k* = V_{-k} in the Weyl basis."""
    table = np.conj(u.table[tuple(slice(None, None, -1) for _ in range(u.geometry.n))])
    return AlgebraElement(u.geometry, u.box, table)


def selfadjoint_residual(u):
    """Max coefficient deviation from u = u*."""
    return float(np.max(np.abs(u.table - adjoint(u).table)))


def is_selfadjoint(u, tol=1e-12):
    return selfadjoint_residual(u) <= tol * (1.0 + u.max_abs())


def derivation(u, axis):
    """Canonical derivation along an axis: (d_j u)_k = i k_j u_k (axis 0-based)."""
    n = u.geometry.n
    if not 0 <= axis < n:
        raise ValueError(f"axis {axis} outside range(0, {n})")
    k = np.arange(-u.box.radius, u.box.radius + 1, dtype=float)
    shape = [1] * n
    shape[axis] = u.box.width
    return AlgebraElement(u.geometry, u.box, u.table * (1j * k.reshape(shape)))


def trace(u):
    """Normalized trace: the coefficient of the zero mode."""
    return complex(u.table[(u.box.radius,) * u.geometry.n])


def inner_product(u, v):
    """Hilbert inner product <u, v> = tau(v* u) = sum_k u_k conj(v_k)."""
    _check_same_geometry(u, v)
    r = max(u.box.radius, v.box.radius)
    return complex(np.vdot(resize(v, r).table, resize(u, r).table))


def weighted_inner_product_opp(u, v, nu):
    """Opposite-side weighted inner product <u, v>_nu^o = tau(v* nu u)."""
    return inner_product(multiply(nu, u), v)


def sobolev_norm(u, s):
    """(sum_k (1 + |k|^2)^s |u_k|^2)^(1/2); s = 0 is the Hilbert norm."""
    k2 = (np.abs(u.box.modes()) ** 2).sum(axis=1).astype(float)
    w = (1.0 + k2) ** s
    return float(np.sqrt(np.sum(w * np.abs(u.vector()) ** 2)))


def commutator(u, v):
    return add(multiply(u, v), scale(multiply(v, u), -1.0))


def _integer_power(x, p):
    """x^p for an integer p >= 0, by p exact products."""
    out = AlgebraElement.identity(x.geometry)
    for _ in range(p):
        out = multiply(out, x)
    return out


_EXP_TOL = 1e-18
_EXP_MAX_TERMS = 90
# the summed l1 norms of the terms may exceed the sum's by at most this factor:
# roundoff of the largest terms, about 2.2e-16 of them, then stays near 1e-11
# of the sum
_EXP_MAX_CANCELLATION = 1e5


def exp_series(w):
    """exp(w) by the power series, with terms added until they fall below tolerance.

    Products are exact except that coefficients below the tolerance are
    discarded (they are dominated by the dropped series tail anyway), which
    keeps the support from ballooning with numerically void modes.
    Intended for elements of modest norm, where the factorial decay makes
    the truncated series accurate to near machine precision.  Raises
    SeriesNotConverged when the sum cannot be trusted: when the last term
    is above the tolerance relative to the sum at the term limit (the
    partial sum is 80 % low for w = 50 (V_e + V_-e) at theta = 0), or when
    the terms' summed l1 norms exceed the sum's by more than
    _EXP_MAX_CANCELLATION, so that their roundoff swamps it (for w = -20
    the sum would be 9.9e-9 against e^-20 = 2.1e-9).
    """
    geometry = w.geometry
    acc = AlgebraElement.identity(geometry)
    term = AlgebraElement.identity(geometry)
    bound = w.norm_l1()
    mass = 1.0  # summed l1 norms of the terms, the identity's included
    for j in range(1, _EXP_MAX_TERMS + 1):
        term = trim(scale(multiply(term, w), 1.0 / j), _EXP_TOL * 1e-2)
        acc = add(acc, term)
        size = term.norm_l1()
        mass += size
        if size <= _EXP_TOL and j * 1.0 >= bound:
            break
    else:  # the term limit is reached
        if size > _EXP_TOL * acc.norm_l1():
            raise SeriesNotConverged(f"exp series of an exponent of l1 norm {bound:.3e} "
                                     f"has not converged in {_EXP_MAX_TERMS} terms")
    if mass > _EXP_MAX_CANCELLATION * acc.norm_l1():
        raise SeriesNotConverged(f"exp series of an exponent of l1 norm {bound:.3e} "
                                 f"cancels: its terms sum to {mass:.3e} in l1 norm, "
                                 f"the series to {acc.norm_l1():.3e}")
    return trim(acc, 0.0)


# ---------------------------------------------------------------------------
# ordered-monomial basis conversion
# ---------------------------------------------------------------------------


def _ordering_phases(geometry, box):
    """Per-mode phase c(k) with U_1^{k_1}...U_n^{k_n} = c(k) V_k."""
    modes = box.modes().astype(float)
    lower = np.zeros_like(geometry.theta)
    for i in range(geometry.n):
        for j in range(i + 1, geometry.n):
            lower[i, j] = geometry.theta[j, i]
    vals = np.einsum("ai,ij,aj->a", modes, lower, modes)
    return np.exp(1j * np.pi * vals).reshape(box.shape)


def ordered_coefficients(u):
    """Coefficient table of u in the ordered-monomial basis."""
    return np.asarray(u.table / _ordering_phases(u.geometry, u.box))


def element_from_ordered(geometry, table, radius=None):
    """Element whose ordered-monomial coefficient table is given."""
    table = np.asarray(table, dtype=complex)
    if radius is None:
        radius = (table.shape[0] - 1) // 2
    box = LatticeBox(geometry.n, radius)
    return AlgebraElement(geometry, box, table * _ordering_phases(geometry, box))


def ordered_product_phase(geometry, p, q):
    """Structure phase rho(p, q) with U^p U^q = rho(p, q) U^{p+q}.

    Derived by normal-ordering the generator monomials with the pairwise
    commutation phases; independent of the Weyl-basis cocycle.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = 0.0
    for j in range(geometry.n):
        for l in range(j):
            total += geometry.theta[l, j] * p[j] * q[l]
    return complex(np.exp(2j * np.pi * total))
