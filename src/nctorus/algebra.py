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
algebra alike: it loops over the nonzero modes of the sparser operand, so
a product costs that count times the box size of the other operand.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

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
    def basis(cls, geometry, k, radius=None, coeff=1.0):
        """The unitary V_k (scaled by coeff) on a box containing k."""
        k = np.asarray(k, dtype=int)
        if radius is None:
            radius = int(np.max(np.abs(k))) if k.size else 0
        box = LatticeBox(geometry.n, radius)
        table = np.zeros(box.shape, dtype=complex)
        table[tuple(k + radius)] = coeff
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

    def support_radius(self, cutoff=0.0):
        """Radius of the smallest box holding all coefficients above cutoff."""
        nz = np.argwhere(np.abs(self.table) > cutoff)
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

    A product costs the nonzero modes of its sparser operand times the box
    size of the other, so clearing numerically void modes (series tails,
    readout dust) keeps chains of exact products affordable; cutoff 0 only
    tightens the box.
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


# the product kernel takes its modes in batches whose temporary arrays hold
# about this many complex entries (512 kB); 2 MB batches ran slower
_BATCH_ENTRIES = 2**15


def _adjoint_coeffs(coeffs, n):
    """Coefficient array of the matrix adjoint: (h*)_ij = (h_ji)*."""
    flip = (Ellipsis,) + (slice(None, None, -1),) * n
    return np.conj(coeffs.swapaxes(0, 1)[flip])


def _twisted_matmul(theta, a, b):
    """Twisted matrix product (m, l, *box_a) x (l, k, *box_b) -> (m, k, *box_{a+b}).

    c_ik = sum_l a_il b_lk, each entry product kept on the grown box.  The
    loop runs over the nonzero modes p of the sparser operand (the left one
    on ties): per mode the matrix index is contracted, sigma(p, .) applied
    and the block added at p + box_b.  A sparser right operand goes through
    the exact identity (ab)* = b* a*.
    """
    n = theta.shape[0]
    nz = np.argwhere(a.any(axis=(0, 1)))
    if np.count_nonzero(b.any(axis=(0, 1))) < len(nz):
        return _adjoint_coeffs(
            _twisted_matmul(theta, _adjoint_coeffs(b, n), _adjoint_coeffs(a, n)), n
        )
    na, nb = (a.shape[-1] - 1) // 2, (b.shape[-1] - 1) // 2
    width = 2 * nb + 1
    out = np.zeros(a.shape[:1] + b.shape[1:2] + (2 * (na + nb) + 1,) * n, dtype=complex)
    # sigma(p, q) = prod_j exp(i*pi * q_j (theta p)_j): one row per mode and axis
    q = np.arange(-nb, nb + 1, dtype=float)
    rows = np.exp(1j * np.pi * ((nz - na) @ theta.T)[:, :, None] * q)
    coeffs = a[(slice(None), slice(None)) + tuple(nz.T)].transpose(2, 0, 1)
    expand = (Ellipsis,) + (None,) * (b.ndim - 1)
    batch = max(1, _BATCH_ENTRIES // max(1, a.shape[0] * b.size))
    for start in range(0, len(nz), batch):
        part = slice(start, start + batch)
        phase = rows[part, 0]
        for j in range(1, n):
            phase = phase[..., None] * rows[part, j].reshape((-1,) + (1,) * j + (width,))
        blocks = (coeffs[part][expand] * b).sum(axis=2)
        blocks *= phase[:, None, None]
        for off, block in zip(nz[part], blocks):
            out[(slice(None), slice(None)) + tuple(slice(o, o + width) for o in off)] += block
    return out


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


def exp_series(w):
    """exp(w) by the power series, with terms added until they fall below tolerance.

    Products are exact except that coefficients below the tolerance are
    discarded (they are dominated by the dropped series tail anyway), which
    keeps the support from ballooning with numerically void modes.
    Intended for elements of modest norm, where the factorial decay makes
    the truncated series accurate to near machine precision.  A last term
    above the tolerance relative to the sum raises SeriesNotConverged: the
    partial sum is wrong (80 % low for w = 50 (V_e + V_-e) at theta = 0).
    """
    geometry = w.geometry
    acc = AlgebraElement.identity(geometry)
    term = AlgebraElement.identity(geometry)
    bound = w.norm_l1()
    for j in range(1, _EXP_MAX_TERMS + 1):
        term = trim(scale(multiply(term, w), 1.0 / j), _EXP_TOL * 1e-2)
        acc = add(acc, term)
        if term.norm_l1() <= _EXP_TOL and j * 1.0 >= bound:
            break
    else:  # the term limit is reached
        if term.norm_l1() > _EXP_TOL * acc.norm_l1():
            raise SeriesNotConverged(f"exp series of an exponent of l1 norm {bound:.3e} "
                                     f"has not converged in {_EXP_MAX_TERMS} terms")
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
