"""File formats: JSON literals, run configuration, spectra CSV.

Element literal: a list of {"k": [k1, ..., kn], "re": float, "im": float}
entries, "re" and "im" optional; geometry literal: {"n": int, "theta":
[[...]]} or {"n": int, "theta_upper": [...]} (strictly upper-triangular
entries, row by row, which guarantees exact antisymmetry through JSON
round-trips).  Matrix literals are m x m nested element literals.  Any
other key is refused.  Literals are only read; the one file written here is
the spectrum CSV.

Positive elements in metric/density specs may be given three ways:
a bare literal (positivity checked by the floor test of its compression,
a Cholesky factorization),
{"exp_of": literal} for exp of a selfadjoint element, or
{"witness": literal, "constant": c} for w* w + c.

One walker reads each format: _metric_spec for a metric spec and
_positive_spec for a positive element.  Each checks every key and value and
returns the spec's size with a build(box) that makes the object.
load_config calls the walkers for their checks alone, so a malformed spec
is refused before any numerical work; metric_from_spec and
density_from_spec call them and build.  What needs the box (a bare
literal's floor test, an exp series, a compression) runs only at build.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import AlgebraElement, LatticeBox, TorusGeometry, add, adjoint, scale
from .calculus import TorusMatrix, _require_floor, compress, make_positive
from .errors import BoxTooLarge, NCTorusError
from .metrics import (
    density_exp,
    density_from_element,
    metric_conformal,
    metric_constant,
    metric_flat,
    metric_functional,
    metric_product,
    validate_metric,
)

# (required, optional) keys of each metric spec type, besides "type"
_METRIC_KEYS = {
    "flat": ((), ()),
    "constant": (("matrix",), ()),
    "conformal": (("k",), ("base",)),
    "product": (("blocks",), ()),
    "functional": (("h", "poly"), ()),
    "explicit": (("entries",), ()),
}
# integer config keys, each >= 0 but count and quadrature_points >= 1; the
# radii after box_radius may be null, their default
_RADIUS_KEYS = ("box_radius", "multiplier_radius", "calc_radius", "stability_radius")
_INTEGER_KEYS = _RADIUS_KEYS + ("seed", "count", "quadrature_points")
# key sets of the object forms of a positive element spec (a bare literal is a list)
_POSITIVE_SPEC_KEYS = ({"exp_of"}, {"witness"}, {"witness", "constant"})


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------


def _integer(value, what):
    """A JSON integer as itself; anything else (a float, a bool) is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what):
    """A finite JSON number as a float; anything else (a string, a bool, a NaN
    or an infinity, which Python's json reads) is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


def _numbers(value, what):
    """A JSON array of finite numbers as a float array, else a ValueError."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has an entry that is not finite")
    return arr


def geometry_from_literal(lit):
    keys = set(lit)
    if not keys <= {"n", "theta", "theta_upper"} or {"theta", "theta_upper"} <= keys:
        raise ValueError(
            f"geometry has keys {sorted(keys)}, takes n and one of theta, theta_upper"
        )
    n = _integer(lit["n"], "geometry n")
    if "theta_upper" in lit:
        upper = [_number(v, "theta_upper entry") for v in lit["theta_upper"]]
        if len(upper) != n * (n - 1) // 2:
            raise ValueError(f"theta_upper has {len(upper)} entries, n = {n} takes n(n-1)/2")
        return TorusGeometry.from_upper(n, upper)
    return TorusGeometry(n, _numbers(lit["theta"], "geometry theta"))


def element_from_literal(geometry, literal):
    modes = {}
    for item in literal:
        if not set(item) <= {"k", "re", "im"}:
            raise ValueError(f"element literal item has keys {sorted(item)}, takes k, re, im")
        k = tuple(_integer(x, "mode component") for x in item["k"])
        if len(k) != geometry.n:
            raise ValueError(f"mode {k} has wrong dimension")
        modes[k] = complex(_number(item.get("re", 0.0), "re"), _number(item.get("im", 0.0), "im"))
    if not modes:
        return AlgebraElement.zeros(geometry, 0)
    return AlgebraElement.from_modes(geometry, modes)


def matrix_from_literal(geometry, literal):
    entries = [[element_from_literal(geometry, e) for e in row] for row in literal]
    return TorusMatrix(geometry, len(entries), entries)


def _selfadjoint_part(x):
    return scale(add(x, adjoint(x)), 0.5)


def _positive_spec(geometry, spec):
    """Check a positive element spec; return (w, build): w the selfadjoint
    exponent of an exp_of spec, else None, and build(box) the element."""
    if not isinstance(spec, dict):
        x = element_from_literal(geometry, spec)

        def floor_tested(box):
            # the floor test of the compression's Cholesky factor: a
            # SpectralFloorViolation, which is a PositivityViolation, when it fails
            _require_floor([compress(_selfadjoint_part(x), box).matrix], "element spec")
            return x

        return None, floor_tested
    if set(spec) not in _POSITIVE_SPEC_KEYS:
        raise ValueError(f"positive element spec has keys {sorted(spec)}, not exp_of or witness")
    if "exp_of" in spec:
        w = _selfadjoint_part(element_from_literal(geometry, spec["exp_of"]))
        return w, lambda box: density_exp(w).nu
    y = element_from_literal(geometry, spec["witness"])
    constant = _number(spec.get("constant", 1.0), "witness constant")
    if constant <= 0:
        raise ValueError(f"witness constant must be positive, got {spec['constant']}")
    return None, lambda box: make_positive(y, constant)


def _metric_spec(geometry, spec):
    """Check a metric spec's keys and values; return (m, build): the size m of
    its m x m matrix, and build(box) the validated metric."""
    if not isinstance(spec, dict):
        raise ValueError(f"metric spec must be an object, got {spec!r}")
    kind = spec.get("type", "flat")
    if kind not in _METRIC_KEYS:
        raise ValueError(f"unknown metric spec type {kind!r}")
    required, optional = _METRIC_KEYS[kind]
    keys = set(spec) - {"type"}
    if not set(required) <= keys <= set(required + optional):
        raise ValueError(
            f"{kind} metric spec has keys {sorted(keys)}, takes {list(required)}"
            + (f" and optionally {list(optional)}" if optional else "")
        )
    n = geometry.n
    if kind == "flat":
        return n, lambda box: metric_flat(geometry)
    if kind == "constant":
        mat = _numbers(spec["matrix"], "constant metric matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"constant metric matrix has shape {mat.shape}, not m x m")
        return mat.shape[0], lambda box: metric_constant(geometry, mat, box=box)
    if kind == "conformal":
        _, k = _positive_spec(geometry, spec["k"])
        m, base = _metric_spec(geometry, spec.get("base", {"type": "flat"}))
        return m, lambda box: metric_conformal(base(box), k(box), box)
    if kind == "product":
        blocks = [_metric_spec(geometry, block) for block in spec["blocks"]]
        size = sum(m for m, _ in blocks)
        return size, lambda box: metric_product([build(box) for _, build in blocks], box)[0]
    if kind == "functional":
        h = _selfadjoint_part(element_from_literal(geometry, spec["h"]))
        poly = _numbers(spec["poly"], "functional metric poly")  # (n, n, deg+1)
        if poly.ndim != 3 or poly.shape[:2] != (n, n):
            raise ValueError(f"functional metric poly is not an {n} x {n} x (deg + 1) array")

        def profile(t):
            return np.einsum("ijd,d->ij", poly, t ** np.arange(poly.shape[2]))

        return n, lambda box: metric_functional(h, profile, box)
    matrix = matrix_from_literal(geometry, spec["entries"])  # explicit
    return matrix.m, lambda box: validate_metric(matrix, box)


def density_from_spec(geometry, spec, box):
    """The Density of a positive element spec: exp_of by its series, else the
    built element's inverse square root."""
    w, build = _positive_spec(geometry, spec)
    return density_from_element(build(box), box) if w is None else density_exp(w)


def metric_from_spec(geometry, spec, box):
    """Build and validate a metric from its JSON spec."""
    return _metric_spec(geometry, spec)[1](box)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class Tolerances:
    stability_rel: float = 1e-3
    multiplicity: float = 1e-6
    asymmetry_threshold: float = 1e-8
    kernel: float = 1e-8
    adjointness: float = 1e-10
    conformal: float = 1e-8
    determinant: float = 1e-8
    volume: float = 1e-8
    oracle_algebraic: float = 1e-12
    oracle_spectral: float = 1e-8
    weyl_exponent_pct: float = 5.0
    weyl_ratio_pct: float = 15.0
    weyl_constant: float = 1e-6

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"tolerances must be an object, got {d!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown tolerance keys {sorted(unknown)}")
        values = {key: _number(value, f"tolerance {key}") for key, value in d.items()}
        for key, value in values.items():
            if value < 0:  # a negative bound is a gate that no residual can pass
                raise ValueError(f"tolerance {key} must be >= 0, got {value!r}")
        return cls(**values)


@dataclass
class RunConfig:
    """A run configuration: one field per config key, named as the key, with
    the key's default."""

    geometry: TorusGeometry
    box_radius: int
    multiplier_radius: object = None  # int or None
    calc_radius: object = None  # defaults to box_radius
    stability_radius: object = None  # defaults to box_radius + 2
    metric: dict = field(default_factory=lambda: {"type": "flat"})
    nu: object = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    count: int = 100
    quadrature_points: int = 64
    window: object = None  # (lo, hi) or None

    @property
    def box(self):
        return LatticeBox(self.geometry.n, self.box_radius)

    @property
    def calc_box(self):
        radius = self.box_radius if self.calc_radius is None else self.calc_radius
        return LatticeBox(self.geometry.n, radius)

    def build_metric(self):
        return metric_from_spec(self.geometry, self.metric, self.calc_box)

    def build_density(self):
        if self.nu is None:
            return None
        return density_from_spec(self.geometry, self.nu, self.calc_box)


def parse_window(text):
    """An index window "lo:hi" as the pair (lo, hi); anything else raises NCTorusError."""
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise NCTorusError(f'window must be "lo:hi" with two integers, got {text!r}') from None
    return _ordered_window(lo, hi)


def _ordered_window(lo, hi):
    """(lo, hi) if 1 <= lo < hi, the only windows a fit can take, else NCTorusError."""
    if not 1 <= lo < hi:
        raise NCTorusError(f"window must have 1 <= lo < hi, got {lo}:{hi}")
    return lo, hi


def load_config(path):
    """Read a run configuration; a missing file or a bad entry raises NCTorusError.

    A config whose largest dense matrix or sphere rule would not fit in
    physical memory raises BoxTooLarge before anything is allocated.
    """
    try:
        with open(path, encoding="utf8") as f:
            raw = json.load(f)
        config = _parse_config(raw)
    except (OSError, ValueError, KeyError, TypeError, OverflowError, NCTorusError) as exc:
        raise NCTorusError(f"config {path}: {type(exc).__name__}: {exc}") from exc
    _check_dense_size(path, config)
    return config


def _check_dense_size(path, config):
    """Refuse a config whose largest dense matrix exceeds physical memory.

    Bounded by an n x n matrix over the algebra (the metric) compressed on
    the largest of the box, calc and stability boxes, radius R: dimension
    d = n (2R + 1)^n, 16 d^2 bytes of complex entries.  And the sphere rule
    of weyl's p = quadrature_points, whose peak tracemalloc measures at 40 p
    bytes at n = 2 (the p angles, their cosines and sines, the nodes and
    the weights) and at about 470 s^2 bytes at n = 3, s = max(2, floor(sqrt
    p)): the 2 s^2 nodes are built as Python lists of three floats, which
    take far more than the s x s companion matrix of the Legendre rule.
    """
    n = config.geometry.n
    stability = config.stability_radius
    radius = max(
        config.box_radius,
        config.calc_box.radius,
        config.box_radius + 2 if stability is None else stability,
    )
    d = n * (2 * radius + 1) ** n
    nbytes = 16 * d * d
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > physical:
        raise BoxTooLarge(
            f"config {path}: the largest dense matrix (d = {d}, radius {radius}) needs "
            f"{nbytes} bytes, more than the {physical} bytes of physical memory"
        )
    p = config.quadrature_points
    s = max(2, math.isqrt(p))
    rule = {2: 40 * p, 3: 480 * s * s}.get(n, 0)
    if rule > physical:
        raise BoxTooLarge(
            f"config {path}: the sphere rule of {p} quadrature points at n = {n} needs "
            f"{rule} bytes, more than the {physical} bytes of physical memory"
        )


def _parse_config(raw):
    """The RunConfig of a config's dict, each key and value checked; a key
    the config leaves out takes the RunConfig field's default."""
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    geometry = geometry_from_literal(raw["geometry"])
    for key in _INTEGER_KEYS:
        if key not in raw or (raw[key] is None and key in _RADIUS_KEYS[1:]):
            continue
        least = 1 if key in ("count", "quadrature_points") else 0
        if _integer(raw[key], key) < least:
            raise ValueError(f"{key} must be >= {least}, got {raw[key]}")
    mult = raw.get("multiplier_radius")
    if mult is not None and 4 * mult > raw["box_radius"]:
        raise ValueError(f"multiplier_radius {mult} breaks 4 M <= box_radius {raw['box_radius']}")
    stab = raw.get("stability_radius")
    if stab is not None and stab <= raw["box_radius"]:
        raise ValueError(f"stability_radius {stab} must exceed box_radius {raw['box_radius']}")
    window = raw.get("window")
    if isinstance(window, str):
        window = parse_window(window)
    elif window is not None:
        if not isinstance(window, list) or len(window) != 2:
            raise ValueError(f"window must be [lo, hi] or \"lo:hi\", got {window!r}")
        window = _ordered_window(*(_integer(w, "window bound") for w in window))
    config = RunConfig(**{**raw, "geometry": geometry, "window": window,
                          "tolerances": Tolerances.from_dict(raw.get("tolerances", {}))})
    size, _ = _metric_spec(geometry, config.metric)
    if size != geometry.n:
        raise ValueError(f"metric is {size} x {size}, the {geometry.n}-torus needs "
                         f"{geometry.n} x {geometry.n}")
    if config.nu is not None:
        _positive_spec(geometry, config.nu)
    return config


# ---------------------------------------------------------------------------
# spectra CSV
# ---------------------------------------------------------------------------


def write_spectrum_csv(path, result):
    with open(path, "w", newline="", encoding="utf8") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "eigenvalue", "stable", "multiplicity_group"])
        for i, lam in enumerate(result.eigenvalues):
            writer.writerow(
                [i, f"{lam:.16e}", int(result.stable[i]), int(result.multiplicity_group[i])]
            )
