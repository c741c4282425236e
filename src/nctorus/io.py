"""File formats: JSON literals, run configuration, spectra CSV.

Element literal: a list of {"k": [k1, ..., kn], "re": float, "im": float}
entries, "re" and "im" optional; geometry literal: {"n": int, "theta":
[[...]]} or {"n": int, "theta_upper": [...]} (strictly upper-triangular
entries, row by row, which guarantees exact antisymmetry through JSON
round-trips).  Matrix literals are m x m nested element literals.  Any
other key is refused.  Literals are only read; the one file written here is
the spectrum CSV.

Positive elements in metric/density specs may be given three ways:
a bare literal (positivity checked by compressed spectral bounds),
{"exp_of": literal} for exp of a selfadjoint element, or
{"witness": literal, "constant": c} for w* w + c.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import AlgebraElement, LatticeBox, TorusGeometry, add, adjoint, exp_series, scale
from .calculus import SPECTRAL_FLOOR, TorusMatrix, make_positive, spectral_bounds
from .errors import BoxTooLarge, NCTorusError, PositivityViolation
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
# integer config keys; the radii after box_radius may be null, their default
_RADIUS_KEYS = ("box_radius", "multiplier_radius", "calc_radius", "stability_radius")
_INTEGER_KEYS = _RADIUS_KEYS + ("seed", "count", "quadrature_points")
_CONFIG_KEYS = _INTEGER_KEYS + ("geometry", "metric", "nu", "tolerances", "window")
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
    """A JSON number as a float; anything else (a string, a bool) is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


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
    return TorusGeometry(n, lit["theta"])


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


def positive_element_from_spec(geometry, spec, box):
    """Positive invertible element from a config spec (see module docstring)."""
    if isinstance(spec, dict) and "exp_of" in spec:
        w = element_from_literal(geometry, spec["exp_of"])
        return exp_series(scale(add(w, adjoint(w)), 0.5))
    if isinstance(spec, dict) and "witness" in spec:
        y = element_from_literal(geometry, spec["witness"])
        return make_positive(y, float(spec.get("constant", 1.0)))
    x = element_from_literal(geometry, spec)
    lo, _ = spectral_bounds(scale(add(x, adjoint(x)), 0.5), box)
    if lo < SPECTRAL_FLOOR:
        raise PositivityViolation(f"element spec has compressed min {lo:.3e}")
    return x


def density_from_spec(geometry, spec, box):
    if isinstance(spec, dict) and "exp_of" in spec:
        w = element_from_literal(geometry, spec["exp_of"])
        w = scale(add(w, adjoint(w)), 0.5)
        return density_exp(w)
    nu = positive_element_from_spec(geometry, spec, box)
    return density_from_element(nu, box)


def metric_from_spec(geometry, spec, box):
    """Build and validate a metric from its JSON spec."""
    kind = spec.get("type", "flat")
    if kind == "flat":
        return metric_flat(geometry)
    if kind == "constant":
        return metric_constant(geometry, spec["matrix"], box=box)
    if kind == "conformal":
        base = metric_from_spec(geometry, spec.get("base", {"type": "flat"}), box)
        k = positive_element_from_spec(geometry, spec["k"], box)
        return metric_conformal(base, k, box)
    if kind == "product":
        blocks = [metric_from_spec(geometry, b, box) for b in spec["blocks"]]
        metric, _ = metric_product(blocks, box)
        return metric
    if kind == "functional":
        h = element_from_literal(geometry, spec["h"])
        h = scale(add(h, adjoint(h)), 0.5)
        poly = np.asarray(spec["poly"], dtype=float)  # (n, n, deg+1)

        def profile(t):
            powers = t ** np.arange(poly.shape[2])
            return np.einsum("ijd,d->ij", poly, powers)

        return metric_functional(h, profile, box)
    if kind == "explicit":
        return validate_metric(matrix_from_literal(geometry, spec["entries"]), box)
    raise ValueError(f"unknown metric spec type {kind!r}")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class Tolerances:
    stability_rel: float = 1e-3
    multiplicity: float = 1e-6
    asymmetry_threshold: float = 0.1
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
        return cls(**{key: _number(value, f"tolerance {key}") for key, value in d.items()})


@dataclass
class RunConfig:
    geometry: TorusGeometry
    box_radius: int
    multiplier_radius: object = None  # int or None
    calc_radius: object = None  # defaults to box_radius
    stability_radius: object = None  # defaults to box_radius + 2
    metric_spec: dict = field(default_factory=lambda: {"type": "flat"})
    nu_spec: object = None
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
        return LatticeBox(self.geometry.n, self.calc_radius or self.box_radius)

    def build_metric(self):
        return metric_from_spec(self.geometry, self.metric_spec, self.calc_box)

    def build_density(self):
        if self.nu_spec is None:
            return None
        return density_from_spec(self.geometry, self.nu_spec, self.calc_box)


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


def _check_positive_spec(geometry, spec):
    if not isinstance(spec, dict):
        element_from_literal(geometry, spec)
        return
    if set(spec) not in _POSITIVE_SPEC_KEYS:
        raise ValueError(f"positive element spec has keys {sorted(spec)}, not exp_of or witness")
    element_from_literal(geometry, spec.get("exp_of", spec.get("witness")))
    if _number(spec.get("constant", 1.0), "witness constant") <= 0:
        raise ValueError(f"witness constant must be positive, got {spec['constant']}")


def _check_metric_spec(geometry, spec):
    """Check a metric spec's keys and values; return the size m of its m x m matrix."""
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
    if kind == "constant":
        mat = np.asarray(spec["matrix"], dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValueError(f"constant metric matrix has shape {mat.shape}, not m x m")
        return mat.shape[0]
    if kind == "conformal":
        _check_positive_spec(geometry, spec["k"])
        return _check_metric_spec(geometry, spec.get("base", {"type": "flat"}))
    if kind == "product":
        return sum(_check_metric_spec(geometry, block) for block in spec["blocks"])
    if kind == "functional":
        element_from_literal(geometry, spec["h"])
        poly = np.asarray(spec["poly"], dtype=float)
        if poly.ndim != 3 or poly.shape[:2] != (n, n):
            raise ValueError(f"functional metric poly is not an {n} x {n} x (deg + 1) array")
    if kind == "explicit":
        return matrix_from_literal(geometry, spec["entries"]).m
    return n


def load_config(path):
    """Read a run configuration; a missing file or a bad entry raises NCTorusError.

    A config whose largest dense matrix would not fit in physical memory
    raises BoxTooLarge before anything is allocated.
    """
    try:
        with open(path, encoding="utf8") as f:
            raw = json.load(f)
        config = _parse_config(raw)
    except (OSError, ValueError, KeyError, TypeError, NCTorusError) as exc:
        raise NCTorusError(f"config {path}: {type(exc).__name__}: {exc}") from exc
    _check_dense_size(path, config)
    return config


def _check_dense_size(path, config):
    """Refuse a config whose largest dense matrix exceeds physical memory.

    Bounded by an n x n matrix over the algebra (the metric) compressed on
    the largest of the box, calc and stability boxes, radius R: dimension
    d = n (2R + 1)^n, 16 d^2 bytes of complex entries.
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


def _parse_config(raw):
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    geometry = geometry_from_literal(raw["geometry"])
    for key in _INTEGER_KEYS:
        if key not in raw or (raw[key] is None and key in _RADIUS_KEYS[1:]):
            continue
        if _integer(raw[key], key) < 0 and key in _RADIUS_KEYS:
            raise ValueError(f"{key} must be >= 0, got {raw[key]}")
    if raw.get("count", 1) < 1:
        raise ValueError(f"count must be >= 1, got {raw['count']}")
    mult = raw.get("multiplier_radius")
    if mult is not None and 4 * mult > raw["box_radius"]:
        raise ValueError(f"multiplier_radius {mult} breaks 4 M <= box_radius {raw['box_radius']}")
    stab = raw.get("stability_radius")
    if stab is not None and stab <= raw["box_radius"]:
        raise ValueError(f"stability_radius {stab} must exceed box_radius {raw['box_radius']}")
    metric = raw.get("metric", {"type": "flat"})
    size = _check_metric_spec(geometry, metric)
    if size != geometry.n:
        raise ValueError(f"metric is {size} x {size}, the {geometry.n}-torus needs "
                         f"{geometry.n} x {geometry.n}")
    if raw.get("nu") is not None:
        _check_positive_spec(geometry, raw["nu"])
    window = raw.get("window")
    if isinstance(window, str):
        window = parse_window(window)
    elif window is not None:
        if not isinstance(window, list) or len(window) != 2:
            raise ValueError(f"window must be [lo, hi] or \"lo:hi\", got {window!r}")
        window = _ordered_window(*(_integer(w, "window bound") for w in window))
    return RunConfig(
        geometry=geometry,
        box_radius=raw["box_radius"],
        multiplier_radius=mult,
        calc_radius=raw.get("calc_radius"),
        stability_radius=raw.get("stability_radius"),
        metric_spec=metric,
        nu_spec=raw.get("nu"),
        tolerances=Tolerances.from_dict(raw.get("tolerances", {})),
        seed=raw.get("seed", 0),
        count=raw.get("count", 100),
        quadrature_points=raw.get("quadrature_points", 64),
        window=window,
    )


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
