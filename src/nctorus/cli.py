"""Command-line front end: config-driven verification pipelines.

Every subcommand reads a JSON config (geometry, box radius, multiplier
radius, metric spec, optional density override, tolerances), prints a
summary, optionally writes CSV/JSON output, and exits 0 exactly when all
residual gates configured for it pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import io as nio
from . import laplacian as lap
from . import metrics as met
from . import oracle as orc
from .algebra import (
    AlgebraElement,
    add,
    adjoint,
    derivation,
    inner_product,
    multiply,
    resize,
    scale,
    trace,
)
from .calculus import (
    determinant,
    determinant_identities,
    functional_calculus,
    matrix_inverse,
)
from .errors import NCTorusError
from .forms import adjointness_residual
from .sampling import (
    random_density,
    random_element,
    random_hermitian_matrix,
    random_one_form,
)


def _finite(x):
    """The report with each NaN or infinity as None, which JSON writes as null."""
    if isinstance(x, dict):
        return {key: _finite(value) for key, value in x.items()}
    if isinstance(x, list):
        return [_finite(value) for value in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _check_out(out_path):
    """Refuse an --out target in no directory, or that is one, before any work."""
    folder = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(folder):
        raise NCTorusError(f"--out {out_path}: no directory {folder}")
    if os.path.isdir(out_path):
        raise NCTorusError(f"--out {out_path}: is a directory")


@contextlib.contextmanager
def _writing(out_path):
    """An OSError while writing the --out file, as a refusal (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise NCTorusError(f"--out {out_path}: {type(exc).__name__}: {exc}") from exc


def _emit(report, out_path):
    text = json.dumps(_finite(report), indent=2, default=float)
    if out_path:
        with _writing(out_path), open(out_path, "w", encoding="utf8") as f:
            f.write(text + "\n")
    print(text)


def _gate_lines(gates):
    ok = True
    for name, (value, bound) in gates.items():
        passed = bool(value <= bound)
        ok = ok and passed
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}: {value:.3e} (<= {bound:.1e})")
    return ok


def _assembled(cfg):
    metric = cfg.build_metric()
    nu = cfg.build_density()
    if nu is None:
        op = lap.assemble_riemannian(metric, cfg.box, cfg.multiplier_radius)
    else:
        op = lap.assemble(metric.inverse, nu, cfg.box, cfg.multiplier_radius)
    return metric, op


def _count(args, default):
    """The --count flag, else the config's count; a count below 1 is invalid input."""
    count = default if args.count is None else args.count
    if count < 1:
        raise NCTorusError(f"--count must be >= 1, got {count}")
    return count


def _spectrum(cfg, op):
    """The spectrum of the assembled operator, and its asymmetry gate."""
    result = lap.spectrum(
        op,
        stability_radius=cfg.stability_radius,
        rel_tol=cfg.tolerances.stability_rel,
        multiplicity_tol=cfg.tolerances.multiplicity,
    )
    return result, {"asymmetry": (result.asymmetry, cfg.tolerances.asymmetry_threshold)}


def cmd_spectrum(cfg, args):
    count = _count(args, cfg.count)
    metric, op = _assembled(cfg)
    result, gates = _spectrum(cfg, op)
    if args.out:
        with _writing(args.out):
            nio.write_spectrum_csv(args.out, result)
        print(f"wrote {args.out}")
    stable = result.stable_eigenvalues
    print(
        f"spectrum: {result.stable_count()} stable of {result.eigenvalues.size} "
        f"(asymmetry {result.asymmetry:.3e}, stability box {result.stability_asymmetry:.3e})"
    )
    if stable.size:
        kernel, negativity = abs(float(stable[0])), max(0.0, -float(stable.min()))
    else:  # no stable eigenvalue: there is no kernel to measure, and both gates fail
        kernel = negativity = math.inf
    gates["kernel |lambda_0|"] = (kernel, cfg.tolerances.kernel)
    gates["negativity"] = (negativity, cfg.tolerances.kernel)
    gates["requested count deficit"] = (float(max(0, count - result.stable_count())), 0.5)
    return _gate_lines(gates)


def cmd_weyl(cfg, args):
    if cfg.geometry.n not in (2, 3):
        # the sphere quadrature of weyl_constant exists for n = 2 and 3 only
        raise NCTorusError(f"weyl supports n = 2 or 3, got n = {cfg.geometry.n}")
    window = nio.parse_window(args.window) if args.window else cfg.window
    metric, op = _assembled(cfg)
    result, gates = _spectrum(cfg, op)
    stable = result.stable_count()
    if window is None:
        hi = max(2, stable - 1)
        window = (max(1, hi // 6), hi)
    # the fit needs every eigenvalue of its window stable: too few is a failed gate
    gates["window stable deficit"] = (float(max(0, window[1] + 1 - stable)), 0.5)
    if window[1] >= stable:
        return _gate_lines(gates)
    # the closed form reads the metric's own density, whatever nu the config
    # sets: with nu set, weyl_constant computes it, and only if it needs it
    dens = op.nu if cfg.nu is None else None
    wc = lap.weyl_constant(metric, dens, cfg.calc_box, quadrature_points=cfg.quadrature_points)
    closed = wc["c_n_closed_form"]
    fit = lap.weyl_fit(result, wc["c_n_quadrature"] if np.isnan(closed) else closed, window)
    report = {**wc, **fit, "stable_count": stable}
    _emit(report, args.out)
    gates["exponent deviation"] = (
        abs(fit["exponent"] - fit["exponent_target"]) / fit["exponent_target"],
        cfg.tolerances.weyl_exponent_pct / 100.0,
    )
    r_min, _, r_max = fit["counting_ratio"]
    gates["counting ratio deviation"] = (
        max(abs(r_min - 1.0), abs(r_max - 1.0)),
        cfg.tolerances.weyl_ratio_pct / 100.0,
    )
    if not np.isnan(closed):
        gates["quadrature vs closed form"] = (wc["c_n_residual"], cfg.tolerances.weyl_constant)
    return _gate_lines(gates)


def cmd_conformal_check(cfg, args):
    spec = cfg.metric
    if spec.get("type") != "conformal":
        raise NCTorusError("conformal-check requires a conformal metric spec")
    base = nio.metric_from_spec(cfg.geometry, spec.get("base", {"type": "flat"}), cfg.calc_box)
    dk = nio.density_from_spec(cfg.geometry, spec["k"], cfg.calc_box)
    report, op = lap.conformal_covariance_check(base, dk, cfg.box, cfg.calc_box)
    key = "two_dim_residual" if cfg.geometry.n == 2 else "full_law_residual"
    gates = {key: (report[key], cfg.tolerances.conformal)}
    if cfg.geometry.n == 2 and base.is_flat:
        res, spectrum_gates = _spectrum(cfg, op)
        gates.update(spectrum_gates)
        halves = lap.conformally_deformed_flat_matrix(dk, cfg.box)
        lam = np.sort(np.concatenate([np.linalg.eigvalsh(a) for a in halves]))
        stable = res.stable_eigenvalues
        rel = np.abs(stable - lam[: stable.size]) / (1.0 + np.abs(stable))
        # with no stable eigenvalue there is nothing to match, and the gate fails
        match = float(rel.max()) if stable.size else math.inf
        report["deformed_flat_match"] = match
        gates["deformed flat spectrum match"] = (match, cfg.tolerances.stability_rel)
    _emit(report, args.out)
    return _gate_lines(gates)


def cmd_det_check(cfg, args):
    metric = cfg.build_metric()
    k = cfg.build_density()
    k_elem = k.nu if k is not None else AlgebraElement.identity(cfg.geometry) * 2.0
    report = determinant_identities(metric, k_elem, cfg.calc_box)
    _emit(report, args.out)
    gates = {name: (val, cfg.tolerances.determinant) for name, val in report.items()}
    return _gate_lines(gates)


def cmd_adjoint_check(cfg, args):
    rng = np.random.default_rng(cfg.seed)
    geometry = cfg.geometry
    box = cfg.calc_box
    interior = max(1, cfg.box_radius // 2)
    count = _count(args, min(cfg.count, 50))
    worst = 0.0
    for _ in range(count):
        h = random_hermitian_matrix(geometry, geometry.n, 1, rng, amplitude=0.2)
        h_inv = matrix_inverse(h, box)
        dens = random_density(geometry, rng, radius=1, amplitude=0.15)
        omega = random_one_form(geometry, interior, rng)
        u = random_element(geometry, interior, rng)
        worst = max(worst, adjointness_residual(omega, u, h_inv, dens))
    _emit({"instances": count, "worst_residual": worst}, args.out)
    print(f"adjoint-check: {count} instances, worst residual {worst:.3e}")
    return _gate_lines({"adjointness": (worst, cfg.tolerances.adjointness)})


def cmd_volume(cfg, args):
    metric = cfg.build_metric()
    box = cfg.calc_box
    dens = met.riemannian_density(metric)
    vol = met.volume(dens)
    detg = determinant(metric.matrix, box)
    sq = multiply(dens.nu, dens.nu)
    report = {
        "volume": vol,
        "flat_reference": (2.0 * np.pi) ** cfg.geometry.n,
        "density_consistency": dens.consistency_residual,
        "density_squared_vs_det": (sq - detg).max_abs(),
    }
    _emit(report, args.out)
    gates = {
        "nu(g)^2 = det(g)": (report["density_squared_vs_det"], cfg.tolerances.volume),
        "positivity": (max(0.0, -vol), 0.0),
    }
    if metric.is_flat:
        gates["flat volume"] = (
            abs(vol - report["flat_reference"]),
            1e-10 * report["flat_reference"],
        )
    return _gate_lines(gates)


def cmd_oracle_compare(cfg, args):
    geometry = cfg.geometry
    if not geometry.is_commutative:
        raise NCTorusError("oracle-compare requires theta = 0 in the config")
    rng = np.random.default_rng(cfg.seed)
    box = cfg.calc_box
    algebraic, spectral = {}, {}

    u = random_element(geometry, 3, rng)
    v = random_element(geometry, 2, rng)
    algebraic["multiply"] = (multiply(u, v) - orc.oracle_multiply(u, v)).max_abs()
    algebraic["adjoint"] = (adjoint(u) - orc.oracle_adjoint(u)).max_abs()
    gu = orc.to_grid(u, orc.grid_for(u))
    gv = orc.to_grid(v, orc.grid_for(u))
    algebraic["trace"] = abs(trace(u) - complex(gu.mean()))
    algebraic["inner_product"] = abs(
        inner_product(u, v) - complex((gu * np.conj(gv)).mean())
    )
    du_grid = orc.from_grid(geometry, orc._grid_derivative(gu, 0), u.support_radius())
    algebraic["derivation"] = (derivation(u, 0) - du_grid).max_abs()

    metric = cfg.build_metric()
    x = add(
        scale(AlgebraElement.identity(geometry), 2.0),
        random_density(geometry, rng, radius=1, amplitude=0.1).nu,
    )
    inner = max(2, box.radius // 3)
    for fn in ("sqrt", "log", "exp", "inv"):
        arg = scale(x, 0.5) if fn == "exp" else x  # keep exp growth resolvable
        a = functional_calculus(arg, fn, box)
        b = orc.oracle_funcalc(arg, fn, radius=box.radius)
        spectral[f"funcalc_{fn}"] = (resize(a, inner) - resize(b, inner)).max_abs()
    d_main = determinant(metric.matrix, box)
    d_orc = orc.oracle_det(metric.matrix, radius=box.radius)
    spectral["determinant"] = (
        resize(d_main, box.radius // 2) - resize(d_orc, box.radius // 2)
    ).max_abs()
    dens = met.riemannian_density(metric)
    nu_orc = orc.oracle_density(metric.matrix, radius=box.radius)
    spectral["riemannian_density"] = (
        resize(dens.nu, box.radius // 2) - resize(nu_orc, box.radius // 2)
    ).max_abs()
    mult_radius = cfg.multiplier_radius  # 0 keeps the multipliers constant
    if mult_radius is None:
        mult_radius = cfg.box_radius // 4  # the largest that assemble allows
    op = lap.assemble_riemannian(metric, cfg.box, mult_radius=mult_radius, density=dens)
    m_orc = orc.oracle_laplacian_matrix(op.prefactor, op.multipliers, cfg.box)
    rows = lap.interior_indices(cfg.box, cfg.box_radius - 2 * mult_radius)
    algebraic["laplacian_matrix_interior"] = float(
        np.max(np.abs((op.matrix - m_orc)[rows]))
    )

    report = {"algebraic": algebraic, "spectral": spectral}
    _emit(report, args.out)
    gates = {}
    for name, val in algebraic.items():
        gates[name] = (val, cfg.tolerances.oracle_algebraic)
    for name, val in spectral.items():
        gates[name] = (val, cfg.tolerances.oracle_spectral)
    return _gate_lines(gates)


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "weyl": cmd_weyl,
    "conformal-check": cmd_conformal_check,
    "det-check": cmd_det_check,
    "adjoint-check": cmd_adjoint_check,
    "volume": cmd_volume,
    "oracle-compare": cmd_oracle_compare,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Spectral geometry on noncommutative tori at finite truncation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output file (CSV or JSON)")
        if name in ("spectrum", "adjoint-check"):
            p.add_argument("--count", type=int, default=None)
        if name == "weyl":
            p.add_argument("--window", default=None, help="index window lo:hi")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        cfg = nio.load_config(args.config)
        ok = _COMMANDS[args.command](cfg, args)
    except NCTorusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
