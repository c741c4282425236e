import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nctorus
from nctorus import algebra as alg, calculus as calc, cli, io as nio, metrics as met
from nctorus.algebra import LatticeBox
from nctorus.errors import BoxTooLarge, NCTorusError, NonSelfadjointInput, PositivityViolation
from nctorus.forms import OneForm

from conftest import coeff_diff, spectrum


def _fresh_interpreter(code):
    """The stdout of code run in a new Python process that imports this nctorus."""
    path = [str(Path(nctorus.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_loads_no_scipy_module():
    """Every subcommand process imports the command line first; scipy would
    add about 0.2 s and 26 MB to each, and no subcommand needs it."""
    code = "import sys, nctorus.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_interpreter(code).strip() == "[]"


def test_no_subcommand_loads_scipy(tmp_path):
    """Every subcommand runs on numpy's LAPACK alone, the Laplacian's pencil
    included, and leaves scipy out of the process: all seven run in one
    fresh interpreter, each to its gates (exit 0 or 1, no refusal)."""
    small = {"box_radius": 6, "stability_radius": 8, "count": 2}
    cfg = _write_cfg(tmp_path, **small)
    (tmp_path / "zero").mkdir()
    zero = _write_cfg(tmp_path / "zero", **small, geometry={"n": 2, "theta_upper": [0.0]})
    commands = [["det-check", "--config", cfg], ["volume", "--config", cfg],
                ["oracle-compare", "--config", zero], ["adjoint-check", "--config", cfg],
                ["spectrum", "--config", cfg], ["weyl", "--config", cfg],
                ["conformal-check", "--config", cfg]]
    code = (
        "import json, sys\n"
        "from nctorus import cli\n"
        "seen = []\n"
        f"for argv in {commands!r}:\n"
        "    rc = cli.main(argv)\n"
        "    seen.append([argv[0], rc, any(m.split('.')[0] == 'scipy' for m in sys.modules)])\n"
        "print(json.dumps(seen))\n"
    )
    seen = json.loads(_fresh_interpreter(code).splitlines()[-1])
    assert [name for name, _, _ in seen] == [argv[0] for argv in commands]
    assert all(rc in (0, 1) for _, rc, _ in seen), seen
    assert not any(loaded for _, _, loaded in seen), seen


def test_geometry_literal_roundtrip(geom):
    back = nio.geometry_from_literal({"n": 2, "theta": geom.theta.tolist()})
    assert back == geom
    upper = nio.geometry_from_literal({"n": 3, "theta_upper": [0.3, 0.2, 0.1]})
    assert upper.theta[0, 1] == 0.3 and upper.theta[2, 0] == -0.2


def test_element_literal_roundtrip(geom):
    lit = [{"k": [0, 0], "re": 1.5}, {"k": [2, -1], "re": 0.25, "im": 0.5},
           {"k": [-2, 1], "im": -0.5}]
    u = nio.element_from_literal(geom, lit)
    assert u.box.radius == 2
    assert u.coefficient((0, 0)) == 1.5
    assert u.coefficient((2, -1)) == 0.25 + 0.5j
    assert u.coefficient((-2, 1)) == -0.5j
    assert u.coefficient((1, 1)) == 0.0
    sparse = nio.element_from_literal(geom, [{"k": [1, 0], "re": 0.5, "im": -0.25}])
    assert sparse.coefficient((1, 0)) == 0.5 - 0.25j
    assert sparse.box.radius == 1


def test_matrix_and_form_literals(geom):
    one = [{"k": [0, 0], "re": 1.0}]
    lit = [[one, [{"k": [1, 0], "re": 0.5, "im": 0.25}]],
           [[{"k": [-1, 0], "re": 0.5, "im": -0.25}], [{"k": [0, 0], "re": 2.0}]]]
    m = nio.matrix_from_literal(geom, lit)
    assert m.m == 2 and m.box.radius == 1
    assert m.entries[0][0].coefficient((0, 0)) == 1.0
    assert m.entries[0][1].coefficient((1, 0)) == 0.5 + 0.25j
    assert m.entries[1][0].coefficient((-1, 0)) == 0.5 - 0.25j
    assert m.entries[1][1].coefficient((0, 0)) == 2.0
    assert m.selfadjoint_residual() == 0.0
    # a form literal is a list of n element literals, one per component
    omega = OneForm(geom, tuple(nio.element_from_literal(geom, c) for c in lit[0]))
    for i in range(2):
        assert coeff_diff(omega.components[i], m.entries[0][i]) == 0.0


def _positive(geom, spec, box):
    """The element that a positive element spec builds on box."""
    _, build = nio._positive_spec(geom, spec)
    return build(box)


def _built(geom, spec, box):
    """The density's nu and the conformal metric's factor that a positive
    element spec builds on box, each through its consumer."""
    nu = nio.density_from_spec(geom, spec, box).nu
    g = nio.metric_from_spec(geom, {"type": "conformal", "k": spec}, box)
    assert coeff_diff(g.matrix.entries[0][0], alg.multiply(nu, nu)) < 1e-14
    return nu


def test_positive_element_specs(geom):
    box = LatticeBox(2, 6)
    exp_spec = {"exp_of": [{"k": [1, 0], "re": 0.1, "im": 0.0},
                           {"k": [-1, 0], "re": 0.1, "im": 0.0}]}
    k = _built(geom, exp_spec, box)
    lo, _ = calc.spectral_bounds(k, box)
    assert lo > 0.5
    wit_spec = {"witness": [{"k": [0, 1], "re": 0.3, "im": 0.0}], "constant": 1.0}
    k2 = _built(geom, wit_spec, box)
    lo2, _ = calc.spectral_bounds(k2, box)
    assert lo2 >= 1.0 - 1e-10
    wave = [{"k": [1, 0], "re": 1.0, "im": 0.0}, {"k": [-1, 0], "re": 1.0, "im": 0.0}]
    with pytest.raises(PositivityViolation):
        nio.density_from_spec(geom, wave, box)
    with pytest.raises(PositivityViolation):
        nio.metric_from_spec(geom, {"type": "conformal", "k": wave}, box)


def test_positive_element_spec_floor(geom):
    """A bare literal passes just above the spectral floor and is refused, as a
    PositivityViolation, just below it: by the density's inverse square root
    and by the conformal metric's bounds, each testing it once."""
    box = LatticeBox(2, 6)
    wave = [{"k": [1, 0], "re": 1.0, "im": 0.0}, {"k": [-1, 0], "re": 1.0, "im": 0.0}]
    lam_min = np.linalg.eigvalsh(calc.compress(nio.element_from_literal(geom, wave), box).matrix)[0]
    floor = calc.SPECTRAL_FLOOR

    def shifted(margin):
        return wave + [{"k": [0, 0], "re": floor + margin - lam_min, "im": 0.0}]

    _built(geom, shifted(1e-9), box)
    with pytest.raises(PositivityViolation):
        nio.density_from_spec(geom, shifted(-1e-9), box)
    with pytest.raises(PositivityViolation):
        nio.metric_from_spec(geom, {"type": "conformal", "k": shifted(-1e-9)}, box)
    # each consumer tests selfadjointness first: a literal that also fails it
    # is refused as not selfadjoint
    odd = shifted(-1e-9) + [{"k": [0, 1], "re": 0.0, "im": 1e-3}]
    with pytest.raises(NonSelfadjointInput):
        nio.density_from_spec(geom, odd, box)
    with pytest.raises(NonSelfadjointInput):
        nio.metric_from_spec(geom, {"type": "conformal", "k": odd}, box)


def test_metric_specs(geom):
    box = LatticeBox(2, 6)
    flat = nio.metric_from_spec(geom, {"type": "flat"}, box)
    assert flat.is_flat
    const = nio.metric_from_spec(
        geom, {"type": "constant", "matrix": [[2.0, 0.3], [0.3, 1.0]]}, box
    )
    assert const.matrix.entries[0][1].coefficient((0, 0)) == 0.3
    conf = nio.metric_from_spec(
        geom,
        {"type": "conformal", "k": {"exp_of": [{"k": [1, 0], "re": 0.1, "im": 0},
                                               {"k": [-1, 0], "re": 0.1, "im": 0}]}},
        box,
    )
    assert not conf.is_flat
    func = nio.metric_from_spec(
        geom,
        {
            "type": "functional",
            "h": [{"k": [1, 0], "re": 0.5, "im": 0}, {"k": [-1, 0], "re": 0.5, "im": 0}],
            "poly": [[[1.2, 0.1], [0.0, 0.05]], [[0.0, 0.05], [0.9, 0.0]]],
        },
        box,
    )
    assert func.is_self_compatible()
    prod = nio.metric_from_spec(
        geom,
        {"type": "product", "blocks": [
            {"type": "explicit", "entries": [[[{"k": [0, 0], "re": 2.0, "im": 0}]]]},
            {"type": "explicit", "entries": [[[{"k": [0, 0], "re": 3.0, "im": 0}]]]},
        ]},
        box,
    )
    assert prod.matrix.entries[1][1].coefficient((0, 0)) == 3.0


def test_config_parsing(tmp_path):
    cfg = {
        "geometry": {"n": 2, "theta_upper": [0.5]},
        "box_radius": 6,
        "multiplier_radius": 1,
        "window": "10:40",
        "tolerances": {"kernel": 1e-7},
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    run = nio.load_config(path)
    assert run.geometry.theta[0, 1] == 0.5
    assert run.box.radius == 6 and run.calc_box.radius == 6
    assert run.multiplier_radius == 1
    assert run.window == (10, 40)
    assert run.tolerances.kernel == 1e-7
    assert run.tolerances.adjointness == 1e-10  # defaults survive partial override
    with pytest.raises(ValueError):
        nio.Tolerances.from_dict({"not_a_knob": 1.0})


def test_spectrum_csv_roundtrip(tmp_path, geom):
    from nctorus import laplacian as lap

    op = lap.assemble_riemannian(met.metric_flat(geom), LatticeBox(2, 3))
    res = spectrum(op)
    path = tmp_path / "spec.csv"
    nio.write_spectrum_csv(path, res)
    with open(path, newline="", encoding="utf8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == res.eigenvalues.size
    assert [float(r["eigenvalue"]) for r in rows] == res.eigenvalues.tolist()
    assert [r["stable"] for r in rows] == [str(int(s)) for s in res.stable]
    assert [int(r["multiplicity_group"]) for r in rows] == res.multiplicity_group.tolist()
    assert [int(r["index"]) for r in rows] == list(range(len(rows)))


def _write_cfg(tmp_path, **overrides):
    cfg = {
        "geometry": {"n": 2, "theta_upper": [0.7071067811865476]},
        "box_radius": 8,
        "metric": {
            "type": "conformal",
            "base": {"type": "flat"},
            "k": {"exp_of": [
                {"k": [1, 0], "re": 0.1, "im": 0}, {"k": [-1, 0], "re": 0.1, "im": 0},
                {"k": [0, 1], "re": 0.07, "im": 0}, {"k": [0, -1], "re": 0.07, "im": 0},
            ]},
        },
        "count": 20,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_spectrum_and_weyl(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf8") as f:
        rows = list(csv.DictReader(f))
    assert float(rows[0]["eigenvalue"]) == pytest.approx(0.0, abs=1e-8)
    assert cli.main(["weyl", "--config", cfg, "--window", "10:60",
                     "--out", str(tmp_path / "weyl.json")]) == 0
    report = json.loads((tmp_path / "weyl.json").read_text())
    assert abs(report["exponent"] - 1.0) < 0.05


def test_cli_checks(tmp_path):
    cfg = _write_cfg(tmp_path, box_radius=10)
    assert cli.main(["volume", "--config", cfg]) == 0
    assert cli.main(["det-check", "--config", cfg]) == 0
    assert cli.main(["adjoint-check", "--config", cfg, "--count", "3"]) == 0
    assert cli.main(["conformal-check", "--config", cfg,
                     "--out", str(tmp_path / "conf.json")]) == 0
    report = json.loads((tmp_path / "conf.json").read_text())
    assert report["two_dim_residual"] < 1e-8


def test_cli_adjoint_check_writes_its_report(tmp_path):
    """--out holds the instance count and the worst residual, whether the
    gate passes (exit 0) or fails (exit 1)."""
    for tolerance, code in ((1e-10, 0), (1e-18, 1)):
        cfg = _write_cfg(tmp_path, box_radius=6, tolerances={"adjointness": tolerance})
        out = tmp_path / "adjoint.json"
        assert cli.main(["adjoint-check", "--config", cfg, "--count", "2",
                         "--out", str(out)]) == code
        report = json.loads(out.read_text())
        assert set(report) == {"instances", "worst_residual"}
        assert report["instances"] == 2
        assert 1e-18 < report["worst_residual"] <= 1e-10
        out.unlink()


def test_calc_radius_zero_is_kept(tmp_path):
    """calc_radius 0 is the box B_0, not the working box; null is B_N."""
    for calc_radius, want in ((0, 0), (None, 8)):
        run = nio.load_config(_write_cfg(tmp_path, calc_radius=calc_radius))
        assert run.calc_box == LatticeBox(2, want)


def test_cli_oracle_compare(tmp_path):
    cfg = _write_cfg(tmp_path, geometry={"n": 2, "theta_upper": [0.0]})
    assert cli.main(["oracle-compare", "--config", cfg,
                     "--out", str(tmp_path / "oracle.json")]) == 0
    report = json.loads((tmp_path / "oracle.json").read_text())
    assert report["algebraic"]["multiply"] < 1e-12


def test_cli_oracle_compare_multiplier_radius_zero(tmp_path, capsys):
    # an explicit 0 keeps the multipliers constant
    cfg = _write_cfg(tmp_path, geometry={"n": 2, "theta_upper": [0.0]}, box_radius=3,
                     multiplier_radius=0)
    assert cli.main(["oracle-compare", "--config", cfg,
                     "--out", str(tmp_path / "oracle.json")]) in (0, 1)
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "oracle.json").read_text())
    assert report["algebraic"]["laplacian_matrix_interior"] < 1e-12


_README_METRIC = {"type": "conformal", "base": {"type": "flat"}, "k": {"exp_of": [
    {"k": [1, 0], "re": 0.15, "im": 0}, {"k": [-1, 0], "re": 0.15, "im": 0},
    {"k": [0, 1], "re": 0.10, "im": 0}, {"k": [0, -1], "re": 0.10, "im": 0},
]}}


def test_cli_oracle_compare_small_box_default(tmp_path, capsys):
    # without a multiplier radius the clip is box_radius // 4, which is 0 (the
    # constant parts only) below box radius 4: the run reaches its gates.  At
    # box radius 3 the spectral gates fail from truncation, exit 1, and the
    # operator matches the oracle's on the interior rows
    cfg = _write_cfg(tmp_path, geometry={"n": 2, "theta_upper": [0.0]}, box_radius=3,
                     stability_radius=12, metric=_README_METRIC)
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "[PASS] laplacian_matrix_interior: " in captured.out
    assert json.loads(out.read_text())["algebraic"]["laplacian_matrix_interior"] < 1e-12


_NU = {"exp_of": [{"k": [1, 0], "re": 0.1}, {"k": [-1, 0], "re": 0.1}]}
# diag(1 + a, 1 + b) with a, b along different axes: its entries do not commute
_NOT_SELF_COMPATIBLE = {"type": "explicit", "entries": [
    [[{"k": [0, 0], "re": 1.0}, {"k": [1, 0], "re": 0.02}, {"k": [-1, 0], "re": 0.02}], []],
    [[], [{"k": [0, 0], "re": 1.0}, {"k": [0, 1], "re": 0.02}, {"k": [0, -1], "re": 0.02}]],
]}


@pytest.mark.parametrize(
    "command, overrides, computed, exits",
    [
        ("weyl", {}, 1, (0,)),
        ("oracle-compare", {}, 1, (0,)),
        # with nu set, the metric's own density serves only the closed form of a
        # self-compatible metric.  The counting-ratio gate of the near-flat
        # explicit metric fails on the window 10:60: there only the count is tested
        ("weyl", {"nu": _NU}, 1, (0,)),
        ("weyl", {"nu": _NU, "metric": _NOT_SELF_COMPATIBLE}, 0, (0, 1)),
    ],
    ids=["weyl", "oracle-compare", "weyl-nu", "weyl-nu-not-self-compatible"],
)
def test_cli_computes_the_density_once(tmp_path, monkeypatch, command, overrides, computed,
                                       exits):
    from nctorus import laplacian as lap

    calls = []
    original = met.riemannian_density

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(met, "riemannian_density", counted)
    monkeypatch.setattr(lap, "riemannian_density", counted)
    theta = 0.0 if command == "oracle-compare" else 0.7071067811865476
    cfg = _write_cfg(tmp_path, geometry={"n": 2, "theta_upper": [theta]}, **overrides)
    argv = [command, "--config", cfg] + (["--window", "10:60"] if command == "weyl" else [])
    assert cli.main(argv) in exits
    assert len(calls) == computed


@pytest.mark.parametrize(
    "command, theta, built",
    [("spectrum", 0.7071067811865476, 0), ("weyl", 0.7071067811865476, 0),
     ("conformal-check", 0.7071067811865476, 0), ("oracle-compare", 0.0, 1)],
)
def test_cli_forms_the_operator_matrix_only_where_it_is_read(tmp_path, monkeypatch, command,
                                                            theta, built):
    """The d x d matrix M(nu^-1) K is formed by operator_matrix for its one
    reader, oracle-compare, which compares it with the oracle's: spectrum
    and weyl solve the pencil, and conformal-check forms the law's matrices
    class by class."""
    from nctorus import laplacian as lap

    calls = []

    def spy(*args, _original=lap.operator_matrix):
        calls.append("operator_matrix")
        return _original(*args)

    monkeypatch.setattr(lap, "operator_matrix", spy)
    cfg = _write_cfg(tmp_path, geometry={"n": 2, "theta_upper": [theta]})
    argv = [command, "--config", cfg] + (["--window", "10:60"] if command == "weyl" else [])
    assert cli.main(argv) == 0
    assert len(calls) == built


def test_cli_density_override(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        metric={"type": "flat"},
        nu={"exp_of": [{"k": [1, 0], "re": 0.1, "im": 0},
                       {"k": [-1, 0], "re": 0.1, "im": 0}]},
        count=10,
    )
    assert cli.main(["spectrum", "--config", cfg]) == 0


def test_cli_failure_paths(tmp_path):
    # nonzero theta is an error for the oracle
    cfg = _write_cfg(tmp_path)
    assert cli.main(["oracle-compare", "--config", cfg]) == 2
    # an impossible tolerance flips the exit code, not the report
    cfg_strict = _write_cfg(tmp_path, tolerances={"adjointness": 1e-18})
    assert cli.main(["adjoint-check", "--config", cfg_strict, "--count", "2"]) == 1


@pytest.mark.parametrize("command, name", [("spectrum", "spec.csv"), ("volume", "vol.json")],
                         ids=["csv", "json"])
def test_cli_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command, name):
    cfg = _write_cfg(tmp_path, box_radius=4, stability_radius=6, count=5)
    # a missing directory, or a directory as the file, is refused before any work
    for out in (tmp_path / "missing" / name, tmp_path):
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --out ")
        assert captured.err.count("\n") == 1
    # a directory that goes away during the run: the write's OSError is one
    # error line and exit 2, not a traceback
    folder = tmp_path / "gone"
    folder.mkdir()
    load = nio.load_config

    def load_then_remove(path):
        config = load(path)
        folder.rmdir()
        return config

    monkeypatch.setattr(nio, "load_config", load_then_remove)
    assert cli.main([command, "--config", cfg, "--out", str(folder / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and "FileNotFoundError" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "tolerances, command, gate",
    [
        ({"stability_rel": 1e-30}, "spectrum", "kernel |lambda_0|"),
        ({"stability_rel": 1e-30}, "conformal-check", "deformed flat spectrum match"),
        ({"asymmetry_threshold": 1e-30}, "spectrum", "asymmetry"),
        ({"asymmetry_threshold": 1e-30}, "weyl", "asymmetry"),
        ({"asymmetry_threshold": 1e-30}, "conformal-check", "asymmetry"),
    ],
    ids=["nothing-stable-spectrum", "nothing-stable-conformal", "asymmetry-spectrum",
         "asymmetry-weyl", "asymmetry-conformal"],
)
def test_cli_spectral_gates_fail_with_exit_1(tmp_path, capsys, tolerances, command, gate):
    # what a spectrum measures is judged by the gates: exit 1 with a [FAIL]
    # line, never exit 2 (invalid input) or a traceback
    cfg = _write_cfg(tmp_path, box_radius=4, stability_radius=6, count=5,
                     quadrature_points=16, tolerances=tolerances)
    assert cli.main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"[FAIL] {gate}: " in captured.out


@pytest.mark.parametrize("command", ["spectrum", "weyl"])
def test_cli_refuses_a_gram_matrix_that_is_not_positive(tmp_path, capsys, command):
    # nu = exp(2 cos x_1) clipped to radius 1 is I_0(2) + 2 I_1(2) cos x_1,
    # not positive: the pencil's Gram matrix M(nu) is refused, exit 2
    nu = {"exp_of": [{"k": [1, 0], "re": 1.0}, {"k": [-1, 0], "re": 1.0}]}
    cfg = _write_cfg(tmp_path, box_radius=4, multiplier_radius=1, count=5,
                     quadrature_points=16, metric={"type": "flat"}, nu=nu)
    assert cli.main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Gram matrix M(nu)")
    assert captured.out == ""


def test_cli_weyl_gates_the_stable_count(tmp_path, capsys):
    # with nothing stable, neither the default window nor a given one can be
    # fitted: a failed gate, exit 1; a malformed window is still invalid input
    cfg = _write_cfg(tmp_path, box_radius=4, stability_radius=6, count=5,
                     quadrature_points=16, tolerances={"stability_rel": 1e-30})
    for window in ([], ["--window", "1:3"]):
        assert cli.main(["weyl", "--config", cfg, *window]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "[FAIL] window stable deficit: " in captured.out
    for window in ("5", "5:3", "0:4"):
        assert cli.main(["weyl", "--config", cfg, "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_weyl_writes_strict_json(tmp_path):
    # a metric that is not self-compatible has no closed-form constant; its
    # NaN values are written as null, which strict JSON parsers accept
    def entry(axis):
        e = [0, 0]
        e[axis] = 1
        return [{"k": [0, 0], "re": 2.0}, {"k": e, "re": 0.1},
                {"k": [-x for x in e], "re": 0.1}]

    cfg = _write_cfg(
        tmp_path, box_radius=6, stability_radius=8, quadrature_points=16,
        metric={"type": "explicit", "entries": [[entry(0), []], [[], entry(1)]]},
    )
    out = tmp_path / "weyl.json"
    assert cli.main(["weyl", "--config", cfg, "--out", str(out)]) in (0, 1)

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads(out.read_text(), parse_constant=refuse)
    assert report["c_n_closed_form"] is None and report["c_n_residual"] is None
    assert report["c_n_quadrature"] > 0.0


# inputs whose fault shows only when the metric is built: the file reads
# fine, and an exponent of l1 norm 120 is refused by the series itself
_BUILD_ERRORS = ("exp-of-not-converging", "element-spec-not-positive")


@pytest.mark.parametrize(
    "overrides",
    [
        None,  # no config file at all
        {"tolerances": {"kernal": 1e-8}},
        {"tolerances": {"selfadjoint": 1e-30, "inverse": 1e-30}},  # removed keys
        {"tolerances": {"spectral_floor": 0.6}},  # removed: a constant of calculus
        {"metric": {"type": "conformall"}},
        {"metric": {"type": "conformal", "base": {"type": "flatt"}, "k": []}},
        {"box_radius": -3},
        {"multiplier_radus": 2},
        {"metric": {"type": "conformal", "k": {"exp_off": [
            {"k": [1, 0], "re": 0.1, "im": 0}, {"k": [-1, 0], "re": 0.1, "im": 0}]}}},
        {"multiplier_radius": 3, "box_radius": 10},
        {"metric": {"type": "constant", "matrx": [[1.0, 0.0], [0.0, 1.0]]}},
        {"metric": {"type": "functional", "h": [{"k": [1, 0], "re": 0.1, "im": 0}]}},
        {"metric": {"type": "explicit"}},
        {"metric": {"type": "constant", "matrix": "abc"}},
        {"metric": {"type": "conformal", "k": [{"k": [1, 0, 0], "re": 1.0, "im": 0}]}},
        {"metric": {"type": "conformal", "k": {"exp_of": 5}}},
        {"window": [5]},
        {"box_radius": 10.7},
        {"metric": {"type": "constant", "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                   [0.0, 0.0, 1.0]]}},
        {"tolerances": {"kernel": "tight"}},
        {"geometry": {"n": 2, "theta_upper": [0.3, 0.2]}},
        {"count": 0},
        {"window": "5"},
        {"tolerances": []},
        {"tolerances": ""},
        {"geometry": {"n": 2, "theta_upper": [0.5], "thetta": 1}},
        {"geometry": {"n": 2, "theta": [[0.0, 0.5], [-0.5, 0.0]], "theta_upper": [0.5]}},
        {"metric": {"type": "conformal", "k": {"exp_of": [
            {"k": [1, 0], "Re": 0.1, "im": 0}, {"k": [-1, 0], "re": 0.1, "im": 0}]}}},
        {"stability_radius": 8},
        {"stability_radius": 6},
        {"metric": {"type": "conformal", "k": {"exp_of": [
            {"k": [1, 0], "re": 60, "im": 0}, {"k": [-1, 0], "re": 60, "im": 0}]}}},
        {"window": [40, 10]},
        # Python's json reads NaN and Infinity: no number of a config may be either
        {"tolerances": {"kernel": float("nan")}},
        {"geometry": {"n": 2, "theta_upper": [float("inf")]}},
        {"metric": {"type": "conformal", "k": {"exp_of": [{"k": [1, 0], "re": float("nan")}]}}},
        {"tolerances": {"kernel": 10**400}},  # an integer beyond every float
        # a negative bound is a gate that no residual passes
        {"tolerances": {"volume": -1.0}},
        {"tolerances": {"kernel": -1}},
        # a bare literal whose compression dips below the spectral floor
        {"metric": {"type": "conformal", "k": [
            {"k": [1, 0], "re": 1.0, "im": 0}, {"k": [-1, 0], "re": 1.0, "im": 0}]}},
        # no sphere nodes, or a negative count of them; a seed numpy refuses
        {"quadrature_points": 0},
        {"quadrature_points": -3},
        {"seed": -1},
        # a sphere rule beyond any address space: p angles at n = 2, and at
        # n = 3 a Legendre companion matrix of 10^16 entries
        {"quadrature_points": 10**16},
        {"geometry": {"n": 3, "theta_upper": [0.3, 0.2, 0.1]}, "box_radius": 2,
         "metric": {"type": "flat"}, "quadrature_points": 10**16},
    ],
    ids=["missing-file", "tolerance-typo", "removed-tolerances", "removed-spectral-floor",
         "metric-type", "base-metric-type", "negative-radius", "top-level-typo",
         "positive-spec-typo", "multiplier-radius-too-large", "constant-spec-typo",
         "functional-spec-no-poly", "explicit-spec-no-entries", "constant-matrix-string",
         "mode-wrong-dimension", "exp-of-number", "window-one-bound", "box-radius-float",
         "metric-wrong-size", "tolerance-string", "theta-upper-length", "count-zero",
         "window-string-one-bound", "tolerances-list", "tolerances-string",
         "geometry-key-typo", "geometry-theta-twice", "element-item-key-typo",
         "stability-radius-equal", "stability-radius-below", "exp-of-not-converging",
         "window-unordered", "tolerance-nan", "theta-upper-infinity", "exp-of-nan",
         "tolerance-huge-integer", "tolerance-negative", "tolerance-negative-integer",
         "element-spec-not-positive", "quadrature-points-zero", "quadrature-points-negative",
         "seed-negative", "quadrature-points-beyond-memory-n2",
         "quadrature-points-beyond-memory-n3"],
)
def test_cli_config_errors(tmp_path, capsys, request, overrides):
    # invalid input exits 2 with one error line, never 1 (a failed gate)
    if overrides is None:
        cfg = str(tmp_path / "absent.json")
    else:
        cfg = _write_cfg(tmp_path, **overrides)
    if request.node.callspec.id not in _BUILD_ERRORS:
        with pytest.raises(NCTorusError):
            nio.load_config(cfg)
    capsys.readouterr()
    assert cli.main(["volume", "--config", cfg]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""


def test_cli_weyl_refuses_dimension_without_quadrature(tmp_path, capsys, monkeypatch):
    # the sphere quadrature exists for n = 2 and 3: at n = 4 weyl refuses
    # before it assembles anything, exit 2 with one error line
    from nctorus import laplacian as lap

    def unreachable(*args, **kwargs):
        raise AssertionError("weyl assembled an operator it cannot fit")

    monkeypatch.setattr(lap, "assemble_riemannian", unreachable)
    cfg = _write_cfg(tmp_path, geometry={"n": 4, "theta_upper": [0.0] * 6}, box_radius=1,
                     metric={"type": "flat"})
    assert cli.main(["weyl", "--config", cfg]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0] == "error: weyl supports n = 2 or 3, got n = 4"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "--window", "5"],
        ["weyl", "--window", "a:b"],
        ["adjoint-check", "--count", "0"],
        ["adjoint-check", "--count", "-1"],
        ["spectrum", "--count", "0"],
        ["spectrum", "--count", "-1"],
    ],
    ids=["window-one-bound", "window-not-integers", "adjoint-count-zero",
         "adjoint-count-negative", "spectrum-count-zero", "spectrum-count-negative"],
)
def test_cli_flag_errors(tmp_path, capsys, argv):
    # a bad flag is invalid input like a bad config: exit 2, one error line, no gates
    cfg = _write_cfg(tmp_path)
    assert cli.main([*argv, "--config", cfg]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("geometry", [{"n": 2, "theta_upper": [0.5]},
                                      {"n": 3, "theta_upper": [0.3, 0.2, 0.1]}],
                         ids=["n2", "n3"])
def test_cli_weyl_refuses_a_sphere_rule_beyond_memory(tmp_path, capsys, geometry):
    # the sphere rule of 10^16 points cannot be allocated: weyl refuses it
    # at load, exit 2 with one error line, not a MemoryError traceback
    cfg = _write_cfg(tmp_path, geometry=geometry, box_radius=2, metric={"type": "flat"},
                     count=2, quadrature_points=10**16)
    assert cli.main(["weyl", "--config", cfg]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "sphere rule" in err[0]
    assert captured.out == ""


_W = [{"k": [1, 0], "re": 0.1}, {"k": [-1, 0], "re": 0.1}]


@pytest.mark.parametrize(
    "key, spec",
    [("metric", {"type": "conformal"}),
     ("metric", {"type": "constant", "matrix": [[1, 0], [0, 1]], "k": 1}),
     ("nu", {"exp_of": _W, "witness": _W})],
    ids=["conformal-without-k", "constant-extra-key", "exp-of-and-witness"],
)
def test_library_refuses_what_load_config_refuses(tmp_path, geom, key, spec):
    # metric_from_spec and density_from_spec read a spec as load_config does:
    # the same ValueError, not a KeyError or a key silently ignored
    with pytest.raises(NCTorusError) as at_load:
        nio.load_config(_write_cfg(tmp_path, **{key: spec}))
    build = nio.metric_from_spec if key == "metric" else nio.density_from_spec
    with pytest.raises(ValueError) as in_library:
        build(geom, spec, LatticeBox(2, 2))
    assert str(at_load.value).endswith(f": ValueError: {in_library.value}")


def test_exp_of_is_one_element_in_every_subcommand(tmp_path, capsys, geom):
    # k = exp(w) is density_exp(w).nu wherever it is read: with the scalar
    # part -7, which the plain series of exp(w) refuses for its cancellation,
    # spectrum, volume and conformal-check all build the metric
    w = [{"k": [0, 0], "re": -7.0}, *_W]
    spec, box = {"exp_of": w}, LatticeBox(2, 4)
    assert coeff_diff(_positive(geom, spec, box), nio.density_from_spec(geom, spec, box).nu) == 0.0
    cfg = _write_cfg(tmp_path, box_radius=4, stability_radius=6, count=5,
                     metric={"type": "conformal", "k": {"exp_of": w}})
    for command in ("spectrum", "volume", "conformal-check"):
        assert cli.main([command, "--config", cfg]) in (0, 1), command
        assert capsys.readouterr().err == ""


def test_cli_refuses_dense_matrix_beyond_memory(tmp_path, capsys):
    # n = 3, N = 40: the 3 x 3 metric on the stability box (radius 42) is dense
    # of size d = 3 * 85**3 and would need 16 d^2 bytes, about 54 TB
    cfg = _write_cfg(
        tmp_path,
        geometry={"n": 3, "theta_upper": [0.3, 0.2, 0.1]},
        box_radius=40,
        metric={"type": "flat"},
    )
    with pytest.raises(BoxTooLarge):
        nio.load_config(cfg)
    capsys.readouterr()
    assert cli.main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{16 * (3 * 85**3) ** 2} bytes" in err[0]
