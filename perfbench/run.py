"""Benchmark of the nctorus command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each workload is a fixed list of `nctorus` subcommands on one
config generated from the seed.  Every subcommand runs in a fresh Python
process, one process at a time, with one BLAS thread: the way a user runs
the CLI, minus the thread noise that a shared two-core machine adds.

A pass runs the workload's subcommands once.  With --trace 0 the run makes
set-up probes, then passes for as long as the next pass is expected to end
within S seconds (always at least one), and reports the end-to-end metrics
of BENCHMARK.json, each a median over passes unless said otherwise: the
wall time (`wall_s`), the median set-up time over all processes
(`setup_s`) and the largest peak resident memory of a pass's subcommand
processes (`peak_rss_mb`).
With --trace 1 it runs one untraced pass and one traced pass and reports
the per-layer metrics.  The tracing overhead is reported two ways: the
tracer's own cost, measured inside the traced processes, and the difference
of the two passes' wall times, which a single pair resolves only when it
exceeds the `wall_s` bound.

A subcommand run fails on a nonzero exit, an exception, a `[FAIL]` gate or
missing gate lines.  The run is correct when nothing failed, repeated runs
of a subcommand printed identical gate lines, the traced pass reproduced
the untraced gate lines, and every span the workload should fire fired.

The last stdout line is the JSON summary; the line before it is the full
record (machine, code, per-subcommand times and gate lines, all spans).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from child import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GATE = re.compile(r"^\s*\[(PASS|FAIL)\] (.+): (\S+) \(<= (\S+)\)\s*$")

SETUP_PROBES = 6  # set-up-only processes per run, so setup_s is a median of several
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _jitter(rng, value):
    """value scaled by a seeded factor in [0.95, 1.05]: new inputs, same work."""
    return value * (1.0 + 0.05 * (2.0 * rng.random() - 1.0))


def _readme_config(seed, theta):
    """The README example config, with seeded amplitudes of the conformal factor."""
    rng = random.Random(seed)
    a, b = _jitter(rng, 0.15), _jitter(rng, 0.10)
    return {
        "geometry": {"n": 2, "theta_upper": [theta]},
        "box_radius": 10,
        "multiplier_radius": None,
        "stability_radius": 12,
        "metric": {
            "type": "conformal",
            "base": {"type": "flat"},
            "k": {"exp_of": [
                {"k": [1, 0], "re": a, "im": 0}, {"k": [-1, 0], "re": a, "im": 0},
                {"k": [0, 1], "re": b, "im": 0}, {"k": [0, -1], "re": b, "im": 0},
            ]},
        },
        "count": 100,
        "quadrature_points": 64,
        "tolerances": {"kernel": 1e-8},
        "seed": seed,
    }


def _n3_config(seed):
    rng = random.Random(seed)
    w = [([1, 0, 0], 0.15), ([0, 1, 0], 0.10), ([0, 0, 1], 0.08)]
    return {
        "geometry": {"n": 3, "theta_upper": [0.3, 0.2, 0.1]},
        "box_radius": 4,
        "calc_radius": 3,
        "stability_radius": 5,
        "count": 20,
        "metric": {
            "type": "conformal",
            "base": {"type": "constant",
                     "matrix": [[1.3, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]]},
            "k": {"witness": [{"k": k, "re": _jitter(rng, a), "im": 0} for k, a in w],
                  "constant": 1.0},
        },
        "seed": seed,
    }


_METRIC_SPANS = ["io.metric_from_spec", "metrics.validate_metric", "metrics.metric_conformal"]

# commands: (subcommand, extra args, --out suffix); spans: the per-layer spans
# the workload must fire, which together cover every span in BENCHMARK.json.
WORKLOADS = {
    "spectral-n2": {
        "config": lambda seed: _readme_config(seed, 0.7071067811865476),
        "commands": [("spectrum", [], ".csv"), ("weyl", [], ".json"),
                     ("conformal-check", [], ".json")],
        "spans": _METRIC_SPANS + [
            "laplacian.assemble_riemannian", "laplacian.assemble", "laplacian.spectrum",
            "laplacian.weyl_constant", "laplacian.conformal_covariance_check",
            "laplacian.conformally_deformed_flat_matrix", "calculus.functional_calculus",
            "calculus.compress", "calculus.matrix_inverse", "algebra.multiply",
            "algebra.exp_series", "metrics.riemannian_density", "io.load_config",
        ],
    },
    "forms-n2": {
        "config": lambda seed: _readme_config(seed, 0.7071067811865476),
        # ten seeded instances, so that their uneven product counts average out
        "commands": [("adjoint-check", ["--count", "10"], ".json")],
        "spans": [
            "forms.adjointness_residual", "forms.divergence_one_form",
            "forms.form_inner_product", "algebra.multiply", "algebra.exp_series",
            "calculus.matrix_inverse", "calculus.functional_calculus", "calculus.compress",
            "metrics.density_exp", "io.load_config",
        ],
    },
    "spectrum-n3": {
        "config": _n3_config,
        "commands": [("spectrum", [], ".csv")],
        "spans": _METRIC_SPANS + [
            "laplacian.assemble_riemannian", "laplacian.assemble", "laplacian.spectrum",
            "calculus.compress", "calculus.functional_calculus", "calculus.spectral_bounds",
            "calculus.refine_inverse_sqrt", "metrics.density_from_element",
            "metrics.riemannian_density", "algebra.multiply", "io.load_config",
        ],
    },
    "commutative-n2": {
        "config": lambda seed: _readme_config(seed, 0.0),
        "commands": [("oracle-compare", [], ".json"), ("det-check", [], ".json"),
                     ("volume", [], ".json")],
        "spans": _METRIC_SPANS + [
            "oracle.oracle_funcalc", "oracle.oracle_det", "oracle.oracle_density",
            "oracle.oracle_laplacian_matrix", "calculus.determinant",
            "calculus.functional_calculus", "calculus.compress", "metrics.riemannian_density",
            "algebra.multiply", "algebra.exp_series", "io.load_config",
        ],
    },
}

# ---------------------------------------------------------------------------
# machine and code
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _code():
    files = sorted((SRC / "nctorus").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None  # the benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


# ---------------------------------------------------------------------------
# running subcommands
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, config_path, workdir, deadline):
        self.config_path = config_path
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def process(self, trace, command=()):
        """One fresh process; returns its record plus wall time and gate lines."""
        remaining = self.deadline - time.monotonic()
        out = {"argv": list(command), "wall_s": None, "gates": [], "error": None}
        if remaining <= 0:
            out["error"] = "deadline reached before start"
            return out
        t0 = time.monotonic()
        argv = [sys.executable, str(CHILD), repr(t0), "1" if trace else "0", self.config_path,
                *command]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=self.workdir, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            out["error"] = f"timed out after {remaining:.0f} s"
            return out
        out["wall_s"] = time.monotonic() - t0
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith(MARKER):
            out["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            return out
        out.update(json.loads(lines[-1][len(MARKER):]))
        out["gates"] = [line.strip() for line in lines if GATE.match(line)]
        if command:
            failed = [g for g in out["gates"] if GATE.match(g).group(1) == "FAIL"]
            if out.get("rc") != 0:
                out["error"] = f"exit code {out.get('rc')}: {proc.stderr.strip()[-2000:]}"
            elif failed:
                out["error"] = f"failed gates: {failed}"
            elif not out["gates"]:
                out["error"] = "no gate lines"
        return out

    def run_pass(self, commands, trace):
        t0 = time.monotonic()
        runs = []
        for name, extra, suffix in commands:
            out_path = f"{name}{'-traced' if trace else ''}{suffix}"
            runs.append(self.process(
                trace, [name, "--config", self.config_path, "--out", out_path, *extra]))
        return {"wall_s": time.monotonic() - t0, "runs": runs}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metric_name(command):
    return command.replace("-", "_")


def _tracer_cost(traced):
    """Seconds the tracer spent in a traced pass: wrapper calls plus counters."""
    return sum(
        stats["calls"] * r.get("wrapper_call_s", 0.0) + stats["counter_s"]
        for r in traced["runs"] for stats in r.get("spans", {}).values())


def _layer_metrics(spec, traced, untraced, span_stats, overhead):
    metrics = {}
    cmd_times = {
        _metric_name(r["argv"][0]): r.get("main_s") or 0.0 for r in untraced["runs"]}
    for entry in spec:
        name = entry["name"]
        if name == "trace.wall_s":
            value = traced["wall_s"]
        elif name == "trace.untraced_wall_s":
            value = untraced["wall_s"]
        elif name == "trace.overhead_s":
            value = overhead
        elif name == "trace.overhead_ratio":
            value = overhead / untraced["wall_s"]
        elif name.startswith("cli."):
            value = cmd_times.get(name.split(".")[1], 0.0)
        else:
            module, function, stat = name.split(".")
            stats = span_stats.get(f"{module}.{function}")
            value = tracer.layer_value(stats, stat) if stats else 0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def _pass_record(p):
    keys = ("argv", "setup_s", "main_s", "main_cpu_s", "wall_s", "rss_mb", "rc", "gates", "error")
    return {"wall_s": p["wall_s"], "runs": [{k: r.get(k) for k in keys} for r in p["runs"]]}


def _layer_spans(spec):
    return {e["name"].rsplit(".", 1)[0] for e in spec
            if not e["name"].startswith(("trace.", "cli."))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (SRC / "nctorus" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nctorus sources under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = _layer_spans(spec["per_layer"]) - set().union(
        *(w["spans"] for w in WORKLOADS.values()))
    if missing:
        sys.exit(f"perfbench: per-layer spans no workload fires: {sorted(missing)}")

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (workdir / "config.json").write_text(json.dumps(workload["config"](args.seed)))
        runner = Runner("config.json", workdir, start + DEADLINE_S)
        probes = [runner.process(False) for _ in range(SETUP_PROBES if not args.trace else 1)]
        if any(p["error"] for p in probes):
            sys.exit(f"perfbench: set-up failed: {probes[0]['error'] or probes[-1]['error']}")
        passes, traced = [], None
        if args.trace:
            passes.append(runner.run_pass(workload["commands"], trace=False))
            traced = runner.run_pass(workload["commands"], trace=True)
        else:
            while True:
                passes.append(runner.run_pass(workload["commands"], trace=False))
                expected = statistics.median(p["wall_s"] for p in passes)
                if time.monotonic() - start + expected > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r for p in passes + ([traced] if traced else []) for r in p["runs"]]
    problems = [f"{r['argv'][0]}: {r['error']}" for r in runs if r["error"]]
    by_command = {}
    for r in runs:
        by_command.setdefault(r["argv"][0], []).append(r["gates"])
    for command, gate_sets in by_command.items():
        if any(g != gate_sets[0] for g in gate_sets):
            problems.append(f"{command}: gate lines differ between runs of the same input")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
                    "blas_threads": int(BLAS_THREADS), **probes[0]["libraries"]},
        "code": _code(),
        "config": workload["config"](args.seed),
        "passes": [_pass_record(p) for p in passes],
        "failed_ratio": sum(1 for r in runs if r["error"]) / len(runs),
    }
    if args.trace:
        span_stats = {}
        for r in traced["runs"]:
            for name, stats in r.get("spans", {}).items():
                tracer.merge(span_stats.setdefault(name, {}), stats)
        wrapped = set(traced["runs"][0].get("wrapped", []))
        gone = _layer_spans(spec["per_layer"]) - wrapped
        if gone:
            problems.append(f"per-layer spans not found among public functions: {sorted(gone)}")
        miscounted = [name for name, stats in span_stats.items() if stats["miscounted"]]
        if miscounted:
            problems.append(f"counters could not be derived for: {miscounted}")
        silent = [s for s in workload["spans"] if s not in span_stats]
        if silent:
            problems.append(f"spans this workload should fire did not: {silent}")
        overhead = _tracer_cost(traced)
        metrics = _layer_metrics(spec["per_layer"], traced, passes[0], span_stats, overhead)
        record["traced_pass"] = _pass_record(traced)
        record["spans"] = span_stats
        # run-to-run wall time drifts by up to the wall_s bound, so a single
        # pair's difference within that share of the wall is not resolved
        noise = next(e["bound"] for e in spec["end_to_end"] if e["name"] == "wall_s")
        pair_diff = traced["wall_s"] - passes[0]["wall_s"]
        record["tracing_overhead"] = {
            "tracer_cost_s": overhead,
            "pass_difference_s": pair_diff,
            "pass_difference_resolved": abs(pair_diff) > noise * passes[0]["wall_s"],
        }
    else:
        setups = [r["setup_s"] for r in probes + runs if r.get("setup_s") is not None]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                max(r.get("rss_mb") or 0.0 for r in p["runs"]) for p in passes),
        }
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                   for e in spec["end_to_end"]}
        times = {}
        for r in runs:
            if r.get("main_s") is not None:
                times.setdefault(_metric_name(r["argv"][0]), []).append(r["main_s"])
        record["command_median_s"] = {k: statistics.median(v) for k, v in times.items()}
    record["problems"] = problems
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["error"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
