"""The per-layer span names of BENCHMARK.json must name public package functions.

The benchmark's tracer wraps public functions by name, so a rename or a
move made by a refactor would silently drop a span; this fails first.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_benchmark_spans_are_public_functions():
    names = {
        entry["name"].rsplit(".", 1)[0]
        for entry in json.loads(BENCHMARK.read_text())["per_layer"]
        if not entry["name"].startswith(("trace.", "cli."))
    }
    assert names
    missing = []
    for name in sorted(names):
        module_name, function = name.split(".")
        module = importlib.import_module(f"nctorus.{module_name}")
        obj = vars(module).get(function)
        if (
            function.startswith("_")
            or not inspect.isfunction(obj)
            or obj.__module__ != module.__name__
        ):
            missing.append(name)
    assert not missing, f"spans without a public function of that module: {missing}"
