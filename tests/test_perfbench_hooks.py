"""The benchmark's per-layer tracing still finds what it wraps in atckit.

``perfbench/tracing.py`` patches atckit functions by module and name and
reads ``config.n_boot`` from ``run_benchmark``'s third argument. It is
loaded here from its file, without installing anything, so a rename or a
signature change in atckit fails this test instead of ``--trace 1``.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atckit.harness

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
SRC = str(Path(atckit.harness.__file__).resolve().parents[1])


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_tracing().TRACED


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_function_exists(span):
    module, attr, _ = TRACED[span]
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_run_benchmark_takes_config_third():
    params = list(inspect.signature(atckit.harness.run_benchmark).parameters)
    assert params[2] == "config"


def test_cli_import_loads_every_traced_module():
    # ``tracing.install`` imports atckit.cli and then looks each module up in
    # sys.modules, so a module the CLI imported lazily would stop --trace 1
    script = "import json, sys, atckit.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    loaded = set(json.loads(result.stdout))
    assert {module for module, _, _ in TRACED.values()} <= loaded
