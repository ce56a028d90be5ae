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


_SAME_FUNCTIONS = """
import importlib, json, sys
import atckit.cli
report = {}
for module, attr in json.loads(sys.argv[1]):
    registered = sys.modules[module]
    fn = getattr(registered, attr)  # the first use runs the module's body
    plain = importlib.import_module(module)
    report[f"{module}.{attr}"] = [plain is registered, getattr(plain, attr) is fn, fn.__globals__ is vars(plain)]
print(json.dumps(report))
"""


def test_registered_modules_give_what_a_plain_import_gives():
    # ``install`` reads each function off sys.modules and patches every module
    # namespace that holds that object, its defining module's among them
    traced = sorted({(module, attr) for module, attr, _ in TRACED.values()})
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", _SAME_FUNCTIONS, json.dumps(traced)], capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout) == {f"{module}.{attr}": [True, True, True] for module, attr in traced}
