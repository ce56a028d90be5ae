"""The benchmark's per-layer tracing still finds what it wraps in atckit.

``perfbench/tracing.py`` patches atckit functions by module and name and
reads ``config.n_boot`` from ``run_benchmark``'s third argument. It is
loaded here from its file, without installing anything, so a rename or a
signature change in atckit fails this test instead of ``--trace 1``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import atckit.harness

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


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
