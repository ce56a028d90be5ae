"""Every demo runs cleanly, every name it imports from atckit exists, and
so does every name in ``__all__``.

Each demo runs in a fresh interpreter from an empty working directory
and must exit 0 with nothing on stderr; the four take about 2 s
together. Parsing them names a renamed or deleted import directly. A
stale ``__all__`` entry breaks only ``from atckit import *``, so it is
checked on its own.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atckit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _atckit_imports(path: Path):
    """(module, name) for each name imported from atckit; name None for ``import``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "atckit" or node.module.startswith("atckit."):
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "atckit" or alias.name.startswith("atckit."):
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 4


def _resolves(module: str, name) -> bool:
    namespace = importlib.import_module(module)
    if name is None or hasattr(namespace, name):
        return True
    try:  # ``from atckit import cli`` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    for module, name in _atckit_imports(demo):
        assert _resolves(module, name), f"{demo.name}: {module} has no {name!r}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


def test_all_names_exist_once():
    assert len(atckit.__all__) == len(set(atckit.__all__))
    missing = [name for name in atckit.__all__ if not hasattr(atckit, name)]
    assert not missing
