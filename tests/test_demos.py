"""Every name a demo imports from atckit exists, and so does every name in ``__all__``.

The demos are not run here (they take about as long as the rest of the
suite); parsing them is enough to catch a renamed or deleted import. A
stale ``__all__`` entry breaks only ``from atckit import *``, so it is
checked on its own.
"""

import ast
import importlib
from pathlib import Path

import pytest

import atckit

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


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


def test_all_names_exist_once():
    assert len(atckit.__all__) == len(set(atckit.__all__))
    missing = [name for name in atckit.__all__ if not hasattr(atckit, name)]
    assert not missing
